"""Staged pipeline kernel tests: composition, context flow, timings."""

import importlib.util
from pathlib import Path

import pytest

from repro import ProvMark
from repro.capture.spade import SpadeCapture
from repro.core.pipeline import PipelineConfig
from repro.core.result import StageTimings
from repro.core.stages import (
    Pipeline,
    PipelineDefinitionError,
    RecordingStage,
    RunContext,
    Stage,
    StageFailure,
    TransformationStage,
    default_pipeline,
)
from repro.suite.registry import get_benchmark


def make_context(**overrides) -> RunContext:
    defaults = dict(
        program=get_benchmark("open"),
        capture=SpadeCapture(),
        tool="spade",
        trials=2,
        filtergraphs=False,
        engine="native",
        seed=5,
        truncation_rate=0.0,
        fg_pair_policy="smallest",
        bg_pair_policy="smallest",
    )
    defaults.update(overrides)
    return RunContext(**defaults)


class TestComposition:
    def test_default_pipeline_shape(self):
        pipeline = default_pipeline()
        assert [s.name for s in pipeline.stages] == [
            "recording", "transformation", "generalization", "comparison",
        ]

    def test_inputs_must_be_produced_upstream(self):
        with pytest.raises(PipelineDefinitionError, match="needs"):
            Pipeline([TransformationStage(), RecordingStage()])

    def test_every_declared_input_is_satisfied(self):
        produced = set()
        for stage in default_pipeline().stages:
            assert set(stage.inputs) <= produced
            produced.update(stage.outputs)

    def test_custom_stage_composes(self):
        class CountingStage(Stage):
            name = "counting"
            inputs = ("session",)
            outputs = ()
            timing_field = "transformation"
            seen = None

            def run(self, ctx):
                CountingStage.seen = len(ctx.session.foreground_trials)
                return None

            def restore(self, ctx, payload):  # pragma: no cover
                raise AssertionError("uncacheable stage never restores")

        pipeline = Pipeline([RecordingStage(), CountingStage()])
        ctx = make_context()
        pipeline.run(ctx)
        assert CountingStage.seen == 2


class TestContextFlow:
    def test_products_populated_in_order(self):
        ctx = make_context()
        default_pipeline().run(ctx)
        assert ctx.failure is None
        assert len(ctx.fg_graphs) == 2 and len(ctx.bg_graphs) == 2
        assert ctx.fg_outcome is not None and ctx.bg_outcome is not None
        assert ctx.comparison is not None
        assert not ctx.comparison.is_empty

    def test_timings_credited_per_stage(self):
        ctx = make_context()
        default_pipeline().run(ctx)
        timings = ctx.timings
        assert timings.recording > 0
        assert timings.transformation > 0
        assert timings.generalization > 0
        assert timings.comparison >= 0
        assert timings.virtual_recording > 50

    def test_failure_short_circuits(self):
        class ExplodingStage(Stage):
            name = "exploding"
            inputs = ("session",)
            outputs = ()
            timing_field = "transformation"

            def run(self, ctx):
                raise StageFailure("nope")

            def restore(self, ctx, payload):  # pragma: no cover
                raise AssertionError("never cached")

        ran = []

        class NeverStage(Stage):
            name = "never"
            inputs = ()
            outputs = ()
            timing_field = "comparison"

            def run(self, ctx):  # pragma: no cover
                ran.append(True)
                return None

            def restore(self, ctx, payload):  # pragma: no cover
                raise AssertionError("never cached")

        pipeline = Pipeline([RecordingStage(), ExplodingStage(), NeverStage()])
        ctx = make_context()
        pipeline.run(ctx)
        assert ctx.failure == "nope"
        assert not ran

    def test_key_material_covers_resolved_config(self):
        material = make_context().key_material()
        assert material["program"]["name"] == "open"
        assert material["tool"] == "spade"
        assert material["trials"] == 2
        assert material["seed"] == 5
        assert "max_workers" not in material  # cannot change results

    def test_key_material_distinguishes_custom_programs(self):
        from repro.suite.program import Op, Program
        custom = Program(
            name="open",  # same name, different content
            ops=(Op("creat", ("x.txt", 0o644), result="fd", target=True),),
        )
        stock = make_context().key_material()
        renamed = make_context(program=custom).key_material()
        assert stock["program"]["fingerprint"] != renamed["program"]["fingerprint"]


class TestDriverEquivalence:
    """The staged kernel must be invisible in driver-level results."""

    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_results_match_across_drivers(self, tool):
        a = ProvMark(tool=tool, seed=5).run_benchmark("open")
        b = ProvMark(tool=tool, seed=5).run_benchmark("open")
        assert a.target_graph == b.target_graph
        assert a.foreground == b.foreground
        assert a.background == b.background
        assert a.timings.solver_row() == b.timings.solver_row()

    def test_stage_timings_fields_complete(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("open")
        payload = result.timings.to_payload()
        assert set(payload) == set(StageTimings().to_payload())
        assert set(result.timings.store_row()) == {
            "store_hits", "store_misses",
        }

    def test_bench_timings_payload_carries_every_field(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        timings = ProvMark(tool="spade", seed=5).run_benchmark("open").timings
        payload = bench.timings_payload(timings)
        assert set(payload) == set(StageTimings().to_payload()) | {"processing"}
        assert payload["recording"] == timings.recording
        assert payload["processing"] == timings.processing

    def test_comparison_failure_keeps_generalized_graphs(self):
        # bg larger than fg: embedding must fail in the comparison stage,
        # and the failure result must still expose the generalized graphs.
        config = PipelineConfig(
            tool="spade", seed=8,
            fg_pair_policy="smallest", bg_pair_policy="largest",
        )
        result = ProvMark(config=config).run_benchmark("execve")
        if result.classification.value == "failed":
            assert result.foreground is not None
            assert result.background is not None
