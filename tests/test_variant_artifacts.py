"""Per-variant stage artifacts: a background shared by many benchmarks is
recorded, transformed and generalized once per store.

Recording, transformation and generalization key each program variant's
artifact by that variant alone (``RunContext.key_material(variant)``),
so these tests pin what that must not change: every result, solver
counter and virtual recording time of a store-backed sweep equals a
storeless run's, cold and warm, and a failure surfaces in the order a
full computation would raise it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.capture.registry import make_capture
from repro.core.generalize import GeneralizationError
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.recording import Recorder
from repro.core.result import BenchmarkResult, Classification
from repro.core.stages import Pipeline, Stage, default_pipeline
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import TABLE2_ORDER, get_benchmark
from tests.conftest import stage_files as stage_artifacts

TOOLS = ("spade", "opus", "camflow")


def deterministic_view(result: BenchmarkResult) -> str:
    """The result payload without wall-clock fields, plus the counters a
    replay must reproduce (solver row, virtual stage times)."""
    payload = result.to_payload()
    del payload["timings"]
    timings = result.timings
    return json.dumps({
        "result": payload,
        "solver": timings.solver_row(),
        "virtual_recording": timings.virtual_recording,
        "virtual_transformation": timings.virtual_transformation,
        "virtual_generalization": timings.virtual_generalization,
        "virtual_comparison": timings.virtual_comparison,
    }, sort_keys=True)


def shared_background_pair():
    """Two Table 2 benchmarks whose background programs are identical."""
    seen = {}
    for name in TABLE2_ORDER:
        background = get_benchmark(name).variant(False)
        if background in seen:
            return seen[background], name
        seen[background] = name
    raise AssertionError("no two Table 2 benchmarks share a background")


class TestVariants:
    def test_a_variant_leaves_out_the_name_only(self):
        program = get_benchmark("rename")
        fg, bg = program.variant(True), program.variant(False)
        assert fg.ops == program.foreground_ops()
        assert bg.ops == program.background_ops()
        assert fg.setup == bg.setup == program.setup
        assert "rename" not in repr(bg)

    def test_variant_keys_are_shared_run_keys_are_not(self):
        first, second = shared_background_pair()
        config = PipelineConfig(tool="spade", seed=5)
        a = ProvMark(config=config)._make_context(get_benchmark(first), None)
        b = ProvMark(config=config)._make_context(get_benchmark(second), None)
        assert a.key_material("bg") == b.key_material("bg")
        assert a.key_material("fg") != b.key_material("fg")
        assert a.key_material() != b.key_material()
        assert "program" not in a.key_material("bg")

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_a_variant_recorded_alone_is_byte_identical(self, rate):
        program = get_benchmark("rename")
        whole = Recorder(
            make_capture("spade"), trials=3, seed=9, truncation_rate=rate
        ).record(program).to_payload()
        for foreground, key in ((True, "foreground"), (False, "background")):
            alone = Recorder(
                make_capture("spade"), trials=3, seed=9, truncation_rate=rate
            ).record_variant(program, foreground)
            assert [t.to_payload() for t in alone] == whole[key]


class TestSweepIdentity:
    @pytest.mark.parametrize("seed", [5, 2019])
    def test_store_backed_sweep_matches_storeless(self, tmp_path, seed):
        """Every Table 2 cell, cold and warm over one store, equals the
        storeless run; cold runs miss every stage, warm runs hit them."""
        for tool in TOOLS:
            plain = ProvMark(tool=tool, seed=seed)
            stored = ProvMark(tool=tool, seed=seed, store_path=str(tmp_path))
            cold = [stored.run_benchmark(name) for name in TABLE2_ORDER]
            warm = [stored.run_benchmark(name) for name in TABLE2_ORDER]
            for name, c, w in zip(TABLE2_ORDER, cold, warm):
                expected = deterministic_view(plain.run_benchmark(name))
                assert deterministic_view(c) == expected, (name, tool)
                assert deterministic_view(w) == expected, (name, tool)
                assert c.timings.store_row() == {
                    "store_hits": 0, "store_misses": 4,
                }
                assert w.timings.store_row() == {
                    "store_hits": 4, "store_misses": 0,
                }

    def test_shared_background_stored_once(self, tmp_path, monkeypatch):
        first, second = shared_background_pair()
        provmark = ProvMark(tool="spade", seed=5, store_path=str(tmp_path))
        provmark.run_benchmark(first)
        trials = []
        real_run = ProgramExecutor.run

        def counting(executor, foreground):
            trials.append(foreground)
            return real_run(executor, foreground)

        monkeypatch.setattr(ProgramExecutor, "run", counting)
        provmark.run_benchmark(second)
        assert trials == [True, True]  # the foreground's trials only
        # two run files, each with its foreground's generalization, and
        # the one background's file
        assert len(stage_artifacts(tmp_path, "generalization")) == 3
        assert len(stage_artifacts(tmp_path, "comparison")) == 2


class TestForwardingWrapper:
    """A wrapper that copies only ``name``/``inputs``/``outputs``/
    ``timing_field`` and forwards ``run``/``restore`` (as a tracing
    harness does) takes the per-variant path unchanged."""

    class Forwarding(Stage):
        def __init__(self, inner: Stage) -> None:
            self.inner = inner
            self.name = inner.name
            self.inputs = inner.inputs
            self.outputs = inner.outputs
            self.timing_field = inner.timing_field

        def run(self, ctx):
            return self.inner.run(ctx)

        def restore(self, ctx, payload):
            return self.inner.restore(ctx, payload)

    def test_wrapped_pipeline_shares_backgrounds(self, tmp_path):
        first, second = shared_background_pair()
        plain = ProvMark(tool="opus", seed=5)
        wrapped = ProvMark(tool="opus", seed=5, store_path=str(tmp_path))
        wrapped.pipeline = Pipeline(
            [self.Forwarding(s) for s in default_pipeline().stages]
        )
        for name in (first, second):
            assert deterministic_view(wrapped.run_benchmark(name)) == (
                deterministic_view(plain.run_benchmark(name))
            )
        assert len(stage_artifacts(tmp_path, "generalization")) == 3


class TestFailureOrder:
    """A stored failure of a later variant surfaces only after the
    earlier variants were restored or computed."""

    def prepare(self, store: Path) -> None:
        """A stored failed background generalization, and no foreground
        generalization, comparison or result artifact (no run file)."""
        ProvMark(tool="spade", seed=5, store_path=str(store)).run_benchmark(
            "open"
        )
        background = repr(get_benchmark("open").variant(False))
        for path, wrapper in stage_artifacts(store, "generalization"):
            if path.parent.name == "run":
                path.unlink()
                continue
            assert wrapper["key"]["variant"] == background
            # still covering the background's recording and transformation
            section = wrapper["payload"]["generalization"]
            del section["outcome"]
            section.update(failed="background boom", solver={})
            path.write_text(json.dumps(wrapper))

    def test_background_failure_after_foreground_computed(self, tmp_path):
        self.prepare(tmp_path)
        result = ProvMark(
            tool="spade", seed=5, store_path=str(tmp_path)
        ).run_benchmark("open")
        assert result.classification is Classification.FAILED
        assert result.error == "background boom"
        assert result.foreground is None and result.background is None
        # the foreground recorded, transformed and generalized; the
        # background's failure covers its recording and transformation
        assert result.timings.store_row() == {
            "store_hits": 0, "store_misses": 3,
        }
        # the computed foreground was stored beside the failure
        assert len(stage_artifacts(tmp_path, "generalization")) == 2

    def test_own_foreground_failure_wins(self, tmp_path, monkeypatch):
        self.prepare(tmp_path)

        def failing(*args, **kwargs):
            raise GeneralizationError("foreground boom")

        monkeypatch.setattr(
            "repro.core.stages.generalize_trials", failing
        )
        result = ProvMark(
            tool="spade", seed=5, store_path=str(tmp_path)
        ).run_benchmark("open")
        assert result.error == "foreground boom"
