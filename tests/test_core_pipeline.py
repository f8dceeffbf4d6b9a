"""End-to-end pipeline tests."""

import pytest

from repro import PipelineConfig, ProvMark
from repro.capture.camflow import CamFlowCapture, CamFlowConfig
from repro.capture.registry import tool_profile
from repro.core.result import Classification
from repro.suite.program import Op, Program


class TestRunBenchmark:
    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_open_is_ok_everywhere(self, tool):
        result = ProvMark(tool=tool, seed=5).run_benchmark("open")
        assert result.classification is Classification.OK
        assert result.target_graph.node_count > 0
        assert result.tool == tool
        assert result.benchmark == "open"

    def test_empty_notes_propagated(self):
        result = ProvMark(tool="camflow", seed=5).run_benchmark("close")
        assert result.classification is Classification.EMPTY
        assert result.note == "LP"

    def test_dv_note_on_vfork(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("vfork")
        assert result.classification is Classification.OK
        assert result.note == "DV"

    def test_generalized_graphs_exposed(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("open")
        assert result.foreground is not None
        assert result.background is not None
        assert result.foreground.size > result.background.size

    def test_generalized_graphs_have_no_volatile_props(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("open")
        for node in result.foreground.nodes():
            assert "start time" not in node.props
            assert "pid" not in node.props

    def test_timings_populated(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("open")
        timings = result.timings
        assert timings.transformation > 0
        assert timings.generalization > 0
        assert timings.comparison >= 0
        assert timings.virtual_recording > 50  # 4 trials x ~20s

    def test_custom_program_accepted(self):
        program = Program(
            name="custom",
            ops=(
                Op("creat", ("made.txt", 0o644), result="fd", target=True),
                Op("close", ("$fd",), target=True),
            ),
        )
        result = ProvMark(tool="spade", seed=5).run_benchmark(program)
        assert result.classification is Classification.OK

    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_out_of_range_mode_in_a_python_program(self, tool):
        """No spec validation sees a Python-built program: the kernel
        masks the mode (as Linux does) and the stat that renders it runs."""
        program = Program(
            name="chmod_all_bits",
            ops=(
                Op("creat", ("f.txt", 0o644), result="fd"),
                Op("chmod", ("f.txt", -1), target=True),
                Op("stat", ("f.txt",), target=True),
            ),
        )
        result = ProvMark(tool=tool, seed=5).run_benchmark(program)
        assert result.classification is Classification.OK

    def test_run_many(self):
        results = ProvMark(tool="spade", seed=5).run_many(["open", "dup"])
        assert [r.classification.value for r in results] == ["ok", "empty"]


class TestConfig:
    def test_tool_profiles_resolved(self):
        config = PipelineConfig(tool="camflow")
        assert config.resolved_trials() == tool_profile("camflow").trials
        assert config.resolved_filtergraphs() is True

    def test_explicit_values_override_profile(self):
        config = PipelineConfig(tool="camflow", trials=3, filtergraphs=False)
        assert config.resolved_trials() == 3
        assert config.resolved_filtergraphs() is False

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            ProvMark(tool="mystery")


class TestFlakinessHandling:
    def test_spade_truncation_recovered_with_more_trials(self):
        config = PipelineConfig(
            tool="spade", seed=8, trials=6, truncation_rate=0.3
        )
        result = ProvMark(config=config).run_benchmark("open")
        assert result.classification is Classification.OK

    def test_camflow_jitter_filtered(self):
        capture = CamFlowCapture(CamFlowConfig(structural_jitter=0.4))
        config = PipelineConfig(tool="camflow", seed=8, trials=6)
        result = ProvMark(capture=capture, config=config).run_benchmark("open")
        assert result.classification is Classification.OK

    def test_jitter_without_filtering_needs_similarity_classes(self):
        capture = CamFlowCapture(CamFlowConfig(structural_jitter=0.4))
        config = PipelineConfig(
            tool="camflow", seed=8, trials=6, filtergraphs=False
        )
        result = ProvMark(capture=capture, config=config).run_benchmark("open")
        # Similarity classing alone still finds a consistent pair.
        assert result.classification is Classification.OK

    def test_hopeless_recording_reports_failure(self):
        capture = CamFlowCapture(CamFlowConfig(structural_jitter=1.0))
        # Every trial jittered: with filtering on, nothing survives.
        config = PipelineConfig(tool="camflow", seed=8, trials=2)
        result = ProvMark(capture=capture, config=config).run_benchmark("open")
        assert result.classification is Classification.FAILED
        assert result.error


class TestAspEngineEndToEnd:
    def test_small_benchmark_via_asp(self):
        config = PipelineConfig(tool="spade", seed=5, engine="asp")
        result = ProvMark(config=config).run_benchmark("setresgid")
        assert result.classification is Classification.EMPTY
