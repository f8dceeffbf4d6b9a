"""Capture-backend plugin registry tests."""

import pytest

from repro.capture import make_capture
from repro.capture.registry import (
    BackendProfile,
    UnknownToolError,
    get_backend,
    iter_backends,
    register_tool,
    registered_tools,
    tool_profile,
    unregister_tool,
)
from repro.capture.spade import SpadeCapture
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.result import Classification


class EchoCapture(SpadeCapture):
    """A plugin backend for tests: SPADE's behaviour, its own name."""

    name = "echo"


@pytest.fixture
def echo_tool():
    register_tool("echo", EchoCapture, BackendProfile(
        trials=3, filtergraphs=False, description="test plugin",
    ))
    try:
        yield
    finally:
        unregister_tool("echo")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(registered_tools()) == {
            "spade", "opus", "camflow", "spade-camflow",
        }

    def test_profiles_match_paper_defaults(self):
        assert tool_profile("camflow").trials == 5
        assert tool_profile("camflow").filtergraphs is True
        assert tool_profile("spade").trials == 2
        assert tool_profile("spade").filtergraphs is False

    def test_unknown_tool_error_lists_registered(self):
        with pytest.raises(UnknownToolError, match="registered tools"):
            get_backend("dtrace")

    def test_make_capture_uses_same_error(self):
        with pytest.raises(UnknownToolError, match="registered tools"):
            make_capture("dtrace")

    def test_duplicate_registration_rejected(self, echo_tool):
        with pytest.raises(ValueError, match="already registered"):
            register_tool("echo", EchoCapture)

    def test_replace_allows_override(self, echo_tool):
        register_tool("echo", EchoCapture, BackendProfile(trials=7),
                      replace=True)
        assert tool_profile("echo").trials == 7

    def test_iter_backends_sorted(self):
        names = [backend.name for backend in iter_backends()]
        assert names == sorted(names)


class TestPluginEndToEnd:
    def test_pipeline_config_reads_plugin_profile(self, echo_tool):
        config = PipelineConfig(tool="echo")
        assert config.resolved_trials() == 3
        assert config.resolved_filtergraphs() is False

    def test_unknown_tool_resolution_raises_uniformly(self):
        with pytest.raises(UnknownToolError, match="registered tools"):
            PipelineConfig(tool="dtrace").resolved_trials()

    def test_plugin_tool_runs_full_pipeline(self, echo_tool):
        result = ProvMark(tool="echo", seed=5).run_benchmark("open")
        assert result.classification is Classification.OK
        assert result.tool == "echo"

    def test_spade_camflow_hybrid_runs_via_registry(self):
        result = ProvMark(tool="spade-camflow", seed=5).run_benchmark("open")
        assert result.classification is Classification.OK
        assert result.tool == "spade-camflow"

    def test_cli_tool_choices_follow_registry(self, echo_tool):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["run", "--tool", "echo", "--benchmark", "open"]
        )
        assert args.tool == "echo"

    def test_cli_list_tools(self, capsys, echo_tool):
        from repro.cli import main
        assert main(["list", "--tools"]) == 0
        out = capsys.readouterr().out
        assert "echo" in out and "test plugin" in out
        assert "spade-camflow" in out
        assert "trials=5" in out  # camflow profile surfaced
