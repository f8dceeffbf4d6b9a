"""Tests for the extensions beyond the paper's core pipeline:
socket benchmarks, sequence benchmarks, SPADE Neo4j storage, and the
config.ini profiles."""

import pytest

from repro import PipelineConfig, ProvMark
from repro.capture.spade import SpadeCapture, SpadeConfig
from repro.config import (
    DEFAULT_PROFILES,
    ProfileError,
    default_config_ini,
    get_profile,
    load_profiles,
)
from repro.core.result import Classification
from repro.kernel import Kernel
from repro.suite.extended import SEQUENCE_BENCHMARKS, SOCKET_BENCHMARKS
from repro.suite.registry import get_benchmark


class TestSocketSyscalls:
    @pytest.fixture
    def kernel(self):
        return Kernel(seed=2)

    @pytest.fixture
    def proc(self, kernel):
        return kernel.process(kernel.sys_fork(kernel.shell))

    def test_socketpair_roundtrip(self, kernel, proc):
        kernel.sys_socketpair(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        assert kernel.sys_send(proc, fds["end_a"], b"abc") == 3
        assert kernel.sys_recv(proc, fds["end_b"], 10) == 3

    def test_directional_buffers(self, kernel, proc):
        kernel.sys_socketpair(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        kernel.sys_send(proc, fds["end_a"], b"to_b")
        # end_a cannot read its own outgoing bytes
        assert kernel.sys_recv(proc, fds["end_a"], 10) == 0
        assert kernel.sys_recv(proc, fds["end_b"], 10) == 4

    def test_socket_hooks_emitted(self, kernel, proc):
        kernel.sys_socketpair(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        kernel.sys_send(proc, fds["end_a"], b"x")
        hooks = {e.hook for e in kernel.trace.lsm}
        assert {"socket_create", "socket_socketpair", "socket_sendmsg"} <= hooks

    def test_send_on_non_socket_fails(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "/tmp/f.txt", "O_RDWR")
        assert kernel.sys_send(proc, fd, b"x") == -1


class TestSocketBenchmarks:
    @pytest.mark.parametrize("name", sorted(SOCKET_BENCHMARKS))
    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_expectations(self, tool, name):
        result = ProvMark(tool=tool, seed=6).run_benchmark(name)
        expected, _ = SOCKET_BENCHMARKS[name].expectation(tool)
        assert result.classification.value == expected

    def test_registered_in_global_lookup(self):
        assert get_benchmark("socketpair").name == "socketpair"

    def test_camflow_send_shows_data_flow(self):
        result = ProvMark(tool="camflow", seed=6).run_benchmark("send")
        generated = [
            e for e in result.target_graph.edges()
            if e.label == "wasGeneratedBy"
        ]
        assert generated  # the socket entity version written by the task


class TestSequenceBenchmarks:
    @pytest.mark.parametrize("name", sorted(SEQUENCE_BENCHMARKS))
    def test_sequences_ok_everywhere(self, name):
        for tool in ("spade", "opus", "camflow"):
            result = ProvMark(tool=tool, seed=6).run_benchmark(name)
            assert result.classification is Classification.OK, (tool, name)

    def test_seq_copy_bigger_than_single_call(self):
        provmark = ProvMark(tool="spade", seed=6)
        single = provmark.run_benchmark("creat")
        sequence = provmark.run_benchmark("seq_copy")
        assert sequence.target_graph.size > single.target_graph.size


class TestSpadeNeo4jStorage:
    def test_spn_profile_runs(self):
        provmark = ProvMark(
            capture=SpadeCapture(SpadeConfig(storage="neo4j")),
            config=PipelineConfig(tool="spade", seed=3),
        )
        result = provmark.run_benchmark("open")
        assert result.classification is Classification.OK

    def test_spn_matches_spg_structure(self):
        spg = ProvMark(tool="spade", seed=3).run_benchmark("open")
        spn = ProvMark(
            capture=SpadeCapture(SpadeConfig(storage="neo4j")),
            config=PipelineConfig(tool="spade", seed=3),
        ).run_benchmark("open")
        assert (
            spg.target_graph.structural_signature()
            == spn.target_graph.structural_signature()
        )

    def test_spn_transformation_slower_than_spg(self):
        spg = ProvMark(tool="spade", seed=3).run_benchmark("open")
        spn = ProvMark(
            capture=SpadeCapture(SpadeConfig(storage="neo4j")),
            config=PipelineConfig(tool="spade", seed=3),
        ).run_benchmark("open")
        # the virtual clock's Neo4j start-up, paid per trial graph
        assert (
            spn.timings.virtual_transformation
            > spg.timings.virtual_transformation
        )

    def test_unknown_storage_rejected(self):
        with pytest.raises(ValueError):
            SpadeCapture(SpadeConfig(storage="mysql"))


class TestProfiles:
    def test_default_profiles_cover_paper_cli(self):
        assert set(DEFAULT_PROFILES) == {"spg", "spn", "opu", "cam"}

    def test_camflow_profile_filters_graphs(self):
        profile = get_profile("cam")
        assert profile.filtergraphs is True
        assert profile.trials == 5

    def test_profile_builds_working_pipeline(self):
        result = get_profile("spg").make_provmark(seed=4).run_benchmark("open")
        assert result.classification is Classification.OK

    def test_ini_roundtrip(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(default_config_ini())
        profiles = load_profiles(path)
        assert profiles == DEFAULT_PROFILES

    def test_custom_profile(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text(
            "[fast]\nstage1tool = camflow\nstage2handler = provjson\n"
            "filtergraphs = false\ntrials = 3\n"
        )
        profile = get_profile("fast", config_path=path)
        assert profile.trials == 3
        assert profile.filtergraphs is False

    def test_unknown_profile_rejected(self):
        with pytest.raises(ProfileError):
            get_profile("nope")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ProfileError):
            load_profiles(tmp_path / "ghost.ini")

    def test_invalid_handler_combination(self):
        from repro.config import ToolProfile
        bad = ToolProfile("x", "opus", "dot", False, 2)
        with pytest.raises(ProfileError):
            bad.make_capture()

    def test_malformed_profile_rejected(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[broken]\nstage2handler = dot\n")
        with pytest.raises(ProfileError):
            load_profiles(path)
