"""Remaining-surface tests: trace windows, capture base, machine guards,
tool registry, and CLI paths not covered elsewhere."""

import random

import pytest

from repro.capture import make_capture, registered_tools
from repro.capture.spade import SpadeCapture
from repro.cli import main
from repro.kernel import Kernel, KernelError
from repro.suite.executor import run_trial
from repro.suite.registry import get_benchmark


class TestTraceWindows:
    def test_window_filters_all_streams(self):
        result = run_trial(get_benchmark("open"), True, seed=1)
        trace = result.trace
        first_seq = trace.audit[0].seq
        window = trace.window(first_seq, first_seq)
        assert len(window.audit) == 1
        assert all(e.seq == first_seq for e in window.libc)
        assert window.boot_id == trace.boot_id

    def test_empty_window(self):
        result = run_trial(get_benchmark("open"), True, seed=1)
        window = result.trace.window(10**9, 10**9 + 1)
        assert window.event_count == 0

    def test_event_count_sums_streams(self):
        result = run_trial(get_benchmark("open"), True, seed=1)
        trace = result.trace
        assert trace.event_count == (
            len(trace.audit) + len(trace.libc) + len(trace.lsm)
        )


class TestCaptureBase:
    def test_recording_cost_jitters_around_nominal(self):
        capture = SpadeCapture()
        rng = random.Random(1)
        costs = [capture.recording_cost(rng).seconds for _ in range(50)]
        assert all(18.0 <= c <= 22.0 for c in costs)
        assert len(set(costs)) > 1

    def test_tool_registry_complete(self):
        assert set(registered_tools()) == {
            "spade", "opus", "camflow", "spade-camflow",
        }
        for name in registered_tools():
            capture = make_capture(name)
            assert capture.output_format in ("dot", "neo4j", "provjson")
            assert capture.recording_seconds > 0

    def test_make_capture_unknown(self):
        with pytest.raises(ValueError):
            make_capture("dtrace")


class TestMachineGuards:
    def test_syscall_on_dead_process_rejected(self):
        kernel = Kernel(seed=1)
        process = kernel.process(kernel.sys_fork(kernel.shell))
        kernel.sys_exit(process, 0)
        with pytest.raises(KernelError):
            kernel.sys_getpid(process)

    def test_unknown_pid_lookup(self):
        kernel = Kernel(seed=1)
        with pytest.raises(KernelError):
            kernel.process(424242)

    def test_shell_and_init_exist_at_boot(self):
        kernel = Kernel(seed=1)
        assert kernel.init_process.pid in kernel.processes
        assert kernel.shell.ppid == kernel.init_process.pid


class TestCliExtras:
    def test_profile_spn_via_cli(self, capsys):
        code = main(["run", "--profile", "spn", "--benchmark", "open",
                     "--seed", "3"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_profile_from_custom_config(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_text(
            "[quick]\nstage1tool = spade\nstage2handler = dot\n"
            "filtergraphs = false\ntrials = 2\n"
        )
        code = main([
            "run", "--profile", "quick", "--config", str(config),
            "--benchmark", "open", "--seed", "3",
        ])
        assert code == 0

    def test_regress_cli_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "regress", "--store", store, "--benchmarks", "open",
            "--seed", "3",
        ]) == 0
        assert main([
            "regress", "--store", store, "--benchmarks", "open",
            "--seed", "77",
        ]) == 0
        out = capsys.readouterr().out
        assert "unchanged" in out

    def test_coverage_cli(self, capsys):
        code = main(["coverage", "--benchmarks", "open", "dup", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-group coverage" in out

    def test_config_cli(self, capsys):
        assert main(["config"]) == 0
        assert "[spg]" in capsys.readouterr().out
