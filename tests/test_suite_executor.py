"""Program executor tests: staging, boilerplate, variables, expectations."""

import pytest

from repro.suite.executor import (
    STAGING_DIR, ExecutionError, ProgramExecutor, run_trial,
)
from repro.suite.program import (
    Op,
    Program,
    create_dir,
    create_fifo,
    create_file,
    create_symlink,
)
from repro.suite.registry import SUITE_REGISTRY, get_benchmark


class TestBoilerplate:
    def test_startup_sequence_present(self):
        result = run_trial(get_benchmark("open"), foreground=False, seed=1)
        syscalls = [e.syscall for e in result.trace.audit]
        assert syscalls[:3] == ["fork", "execve", "open"]  # libc open
        assert syscalls[-1] == "exit"

    def test_foreground_adds_exactly_the_target(self):
        fg = run_trial(get_benchmark("open"), True, seed=1)
        bg = run_trial(get_benchmark("open"), False, seed=1)
        fg_calls = [e.syscall for e in fg.trace.audit]
        bg_calls = [e.syscall for e in bg.trace.audit]
        assert len(fg_calls) == len(bg_calls) + 1
        assert fg_calls.count("open") == bg_calls.count("open") + 1

    def test_staging_directory_created(self):
        result = run_trial(get_benchmark("open"), True, seed=1)
        paths = [
            o.path
            for e in result.trace.audit
            for o in e.objects
            if o.path
        ]
        assert any(p.startswith(STAGING_DIR) for p in paths)


class TestVariables:
    def test_fd_variable_flows_between_ops(self):
        result = run_trial(get_benchmark("close"), True, seed=2)
        assert "id" in result.variables
        assert result.variables["id"] >= 3

    def test_pipe_binds_endpoint_variables(self):
        result = run_trial(get_benchmark("tee"), True, seed=2)
        assert {"p_r", "p_w", "q_r", "q_w"} <= set(result.variables)

    def test_self_variable_is_pid(self):
        program = Program(
            name="selfkill",
            ops=(Op("getpid", (), result="mypid", target=True),),
        )
        result = run_trial(program, True, seed=2)
        assert result.variables["mypid"] == result.variables["self"]

    def test_unbound_variable_raises(self):
        program = Program(
            name="broken", ops=(Op("close", ("$nope",), target=True),),
        )
        with pytest.raises(ExecutionError):
            run_trial(program, True, seed=1)

    def test_unknown_syscall_raises(self):
        program = Program(name="bad", ops=(Op("frobnicate", (), target=True),))
        with pytest.raises(ExecutionError):
            run_trial(program, True, seed=1)


class TestExpectations:
    def test_unexpected_failure_raises(self):
        program = Program(
            name="mustfail",
            ops=(Op("open", ("ghost.txt", "O_RDONLY"), target=True),),
        )
        with pytest.raises(ExecutionError):
            run_trial(program, True, seed=1)

    def test_expected_failure_accepted(self):
        program = Program(
            name="failok",
            ops=(
                Op("open", ("ghost.txt", "O_RDONLY"), target=True,
                   expect_success=False),
            ),
        )
        result = run_trial(program, True, seed=1)
        assert result.trace.audit[-2].errno == "ENOENT"

    def test_unexpected_success_raises(self):
        program = Program(
            name="surprise",
            setup=(create_file("exists.txt"),),
            ops=(
                Op("open", ("exists.txt", "O_RDONLY"), target=True,
                   expect_success=False),
            ),
        )
        with pytest.raises(ExecutionError):
            run_trial(program, True, seed=1)

    @pytest.mark.parametrize("setup,index,errno", [
        ((create_file("a/b"),), 0, "ENOENT"),  # missing parent
        ((create_file("a"), create_file("a/b")), 1, "ENOTDIR"),
        ((create_dir("d"), create_dir("d")), 1, "EEXIST"),
        ((create_fifo("f"), create_fifo("f")), 1, "EEXIST"),
        ((create_file("x"), create_dir("x")), 1, "EEXIST"),
    ])
    def test_unstageable_setup_raises_naming_the_action(
        self, setup, index, errno
    ):
        program = Program(name="badsetup", setup=setup,
                          ops=(Op("getpid", (), target=True),))
        with pytest.raises(ExecutionError,
                           match=rf"badsetup: setup\[{index}\] .*{errno}"):
            run_trial(program, True, seed=1)

    def test_file_under_a_symlinked_dir_stages(self):
        program = Program(
            name="linked",
            setup=(create_dir("real"), create_symlink("alias", "real"),
                   create_file("alias/f.txt")),
            ops=(Op("open", ("real/f.txt", "O_RDONLY"), target=True),),
        )
        assert run_trial(program, True, seed=1).exit_code == 0


class TestProcessOps:
    def test_vfork_child_exits_before_parent_resumes(self):
        result = run_trial(get_benchmark("vfork"), True, seed=3)
        syscalls = [e.syscall for e in result.trace.audit]
        assert syscalls.index("exit") < syscalls.index("vfork")

    def test_kill_benchmark_child_terminated(self):
        result = run_trial(get_benchmark("kill"), True, seed=3)
        kills = [e for e in result.trace.audit if e.syscall == "kill"]
        assert len(kills) == 1
        assert kills[0].success

    def test_children_reaped_in_window(self):
        result = run_trial(get_benchmark("fork"), True, seed=3)
        exits = [e for e in result.trace.audit if e.syscall == "exit"]
        assert len(exits) == 2  # benchmark process + forked child

    def test_run_as_uid_respected(self):
        result = run_trial(get_benchmark("rename_fail"), True, seed=3)
        renames = [e for e in result.trace.audit if e.syscall == "rename"]
        assert renames[0].subject.euid == 1000


class TestDeterminism:
    def test_same_seed_same_trace_shape(self):
        r1 = run_trial(get_benchmark("open"), True, seed=5)
        r2 = run_trial(get_benchmark("open"), True, seed=5)
        assert [e.syscall for e in r1.trace.audit] == [
            e.syscall for e in r2.trace.audit
        ]
        assert [e.time_ns for e in r1.trace.audit] == [
            e.time_ns for e in r2.trace.audit
        ]

    def test_different_seed_different_volatiles(self):
        r1 = run_trial(get_benchmark("open"), True, seed=5)
        r2 = run_trial(get_benchmark("open"), True, seed=6)
        assert [e.syscall for e in r1.trace.audit] == [
            e.syscall for e in r2.trace.audit
        ]
        assert r1.trace.audit[0].subject.pid != r2.trace.audit[0].subject.pid


class TestRecordingWindow:
    """Staging writes the filesystem directly and makes no event, so a
    trial's window holds every event of its kernel's trace: the trial
    hands on that trace itself, equal to the windowed copy it used to
    make."""

    @pytest.mark.parametrize("foreground", [True, False], ids=["fg", "bg"])
    @pytest.mark.parametrize("name", [name for name, _ in SUITE_REGISTRY.items()])
    def test_a_trial_is_its_kernels_own_trace(self, name, foreground, monkeypatch):
        kernels, starts = [], []
        real_start = ProgramExecutor._start_benchmark_process

        def start(self, kernel, variant):
            kernels.append(kernel)
            starts.append(kernel.seq + 1)  # the window's first event
            return real_start(self, kernel, variant)

        monkeypatch.setattr(ProgramExecutor, "_start_benchmark_process", start)
        trace = ProgramExecutor(get_benchmark(name), seed=5).run(foreground).trace
        (kernel,), (start_seq,) = kernels, starts
        assert trace is kernel.trace
        assert trace == kernel.trace.window(start_seq, kernel.seq)

    def test_events_staging_makes_stay_out_of_the_window(self, monkeypatch):
        kernels = []
        real_prepare = ProgramExecutor._prepare_staging

        def prepare(self, kernel, variant):
            real_prepare(self, kernel, variant)
            kernel.sys_getpid(kernel.shell)
            kernels.append(kernel)

        monkeypatch.setattr(ProgramExecutor, "_prepare_staging", prepare)
        trace = ProgramExecutor(get_benchmark("open"), seed=5).run(True).trace
        (kernel,) = kernels
        assert kernel.trace.audit[0].syscall == "getpid"
        assert trace == kernel.trace.window(2, kernel.seq)
        assert "getpid" not in {event.syscall for event in trace.audit}
