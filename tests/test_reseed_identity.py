"""A reseeded trace is the trace a run at that seed records.

A trace memo runs each program variant's kernel once, logging every
value the machine's clock and id allocator draw, and makes every other
trial seed's trace by replaying those draws from that seed and writing
the new values into a copy (``TraceTemplate.at``).  The differential
oracle is the kernel itself: for every builtin (Table 2, the extended
suite, scale8 and scale32), for synthesized specs, and for crafted
programs that pass pids, pipes and socket pairs around, the reseeded
trace equals ``ProgramExecutor(program, seed).run(foreground).trace``
event for event, with the same ``boot_id`` and ``machine_id``, and the
replay leaves its RNG where the real machine's is after the run.

A program whose pid values reach a syscall other than as a PID-kind
``$variable`` is not reseeded: the memo runs the kernel for each of its
trials, so it records what a run records, failures included.
"""

from __future__ import annotations

import pytest

from repro.api.specs import compile_spec
from repro.core.recording import TraceMemo
from repro.kernel import Kernel
from repro.suite import executor
from repro.suite.executor import (
    ExecutionError, ProgramExecutor, TraceTemplate, reseedable,
)
from repro.suite.extended import EXTENDED_BENCHMARKS
from repro.suite.program import Op, Program, create_file
from repro.suite.registry import TABLE2_ORDER, get_benchmark
from repro.synth.generator import SpecGenerator

#: the template's trial seed, and the seeds reseeded from it
TEMPLATE_SEED = 11
SEEDS = (5, 6, 2019)
BUILTINS = TABLE2_ORDER + tuple(EXTENDED_BENCHMARKS) + ("scale8", "scale32")


@pytest.fixture
def machines(monkeypatch):
    """Every kernel the executor boots while the test runs."""
    booted = []

    class Booted(Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            booted.append(self)

    monkeypatch.setattr(executor, "Kernel", Booted)
    return booted


def mismatches(program, foreground, seeds, machines):
    """The seeds whose reseeded trace or RNG state differs from a run."""
    assert reseedable(program.variant(foreground)), program.name
    template = TraceTemplate(program, foreground, TEMPLATE_SEED)
    wrong = []
    for seed in seeds:
        fresh = ProgramExecutor(program, seed).run(foreground).trace
        _, _, rng = template.draws.replay(seed)
        reseeded = template.at(seed)
        # Trace equality covers boot_id, machine_id and every event
        if reseeded != fresh or rng.getstate() != machines[-1].rng.getstate():
            wrong.append((program.name, foreground, seed))
    return wrong


@pytest.mark.parametrize("foreground", [True, False], ids=["fg", "bg"])
@pytest.mark.parametrize("name", BUILTINS)
def test_a_builtin_reseeds_to_its_run(name, foreground, machines):
    assert mismatches(get_benchmark(name), foreground, SEEDS, machines) == []


def test_synthesized_specs_reseed_to_their_runs(machines):
    specs = SpecGenerator(seed=2019, max_ops=8).generate_many(300)
    wrong = []
    for spec in specs:
        program = compile_spec(spec)
        for foreground in (True, False):
            wrong += mismatches(program, foreground, SEEDS[:2], machines)
    assert wrong == []


def crafted(name, ops):
    return Program(name=name, ops=tuple(ops), setup=(create_file("a.txt"),))


CRAFTED = [
    crafted("getpid_kill", [
        Op("getpid", result="me"),
        Op("fork", result="child"),
        Op("kill", ("$child", "SIGKILL")),
        Op("getpid", target=True),
        Op("kill", ("$me", "SIGUSR1"), target=True),
    ]),
    crafted("fork_kill", [
        Op("fork"),
        Op("clone", ("CLONE_VM|SIGCHLD",), result="cloned"),
        Op("kill", ("$cloned", "SIGTERM"), target=True),
        Op("kill", ("$child", "SIGUSR1"), target=True),
        Op("kill", ("$self", "SIGKILL"), target=True),
    ]),
    crafted("vfork_kill", [
        Op("vfork", result="v"),
        Op("open", ("a.txt", "O_RDONLY"), result="fd"),
        Op("vfork", target=True),
        Op("kill", ("$v", "SIGUSR1"), target=True),
    ]),
    crafted("pipe_ids", [
        Op("pipe", result="p"),
        Op("pipe2", ("O_CLOEXEC",)),
        Op("write", ("$p_w", b"through"), target=True),
        Op("tee", ("$p_r", "$pipe_w", 4), target=True),
        Op("dup", ("$p_r",), result="copy", target=True),
        Op("fstat", ("$copy",), target=True),
        Op("close", ("$p_r",), target=True),
        Op("close", ("$copy",), target=True),
        Op("close", ("$pipe_w",), target=True),
    ]),
    crafted("socketpair_ids", [
        Op("socketpair", result="s"),
        Op("socketpair", target=True),
        Op("send", ("$s_a", b"covert"), target=True),
        Op("recv", ("$s_b", 64), target=True),
        Op("dup2", ("$sock_b", 20), target=True),
        Op("fstat", ("$sock_a",), target=True),
        Op("close", ("$s_a",), target=True),
        Op("close", ("$s_b",), target=True),
    ]),
]


@pytest.mark.parametrize("foreground", [True, False], ids=["fg", "bg"])
@pytest.mark.parametrize("program", CRAFTED, ids=lambda p: p.name)
def test_a_crafted_program_reseeds_to_its_run(program, foreground, machines):
    assert mismatches(program, foreground, SEEDS, machines) == []


def benchmark_pid(seed):
    """The benchmark process's pid in a run at ``seed``."""
    run = ProgramExecutor(crafted("probe", [Op("getpid")]), seed).run(True)
    getpid = run.trace.audit[-2]
    assert getpid.syscall == "getpid"
    return getpid.retval


def count_runs(monkeypatch):
    runs = []
    real = ProgramExecutor.run

    def counting(executor, foreground):
        runs.append(executor.seed)
        return real(executor, foreground)

    monkeypatch.setattr(ProgramExecutor, "run", counting)
    return runs


class TestIneligible:
    def test_a_literal_pid_runs_the_kernel_for_every_trial(self, monkeypatch):
        # a literal pid names the benchmark process at one seed only
        program = crafted("literal_kill", [
            Op("open", ("a.txt", "O_RDONLY")),
            Op("kill", (benchmark_pid(TEMPLATE_SEED), "SIGUSR1"), target=True),
        ])
        assert not reseedable(program.variant(True))
        assert reseedable(program.variant(False))
        runs = count_runs(monkeypatch)
        memo = TraceMemo()
        seeds = (TEMPLATE_SEED,) + SEEDS
        raised = []
        for seed in seeds:
            try:
                trace = memo.trace(program, True, seed)
            except ExecutionError:
                raised.append(seed)
                with pytest.raises(ExecutionError):
                    ProgramExecutor(program, seed).run(True)
            else:
                assert trace == ProgramExecutor(program, seed).run(True).trace
        # the pid's own seed signals it, the others find no such process
        assert raised == list(SEEDS)
        # each trial ran the kernel, beside each reference run
        assert runs == [seed for seed in seeds for _ in range(2)]

    def test_a_pid_in_another_position_runs_the_kernel(self, monkeypatch):
        program = crafted("pid_as_mask", [
            Op("fork", result="child"),
            Op("umask", ("$child",), target=True),
        ])
        assert not reseedable(program.variant(True))
        runs = count_runs(monkeypatch)
        memo = TraceMemo()
        for seed in SEEDS:
            assert memo.trace(program, True, seed) == (
                ProgramExecutor(program, seed).run(True).trace
            )
        # each trial ran the kernel, beside each reference run
        assert len(runs) == 2 * len(SEEDS)

    @pytest.mark.parametrize("ops", [
        [Op("getpid", result="me"), Op("read", (3, "$me"))],
        [Op("fork", result="fd"), Op("close", ("$fd",), expect_success=False)],
        [Op("open", ("a.txt", "O_RDONLY"), result="fd"),
         Op("kill", ("$fd", "SIGUSR1"), expect_success=False)],
        [Op("kill", ("self", "SIGUSR1"))],
    ], ids=["pid_as_length", "pid_as_fd", "fd_as_pid", "string_as_pid"])
    def test_other_pid_flows_are_ineligible(self, ops):
        assert not reseedable(crafted("flow", ops).variant(True))

    def test_a_rebound_pid_variable_is_no_pid(self):
        program = crafted("rebound", [
            Op("fork", result="x"),
            Op("open", ("a.txt", "O_RDONLY"), result="x"),
            Op("close", ("$x",), target=True),
        ])
        assert reseedable(program.variant(True))
