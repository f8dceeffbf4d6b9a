"""The kernel trace is the tool-independent input of recording.

A recording trial runs its program variant on a freshly booted kernel
and hands the trace to a capture tool.  The trace depends only on the
variant and the trial seed: two executions of one (variant, trial seed)
give equal traces, and recording a trace through any capture leaves it
equal to a fresh run's.  The trace memo a ``BenchmarkService`` shares
among the drivers it builds (so OPUS replays the traces SPADE just ran)
rests on both.  The paper's note that CamFlow can report to SPADE (§2,
§3.3; ``spade-camflow``) is the same claim: the trace is the input, the
capture is the tool.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.capture.registry import make_capture, tool_profile
from repro.core.recording import Recorder, TraceMemo
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import TABLE2_ORDER, get_benchmark

SEED = 5
TOOLS = ("spade", "opus", "camflow", "spade-camflow")


@pytest.mark.parametrize("foreground", [True, False], ids=["fg", "bg"])
@pytest.mark.parametrize("name", TABLE2_ORDER)
def test_a_variant_and_trial_seed_fix_the_trace(name, foreground):
    program = get_benchmark(name)
    trace = ProgramExecutor(program, seed=SEED).run(foreground).trace
    fresh = ProgramExecutor(program, seed=SEED).run(foreground).trace
    assert trace is not fresh
    assert trace == fresh
    assert trace.event_count > 0
    for tool in TOOLS:
        make_capture(tool).record(trace, random.Random(SEED ^ 0x5EED))
        assert trace == fresh, f"{tool} changed the trace it recorded"


class TestTraceMemo:
    def test_a_hit_replays_the_trace_a_miss_ran(self, monkeypatch):
        runs = []
        real = ProgramExecutor.run

        def counting(executor, foreground):
            runs.append((executor.program.name, foreground, executor.seed))
            return real(executor, foreground)

        monkeypatch.setattr(ProgramExecutor, "run", counting)
        memo = TraceMemo()
        first = memo.trace(get_benchmark("open"), True, SEED)
        assert memo.trace(get_benchmark("open"), True, SEED) is first
        # "link" and "open" share their background: one run serves both
        background = memo.trace(get_benchmark("open"), False, SEED)
        assert memo.trace(get_benchmark("link"), False, SEED) is background
        # another trial seed is another trial, reseeded from the first
        assert memo.trace(get_benchmark("open"), True, SEED + 1) is not first
        assert runs == [("open", True, SEED), ("open", False, SEED)]

    def test_it_holds_the_most_recently_used_traces(self):
        memo = TraceMemo()
        program = get_benchmark("open")
        held = [memo.trace(program, True, seed) for seed in range(4)]
        assert TraceMemo.CAPACITY == 4
        assert memo.trace(program, True, 0) is held[0]  # 1 is now the oldest
        memo.trace(program, True, 4)
        assert memo.trace(program, True, 0) is held[0]
        assert memo.trace(program, True, 2) is held[2]
        assert memo.trace(program, True, 1) is not held[1]

    def test_threads_sharing_it_get_the_traces_they_would_run(self):
        # more threads than cores, switching often, on overlapping keys
        programs = [get_benchmark(name) for name in ("open", "link", "creat")]
        keys = [
            (program, foreground, seed)
            for program in programs for foreground in (True, False)
            for seed in (1, 2)
        ]
        fresh = {
            key: ProgramExecutor(key[0], seed=key[2]).run(key[1]).trace
            for key in keys
        }
        memo = TraceMemo()
        errors = []

        def worker(offset):
            try:
                for step in range(60):
                    key = keys[(offset + step * 7) % len(keys)]
                    if memo.trace(*key) != fresh[key]:
                        errors.append(key)
                    assert len(memo._traces) <= TraceMemo.CAPACITY
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_trace_it_is_not_to_keep_runs_again(self):
        memo = TraceMemo()
        program = get_benchmark("open")
        # the first trial is its variant's template, held as such
        template = memo.trace(program, True, SEED, keep=False)
        assert memo.trace(program, True, SEED, keep=False) is template
        first = memo.trace(program, True, SEED + 1, keep=False)
        again = memo.trace(program, True, SEED + 1, keep=False)
        assert again is not first and again == first

    def test_it_holds_templates_within_its_event_bound(self, monkeypatch):
        memo = TraceMemo()
        sizes = {
            name: ProgramExecutor(get_benchmark(name), seed=SEED).run(
                True).trace.event_count
            for name in ("open", "creat", "scale8")
        }
        monkeypatch.setattr(
            TraceMemo, "EVENTS", sizes["open"] + sizes["creat"]
        )
        for name in ("open", "creat", "scale8", "open", "creat"):
            memo.trace(get_benchmark(name), True, SEED, keep=False)
            assert memo.held_events <= TraceMemo.EVENTS
        # scale8 is too large to hold; open and creat are held again
        assert memo.held_events == sizes["open"] + sizes["creat"]
        runs = []
        real = ProgramExecutor.run
        monkeypatch.setattr(
            ProgramExecutor, "run",
            lambda executor, foreground: runs.append(1) or real(
                executor, foreground),
        )
        memo.trace(get_benchmark("open"), True, SEED + 1, keep=False)
        memo.trace(get_benchmark("scale8"), True, SEED + 1, keep=False)
        assert runs == [1]  # scale8 runs again, open reseeds

    def test_recorders_keep_what_a_two_trial_plan_draws(self):
        two = Recorder(make_capture("spade"), 2, SEED)
        five = Recorder(make_capture("camflow"), 5, SEED)
        # a five-trial plan starts with the two-trial plan's backgrounds
        assert five.plan[False][:2] == two.plan[False]
        expected = {
            (foreground, trial_seed)
            for foreground, trials in two.plan.items()
            for trial_seed, _ in trials
        }
        assert two.shared == five.shared == expected
        kept = {
            (foreground, trial_seed)
            for foreground, trials in five.plan.items()
            for trial_seed, _ in trials
        } & five.shared
        assert kept == {(False, seed) for seed, _ in two.plan[False]}

    @pytest.mark.parametrize("name", ["open", "rename", "vfork", "scale32"])
    def test_tools_sharing_a_memo_record_what_they_record_alone(self, name):
        program = get_benchmark(name)
        memo = TraceMemo()
        for tool in TOOLS:
            trials = tool_profile(tool).trials
            shared = Recorder(make_capture(tool), trials, SEED, traces=memo)
            alone = Recorder(make_capture(tool), trials, SEED)
            assert (
                shared.record(program).to_payload()
                == alone.record(program).to_payload()
            )
