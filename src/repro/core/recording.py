"""Stage 1 — recording (paper §3.2).

Runs the benchmark program repeatedly under the selected capture system.
Each trial gets its own freshly booted machine with a distinct seed, so
pids/inodes/timestamps vary across trials exactly as they would across
real recording sessions.  Optional flakiness models the paper's
observations: SPADE output occasionally truncated by an early stop,
CamFlow occasionally structurally jittered by recording restarts.

A trial's kernel trace depends on nothing but the program variant and
the trial seed, and no capture changes the trace it records.  A seed
moves only the values the kernel draws, so a :class:`TraceMemo` runs
each variant's kernel once and reseeds that run for every other trial
seed, and lets every tool's recorder replay one trial's trace.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capture.base import CaptureSystem, RawOutput
from repro.kernel.trace import Trace
from repro.storage.artifacts import raw_to_payload
from repro.suite.executor import ProgramExecutor, TraceTemplate, reseedable
from repro.suite.program import Program, Variant


@dataclass
class RecordedTrial:
    """Native capture output for one program variant execution."""

    raw: RawOutput
    seed: int
    foreground: bool
    virtual_seconds: float

    def to_payload(self) -> Dict[str, object]:
        return {
            "raw": raw_to_payload(self.raw),
            "seed": self.seed,
            "foreground": self.foreground,
            "virtual_seconds": self.virtual_seconds,
        }


@dataclass
class RecordingSession:
    """All trials for one benchmark under one tool."""

    program: Program
    tool: str
    foreground_trials: List[RecordedTrial] = field(default_factory=list)
    background_trials: List[RecordedTrial] = field(default_factory=list)

    @property
    def virtual_seconds(self) -> float:
        return sum(
            t.virtual_seconds
            for t in self.foreground_trials + self.background_trials
        )

    def to_payload(self) -> Dict[str, object]:
        """Serialize every trial, foreground first."""
        return {
            "tool": self.tool,
            "foreground": [t.to_payload() for t in self.foreground_trials],
            "background": [t.to_payload() for t in self.background_trials],
        }


#: the fewest trials a recording may have: generalization compares pairs
MIN_TRIALS = 2


class TraceMemo:
    """Kernel runs shared between trials: one template per variant, and
    a few recent traces by (variant, trial seed).

    A variant's first trial runs the kernel with its draws logged
    (:class:`~repro.suite.executor.TraceTemplate`); every later trial of
    the variant, at any seed, reseeds that run, at about half a run's
    cost, and rewrites only the streams its captures read.  A variant whose pids reach a syscall other than as PID-kind
    ``$variable`` arguments (:func:`~repro.suite.executor.reseedable`)
    runs the kernel for every trial.  Templates are held least recently
    used first out while their events stay within ``EVENTS``; a larger
    one is not held.

    Every recorder of one pipeline seed draws its trial seeds from the
    same stream, background trials first, so recorders of different
    tools share trials: SPADE and OPUS (two trials each) draw the same
    four, and CamFlow's five-trial plan starts with their two background
    seeds.  Those shared traces are held whole too, so that a benchmark
    recorded by each tool in turn, as a scale-major sweep does, replays
    them for free: a recorder keeps only the traces that a
    ``MIN_TRIALS`` plan draws too (``keep``), since CamFlow's other
    eight traces per benchmark would be replayed by nothing.  Every
    trace or template the memo holds is live data the cyclic garbage
    collector walks on each pass; a template's draw log is arrays, which
    it does not.  Safe to share between threads; two threads that miss
    one key both run it, with equal results.
    """

    #: whole traces held: one ``MIN_TRIALS`` recording of both variants
    CAPACITY = 2 * MIN_TRIALS
    #: events the held templates may hold together: a Table 2 sweep's
    #: 49 variants hold about 1,900, scale128's foreground 1,043
    EVENTS = 8192

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._traces: "OrderedDict[Tuple[Variant, int], Trace]" = OrderedDict()
        self._templates: "OrderedDict[Variant, TraceTemplate]" = OrderedDict()
        #: events of the held templates
        self.held_events = 0

    def trace(
        self, program: Program, foreground: bool, seed: int,
        keep: bool = True,
    ) -> Trace:
        """The trace of one trial: replayed when held, else reseeded
        from its variant's template, else run (and held from then on,
        evicting the least recently used, if ``keep``)."""
        variant = program.variant(foreground)
        key = (variant, seed)
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
                return trace
            template = self._templates.get(variant)
            if template is not None:
                self._templates.move_to_end(variant)
        if template is not None:
            trace = template.at(seed)
        elif reseedable(variant):
            template = TraceTemplate(program, foreground, seed)
            trace = template.trace
            self._hold(variant, template)
        else:
            trace = ProgramExecutor(program, seed=seed).run(foreground).trace
        if keep:
            with self._lock:
                self._traces[key] = trace
                while len(self._traces) > self.CAPACITY:
                    self._traces.popitem(last=False)
        return trace

    def _hold(self, variant: Variant, template: TraceTemplate) -> None:
        events = template.trace.event_count
        if events > self.EVENTS:
            return
        with self._lock:
            held = self._templates.pop(variant, None)
            if held is not None:
                self.held_events -= held.trace.event_count
            self._templates[variant] = template
            self.held_events += events
            while self.held_events > self.EVENTS:
                _, evicted = self._templates.popitem(last=False)
                self.held_events -= evicted.trace.event_count


class Recorder:
    """Drives the capture tool over multiple trials.

    ``truncation_rate`` models SPADE's occasional garbled output when the
    recording session is stopped too early (§3.2); the affected trial's
    last audit record is lost before graph construction.  Each trial's
    kernel trace comes from ``traces`` (the service's or the driver's
    memo), else from a memo of the recorder's own, so a variant's
    kernel runs once per recording at most.
    """

    def __init__(
        self,
        capture: CaptureSystem,
        trials: int = 2,
        seed: Optional[int] = None,
        truncation_rate: float = 0.0,
        traces: Optional[TraceMemo] = None,
    ) -> None:
        if trials < MIN_TRIALS:
            raise ValueError(
                f"generalization needs at least {MIN_TRIALS} trials"
            )
        self.capture = capture
        self.trials = trials
        self.truncation_rate = truncation_rate
        self.traces = traces if traces is not None else TraceMemo()
        rng = random.Random(seed)
        draws = [self._draw(rng) for _ in range(2 * trials)]
        #: per variant (True: foreground), each trial's seed and whether an
        #: early stop truncates it, drawn up front in recording order
        #: (background first), so that one variant recorded alone gets
        #: byte-identical trials
        self.plan: Dict[bool, Tuple[Tuple[int, bool], ...]] = {
            False: tuple(draws[:trials]), True: tuple(draws[trials:]),
        }
        #: the (foreground, trial seed) pairs a ``MIN_TRIALS`` plan of
        #: this seed draws as well: the trials every recorder may share
        self.shared = {
            (index >= MIN_TRIALS, trial_seed)
            for index, (trial_seed, _) in enumerate(draws[:2 * MIN_TRIALS])
        }

    def _draw(self, rng: random.Random) -> Tuple[int, bool]:
        trial_seed = rng.randrange(2**31)
        truncated = bool(self.truncation_rate) and (
            rng.random() < self.truncation_rate
        )
        return trial_seed, truncated

    def record(self, program: Program) -> RecordingSession:
        background = self.record_variant(program, foreground=False)
        return RecordingSession(
            program=program,
            tool=self.capture.name,
            foreground_trials=self.record_variant(program, foreground=True),
            background_trials=background,
        )

    def record_variant(
        self, program: Program, foreground: bool
    ) -> List[RecordedTrial]:
        """Every trial of one variant, exactly as :meth:`record` runs it."""
        return [
            self._one_trial(program, foreground, trial_seed, truncated)
            for trial_seed, truncated in self.plan[foreground]
        ]

    def _one_trial(
        self, program: Program, foreground: bool, trial_seed: int,
        truncated: bool,
    ) -> RecordedTrial:
        trace = self.traces.trace(
            program, foreground, trial_seed,
            keep=(foreground, trial_seed) in self.shared,
        )
        if truncated and len(trace.audit) > 2:
            # An early stop loses the tail of the audit log (the final
            # flush): drop the last two records, garbling this trial.
            trace = trace.window(0, trace.audit[-3].seq)
        tool_rng = random.Random(trial_seed ^ 0x5EED)
        raw = self.capture.record(trace, tool_rng)
        cost = self.capture.recording_cost(tool_rng)
        return RecordedTrial(
            raw=raw,
            seed=trial_seed,
            foreground=foreground,
            virtual_seconds=cost.seconds,
        )
