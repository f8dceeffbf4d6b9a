"""Stage 1 — recording (paper §3.2).

Runs the benchmark program repeatedly under the selected capture system.
Each trial gets its own freshly booted machine with a distinct seed, so
pids/inodes/timestamps vary across trials exactly as they would across
real recording sessions.  Optional flakiness models the paper's
observations: SPADE output occasionally truncated by an early stop,
CamFlow occasionally structurally jittered by recording restarts.

A trial's kernel trace depends on nothing but the program variant and
the trial seed, and no capture changes the trace it records, so a
:class:`TraceMemo` lets every tool's recorder replay one kernel run.
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
from repro.suite.executor import ProgramExecutor
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
    """A few recent kernel traces, by (variant, trial seed).

    Every recorder of one pipeline seed draws its trial seeds from the
    same stream, background trials first, so recorders of different
    tools share trials: SPADE and OPUS (two trials each) draw the same
    four, and CamFlow's five-trial plan starts with their two background
    seeds.  A benchmark recorded by each tool in turn, as a scale-major
    sweep does, thus runs each shared trial once: OPUS replays all four
    of SPADE's traces, and CamFlow the two backgrounds.

    A recorder keeps only the traces that a ``MIN_TRIALS`` plan draws
    too (``keep``), so that any tool may ask for them again.  Every
    trace the memo holds is live data the cyclic garbage collector
    walks on each pass, and CamFlow's other eight traces per benchmark
    would be replayed by nothing.  Safe to share between threads; two
    threads that miss one key both run it, with equal results.
    """

    #: traces held: one ``MIN_TRIALS`` recording of both variants
    CAPACITY = 2 * MIN_TRIALS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._traces: "OrderedDict[Tuple[Variant, int], Trace]" = OrderedDict()

    def trace(
        self, program: Program, foreground: bool, seed: int,
        keep: bool = True,
    ) -> Trace:
        """The trace of one trial: replayed when held, else run (and
        held from then on, evicting the least recently used, if
        ``keep``)."""
        key = (program.variant(foreground), seed)
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
                return trace
        trace = ProgramExecutor(program, seed=seed).run(foreground).trace
        if keep:
            with self._lock:
                self._traces[key] = trace
                while len(self._traces) > self.CAPACITY:
                    self._traces.popitem(last=False)
        return trace


class Recorder:
    """Drives the capture tool over multiple trials.

    ``truncation_rate`` models SPADE's occasional garbled output when the
    recording session is stopped too early (§3.2); the affected trial's
    last audit record is lost before graph construction.  With
    ``traces`` set, each trial's kernel trace comes from that memo.
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
        self.traces = traces
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
        if self.traces is not None:
            trace = self.traces.trace(
                program, foreground, trial_seed,
                keep=(foreground, trial_seed) in self.shared,
            )
        else:
            trace = ProgramExecutor(program, seed=trial_seed).run(foreground).trace
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
