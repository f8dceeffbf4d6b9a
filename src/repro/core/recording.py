"""Stage 1 — recording (paper §3.2).

Runs the benchmark program repeatedly under the selected capture system.
Each trial gets its own freshly booted machine with a distinct seed, so
pids/inodes/timestamps vary across trials exactly as they would across
real recording sessions.  Optional flakiness models the paper's
observations: SPADE output occasionally truncated by an early stop,
CamFlow occasionally structurally jittered by recording restarts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.capture.base import CaptureSystem, RawOutput
from repro.storage.artifacts import raw_from_payload, raw_to_payload
from repro.suite.executor import ProgramExecutor
from repro.suite.program import Program


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

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RecordedTrial":
        return cls(
            raw=raw_from_payload(payload["raw"]),
            seed=int(payload["seed"]),
            foreground=bool(payload["foreground"]),
            virtual_seconds=float(payload["virtual_seconds"]),
        )


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


class Recorder:
    """Drives the capture tool over multiple trials.

    ``truncation_rate`` models SPADE's occasional garbled output when the
    recording session is stopped too early (§3.2); the affected trial's
    last audit record is lost before graph construction.
    """

    def __init__(
        self,
        capture: CaptureSystem,
        trials: int = 2,
        seed: Optional[int] = None,
        truncation_rate: float = 0.0,
    ) -> None:
        if trials < 2:
            raise ValueError("generalization needs at least 2 trials")
        self.capture = capture
        self.trials = trials
        self.truncation_rate = truncation_rate
        rng = random.Random(seed)
        #: per variant (True: foreground), each trial's seed and whether an
        #: early stop truncates it, drawn up front in recording order
        #: (background first), so that one variant recorded alone gets
        #: byte-identical trials
        self.plan: Dict[bool, Tuple[Tuple[int, bool], ...]] = {
            foreground: tuple(self._draw(rng) for _ in range(trials))
            for foreground in (False, True)
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
        executor = ProgramExecutor(program, seed=trial_seed)
        execution = executor.run(foreground)
        trace = execution.trace
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
