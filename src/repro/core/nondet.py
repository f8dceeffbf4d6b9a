"""Nondeterministic target activity — a prototype of the paper's §5.4.

ProvMark proper handles deterministic targets only.  For nondeterministic
ones (concurrency, races) the paper sketches the needed extension: both
program variants may produce *several* graph structures, one per schedule,
so the trials must be **fingerprinted and grouped by schedule** before
generalization, and each observed schedule benchmarked separately.  It
also warns that completeness — observing *every* schedule — cannot be
guaranteed.

This module implements that sketch:

* :class:`NondetProgram` — a background program plus a set of possible
  target schedules; each foreground trial nondeterministically executes
  one of them (driven by the per-trial seed, like a real scheduler).
* :class:`NondetProvMark` — records many trials, groups the foreground
  graphs into schedule classes via the structural-signature fingerprint,
  generalizes each class with at least two members, and subtracts the
  generalized background from each, yielding one benchmark result per
  *observed* schedule plus an explicit count of unobserved ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capture import CaptureSystem, make_capture
from repro.core.compare import ComparisonError, compare
from repro.core.generalize import GeneralizationError, generalize_trials
from repro.core.recording import TraceMemo
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.core.transform import transform
from repro.graph.model import PropertyGraph
from repro.suite.program import Op, Program


@dataclass(frozen=True)
class NondetProgram:
    """A benchmark whose target activity depends on the schedule."""

    name: str
    background: Program
    schedules: Tuple[Tuple[Op, ...], ...]

    def variant(self, schedule_index: int) -> Program:
        """The concrete foreground program for one schedule."""
        ops = list(self.background.ops)
        for op in self.schedules[schedule_index]:
            ops.append(Op(
                op.call, op.args, result=op.result, target=True,
                expect_success=op.expect_success,
            ))
        return Program(
            name=f"{self.name}@{schedule_index}",
            ops=tuple(ops),
            setup=self.background.setup,
            group=self.background.group,
            group_name=self.background.group_name,
            run_as_uid=self.background.run_as_uid,
            run_as_gid=self.background.run_as_gid,
        )


@dataclass
class ScheduleResult:
    """The benchmark result for one observed schedule class."""

    fingerprint_index: int
    trials_in_class: int
    result: BenchmarkResult


@dataclass
class NondetOutcome:
    """Everything one nondeterministic benchmarking run produced."""

    program: str
    schedules: List[ScheduleResult]
    total_trials: int
    unmatched_trials: int
    possible_schedules: int

    @property
    def observed_schedules(self) -> int:
        return len(self.schedules)

    @property
    def complete(self) -> bool:
        """Were all declared schedules observed?  (The paper warns this
        cannot be guaranteed in general — schedules grow exponentially.)"""
        return self.observed_schedules >= self.possible_schedules


class NondetProvMark:
    """Schedule-aware benchmarking of nondeterministic targets."""

    def __init__(
        self,
        tool: str = "spade",
        capture: Optional[CaptureSystem] = None,
        trials: int = 8,
        seed: Optional[int] = None,
        engine: str = "native",
    ) -> None:
        if trials < 4:
            raise ValueError("nondeterministic benchmarking needs >= 4 trials")
        self.capture = capture or make_capture(tool)
        self.trials = trials
        self.engine = engine
        self._rng = random.Random(seed)
        #: runs the kernel once per schedule variant and background
        self._traces = TraceMemo()

    # -- recording -----------------------------------------------------------

    def _record_graphs(
        self, program: NondetProgram
    ) -> Tuple[List[PropertyGraph], List[PropertyGraph]]:
        foregrounds: List[PropertyGraph] = []
        backgrounds: List[PropertyGraph] = []
        for index in range(self.trials):
            trial_seed = self._rng.randrange(2**31)
            # The "scheduler": an unobserved nondeterministic choice.
            schedule = self._rng.randrange(len(program.schedules))
            trace = self._traces.trace(
                program.variant(schedule), True, trial_seed, keep=False
            )
            raw = self.capture.record(
                trace, random.Random(trial_seed ^ 0x5EED)
            )
            foregrounds.append(
                transform(raw, self.capture.output_format, gid=f"fg{index}")
            )
        for index in range(max(2, self.trials // 2)):
            trial_seed = self._rng.randrange(2**31)
            trace = self._traces.trace(
                program.background, False, trial_seed, keep=False
            )
            raw = self.capture.record(
                trace, random.Random(trial_seed ^ 0x5EED)
            )
            backgrounds.append(
                transform(raw, self.capture.output_format, gid=f"bg{index}")
            )
        return foregrounds, backgrounds

    # -- fingerprint grouping ---------------------------------------------------

    @staticmethod
    def fingerprint_classes(
        graphs: Sequence[PropertyGraph],
    ) -> List[List[int]]:
        """Group trial graphs by the structural-signature fingerprint."""
        buckets: Dict[tuple, List[int]] = {}
        for index, graph in enumerate(graphs):
            buckets.setdefault(graph.structural_signature(), []).append(index)
        return sorted(buckets.values(), key=lambda cls: cls[0])

    # -- the pipeline --------------------------------------------------------------

    def run_benchmark(self, program: NondetProgram) -> NondetOutcome:
        foregrounds, backgrounds = self._record_graphs(program)
        bg_outcome = generalize_trials(backgrounds, engine=self.engine)
        classes = self.fingerprint_classes(foregrounds)
        schedules: List[ScheduleResult] = []
        unmatched = 0
        for class_index, members in enumerate(classes):
            if len(members) < 2:
                unmatched += len(members)
                continue
            class_graphs = [foregrounds[i] for i in members]
            started = time.perf_counter()
            try:
                fg_outcome = generalize_trials(class_graphs, engine=self.engine)
                outcome = compare(
                    fg_outcome.graph, bg_outcome.graph, engine=self.engine
                )
            except (GeneralizationError, ComparisonError):
                unmatched += len(members)
                continue
            elapsed = time.perf_counter() - started
            classification = (
                Classification.EMPTY if outcome.is_empty else Classification.OK
            )
            timings = StageTimings(generalization=elapsed)
            schedules.append(ScheduleResult(
                fingerprint_index=class_index,
                trials_in_class=len(members),
                result=BenchmarkResult(
                    benchmark=f"{program.name}#schedule{class_index}",
                    tool=self.capture.name,
                    classification=classification,
                    target_graph=outcome.target,
                    foreground=fg_outcome.graph,
                    background=bg_outcome.graph,
                    timings=timings,
                    trials=len(members),
                ),
            ))
        return NondetOutcome(
            program=program.name,
            schedules=schedules,
            total_trials=self.trials,
            unmatched_trials=unmatched,
            possible_schedules=len(program.schedules),
        )
