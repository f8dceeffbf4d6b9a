"""The ProvMark pipeline driver (paper Figure 3).

The four subsystems live in :mod:`repro.core.stages` as composable
:class:`~repro.core.stages.Stage` objects; this module is the thin
driver over them:

* :class:`PipelineConfig` — user-facing configuration, resolving tool
  defaults through the capture-backend registry;
* :class:`ProvMark` — builds a :class:`~repro.core.stages.RunContext`
  per benchmark, runs the default pipeline over it, and assembles the
  :class:`BenchmarkResult`;
* the persistent artifact store: with ``store_path`` set, every stage
  output is cached content-addressed on disk and reused by later runs,
  and ``resume=True`` short-circuits whole benchmarks whose final result
  is already stored (``provmark batch --store DIR --resume``).

The public entry point is :class:`ProvMark`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.capture import CaptureSystem, make_capture
from repro.capture.registry import tool_profile
from repro.core.recording import TraceMemo
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.core.stages import (
    RESULT_STAGE,
    Pipeline,
    ProgressCallback,
    RunContext,
    default_pipeline,
)
from repro.graph.model import PropertyGraph
from repro.storage.artifacts import PAYLOAD_ERRORS, ArtifactStore
from repro.suite.program import Program
from repro.suite.registry import get_benchmark


@dataclass
class PipelineConfig:
    """User-facing configuration (the paper's config.ini + CLI options)."""

    tool: str = "spade"
    trials: Optional[int] = None  # None = tool profile default
    filtergraphs: Optional[bool] = None  # None = tool profile default
    engine: str = "native"  # "native" | "asp"
    seed: Optional[int] = None
    truncation_rate: float = 0.0
    #: similarity-class choice per program variant (paper §3.4):
    #: "smallest"/"largest"; setting them differently reproduces the
    #: paper's remark about mismatched choices.
    fg_pair_policy: str = "smallest"
    bg_pair_policy: str = "smallest"
    #: artifact-store directory caching stage outputs (None = disabled;
    #: also bypassed for unseeded — nondeterministic — runs)
    store_path: Optional[str] = None
    #: with a store: serve stored final results without re-running stages
    resume: bool = False
    #: with a store: read stage artifacts back (False forces recomputation
    #: of every stage while still refreshing the stored artifacts)
    cache: bool = True
    #: per-benchmark wall-clock budget in seconds, enforced at stage
    #: boundaries (None = unbounded); an overrun raises
    #: :class:`~repro.core.stages.DeadlineExceeded`
    deadline: Optional[float] = None

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return tool_profile(self.tool).trials

    def resolved_filtergraphs(self) -> bool:
        if self.filtergraphs is not None:
            return self.filtergraphs
        return tool_profile(self.tool).filtergraphs


#: result timings that differ between runs with one outcome: the
#: stages' wall clocks, and how many stages the store served
_PER_RUN_TIMINGS = frozenset((
    "recording", "transformation", "generalization", "comparison",
    "store_hits", "store_misses",
))


def _same_outcome(stored: object, fresh: Dict[str, object]) -> bool:
    """True when a stored result payload differs from ``fresh`` only in
    :data:`_PER_RUN_TIMINGS`: a warm run then keeps the stored one,
    and its file is not rewritten."""
    if not isinstance(stored, dict) or not isinstance(
        stored.get("timings"), dict
    ):
        return False

    def outcome(payload: Dict[str, object]) -> Dict[str, object]:
        timings = {
            key: value for key, value in payload["timings"].items()
            if key not in _PER_RUN_TIMINGS
        }
        return {**payload, "timings": timings}

    return outcome(stored) == outcome(fresh)


class ProvMark:
    """Automated provenance expressiveness benchmarking.

    The pipeline driver beneath :class:`repro.api.BenchmarkService`,
    which is the documented way in and builds its drivers here.  Build
    one directly for a hand-configured capture or an ad-hoc
    :class:`~repro.suite.program.Program`.

    >>> provmark = ProvMark(tool="spade", seed=7)
    >>> result = provmark.run_benchmark("open")
    >>> result.classification.value
    'ok'
    """

    def __init__(
        self,
        tool: str = "spade",
        capture: Optional[CaptureSystem] = None,
        config: Optional[PipelineConfig] = None,
        progress: Optional[ProgressCallback] = None,
        **config_kwargs: object,
    ) -> None:
        if config is None:
            config = PipelineConfig(tool=tool, **config_kwargs)  # type: ignore[arg-type]
        self.config = config
        #: stage-boundary observer handed to every RunContext this
        #: driver builds (the job manager's progress/cancellation hook)
        self.progress = progress
        #: kernel runs this driver's recordings share: its own, or the
        #: one a ``BenchmarkService`` hands each driver it builds
        self.traces = TraceMemo()
        self.capture = capture or make_capture(config.tool)
        self.pipeline: Pipeline = default_pipeline()
        self._store: Optional[ArtifactStore] = None

    # -- public API ----------------------------------------------------------

    def artifact_store(self) -> Optional[ArtifactStore]:
        """The configured artifact store, created lazily (None = no store).

        Unseeded runs are nondeterministic — fresh random trials every
        time — so their outputs must not be content-addressed by config:
        the store is bypassed entirely when ``config.seed`` is None.
        """
        if self.config.store_path is None or self.config.seed is None:
            return None
        if self._store is None:
            self._store = ArtifactStore(self.config.store_path)
        return self._store

    def run_benchmark(self, benchmark: Union[str, Program]) -> BenchmarkResult:
        """Run the full four-stage pipeline for one benchmark.

        With a store, each store file that gained a section is written
        once, at the end, also when a stage error, the deadline or a
        cancellation stopped the run: what was computed is kept.  A
        result equal to the stored one but for its wall clocks and store
        counters is no new section, so a warm pass writes no file.
        """
        program = (
            benchmark if isinstance(benchmark, Program)
            else get_benchmark(benchmark)
        )
        ctx = self._make_context(program, self.artifact_store())
        completed = False
        try:
            result = self._run(ctx)
            completed = True
        finally:
            ctx.publish(quiet=not completed)
        return result

    def _run(self, ctx: RunContext) -> BenchmarkResult:
        if ctx.store is not None and self.config.resume and self.config.cache:
            resumed = self._load_stored_result(ctx)
            if resumed is not None:
                return resumed
        self.pipeline.run(ctx)
        result = (
            self._failure_result(ctx)
            if ctx.failure is not None
            else self._success_result(ctx)
        )
        if ctx.store is not None:
            payload = result.to_payload()
            if not _same_outcome(ctx.stored(None, RESULT_STAGE), payload):
                ctx.keep(None, RESULT_STAGE, payload)
        return result

    # -- context / result assembly -----------------------------------------

    def _make_context(
        self, program: Program, store: Optional[ArtifactStore]
    ) -> RunContext:
        config = self.config
        deadline_at = (
            time.perf_counter() + config.deadline
            if config.deadline is not None else None
        )
        return RunContext(
            program=program,
            capture=self.capture,
            tool=config.tool,
            trials=config.resolved_trials(),
            filtergraphs=config.resolved_filtergraphs(),
            engine=config.engine,
            seed=config.seed,
            truncation_rate=config.truncation_rate,
            fg_pair_policy=config.fg_pair_policy,
            bg_pair_policy=config.bg_pair_policy,
            timings=StageTimings(),
            store=store,
            use_cache=config.cache,
            progress=self.progress,
            deadline_at=deadline_at,
            traces=self.traces,
        )

    def _load_stored_result(
        self, ctx: RunContext
    ) -> Optional[BenchmarkResult]:
        """The ``--resume`` fast path: replay a completed benchmark.

        The stored result is returned exactly as the completing run
        produced it (timings, counters, graphs); only the store counters
        are rewritten to this run's view — every stage was served from
        the store, none recomputed.
        """
        payload = ctx.stored(None, RESULT_STAGE)
        if payload is None:
            return None
        try:
            result = BenchmarkResult.from_payload(payload)
        except PAYLOAD_ERRORS:
            # A result payload from an incompatible format: recompute.
            ctx.reject(None, RESULT_STAGE)
            return None
        result.timings.store_hits = len(self.pipeline.stages)
        result.timings.store_misses = 0
        return result

    def _success_result(self, ctx: RunContext) -> BenchmarkResult:
        classification = (
            Classification.EMPTY if ctx.comparison.is_empty
            else Classification.OK
        )
        expectation = ctx.program.expectation(self.capture.name)
        note = expectation[1] if expectation else ""
        return BenchmarkResult(
            benchmark=ctx.program.name,
            tool=self.capture.name,
            classification=classification,
            target_graph=ctx.comparison.target,
            foreground=ctx.fg_outcome.graph,
            background=ctx.bg_outcome.graph,
            timings=ctx.timings,
            trials=ctx.trials,
            discarded_trials=ctx.fg_outcome.discarded + ctx.bg_outcome.discarded,
            note=note if classification is Classification.EMPTY or note in ("DV", "SC") else "",
        )

    def _failure_result(self, ctx: RunContext) -> BenchmarkResult:
        return BenchmarkResult(
            benchmark=ctx.program.name,
            tool=self.capture.name,
            classification=Classification.FAILED,
            target_graph=PropertyGraph("empty"),
            foreground=ctx.fg_outcome.graph if ctx.fg_outcome else None,
            background=ctx.bg_outcome.graph if ctx.bg_outcome else None,
            timings=ctx.timings,
            trials=ctx.trials,
            error=ctx.failure or "",
        )
