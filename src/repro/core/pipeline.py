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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.capture import CaptureSystem, make_capture
from repro.capture.registry import (
    Backend,
    UnknownToolError,
    get_backend,
    register_tool,
    registered_tools,
    tool_profile,
)
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.core.stages import (
    RESULT_STAGE,
    Pipeline,
    ProgressCallback,
    RunContext,
    default_pipeline,
)
from repro.graph.model import PropertyGraph
from repro.storage.artifacts import ArtifactError, ArtifactStore
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
    #: worker processes for :meth:`ProvMark.run_many` (None/1 = serial)
    max_workers: Optional[int] = None
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
        capture_factory: Optional[Callable[[], CaptureSystem]] = None,
        progress: Optional[ProgressCallback] = None,
        **config_kwargs: object,
    ) -> None:
        if config is None:
            config = PipelineConfig(tool=tool, **config_kwargs)  # type: ignore[arg-type]
        self.config = config
        #: stage-boundary observer handed to every RunContext this
        #: driver builds (the job manager's progress/cancellation hook)
        self.progress = progress
        #: picklable factory (e.g. ``ToolProfile.make_capture``) letting
        #: worker processes rebuild the capture for parallel run_many
        self._capture_factory = capture_factory
        if capture is None and capture_factory is not None:
            capture = capture_factory()
        #: a hand-injected capture without a factory cannot be rebuilt in
        #: worker processes, so run_many stays serial for it
        self._custom_capture = capture is not None and capture_factory is None
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
        """Run the full four-stage pipeline for one benchmark."""
        program = (
            benchmark if isinstance(benchmark, Program)
            else get_benchmark(benchmark)
        )
        store = self.artifact_store()
        ctx = self._make_context(program, store)
        if store is not None and self.config.resume and self.config.cache:
            resumed = self._load_stored_result(store, ctx)
            if resumed is not None:
                return resumed
        self.pipeline.run(ctx)
        result = (
            self._failure_result(ctx)
            if ctx.failure is not None
            else self._success_result(ctx)
        )
        if store is not None:
            store.save(
                RESULT_STAGE, self._result_material(ctx), result.to_payload()
            )
        return result

    def run_many(
        self,
        names: List[Union[str, Program]],
        max_workers: Optional[int] = None,
    ) -> List[BenchmarkResult]:
        """Run many benchmarks, optionally across worker processes.

        Entries are registry names or :class:`Program` values directly
        (how the service dispatches spec-defined benchmarks, which
        worker processes' registries would not know by name; frozen
        programs pickle cleanly).

        ``max_workers`` (or ``config.max_workers``) > 1 fans the runs out
        over a process pool — each benchmark is fully independent (fresh
        kernel, fresh capture), so full-suite sweeps scale across cores.
        Results are always returned in input order, identical to a serial
        run.  Falls back to serial execution for a hand-injected capture
        object (which cannot be rebuilt in a worker process) and where
        process pools are unavailable or break mid-run.

        With ``config.store_path`` set, every worker shares the same
        on-disk artifact store (writes are atomic), so a killed sweep
        resumes with ``config.resume`` re-running only what is missing.
        """
        workers = (
            max_workers if max_workers is not None else self.config.max_workers
        )
        if workers is None or workers <= 1 or len(names) <= 1:
            return [self.run_benchmark(name) for name in names]
        if self._custom_capture:
            # A hand-injected capture cannot be rebuilt per worker, and
            # sharing one (possibly stateful) instance concurrently would
            # break the identical-to-serial guarantee.
            return [self.run_benchmark(name) for name in names]
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError):
            # No usable multiprocessing primitives (e.g. a sandboxed
            # environment): run serially.
            return [self.run_benchmark(name) for name in names]
        # Plugin backends registered in this process are unknown to
        # freshly spawned workers (only builtins self-register on
        # import), so ship the backend along for re-registration.
        try:
            backend: Optional[Backend] = get_backend(self.config.tool)
        except UnknownToolError:
            backend = None
        try:
            with pool:
                if self._capture_factory is not None:
                    futures = [
                        pool.submit(
                            _run_benchmark_factory_task,
                            self._capture_factory, self.config, name,
                            backend,
                        )
                        for name in names
                    ]
                else:
                    futures = [
                        pool.submit(
                            _run_benchmark_task, self.config, name, backend,
                        )
                        for name in names
                    ]
                # Task exceptions (bad config, execution errors) propagate
                # exactly as in a serial run; only a broken pool — workers
                # that could not spawn or died — triggers the fallback.
                return [future.result() for future in futures]
        except BrokenProcessPool:
            return [self.run_benchmark(name) for name in names]

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
        )

    def _result_material(self, ctx: RunContext) -> Dict[str, object]:
        material = dict(ctx.key_material())
        material["stage"] = RESULT_STAGE
        return material

    def _load_stored_result(
        self, store: ArtifactStore, ctx: RunContext
    ) -> Optional[BenchmarkResult]:
        """The ``--resume`` fast path: replay a completed benchmark.

        The stored result is returned exactly as the completing run
        produced it (timings, counters, graphs); only the store counters
        are rewritten to this run's view — every stage was served from
        the store, none recomputed.
        """
        payload = store.load(RESULT_STAGE, self._result_material(ctx))
        if payload is None:
            return None
        try:
            result = BenchmarkResult.from_payload(payload)
        except (
            ArtifactError, AttributeError, IndexError,
            KeyError, TypeError, ValueError,
        ):
            # A result payload from an incompatible format: recompute
            # (the fresh run overwrites the bad artifact).
            store.stats.hits -= 1  # load() counted it
            store.stats.invalid += 1
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


def _ensure_registered(backend: Optional[Backend]) -> None:
    """Re-register a plugin backend inside a worker process if absent."""
    if backend is not None and backend.name not in registered_tools():
        register_tool(backend.name, backend.cls, backend.profile)


def _run_benchmark_task(
    config: PipelineConfig,
    name: Union[str, Program],
    backend: Optional[Backend] = None,
) -> BenchmarkResult:
    """Process-pool worker: rebuild the pipeline from config and run."""
    _ensure_registered(backend)
    return ProvMark(config=config).run_benchmark(name)


def _run_benchmark_factory_task(
    factory: Callable[[], CaptureSystem],
    config: PipelineConfig,
    name: Union[str, Program],
    backend: Optional[Backend] = None,
) -> BenchmarkResult:
    """Process-pool worker for profile-built captures: rebuild and run."""
    _ensure_registered(backend)
    return ProvMark(config=config, capture_factory=factory).run_benchmark(name)
