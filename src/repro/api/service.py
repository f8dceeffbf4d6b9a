"""The :class:`BenchmarkService` façade — the supported entry surface.

One object fronts the whole stack: the staged pipeline kernel
(`repro.core.stages`), the capture-backend plugin registry
(`repro.capture.registry`), the benchmark suite registry
(`repro.suite.registry`), and the persistent artifact store
(`repro.storage.artifacts`).  Callers declare work as frozen request
objects (:class:`~repro.api.types.RunRequest`,
:class:`~repro.api.types.BatchRequest`) instead of constructing pipeline
internals; results come back as :class:`~repro.api.types.RunResponse`
envelopes that are byte-identical — same graphs, same timing semantics,
same solver/store counters — to what the :class:`ProvMark` pipeline
driver produces for the same configuration: the service pools those
drivers, and callers with a hand-configured capture or an ad-hoc program
build one directly.

Synchronous calls (:meth:`BenchmarkService.run`,
:meth:`BenchmarkService.run_batch`) block; :meth:`submit` /
:meth:`poll` / :meth:`cancel` hand the same requests to the
:class:`~repro.api.jobs.JobManager`, whose jobs report per-stage
progress through the pipeline's :class:`~repro.core.stages.ProgressEvent`
hook.  All lookup failures surface as
:class:`~repro.api.errors.NotFoundError` /
:class:`~repro.api.errors.ValidationError`, which the CLI and the HTTP
service render identically.
"""

from __future__ import annotations

import contextlib
import threading
import warnings
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.api.errors import DeadlineError, NotFoundError, ValidationError
from repro.api.jobs import JobManager
from repro.api.specs import (
    BenchmarkSpec,
    compile_spec,
    iter_persisted_specs,
    persist_spec,
    spec_digest,
)
from repro.api.types import (
    API_VERSION,
    BatchRequest,
    BenchmarkInfo,
    JobStatus,
    RunRequest,
    RunResponse,
    SynthConfig,
    SynthCoverage,
    SynthReport,
    ToolInfo,
    ToolQuery,
)
from repro.capture.registry import (
    UnknownToolError,
    get_backend,
    iter_backends,
)
from repro.config import ProfileError, get_profile
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.stages import DeadlineExceeded, ProgressCallback
from repro.storage.artifacts import ArtifactError, ArtifactStore
from repro.suite.executor import ExecutionError
from repro.suite.program import Program
from repro.suite.registry import (
    SUITE_REGISTRY,
    SuiteRegistry,
    SuiteRegistryError,
    TABLE2_ORDER,
)

Request = Union[RunRequest, BatchRequest, SynthConfig]


class BenchmarkService:
    """Typed façade over pipeline, registries, store, and job manager."""

    api_version = API_VERSION

    #: total idle drivers retained across all configurations
    _DRIVER_POOL_SIZE = 32

    #: spec-store handles retained (oldest evicted beyond this)
    _SPEC_STORE_CACHE_SIZE = 8

    def __init__(
        self,
        jobs: Optional[JobManager] = None,
        registry: Optional[SuiteRegistry] = None,
    ) -> None:
        # Created eagerly (the manager itself spins its thread pool up
        # lazily): a lazily-created manager would race under the
        # threaded HTTP server, orphaning jobs in a lost instance.
        self._jobs = jobs if jobs is not None else JobManager()
        self._owns_jobs = jobs is None
        #: the open suite registry this service reads and extends
        #: (shared default unless a private one is injected)
        self._registry = registry if registry is not None else SUITE_REGISTRY
        # Spec-store loading state: store handles are reused (opening a
        # store sweeps its temp files; the cache is bounded like the
        # driver pool) and the digests of *successfully registered*
        # specs are remembered, so re-resolving against the same store
        # costs a directory listing, not a re-decode of every persisted
        # spec.  Failed registrations are not remembered — they retry
        # on the next load — and unregistering a benchmark forgets its
        # digest so the persisted spec is loadable again.
        self._spec_lock = threading.Lock()
        self._spec_stores: Dict[str, ArtifactStore] = {}
        self._loaded_spec_digests: set = set()
        self._spec_digest_by_name: Dict[str, str] = {}
        # Idle drivers (capture system, pipeline, artifact-store handle)
        # pooled by resolved configuration.  A driver is leased to
        # exactly one call at a time — captures and stores are not safe
        # to share between concurrently running jobs — but the pool is
        # shared across threads, so short-lived HTTP handler threads
        # still reuse drivers instead of rebuilding them per request.
        self._pool_lock = threading.Lock()
        self._driver_pool: Dict[tuple, List[ProvMark]] = {}
        self._pooled_count = 0

    # -- catalog ------------------------------------------------------------

    def tools(self, query: Optional[ToolQuery] = None) -> Tuple[ToolInfo, ...]:
        """Registered capture backends (optionally filtered to one name)."""
        query = query or ToolQuery()
        if query.name is not None:
            try:
                backends = [get_backend(query.name)]
            except UnknownToolError as exc:
                raise NotFoundError(str(exc)) from None
        else:
            backends = list(iter_backends())
        return tuple(
            ToolInfo(
                name=backend.name,
                trials=backend.profile.trials,
                filtergraphs=backend.profile.filtergraphs,
                output_format=backend.cls.output_format,
                description=backend.profile.description,
            )
            for backend in backends
        )

    def benchmarks(self) -> Tuple[BenchmarkInfo, ...]:
        """Every registered suite benchmark, sorted by name.

        Built from one registry snapshot, so a concurrent register/
        unregister (another HTTP handler thread) cannot make the
        listing half-updated or raise mid-iteration.
        """
        entries = self._registry.snapshot()
        return tuple(
            self._info_from_entry(name, entry)
            for name, entry in sorted(entries.items())
        )

    def benchmark_info(self, name: str) -> BenchmarkInfo:
        """The catalog row of one registered benchmark (404 if absent)."""
        return self._benchmark_info(name)

    def benchmark_spec(self, name: str) -> BenchmarkSpec:
        """The declarative spec of any registered benchmark.

        Custom entries return the spec they were registered from;
        builtin rows are re-expressed through
        :func:`~repro.api.specs.spec_from_program` — the round-trip is
        exact, so a spec fetched here and re-submitted runs identically.
        """
        try:
            return self._registry.spec(name)
        except KeyError:
            raise NotFoundError(self._unknown_benchmark(name)) from None

    def register_benchmark(self, spec: BenchmarkSpec) -> BenchmarkInfo:
        """Validate, compile, and register a spec-defined benchmark.

        The spec's semantic validation (syscall arity, ``$var``
        dataflow, setup-path confinement, uid/gid ranges) is the safety
        boundary for untrusted clients; builtin names cannot be shadowed
        and the custom-entry count is capped.
        """
        if not isinstance(spec, BenchmarkSpec):
            raise ValidationError(
                "register_benchmark() takes a BenchmarkSpec, got "
                f"{type(spec).__name__}"
            )
        program = compile_spec(spec)
        try:
            self._registry.register(program, tags=spec.tags, spec=spec)
        except SuiteRegistryError as exc:
            raise ValidationError(str(exc)) from None
        return self._benchmark_info(program.name)

    def unregister_benchmark(self, name: str) -> str:
        """Remove a custom benchmark (builtins refuse, unknowns 404)."""
        try:
            self._registry.unregister(name)
        except SuiteRegistryError as exc:
            raise ValidationError(str(exc)) from None
        except KeyError:
            raise NotFoundError(self._unknown_benchmark(name)) from None
        self._forget_spec(name)
        return name

    def load_spec_store(self, store_path: str) -> int:
        """Register every benchmark spec persisted in an artifact store.

        The ``provmark bench add --store`` companion: a run/batch
        request naming a stored benchmark resolves through this, so
        ``--store`` sweeps and ``--resume`` cover user benchmarks.
        Stored specs that no longer validate, collide with builtin
        names, or overflow the registry cap are skipped — and reported
        in one bounded ``RuntimeWarning`` naming what was dropped and
        why, so a sweep never loses user benchmarks silently.  Returns
        the number registered.
        """
        with self._spec_lock:
            store = self._spec_stores.get(store_path)
            if store is None:
                try:
                    store = ArtifactStore(store_path)
                except ArtifactError as exc:
                    raise ValidationError(str(exc)) from None
                while len(self._spec_stores) >= self._SPEC_STORE_CACHE_SIZE:
                    self._spec_stores.pop(next(iter(self._spec_stores)))
                self._spec_stores[store_path] = store
            count = 0
            skipped: List[str] = []
            for path, spec in iter_persisted_specs(
                store, skip_digests=self._loaded_spec_digests
            ):
                try:
                    program = compile_spec(spec)
                    self._registry.register(
                        program, tags=spec.tags, spec=spec
                    )
                except (ValidationError, SuiteRegistryError) as exc:
                    # not remembered: an unusable spec retries on the
                    # next load (the registry may have room by then)
                    skipped.append(f"{spec.name}: {exc}")
                    continue
                self._remember_spec(spec.name, path.stem)
                count += 1
        if skipped:
            # a sweep must not silently lose user benchmarks: surface
            # what was dropped and why (bounded, one warning per load)
            detail = "; ".join(skipped[:5])
            if len(skipped) > 5:
                detail += f"; ... and {len(skipped) - 5} more"
            warnings.warn(
                f"skipped {len(skipped)} persisted benchmark spec(s) in "
                f"{store_path}: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
        return count

    def _remember_spec(self, name: str, digest: str) -> None:
        """Record a registered spec digest (called under _spec_lock)."""
        stale = self._spec_digest_by_name.get(name)
        if stale is not None:
            self._loaded_spec_digests.discard(stale)
        self._spec_digest_by_name[name] = digest
        self._loaded_spec_digests.add(digest)

    def _forget_spec(self, name: str) -> None:
        """Make a name's persisted spec loadable again after removal."""
        with self._spec_lock:
            digest = self._spec_digest_by_name.pop(name, None)
            if digest is not None:
                self._loaded_spec_digests.discard(digest)

    def resolve_batch_names(self, request: BatchRequest) -> List[str]:
        """The concrete benchmark list a batch request selects.

        ``benchmarks`` names runs explicitly (checked against the
        registry up front so a batch fails fast instead of mid-sweep);
        ``tags`` selects every registered benchmark carrying all the
        given tags; with neither, the full Table 2 order.  A configured
        ``store_path`` contributes its persisted specs first.
        """
        return [p.name for p in self._batch_programs(request)]

    # -- synchronous runs ---------------------------------------------------

    def run(
        self,
        request: RunRequest,
        progress: Optional[ProgressCallback] = None,
    ) -> RunResponse:
        """Run one benchmark to completion and envelope the result."""
        if not isinstance(request, RunRequest):
            raise ValidationError(
                f"run() takes a RunRequest, got {type(request).__name__}"
            )
        program = self._run_program(request)
        with self._leased_driver(request, progress) as driver:
            return RunResponse(result=self._execute(driver, program))

    def run_batch(
        self,
        request: BatchRequest,
        progress: Optional[ProgressCallback] = None,
        on_response: Optional[object] = None,
    ) -> Tuple[RunResponse, ...]:
        """Run a batch serially, in input order, on one leased driver.

        ``progress`` observes (and can cancel at) every stage boundary;
        ``on_response`` sees each response as its benchmark finishes.
        """
        if not isinstance(request, BatchRequest):
            raise ValidationError(
                f"run_batch() takes a BatchRequest, got "
                f"{type(request).__name__}"
            )
        programs = self._batch_programs(request)
        with self._leased_driver(request, progress) as driver:
            responses = []
            for program in programs:
                response = RunResponse(result=self._execute(driver, program))
                responses.append(response)
                if on_response is not None:
                    on_response(response)
            return tuple(responses)

    # -- synthesis ----------------------------------------------------------

    def synthesize(
        self,
        config: SynthConfig,
        progress: Optional[ProgressCallback] = None,
    ) -> SynthReport:
        """Run one coverage-guided synthesis pass and adopt survivors.

        The engine (:func:`repro.synth.run_synthesis`) generates and
        mutates candidate specs, evaluates every one through the staged
        pipeline under each requested tool, deduplicates by
        generalized-graph fingerprint, and keeps only candidates that
        add coverage.  Survivors are then registered into this
        service's suite registry (tagged ``synth``; ``register=False``
        skips this) and persisted into the configured artifact store's
        ``spec`` stage so later ``--store``/``--resume`` sweeps resolve
        them by name.  Deterministic: the same config yields the same
        report, digests included.
        """
        if not isinstance(config, SynthConfig):
            raise ValidationError(
                f"synthesize() takes a SynthConfig, got "
                f"{type(config).__name__}"
            )
        for tool in config.tools:
            try:
                get_backend(tool)
            except UnknownToolError as exc:
                raise NotFoundError(str(exc)) from None
        # the synth tag is the discovery contract (`provmark list
        # --tags synth`), so it is always present, whatever tags the
        # caller adds
        tags = config.tags if "synth" in config.tags else (
            ("synth",) + config.tags
        )
        # Late import: repro.synth builds on the api package (specs,
        # errors), so importing it at module load would be circular.
        from repro.synth.engine import run_synthesis

        run = run_synthesis(
            seed=config.seed,
            count=config.count,
            tools=config.tools,
            max_ops=config.max_ops,
            mutation_rate=config.mutation_rate,
            name_prefix=config.name_prefix,
            tags=tags,
            trials=config.trials,
            engine=config.engine,
            store_path=config.store_path,
            registry=self._registry,
            progress=progress,
        )
        persisted = 0
        if config.register:
            # all-or-nothing adoption: a mid-loop failure (e.g. the
            # registry's custom-entry cap) must not leave half the
            # survivors registered with no report of what was adopted
            adopted: List[str] = []
            try:
                for spec in run.survivors:
                    self._registry.register(
                        compile_spec(spec), tags=spec.tags, spec=spec
                    )
                    adopted.append(spec.name)
            except SuiteRegistryError as exc:
                for name in adopted:
                    try:
                        self._registry.unregister(name)
                    except (KeyError, SuiteRegistryError):
                        pass
                raise ValidationError(str(exc)) from None
        if config.store_path is not None:
            store = ArtifactStore(config.store_path)
            for spec in run.survivors:
                persist_spec(store, spec)
                persisted += 1
        return SynthReport(
            seed=config.seed,
            requested=config.count,
            generated=run.generated,
            mutated=run.mutated,
            kept=tuple(spec.name for spec in run.survivors),
            digests=tuple(spec_digest(spec) for spec in run.survivors),
            duplicates=run.duplicates,
            no_gain=run.no_gain,
            failed=run.failed,
            tools=config.tools,
            coverage=SynthCoverage(
                syscalls_before=run.baseline.syscalls,
                syscalls_after=run.final.syscalls,
                arg_shapes_before=run.baseline.arg_shapes,
                arg_shapes_after=run.final.arg_shapes,
                motifs_before=run.baseline.motifs,
                motifs_after=run.final.motifs,
                new_syscalls=tuple(run.new_syscalls),
            ),
            specs=tuple(run.survivors),
            registered=config.register,
            persisted=persisted,
        )

    # -- async jobs ---------------------------------------------------------

    @property
    def jobs(self) -> JobManager:
        return self._jobs

    def submit(
        self,
        request: Request,
        client_id: str = "",
        request_id: str = "",
        role: str = "",
    ) -> JobStatus:
        """Queue a run/batch job; returns its initial status snapshot.

        Name lookups (benchmark, tool, profile) are validated *now*
        against the current registry, so a misspelled request is a
        synchronous NotFoundError rather than a queued job doomed from
        the start.  The job re-resolves when it executes (the registry
        is open and deliberately fresh): concurrent unregistration can
        therefore still fail a queued job, cleanly, with the same
        not-found message in its ``error`` field.

        ``client_id``/``request_id`` (both optional) are stamped onto
        the job record for correlation with the HTTP middleware layer's
        access logs and metrics.  ``role`` is the auth-resolved role
        the scheduler's admission controller validates explicit
        priorities and resolves quotas against ("" = a trusted direct
        caller — CLI, tests, embeddings).
        """
        if isinstance(request, RunRequest):
            # resolves the name (or compiles the inline spec) now, so a
            # malformed benchmark is a synchronous error too
            self._run_program(request)
            self._check_names(request)
            kind, total = "run", 1
        elif isinstance(request, BatchRequest):
            names = self.resolve_batch_names(request)
            self._check_names(request)
            kind, total = "batch", len(names)
        elif isinstance(request, SynthConfig):
            for tool in request.tools:
                try:
                    get_backend(tool)
                except UnknownToolError as exc:
                    raise NotFoundError(str(exc)) from None
            kind, total = "synth", request.count
        else:
            raise ValidationError(
                "submit() takes a RunRequest, BatchRequest, or "
                f"SynthConfig, got {type(request).__name__}"
            )
        return self.jobs.submit(
            self, request, kind, total,
            client_id=client_id, request_id=request_id, role=role,
        )

    def poll(self, job_id: str) -> JobStatus:
        """Current status of a submitted job (with results when done)."""
        return self.jobs.poll(job_id)

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a queued job now, or a running one at the next stage
        boundary."""
        return self.jobs.cancel(job_id)

    def close(self, cancel: bool = False) -> None:
        """Stop the job manager (if this service created one).

        The manager is kept (not discarded), so completed jobs remain
        pollable after close; only new ``submit()`` calls are refused.
        ``cancel=True`` cancels in-flight jobs instead of waiting for
        them (the ``provmark serve`` shutdown path).
        """
        if self._jobs is not None and self._owns_jobs:
            self._jobs.shutdown(wait=True, cancel=cancel)

    def __enter__(self) -> "BenchmarkService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    @contextlib.contextmanager
    def _leased_driver(
        self, request: Request, progress: Optional[ProgressCallback]
    ) -> Iterator[ProvMark]:
        """Lease a resolved driver for one call, pooled by configuration.

        Rebuilding the capture system and re-opening the artifact store
        per call would dominate warm runs; pooling keeps façade dispatch
        cheap (``perfbench/``'s ``api.run_overhead_ms``) — including for
        the HTTP server, whose per-connection handler threads all draw
        from this one pool.  A leased driver is exclusive to its call, so pooled
        captures/stores are never driven by two runs at once.
        """
        key = (
            request.tool, request.profile, request.config_path,
            request.trials, request.filtergraphs, request.engine,
            request.seed, request.truncation_rate, request.fg_pair_policy,
            request.bg_pair_policy, request.store_path, request.resume,
            request.cache, getattr(request, "deadline", None),
        )
        with self._pool_lock:
            idle = self._driver_pool.get(key)
            driver = idle.pop() if idle else None
            if driver is not None:
                self._pooled_count -= 1
        if driver is None:
            driver = self._driver(request)
        # the observer is per call, not part of the pooled configuration
        driver.progress = progress
        try:
            yield driver
        finally:
            driver.progress = None
            with self._pool_lock:
                if self._pooled_count < self._DRIVER_POOL_SIZE:
                    self._driver_pool.setdefault(key, []).append(driver)
                    self._pooled_count += 1

    @staticmethod
    def _check_names(request: Request) -> None:
        """Fail fast on unknown tool/profile names (NotFoundError)."""
        if request.profile:
            try:
                get_profile(request.profile, config_path=request.config_path)
            except ProfileError as exc:
                raise NotFoundError(str(exc)) from None
            return
        try:
            get_backend(request.tool)
        except UnknownToolError as exc:
            raise NotFoundError(str(exc)) from None

    def _unknown_benchmark(self, name: str) -> str:
        return (
            f"unknown benchmark {name!r}; available: "
            f"{sorted(self._registry.names())}"
        )

    def _benchmark_info(self, name: str) -> BenchmarkInfo:
        try:
            entry = self._registry.entry(name)
        except KeyError:
            raise NotFoundError(self._unknown_benchmark(name)) from None
        return self._info_from_entry(name, entry)

    @staticmethod
    def _info_from_entry(name: str, entry) -> BenchmarkInfo:
        """The one place a registry entry becomes a catalog row."""
        return BenchmarkInfo(
            name=name,
            group=entry.program.group,
            group_name=entry.program.group_name,
            description=entry.program.description,
            tags=entry.tags,
            builtin=entry.builtin,
        )

    @staticmethod
    def _execute(driver: ProvMark, program: Program):
        """One pipeline run, with benchmark misbehaviour as a 400.

        The spec validator is static: a spec can pass it and still
        violate its own declarations at run time (an op marked
        ``expect_success`` that fails, an open of a path no setup
        action staged).  That is a defect in the *benchmark*, not the
        service, so it renders as ValidationError — one CLI line /
        HTTP 400 — rather than escaping as a 500.
        """
        try:
            return driver.run_benchmark(program)
        except ExecutionError as exc:
            raise ValidationError(
                BenchmarkService._execution_message(exc)
            ) from exc
        except DeadlineExceeded as exc:
            raise DeadlineError(str(exc)) from exc

    @staticmethod
    def _execution_message(exc: ExecutionError) -> str:
        return f"benchmark program failed its own declaration: {exc}"

    def _run_program(self, request: RunRequest) -> Program:
        """The program a run request denotes (inline spec or lookup)."""
        if request.spec is not None:
            return compile_spec(request.spec)
        return self._resolve_program(request.benchmark, request.store_path)

    def _resolve_program(
        self, name: str, store_path: Optional[str]
    ) -> Program:
        """Registry lookup, falling back to store-persisted specs.

        A miss with a configured store loads the store's ``spec`` stage
        into the registry and retries, so ``provmark bench add --store``
        benchmarks are runnable by name from any later process.
        """
        try:
            return self._registry.get(name)
        except KeyError:
            pass
        if store_path:
            self.load_spec_store(store_path)
            try:
                return self._registry.get(name)
            except KeyError:
                pass
        raise NotFoundError(self._unknown_benchmark(name))

    def _batch_programs(self, request: BatchRequest) -> List[Program]:
        if not isinstance(request, BatchRequest):
            raise ValidationError(
                f"expected a BatchRequest, got {type(request).__name__}"
            )
        if request.tags is not None:
            if request.store_path:
                self.load_spec_store(request.store_path)
            names = self._registry.select(request.tags)
            if not names:
                raise NotFoundError(
                    f"no benchmarks match tags {sorted(request.tags)}"
                )
        else:
            names = (
                list(request.benchmarks)
                if request.benchmarks is not None else list(TABLE2_ORDER)
            )
        return [
            self._resolve_program(name, request.store_path) for name in names
        ]

    @staticmethod
    def _driver(request: Request) -> ProvMark:
        """Resolve a request into its pipeline driver.

        Mirrors the CLI resolution exactly — profile selection first,
        explicit ``trials``/``filtergraphs`` overriding the profile — so
        façade results stay byte-identical to a hand-built ``ProvMark``.
        """
        if request.profile:
            try:
                profile = get_profile(
                    request.profile, config_path=request.config_path
                )
                provmark = profile.make_provmark(
                    seed=request.seed, engine=request.engine
                )
            except ProfileError as exc:
                raise NotFoundError(str(exc)) from None
            if request.trials is not None:
                provmark.config.trials = request.trials
            if request.filtergraphs is not None:
                provmark.config.filtergraphs = request.filtergraphs
            provmark.config.truncation_rate = request.truncation_rate
            provmark.config.fg_pair_policy = request.fg_pair_policy
            provmark.config.bg_pair_policy = request.bg_pair_policy
            provmark.config.store_path = request.store_path
            provmark.config.resume = request.resume
            provmark.config.cache = request.cache
            provmark.config.deadline = getattr(request, "deadline", None)
            return provmark
        try:
            get_backend(request.tool)
        except UnknownToolError as exc:
            raise NotFoundError(str(exc)) from None
        config = PipelineConfig(
            tool=request.tool,
            trials=request.trials,
            filtergraphs=request.filtergraphs,
            engine=request.engine,
            seed=request.seed,
            truncation_rate=request.truncation_rate,
            fg_pair_policy=request.fg_pair_policy,
            bg_pair_policy=request.bg_pair_policy,
            store_path=request.store_path,
            resume=request.resume,
            cache=request.cache,
            deadline=getattr(request, "deadline", None),
        )
        return ProvMark(config=config)
