"""Typed requests and responses of the ``repro.api`` v1 surface.

Every type is a payload type (:func:`repro.codec.payload_type`): a
frozen dataclass whose JSON wire shape is its field list, so
``to_payload()``, the strict ``from_payload()`` and the field type
checks are all derived from the declarations below and round-trip::

    decode(encode(x)) == x

A malformed HTTP body or a stale stored payload fails loudly with a
:class:`~repro.api.errors.ValidationError` instead of half-decoding.
Each type's ``__post_init__`` holds only its value rules: ranges,
choices, non-empty names, cross-field rules and the ``api_version``
tag.  Graph and result values reuse the hand-written store codecs
(:meth:`repro.core.result.BenchmarkResult.to_payload` and the graph
codecs in :mod:`repro.storage.artifacts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.specs import BenchmarkSpec
from repro.codec import (
    check_choice, check_names, check_range, fail, payload_type,
)
from repro.core.result import BenchmarkResult
from repro.sched.policy import PRIORITY_CLASSES

#: version tag of this request/response vocabulary; served as the
#: ``/v1`` HTTP prefix and embedded in every response envelope
API_VERSION = "1"

#: the two graph-matching engines a request may name
ENGINES = ("native", "asp")

#: similarity-class pair choice policies (paper §3.4)
PAIR_POLICIES = ("smallest", "largest")

#: lifecycle states of an async job
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: kinds of work a job can carry
JOB_KINDS = ("run", "batch", "synth")


# -- value rules --------------------------------------------------------------


def _check_api_version(obj: object) -> None:
    if obj.api_version != API_VERSION:
        fail(obj, "api_version",
             f"must be {API_VERSION!r}, got {obj.api_version!r}")


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class PipelineFields:
    """The configuration fields :class:`RunRequest` and
    :class:`BatchRequest` share (keyword-only), with their value rules."""

    tool: str = "spade"
    profile: Optional[str] = None
    config_path: Optional[str] = None
    trials: Optional[int] = None
    filtergraphs: Optional[bool] = None
    engine: str = "native"
    seed: Optional[int] = None
    truncation_rate: float = 0.0
    fg_pair_policy: str = "smallest"
    bg_pair_policy: str = "smallest"
    store_path: Optional[str] = None
    resume: bool = False
    cache: bool = True
    #: per-benchmark wall-clock budget, seconds (enforced at stage
    #: boundaries; an overrun is a permanent DeadlineError, never retried;
    #: each run in a batch gets its own budget)
    deadline: Optional[float] = None
    #: requested scheduling class (None = the kind's default; ``urgent``
    #: requires the admin role when submitted through authenticated HTTP)
    priority: Optional[str] = None

    def __post_init__(self) -> None:
        check_names(self, "tool")
        check_range(self, "trials", minimum=1)
        check_choice(self, "engine", ENGINES)
        check_range(self, "truncation_rate", minimum=0.0, maximum=1.0)
        check_choice(self, "fg_pair_policy", PAIR_POLICIES)
        check_choice(self, "bg_pair_policy", PAIR_POLICIES)
        if self.deadline is not None and self.deadline <= 0:
            fail(self, "deadline",
                 f"must be > 0 seconds, got {self.deadline}")
        if self.priority is not None:
            check_choice(self, "priority", PRIORITY_CLASSES)


@payload_type
class RunRequest(PipelineFields):
    """One benchmark run, fully declared.

    The benchmark is named by exactly one of ``benchmark`` (a registered
    suite name) or ``spec`` (an inline
    :class:`~repro.api.specs.BenchmarkSpec`, validated and compiled on
    the fly without touching the registry).

    ``profile`` (optionally with ``config_path``) selects a config.ini
    tool profile exactly like ``provmark run --profile``; it overrides
    ``tool`` while ``trials``/``filtergraphs`` still apply on top.
    """

    benchmark: Optional[str] = None
    spec: Optional[BenchmarkSpec] = None

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.spec is None):
            fail(self, "benchmark",
                 "exactly one of 'benchmark' or 'spec' must be set")
        check_names(self, "benchmark")
        super().__post_init__()


@payload_type
class BatchRequest(PipelineFields):
    """Many benchmark runs under one configuration.

    ``benchmarks`` names the runs explicitly; ``tags`` instead selects
    every registered benchmark carrying *all* the given tags (an open
    registry may match user-defined benchmarks too).  With neither set
    the batch is the full Table 2 suite.  The benchmarks run serially,
    in order, on one driver; a parallel sweep submits its runs to a
    worker fleet (``provmark serve --workers N``) instead.
    """

    benchmarks: Optional[Tuple[str, ...]] = None
    tags: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        check_names(self, "benchmarks", "tags")
        if self.tags is not None:
            if self.benchmarks is not None:
                fail(self, "tags",
                     "cannot be combined with an explicit 'benchmarks' list")
            if not self.tags:
                fail(self, "tags",
                     "must be a non-empty tuple of tag names or None")
        super().__post_init__()


@payload_type
class SynthConfig:
    """One coverage-guided benchmark-synthesis run, fully declared.

    ``seed`` determines everything: the same configuration always
    yields the same candidate specs, the same survivor digests, and the
    same coverage report.  ``count`` candidates are produced (a
    ``mutation_rate`` fraction by mutating builtin or earlier
    candidates, the rest generated fresh), evaluated through the staged
    pipeline under every tool in ``tools``, deduplicated by
    generalized-graph fingerprint, and kept only when they add
    coverage.  Survivors are registered into the suite registry (tagged
    ``synth`` plus ``tags``) unless ``register`` is false, and
    persisted into the ``store_path`` artifact store's ``spec`` stage
    when one is configured.
    """

    count: int = 20
    seed: int = 0
    tools: Tuple[str, ...] = ("spade", "opus", "camflow")
    tags: Tuple[str, ...] = ()
    max_ops: int = 6
    mutation_rate: float = 0.4
    name_prefix: str = "synth"
    trials: Optional[int] = None
    engine: str = "native"
    register: bool = True
    store_path: Optional[str] = None
    #: requested scheduling class (None = the synth default, background)
    priority: Optional[str] = None

    #: generation bounds protecting the service from hostile configs
    MAX_COUNT = 256
    MAX_PROGRAM_OPS = 64

    def __post_init__(self) -> None:
        check_range(self, "count", minimum=1, maximum=self.MAX_COUNT)
        if not self.tools:
            fail(self, "tools", "must name at least one tool")
        check_names(self, "tools", "tags", "name_prefix")
        if len(set(self.tools)) != len(self.tools):
            fail(self, "tools", "must not repeat a tool")
        check_range(self, "max_ops", minimum=2,
                    maximum=self.MAX_PROGRAM_OPS)
        check_range(self, "mutation_rate", minimum=0.0, maximum=1.0)
        check_range(self, "trials", minimum=1)
        check_choice(self, "engine", ENGINES)
        if self.priority is not None:
            check_choice(self, "priority", PRIORITY_CLASSES)


@payload_type
class SynthCoverage:
    """Coverage-model growth over one synthesis run.

    ``*_before`` counts come from the registry's existing suite
    (motifs start at zero — they are observed by running candidates,
    not statically); ``*_after`` counts include every accepted
    survivor's keys.
    """

    syscalls_before: int = 0
    syscalls_after: int = 0
    arg_shapes_before: int = 0
    arg_shapes_after: int = 0
    motifs_before: int = 0
    motifs_after: int = 0
    new_syscalls: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_range(self, "syscalls_before", "syscalls_after",
                    "arg_shapes_before", "arg_shapes_after",
                    "motifs_before", "motifs_after", minimum=0)
        check_names(self, "new_syscalls")


@payload_type
class SynthReport:
    """Everything one synthesis run produced.

    ``kept``/``digests``/``specs`` are aligned (one entry per
    survivor, candidate order).  For a fixed :class:`SynthConfig` the
    whole report minus nothing is deterministic — re-running the same
    seed yields byte-identical payloads.
    """

    seed: int
    requested: int
    generated: int
    mutated: int
    kept: Tuple[str, ...]
    digests: Tuple[str, ...]
    duplicates: int
    no_gain: int
    failed: int
    tools: Tuple[str, ...]
    coverage: SynthCoverage
    specs: Tuple[BenchmarkSpec, ...] = ()
    registered: bool = False
    persisted: int = 0
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        check_range(self, "requested", "generated", "mutated",
                    "duplicates", "no_gain", "failed", "persisted",
                    minimum=0)
        check_names(self, "kept", "digests", "tools")
        if len(self.kept) != len(self.digests):
            fail(self, "digests", "must align one-to-one with 'kept'")
        if self.specs and len(self.specs) != len(self.kept):
            fail(self, "specs", "must align one-to-one with 'kept'")
        _check_api_version(self)


@payload_type
class ToolQuery:
    """Catalog query for registered capture backends.

    ``name=None`` lists every backend; a name restricts the answer to
    that backend (NotFoundError if it is not registered).
    """

    name: Optional[str] = None

    def __post_init__(self) -> None:
        check_names(self, "name")


# -- responses --------------------------------------------------------------


@payload_type
class ToolInfo:
    """One registered capture backend with its resolved profile."""

    name: str
    trials: int
    filtergraphs: bool
    output_format: str
    description: str = ""

    def __post_init__(self) -> None:
        check_names(self, "name", "output_format")
        check_range(self, "trials", minimum=1)


@payload_type
class BenchmarkInfo:
    """One suite benchmark as the catalog endpoints describe it."""

    name: str
    group: int
    group_name: str
    description: str = ""
    tags: Tuple[str, ...] = ()
    builtin: bool = True

    def __post_init__(self) -> None:
        check_names(self, "name", "tags")
        check_range(self, "group", minimum=0)


@payload_type
class RunResponse:
    """The result envelope for one completed benchmark run.

    ``result`` is the full :class:`~repro.core.result.BenchmarkResult`
    — graphs, timings, solver and store counters — byte-identical to
    what the pre-redesign ``ProvMark.run_benchmark`` produced.
    """

    result: BenchmarkResult
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        _check_api_version(self)


@payload_type
class JobStatus:
    """A point-in-time snapshot of an async job.

    ``result`` (run jobs) or ``results`` (batch jobs) is populated once
    ``state == "done"``; ``stage`` tracks the most recent
    stage-boundary :class:`~repro.core.stages.ProgressEvent` as
    ``"<benchmark>/<stage>:<status>"``.
    """

    job_id: str
    state: str
    kind: str = "run"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    total: int = 1
    completed: int = 0
    stage: str = ""
    error: str = ""
    #: delivery attempts so far (0 while queued; the execution plane
    #: increments it on every claim, including lease-recovery retries)
    attempts: int = 0
    #: correlation with the middleware layer: the authenticated client
    #: that submitted the job and the per-request id its access-log line
    #: carries, so spool records and structured logs join up ("" when
    #: the job was submitted outside the HTTP surface)
    client_id: str = ""
    request_id: str = ""
    #: the scheduling class admission stamped onto the job ("" for jobs
    #: from managers predating the scheduler)
    priority: str = ""
    #: seconds the job waited queued before its first claim (None while
    #: still waiting — per-class live waits are on ``/v1/metrics``)
    queue_wait: Optional[float] = None
    result: Optional[RunResponse] = None
    results: Optional[Tuple[RunResponse, ...]] = None
    #: synthesis jobs report a SynthReport instead of run responses
    report: Optional[SynthReport] = None
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        check_names(self, "job_id")
        check_choice(self, "state", JOB_STATES)
        check_choice(self, "kind", JOB_KINDS)
        check_range(self, "submitted_at", "started_at", "finished_at",
                    "total", "completed", "attempts", "queue_wait",
                    minimum=0)
        if self.priority:
            check_choice(self, "priority", PRIORITY_CLASSES)
        _check_api_version(self)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


@payload_type
class ClusterNodeInfo:
    """One registered agent node as ``GET /v1/cluster`` describes it."""

    node_id: str
    host: str = ""
    workers: int = 0
    claims: int = 0
    last_seen_age: float = 0.0

    def __post_init__(self) -> None:
        check_names(self, "node_id")
        check_range(self, "workers", "claims", "last_seen_age", minimum=0)


@payload_type
class ClusterStatus:
    """The fleet snapshot behind ``GET /v1/cluster``.

    ``enabled=False`` (a single-host plane) carries zeroed counters and
    no nodes — the schema is stable either way, so dashboards never
    branch on key presence.
    """

    enabled: bool
    coordinator: str = ""
    draining: bool = False
    nodes: Tuple[ClusterNodeInfo, ...] = ()
    remote_workers: int = 0
    local_workers: int = 0
    claims_total: int = 0
    completions_total: int = 0
    events_seq: int = 0
    api_version: str = API_VERSION

    def __post_init__(self) -> None:
        check_range(self, "remote_workers", "local_workers",
                    "claims_total", "completions_total", "events_seq",
                    minimum=0)
        _check_api_version(self)
