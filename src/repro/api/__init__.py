"""``repro.api`` — the versioned, typed public surface (v1).

The single supported way in, for programs and remote clients alike:

* :mod:`repro.api.types` — frozen request/response dataclasses with
  strict validation and JSON codecs (:data:`API_VERSION` tags the
  vocabulary);
* :mod:`repro.api.specs` — declarative benchmark specifications
  (:class:`BenchmarkSpec` and friends): benchmarks as validated data
  objects that compile into suite programs and persist in the artifact
  store;
* :mod:`repro.api.service` — :class:`BenchmarkService`, the façade over
  the staged pipeline, capture registry, suite registry, and artifact
  store; its ``submit()``/``poll()``/``cancel()`` hand jobs to the one
  job manager, :class:`repro.exec.FleetJobManager`, which the service
  builds in memory on the first job (importing ``repro.api`` and running
  synchronously never loads :mod:`repro.exec`);
* :mod:`repro.api.http` — the embedded stdlib HTTP JSON service
  (``provmark serve``);
* :mod:`repro.api.errors` — the error vocabulary the CLI and HTTP
  surfaces render identically.

Quickstart::

    from repro.api import BenchmarkService, RunRequest

    service = BenchmarkService()
    response = service.run(RunRequest(benchmark="open", tool="spade", seed=5))
    print(response.result.summary())

    job = service.submit(RunRequest(benchmark="open", tool="camflow", seed=5))
    while not service.poll(job.job_id).finished:
        ...
"""

from repro.api.errors import (
    ApiError,
    BackpressureError,
    ConflictError,
    DeadlineError,
    ForbiddenError,
    JobCancelled,
    MethodNotAllowedError,
    NotFoundError,
    RateLimitError,
    UnauthorizedError,
    ValidationError,
    error_body,
    error_headers,
    render_error,
)
from repro.api.http import ApiHTTPServer, DEFAULT_PORT, make_server
from repro.api.service import BenchmarkService
from repro.api.specs import (
    SPEC_STAGE,
    BenchmarkSpec,
    ExpectationSpec,
    OpSpec,
    ProgramSpec,
    SetupSpec,
    compile_spec,
    load_persisted_specs,
    persist_spec,
    remove_persisted_spec,
    spec_digest,
    spec_from_program,
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

__all__ = [
    "API_VERSION",
    "ApiError",
    "ApiHTTPServer",
    "BackpressureError",
    "BatchRequest",
    "BenchmarkInfo",
    "BenchmarkService",
    "BenchmarkSpec",
    "compile_spec",
    "ConflictError",
    "DeadlineError",
    "DEFAULT_PORT",
    "error_body",
    "error_headers",
    "ExpectationSpec",
    "ForbiddenError",
    "JobCancelled",
    "JobStatus",
    "load_persisted_specs",
    "make_server",
    "MethodNotAllowedError",
    "NotFoundError",
    "OpSpec",
    "persist_spec",
    "ProgramSpec",
    "RateLimitError",
    "remove_persisted_spec",
    "render_error",
    "RunRequest",
    "RunResponse",
    "SetupSpec",
    "spec_digest",
    "spec_from_program",
    "SPEC_STAGE",
    "SynthConfig",
    "SynthCoverage",
    "SynthReport",
    "ToolInfo",
    "ToolQuery",
    "UnauthorizedError",
    "ValidationError",
]
