"""repro — a reproduction of ProvMark (Middleware 2019).

ProvMark is an automated expressiveness benchmarking system for
system-level provenance capture tools.  This package reimplements the
whole stack in Python: the property-graph/Datalog core, the graph-matching
solvers (native and mini-ASP), a simulated Linux-like kernel substrate,
three simulated capture systems (SPADE, OPUS, CamFlow), the four-stage
ProvMark pipeline, the benchmark suite, and the analysis tooling that
regenerates every table and figure of the paper.

Quickstart (the supported surface is :mod:`repro.api`)::

    from repro.api import BenchmarkService, RunRequest
    service = BenchmarkService()
    response = service.run(RunRequest(benchmark="open", tool="spade"))
    print(response.result.classification, response.result.target_graph.size)

Beneath the service, :class:`ProvMark` is the pipeline driver for
hand-configured captures and ad-hoc programs.
"""

__version__ = "1.2.0"

from repro.core.pipeline import PipelineConfig, ProvMark  # noqa: E402
from repro.core.result import BenchmarkResult, Classification  # noqa: E402
from repro.api import (  # noqa: E402
    API_VERSION,
    BatchRequest,
    BenchmarkService,
    JobStatus,
    RunRequest,
    RunResponse,
    SynthConfig,
    SynthReport,
    ToolQuery,
)

__all__ = [
    "API_VERSION",
    "BatchRequest",
    "BenchmarkResult",
    "BenchmarkService",
    "Classification",
    "JobStatus",
    "PipelineConfig",
    "ProvMark",
    "RunRequest",
    "RunResponse",
    "SynthConfig",
    "SynthReport",
    "ToolQuery",
    "__version__",
]
