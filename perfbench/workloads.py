"""Workloads shared by the benchmark: inputs, measurement and oracles.

Each workload is set up (timed separately, several times), measured
once, and torn down.  The work a run measures is fixed in advance (by
``--seconds`` where it scales with it), never by how fast it goes, so
every run of a workload does the same work.  Inputs come only from the
benchmark's ``--seed``: it selects the pipeline seeds handed to the
program and, for the service workload, the job order.

* :class:`SuiteCold` — the paper's Table 2 sweep: every ``table2``-tagged
  builtin under spade, opus and camflow through
  ``BenchmarkService.run``, a fresh artifact store per pass (every stage
  writes).  Closed loop, one caller.
* :class:`ScaleTail` — ``scale32``/``scale128`` under the three tools
  with no store: the solver's superlinear generalization tail.
* :class:`~backlog.ServiceBacklog` (in ``backlog.py``) — an open-loop
  HTTP burst through the middleware chain to a cluster agent.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.core.pipeline as pipeline_module
import repro.solver.native as solver_native
from repro.api import BenchmarkService, RunRequest
from repro.core.result import BenchmarkResult
from repro.core.stages import Pipeline, Stage, default_pipeline
from repro.storage.artifacts import ArtifactStore, graph_to_payload
from repro.suite.registry import SUITE_REGISTRY

from calibrate import Pace
from spans import Tracer

TOOLS: Tuple[str, ...] = ("spade", "opus", "camflow")
#: scale512 is left out: one scale512/opus run peaks at ~300 MB resident
#: (scale128 at ~55 MB) and takes ~8 s, a single sample per pass
SCALES: Tuple[str, ...] = ("scale32", "scale128")

#: Structural digests (:func:`structure_digest`) of each scale row's
#: target graph.  Element ids differ between pipeline seeds; labels,
#: properties and edge endpoints do not, so one digest holds for any seed.
TARGET_DIGESTS: Dict[Tuple[str, str], str] = {
    ("scale32", "spade"): "5fee9df5b9de2010",
    ("scale32", "opus"): "8553df73cd9c04ff",
    ("scale32", "camflow"): "8815726860416ec2",
    ("scale128", "spade"): "a4dd908dc3e19597",
    ("scale128", "opus"): "a8273bb52274e024",
    ("scale128", "camflow"): "eaacc44139a890cb",
}


def pipeline_seeds(seed: int, count: int) -> List[int]:
    """The pipeline seeds a benchmark seed selects (deterministic)."""
    rng = random.Random(f"pipeline-seeds/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def table2_cells() -> List[Tuple[str, str]]:
    """Every (benchmark, tool) cell of the Table 2 sweep, in table order."""
    names = SUITE_REGISTRY.select(("table2",))
    return [(name, tool) for tool in TOOLS for name in names]


# -- oracles -----------------------------------------------------------


def expectation_problem(result: BenchmarkResult) -> Optional[str]:
    """None when a suite cell's classification and note match Table 2."""
    expected = SUITE_REGISTRY.get(result.benchmark).expectation(result.tool)
    got = (result.classification.value, result.note)
    if expected is None or got != tuple(expected):
        return f"{result.benchmark}/{result.tool}: got {got}, expected {expected}"
    return None


def structure_digest(graph) -> str:
    """Seed-independent digest of a graph: ids replaced by content."""
    payload = graph_to_payload(graph)
    key = {
        node_id: json.dumps([label, props], sort_keys=True)
        for node_id, label, props in payload["nodes"]
    }
    edges = sorted(
        json.dumps([key[src], label, props, key[tgt]], sort_keys=True)
        for _id, src, tgt, label, props in payload["edges"]
    )
    blob = json.dumps([sorted(key.values()), edges])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_digest(result: BenchmarkResult) -> str:
    """Digest of a result minus its wall-clock fields.

    Graphs, classification, note, trial counts and the solver counters
    are covered; stage seconds and store hit/miss counts (which differ
    between a computed and a store-replayed run) are not.
    """
    payload = result.to_payload()
    payload["timings"] = result.timings.solver_row()
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- measurement -------------------------------------------------------


@dataclass
class Measurement:
    """What one measured interval produced."""

    attempted: int = 0
    #: operations that failed, were refused or lost (wrong ones: below)
    failed: int = 0
    #: operations whose output the oracle rejected
    wrong: int = 0
    #: runs the throughput counts (batch workloads: cells; service: jobs)
    completed: int = 0
    #: seconds the throughput is taken over
    wall_s: float = 0.0
    #: one latency per completed run, at the reference host speed
    latencies_ms: List[float] = field(default_factory=list)
    #: extra end-to-end samples (service: POST round trips)
    submit_ms: List[float] = field(default_factory=list)
    #: workload-specific counts (peak pending, evictions, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: reference-kernel timings (ms) that scaled the latencies
    #: (``calibrate.py``)
    pace_ms: List[float] = field(default_factory=list)
    #: per-run stage breakdown (traced runs only)
    rows: List[Dict[str, object]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def note_failure(self, problem: str, wrong: bool = False) -> None:
        if wrong:
            self.wrong += 1
        else:
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- instrumentation of the in-process pipeline --------------------------


class TracedStage(Stage):
    """A pipeline stage whose run/restore calls record a span."""

    def __init__(self, inner: Stage, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.inputs = inner.inputs
        self.outputs = inner.outputs
        self.timing_field = inner.timing_field

    def run(self, ctx):
        with self.tracer.span(f"core.{self.name}"):
            return self.inner.run(ctx)

    def restore(self, ctx, payload):
        with self.tracer.span(f"core.{self.name}.restore"):
            return self.inner.restore(ctx, payload)


def instrument_pipeline(tracer: Tracer) -> None:
    """Trace stages, store I/O and the solver's cost lookups.

    Pipelines built after this call (drivers are built per new request
    configuration) get :class:`TracedStage` wrappers.
    """

    def traced_pipeline() -> Pipeline:
        return Pipeline([
            TracedStage(stage, tracer) for stage in default_pipeline().stages
        ])

    tracer.wrap(ArtifactStore, "load", "storage.load")
    tracer.wrap(ArtifactStore, "save", "storage.save")
    tracer.replace(pipeline_module, "default_pipeline", traced_pipeline)
    tracer.count_calls(
        solver_native, "property_mismatch_cost", "solver.cost_computed"
    )


class BatchWorkload:
    """A closed loop of ``BenchmarkService.run`` calls from one caller."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.service: Optional[BenchmarkService] = None
        #: scaled latencies per cell, and the kernel samples behind them
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self.pace: Optional[Pace] = None

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """A fresh service, warmed by one small run per tool; with a
        tracer, its drivers run traced pipelines."""
        self.teardown()
        if tracer is not None:
            instrument_pipeline(tracer)
        self.service = BenchmarkService()
        for tool in TOOLS:
            self.service.run(RunRequest(benchmark="open", tool=tool, seed=1))

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _run_cell(
        self,
        m: Measurement,
        tracer: Tracer,
        request: RunRequest,
        timed: Dict[Tuple[str, str], float],
    ) -> Optional[BenchmarkResult]:
        """One timed run; its milliseconds go to ``timed[cell]``, and
        runs since the last kernel sample are filed once one is due."""
        run = f"{request.benchmark}/{request.tool}/{request.seed}"
        m.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.span("api.run", run=run):
                result = self.service.run(request).result
        except Exception as exc:  # noqa: BLE001 — a crash is a failed run
            m.note_failure(f"{run}: {type(exc).__name__}: {exc}")
            return None
        timed[(request.benchmark, request.tool)] = (
            1e3 * (time.perf_counter() - started)
        )
        if self.pace.due():
            self._file(timed)
        if tracer.enabled:
            # the run's stage breakdown: all four stages, store, solver
            m.rows.append({"run": run, **result.timings.to_payload()})
        return result

    def _start(self) -> None:
        """Begin a measurement: no samples yet, a first kernel sample."""
        self.samples = defaultdict(list)
        self.pace = Pace()

    def _file(self, timed: Dict[Tuple[str, str], float]) -> None:
        """File the runs timed since the last kernel sample, scaled to
        the reference host speed by the samples around them."""
        if timed:
            scale = self.pace.factor()
            for cell, ms in timed.items():
                self.samples[cell].append(ms * scale)
            timed.clear()

    def _per_cell(self, m: Measurement) -> None:
        """Report one latency per cell, its median pass, so a burst of
        load from other tenants of a shared host that slows a few runs
        moves no cell; throughput is cells over their sum."""
        m.pace_ms = self.pace.samples_ms
        m.latencies_ms = [
            statistics.median(times) for times in self.samples.values()
        ]
        m.completed = len(m.latencies_ms)
        m.wall_s = sum(m.latencies_ms) / 1e3


class SuiteCold(BatchWorkload):
    """Table 2 sweep: 44 benchmarks x 3 tools per pass, cold store."""

    #: pipeline seeds the passes cycle through
    SEEDS_PER_RUN = 3
    #: ``--seconds`` per pass (a pass takes 2-4 s on a shared 2-core x86
    #: VM).  The pass count is fixed by ``--seconds``, not by timing, so
    #: the sample count, and with it the tail percentile, never changes
    SECONDS_PER_PASS = 2.5

    def __init__(
        self, seed: int, scratch: Path,
        cells: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        super().__init__(scratch)
        self.cells = list(cells) if cells is not None else table2_cells()
        self.seeds = pipeline_seeds(seed, self.SEEDS_PER_RUN)

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        """A cell's latency is its median over the passes."""
        m = Measurement()
        passes = max(1, int(seconds / self.SECONDS_PER_PASS))
        self._start()
        for index in range(passes):
            seed = self.seeds[index % len(self.seeds)]
            store = self.scratch / f"suite-store-{index}"
            timed: Dict[Tuple[str, str], float] = {}
            for name, tool in self.cells:
                request = RunRequest(
                    benchmark=name, tool=tool, seed=seed,
                    store_path=str(store),
                )
                result = self._run_cell(m, tracer, request, timed)
                if result is not None:
                    problem = expectation_problem(result)
                    if problem is not None:
                        m.note_failure(problem, wrong=True)
            self._file(timed)
            shutil.rmtree(store, ignore_errors=True)
        self._per_cell(m)
        return m


class ScaleTail(BatchWorkload):
    """scale32/scale128 x 3 tools, no store: the solver's tail."""

    #: ``--seconds`` per pass (a pass takes 1-1.6 s on a shared 2-core
    #: x86 VM); as for :class:`SuiteCold`, ``--seconds`` fixes the count
    SECONDS_PER_PASS = 1.25

    def __init__(
        self, seed: int, scratch: Path,
        scales: Sequence[str] = SCALES,
    ) -> None:
        super().__init__(scratch)
        self.cells = [(scale, tool) for scale in scales for tool in TOOLS]
        self.seeds = pipeline_seeds(seed, 1)
        #: result digests of the smallest row, run once at set-up
        self.reference: Dict[Tuple[str, str], str] = {}

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Also runs the smallest scale row once per tool: the warm-up,
        and the reference a measured run must repeat byte for byte."""
        super().setup(tracer)
        scale = self.cells[0][0]
        for tool in TOOLS:
            result = self.service.run(RunRequest(
                benchmark=scale, tool=tool, seed=self.seeds[0]
            )).result
            self.reference[(scale, tool)] = result_digest(result)

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        """A cell's latency is its median pass."""
        m = Measurement()
        first = dict(self.reference)
        passes = max(3, int(seconds / self.SECONDS_PER_PASS))
        self._start()
        for index in range(passes):
            timed: Dict[Tuple[str, str], float] = {}
            for scale, tool in self.cells:
                request = RunRequest(
                    benchmark=scale, tool=tool, seed=self.seeds[0]
                )
                result = self._run_cell(m, tracer, request, timed)
                if result is None:
                    continue
                digest = structure_digest(result.target_graph)
                if digest != TARGET_DIGESTS.get((scale, tool)):
                    m.note_failure(
                        f"{scale}/{tool}: target digest {digest}", wrong=True
                    )
                exact = result_digest(result)
                if first.setdefault((scale, tool), exact) != exact:
                    m.note_failure(
                        f"{scale}/{tool}: pass {index} differs from an "
                        "earlier run of the same seed",
                        wrong=True,
                    )
            self._file(timed)
        self._per_cell(m)
        return m
