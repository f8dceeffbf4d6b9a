"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_cold --seed 2019 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``backlog.py``):

* ``suite_cold`` — the paper's Table 2 sweep, 44 benchmarks x spade/opus/
  camflow through ``BenchmarkService.run``, a fresh store per pass;
* ``scale_tail`` — scale32/scale128 x the three tools, no store: the
  solver's superlinear generalization tail;
* ``service_backlog`` — open-loop bursts of async ``POST /v1/runs``
  through the middleware chain, the fleet manager and a cluster agent.

``--seed`` is the only source of inputs: it selects the pipeline seeds
and the service job order.  Use seed 2019 while working on a change and
confirm a claim on seed 7, which the change was not tuned on.

``--trace 0`` prints the end-to-end metrics: ``runs_per_s``,
``run_ms_p50`` and ``run_ms_tail``, ``setup_s`` (median of several
set-ups) and ``peak_rss_mb``.  The batch workloads run every cell over
several passes and report one latency per cell, its median pass, and
cells per second over their sum; for service_backlog a run is a job,
timed from its burst's t0, when every request of the burst was due, to
its ``finished_at``.  Every time is scaled to one reference host speed
by timings of a fixed kernel taken around and during the timed work
(``calibrate.py``), so the drift of a shared host's speed moves no
figure; the raw kernel timings are in the output file.  A tail is the
highest of p99.9/p99/p90/p50 with at least ten samples beyond it (the
maximum when there are fewer than twenty samples); the summary line
names the percentile and the sample count.

``--trace 1`` measures the workload untraced, then again with spans
recorded at each layer boundary, and prints the per-layer metrics; the
difference between the two is reported as ``trace.overhead_share``.

Every run writes ``.bench_out/<workload>-seed<N>-trace<T>.json`` (and,
traced, a ``.spans.jsonl`` beside it) with an environment block.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("suite_cold", "scale_tail", "service_backlog")
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = {"suite_cold": 9, "scale_tail": 5, "service_backlog": 3}
#: tail percentiles tried, highest first, in per-mille (p99.9 ... p50)
TAIL_LADDER = (999, 990, 900, 500)

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    # pipeline stages and the façade (suite_cold, scale_tail)
    "core.recording_ms": "ms",
    "core.transformation_ms": "ms",
    "core.generalization_ms": "ms",
    "core.comparison_ms": "ms",
    "api.run_overhead_ms": "ms",
    "solver.steps": "count",
    "solver.searches": "count",
    "solver.cost_cache_hit_ratio": "ratio",
    "storage.save_ms": "ms",
    "storage.load_ms": "ms",
    "storage.hit_ratio": "ratio",
    "storage.hits": "count",
    "storage.misses": "count",
    # the request path (service_backlog)
    "api.http_ms": "ms",
    "exec.submit_ms": "ms",
    "sched.admit_ms": "ms",
    "exec.queue_submit_ms": "ms",
    "exec.records_ms": "ms",
    "exec.records_per_submit": "count",
    "submit_ms_p50": "ms",
    "submit_ms_tail": "ms",
    "load.generator_lag_ms": "ms",
    "cluster.claim_ms": "ms",
    "cluster.complete_ms": "ms",
    "cluster.empty_claim_ratio": "ratio",
    "exec.queue_wait_ms": "ms",
    "exec.run_ms": "ms",
    "exec.peak_pending": "count",
    "exec.evicted": "count",
    "cluster.claims_total": "count",
    "cluster.completions_total": "count",
    "cluster.failures_total": "count",
    "cluster.retries_total": "count",
    "cluster.recovered_leases_total": "count",
    # every workload
    "failed_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


# -- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile): the highest ladder percentile with at least
    ten samples beyond it, else the maximum."""
    for permille in TAIL_LADDER:
        if len(values) * (1000 - permille) >= 10 * 1000:
            return percentile(values, permille / 10), permille / 10
    return max(values), 100.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- environment ---------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- metrics -------------------------------------------------------------


def end_to_end(m, setups: List[float]) -> Tuple[Dict[str, float], Dict]:
    """The end-to-end metrics of one untraced measurement."""
    latencies = m.latencies_ms or [0.0]  # nothing completed: all failed
    tail_ms, tail_pct = tail(latencies)
    values = {
        "runs_per_s": _ratio(m.completed, m.wall_s),
        "run_ms_p50": statistics.median(latencies),
        "run_ms_tail": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    detail = {"tail_percentile": tail_pct, "samples": len(m.latencies_ms)}
    return values, detail


def per_layer(tracer, traced, plain) -> Dict[str, float]:
    """Per-layer metrics from a traced measurement's spans and counts."""
    layers = tracer.layer_ms()

    def self_ms(name: str) -> float:
        return layers.get(name, {}).get("self_ms", 0.0)

    spans = tracer.spans
    claims = [s for s in spans if s["name"] == "cluster.claim"]
    submit_ids = {s["id"] for s in spans if s["name"] == "exec.submit"}
    records_read = sum(
        s.get("records", 0) for s in spans
        if s["name"] == "exec.records" and s["parent"] in submit_ids
    )
    rows = traced.rows
    hits = sum(int(r["store_hits"]) for r in rows)
    misses = sum(int(r["store_misses"]) for r in rows)
    cost_hits = sum(int(r.get("cost_cache_hits", 0)) for r in rows)
    counts = traced.counts
    values = {
        "core.recording_ms": self_ms("core.recording"),
        "core.transformation_ms": self_ms("core.transformation"),
        "core.generalization_ms": self_ms("core.generalization"),
        "core.comparison_ms": self_ms("core.comparison"),
        "api.run_overhead_ms": self_ms("api.run"),
        "solver.steps": _ratio(
            sum(int(r.get("solver_steps", 0)) for r in rows), len(rows)
        ),
        "solver.searches": _ratio(
            sum(int(r.get("solver_searches", 0)) for r in rows), len(rows)
        ),
        "solver.cost_cache_hit_ratio": _ratio(
            cost_hits,
            cost_hits + tracer.counts.get("solver.cost_computed", 0),
        ),
        "storage.save_ms": self_ms("storage.save"),
        "storage.load_ms": self_ms("storage.load"),
        "storage.hit_ratio": _ratio(hits, hits + misses),
        "storage.hits": _ratio(hits, len(rows)),
        "storage.misses": _ratio(misses, len(rows)),
        "api.http_ms": self_ms("api.post"),
        "exec.submit_ms": self_ms("exec.submit"),
        "sched.admit_ms": self_ms("sched.admit"),
        "exec.queue_submit_ms": self_ms("exec.queue_submit"),
        "exec.records_ms": self_ms("exec.records"),
        "exec.records_per_submit": _ratio(records_read, len(submit_ids)),
        "submit_ms_p50": (
            statistics.median(traced.submit_ms) if traced.submit_ms else 0.0
        ),
        "submit_ms_tail": tail(traced.submit_ms)[0] if traced.submit_ms else 0.0,
        "load.generator_lag_ms": counts.get("generator_lag_ms", 0.0),
        "cluster.claim_ms": self_ms("cluster.claim"),
        "cluster.complete_ms": self_ms("cluster.complete"),
        "cluster.empty_claim_ratio": _ratio(
            sum(1 for s in claims if s.get("empty")), len(claims)
        ),
        "exec.queue_wait_ms": counts.get("queue_wait_ms", 0.0),
        "exec.run_ms": counts.get("run_ms", 0.0),
        "exec.peak_pending": counts.get("peak_pending", 0),
        "exec.evicted": counts.get("evicted", 0),
        "failed_share": _ratio(
            traced.failed + traced.wrong, traced.attempted
        ),
        "trace.overhead_share": _ratio(
            _ratio(traced.wall_s, traced.completed),
            _ratio(plain.wall_s, plain.completed),
        ) - 1.0,
        "trace.spans": len(spans),
    }
    for key in (
        "claims_total", "completions_total", "failures_total",
        "retries_total", "recovered_leases_total",
    ):
        values[f"cluster.{key}"] = counts.get(f"cluster.{key}", 0)
    return values


# -- driver --------------------------------------------------------------


def make_workload(name: str, seed: int, scratch: Path):
    from backlog import ServiceBacklog
    from workloads import ScaleTail, SuiteCold

    if name == "suite_cold":
        return SuiteCold(seed, scratch)
    if name == "scale_tail":
        return ScaleTail(seed, scratch)
    return ServiceBacklog(seed, scratch, SRC)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, args: argparse.Namespace) -> Dict[str, object]:
    """Set up, measure (and trace), tear down; returns the report."""
    from spans import NullTracer, Tracer

    setups: List[float] = []
    # setup_s is an end-to-end metric: a traced run sets up once
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    try:
        pace = calibrate.Pace()
        for _ in range(repeats):
            with pace.beside() as mark:
                started = time.perf_counter()
                workload.setup()
                elapsed = time.perf_counter() - started
            setups.append(elapsed * pace.factor_since(mark))
        plain = workload.measure(args.seconds, NullTracer())
        report: Dict[str, object] = {
            "setup_s": setups, "setup_pace_ms": pace.samples_ms,
            "plain": plain,
        }
        if args.trace:
            tracer = Tracer()
            try:
                workload.setup(tracer)
                tracer.reset()
                report["traced"] = workload.measure(args.seconds, tracer)
            finally:
                tracer.restore()
            report["tracer"] = tracer
    finally:
        workload.teardown()
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no source tree at {SRC}; run from a checkout of "
            "the repository", file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment(args)
    env["started_at"] = time.time()
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(make_workload(args.workload, args.seed, scratch), args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["ended_at"] = time.time()

    plain = report["plain"]
    primary = report.get("traced", plain)
    e2e, detail = end_to_end(plain, report["setup_s"])
    output: Dict[str, object] = {
        "environment": env,
        "setup_s": report["setup_s"],
        "end_to_end": e2e,
        "pace_ms": {
            "reference": calibrate.REFERENCE_MS,
            "setup": report["setup_pace_ms"],
            "measure": plain.pace_ms,
        },
        "tail": detail,
        "counts": plain.counts,
        "problems": plain.problems + (
            primary.problems if primary is not plain else []
        ),
    }
    if args.trace:
        tracer = report["tracer"]
        values = per_layer(tracer, primary, plain)
        units = LAYER_UNITS
        output["per_layer"] = values
        output["layers"] = tracer.layer_ms()
        output["runs"] = primary.rows
    else:
        values, units = e2e, END_TO_END_UNITS
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(output, indent=1))
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as handle:
            for span in report["tracer"].spans:
                handle.write(json.dumps(span, default=str) + "\n")

    measured = [plain] if primary is plain else [plain, primary]
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed + m.wrong for m in measured)
    print(
        f"{args.workload} seed={args.seed}: {attempted} attempted, "
        f"{failed} failed; runs_per_s={e2e['runs_per_s']:.3f}, "
        f"run_ms p50={e2e['run_ms_p50']:.2f} "
        f"p{detail['tail_percentile']:g}={e2e['run_ms_tail']:.2f} "
        f"(n={detail['samples']}), setup_s={e2e['setup_s']:.3f}"
    )
    for problem in output["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": all(m.wrong == 0 for m in measured),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
