"""Artifact-store effectiveness (this PR's tentpole acceptance).

A cold ``batch --store DIR`` sweep over the default suite followed by a
warm re-run must produce identical per-benchmark results (classification,
graphs, solver counters) while the warm run serves every executed stage
from the store and spends measurably less processing wall-clock.  A
"killed" sweep re-run with ``--resume`` must replay the completed
benchmarks verbatim and compute only the remaining ones.
"""

import shutil
import tempfile
import time

from repro import ProvMark
from repro.core.pipeline import PipelineConfig
from repro.suite import TABLE2_ORDER

from conftest import emit, record_bench

SUITE = list(TABLE2_ORDER)


def identical(a, b) -> bool:
    """Result identity over everything deterministic (not wall clock)."""
    return (
        a.classification is b.classification
        and a.target_graph == b.target_graph
        and a.foreground == b.foreground
        and a.background == b.background
        and a.note == b.note
        and a.error == b.error
        and a.discarded_trials == b.discarded_trials
        and a.timings.solver_row() == b.timings.solver_row()
    )


def sweep(store: str, names=None, resume: bool = False):
    config = PipelineConfig(
        tool="spade", seed=5, store_path=store, resume=resume
    )
    provmark = ProvMark(config=config)
    started = time.perf_counter()
    results = provmark.run_many(names or SUITE)
    return results, time.perf_counter() - started


def test_cold_vs_warm_sweep():
    store = tempfile.mkdtemp(prefix="provmark-store-")
    try:
        cold, cold_wall = sweep(store)
        warm, warm_wall = sweep(store)
        for cold_result, warm_result in zip(cold, warm):
            assert identical(cold_result, warm_result), cold_result.benchmark
            # every executed stage served from the store (failed
            # benchmarks short-circuit after three stages)
            assert warm_result.timings.store_misses == 0
            assert warm_result.timings.store_hits >= 3
            assert cold_result.timings.store_hits == 0
        cold_proc = sum(r.timings.processing for r in cold)
        warm_proc = sum(r.timings.processing for r in warm)
        assert warm_proc < cold_proc
        stage_hits = sum(r.timings.store_hits for r in warm)
        rows = [
            f"suite: {len(SUITE)} benchmarks (spade, seed 5)",
            f"cold sweep: {cold_wall:.3f}s wall, {cold_proc:.3f}s processing",
            f"warm sweep: {warm_wall:.3f}s wall, {warm_proc:.3f}s processing",
            f"processing speedup: {cold_proc / max(warm_proc, 1e-9):.1f}x",
            f"warm stage hits: {stage_hits}, misses: 0",
        ]
        emit("artifact_store_cold_vs_warm", rows)
        record_bench("artifact_store_cold_vs_warm", {
            "suite": len(SUITE),
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "cold_processing_s": cold_proc,
            "warm_processing_s": warm_proc,
            "warm_stage_hits": stage_hits,
        })
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_killed_sweep_resumes_remaining_only():
    store = tempfile.mkdtemp(prefix="provmark-store-")
    try:
        completed = SUITE[: len(SUITE) // 2]
        partial, _ = sweep(store, names=completed)  # the "killed" sweep
        resumed, resumed_wall = sweep(store, resume=True)
        replayed = resumed[: len(completed)]
        for before, after in zip(partial, replayed):
            assert identical(before, after)
            # float-equal stored wall clocks prove a verbatim replay
            assert after.timings.recording == before.timings.recording
            assert after.timings.generalization == before.timings.generalization
        fresh = resumed[len(completed):]
        assert all(r.timings.store_misses >= 3 for r in fresh)
        emit("artifact_store_resume", [
            f"killed sweep completed {len(completed)}/{len(SUITE)}",
            f"--resume replayed {len(replayed)}, "
            f"computed {len(fresh)} in {resumed_wall:.3f}s",
        ])
        record_bench("artifact_store_resume", {
            "completed": len(completed),
            "replayed": len(replayed),
            "computed": len(fresh),
            "resume_wall_s": resumed_wall,
        })
    finally:
        shutil.rmtree(store, ignore_errors=True)
