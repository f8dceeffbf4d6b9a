"""Speedup of the fast-path matching engine (this PR's tentpole).

Runs the scalability benchmarks with the optimized native engine and
again with every optimization disabled (``solver_optimizations(False)``:
label/degree candidate scans, full group rescans per step, uncached
property costs, no warm starts), and
records the processing-time ratio plus the solver counters that make the
wins observable.  The per-case payloads land in
``benchmarks/output/BENCH_PR1.json`` via ``record_bench``.
"""

import pytest

from repro import ProvMark
from repro.solver.native import solver_optimizations

from conftest import emit, record_bench, timings_payload

CASES = [
    ("spade", "scale8"),
    ("spade", "scale32"),
    ("camflow", "scale8"),
    ("camflow", "scale16"),
    ("opus", "scale8"),
]


def best_processing(tool, name, rounds=3):
    provmark = ProvMark(tool=tool, seed=5)
    results = [provmark.run_benchmark(name) for _ in range(rounds)]
    best = min(results, key=lambda r: r.timings.processing)
    assert best.classification.value == "ok"
    return best


@pytest.mark.parametrize("tool,name", CASES)
def test_optimization_speedup(benchmark, tool, name):
    def run_both():
        optimized = best_processing(tool, name)
        with solver_optimizations(False):
            reference = best_processing(tool, name)
        return optimized, reference

    optimized, reference = benchmark.pedantic(run_both, rounds=1, iterations=1)
    fast = optimized.timings.processing
    slow = reference.timings.processing
    ratio = slow / fast if fast else float("inf")
    emit(f"solver_opt_{tool}_{name}", [
        f"optimized processing: {fast:.4f}s "
        f"(steps={optimized.timings.solver_steps}, "
        f"warm starts={optimized.timings.matching_cache_hits}, "
        f"cost cache hits={optimized.timings.cost_cache_hits})",
        f"reference processing: {slow:.4f}s "
        f"(steps={reference.timings.solver_steps})",
        f"speedup: {ratio:.2f}x",
    ])
    record_bench(f"solver_opt/{tool}/{name}", {
        "optimized": timings_payload(optimized.timings),
        "reference": timings_payload(reference.timings),
        "speedup": ratio,
    })
    # Results must be identical; the fast path may only be faster.
    assert optimized.target_graph == reference.target_graph
    assert ratio > 0.8  # never a regression beyond noise


#: per-tool solver_steps ceilings at scale16 — observed values are
#: roughly (spade 190, camflow 260, opus 630); ~2.5x headroom for noise.
SMOKE_STEP_CEILINGS = {"spade": 500, "camflow": 700, "opus": 1600}


@pytest.mark.parametrize("tool", sorted(SMOKE_STEP_CEILINGS))
def test_perf_smoke_counter_ceilings(benchmark, tool):
    """CI perf smoke: solver counters at a fixed small scale.

    Guards the decomposed minimizing search against regressions without
    timing anything: solver_steps at scale16 must stay under a fixed
    ceiling and must not grow superlinearly from scale8 (2x scale, so
    ~2x steps when the decomposition holds; 3x is the alarm line).
    """
    def run():
        provmark = ProvMark(tool=tool, seed=5)
        return {
            name: provmark.run_benchmark(name) for name in ("scale8", "scale16")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for result in results.values():
        assert result.classification.value == "ok"
        assert result.timings.decomposed_components > 0
    small = results["scale8"].timings.solver_steps
    large = results["scale16"].timings.solver_steps
    emit(f"perf_smoke_{tool}", [
        f"scale8 steps={small}  scale16 steps={large} "
        f"(ceiling {SMOKE_STEP_CEILINGS[tool]})",
    ])
    record_bench(f"perf_smoke/{tool}", {
        "scale8_steps": small,
        "scale16_steps": large,
        "ceiling": SMOKE_STEP_CEILINGS[tool],
    })
    assert large <= SMOKE_STEP_CEILINGS[tool]
    assert large < 3 * small, f"superlinear step growth: {large}/{small}"


def test_scale_headroom_within_step_budget(benchmark):
    """scale16/scale32 stay far below the 2M-step solver budget."""
    def run():
        rows = {}
        for tool in ("spade", "camflow"):
            provmark = ProvMark(tool=tool, seed=5)
            for name in ("scale16", "scale32"):
                rows[(tool, name)] = provmark.run_benchmark(name)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    for (tool, name), result in rows.items():
        assert result.classification.value == "ok"
        assert result.timings.solver_steps < 100_000
        lines.append(
            f"{tool}/{name}: proc={result.timings.processing:.4f}s "
            f"steps={result.timings.solver_steps}"
        )
        record_bench(
            f"scale_headroom/{tool}/{name}",
            timings_payload(result.timings),
        )
    emit("solver_opt_step_budget", lines)
