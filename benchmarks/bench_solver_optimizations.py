"""Speedup of the fast-path matching engine (this PR's tentpole).

Runs the scalability benchmarks with the optimized native engine and
again with every optimization disabled (``solver_optimizations(False)``:
label/degree candidate scans, full group rescans per step, uncached
property costs, no warm starts), and
records the processing-time ratio plus the solver counters that make the
wins observable.  The per-case payloads land in the consolidated BENCH
file that ``conftest.CONSOLIDATED_NAME`` names, via ``record_bench``.
"""

import pytest

from repro import ProvMark
from repro.solver import native
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


#: per-tool solver_steps ceilings at scale128 — observed values are
#: (spade 292, opus 944, camflow 1486); ~2.5x headroom for noise.
SMOKE_STEP_CEILINGS = {"spade": 750, "camflow": 3700, "opus": 2400}
#: scale128 is 4x scale32: a linear search grows ~4x, a quadratic ~16x.
SMOKE_GROWTH_ALARM = 6


@pytest.mark.parametrize("tool", sorted(SMOKE_STEP_CEILINGS))
def test_perf_smoke_counter_ceilings(benchmark, monkeypatch, tool):
    """CI perf smoke: solver counters at scale32 and scale128.

    Guards the decomposed minimizing search against regressions without
    timing anything: solver_steps at scale128 must stay under a fixed
    per-tool ceiling, and neither solver_steps nor the number of
    ``property_mismatch_cost`` calls may grow superlinearly from scale32.
    Steps cannot see a quadratic scan inside one step; the call count
    (a monkeypatched wrapper, as perfbench's ``count_calls`` does) can.
    """
    calls = {"count": 0}
    original = native.property_mismatch_cost

    def counted(props1, props2):
        calls["count"] += 1
        return original(props1, props2)

    monkeypatch.setattr(native, "property_mismatch_cost", counted)

    def run():
        provmark = ProvMark(tool=tool, seed=5)
        results = {}
        for name in ("scale32", "scale128"):
            calls["count"] = 0
            results[name] = (provmark.run_benchmark(name), calls["count"])
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for result, _ in results.values():
        assert result.classification.value == "ok"
        assert result.timings.decomposed_components > 0
    small_result, small_calls = results["scale32"]
    large_result, large_calls = results["scale128"]
    small = small_result.timings.solver_steps
    large = large_result.timings.solver_steps
    emit(f"perf_smoke_{tool}", [
        f"scale32 steps={small}  scale128 steps={large} "
        f"(ceiling {SMOKE_STEP_CEILINGS[tool]})",
        f"scale32 cost calls={small_calls}  scale128 cost calls={large_calls}",
    ])
    record_bench(f"perf_smoke/{tool}", {
        "scale32_steps": small,
        "scale128_steps": large,
        "ceiling": SMOKE_STEP_CEILINGS[tool],
        "scale32_cost_calls": small_calls,
        "scale128_cost_calls": large_calls,
    })
    assert large <= SMOKE_STEP_CEILINGS[tool]
    assert large < SMOKE_GROWTH_ALARM * small, (
        f"superlinear step growth: {large}/{small}"
    )
    assert large_calls < SMOKE_GROWTH_ALARM * small_calls, (
        f"superlinear cost-call growth: {large_calls}/{small_calls}"
    )


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
