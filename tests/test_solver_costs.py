"""Deterministic cost ceilings for the matching engine.

Generalization and comparison spend their time in the native solver's
searches.  These tests count that work instead of timing it, so a
regression fails on any runner:

* ``solver_steps`` at scale128 stays under a per-tool ceiling, and
  neither steps nor ``property_mismatch_cost`` calls grow superlinearly
  from scale32 (steps cannot see a quadratic scan inside one step; the
  call count can);
* scale16/scale32 stay far below the solver's step budget;
* the fast path takes fewer steps than the unoptimized reference, for
  byte-identical target graphs;
* every scalability row beyond the paper's scale8 decomposes, and a
  ~25-syscall build-like workload stays inside the step budget.
"""

from __future__ import annotations

import pytest

from repro import ProvMark
from repro.solver import native
from repro.solver.native import solver_optimizations
from repro.suite.program import Op, Program
from repro.suite.registry import SUITE_REGISTRY

SEED = 5
#: per-tool solver_steps ceilings at scale128 — observed values are
#: (spade 292, opus 944, camflow 1486); ~2.5x headroom for noise.
SMOKE_STEP_CEILINGS = {"spade": 750, "camflow": 3700, "opus": 2400}
#: scale128 is 4x scale32: a linear search grows ~4x, a quadratic ~16x.
SMOKE_GROWTH_ALARM = 6


@pytest.mark.parametrize("tool", sorted(SMOKE_STEP_CEILINGS))
def test_perf_smoke_counter_ceilings(monkeypatch, tool):
    """Solver counters at scale32 and scale128, against the ceilings."""
    calls = {"count": 0}
    original = native.property_mismatch_cost

    def counted(props1, props2):
        calls["count"] += 1
        return original(props1, props2)

    monkeypatch.setattr(native, "property_mismatch_cost", counted)
    provmark = ProvMark(tool=tool, seed=SEED)
    results = {}
    for name in ("scale32", "scale128"):
        calls["count"] = 0
        results[name] = (provmark.run_benchmark(name), calls["count"])
    for result, _ in results.values():
        assert result.classification.value == "ok"
        assert result.timings.decomposed_components > 0
    small_result, small_calls = results["scale32"]
    large_result, large_calls = results["scale128"]
    small = small_result.timings.solver_steps
    large = large_result.timings.solver_steps
    assert large <= SMOKE_STEP_CEILINGS[tool]
    assert large < SMOKE_GROWTH_ALARM * small, (
        f"superlinear step growth: {large}/{small}"
    )
    assert large_calls < SMOKE_GROWTH_ALARM * small_calls, (
        f"superlinear cost-call growth: {large_calls}/{small_calls}"
    )


def test_scale_headroom_within_step_budget():
    """scale16/scale32 stay far below the 2M-step solver budget."""
    for tool in ("spade", "camflow"):
        provmark = ProvMark(tool=tool, seed=SEED)
        for name in ("scale16", "scale32"):
            result = provmark.run_benchmark(name)
            assert result.classification.value == "ok"
            assert result.timings.solver_steps < 100_000


@pytest.mark.parametrize("tool,name", [
    ("spade", "scale8"),
    ("spade", "scale32"),
    ("camflow", "scale8"),
    ("camflow", "scale16"),
    ("opus", "scale8"),
])
def test_fast_path_takes_fewer_steps(tool, name):
    optimized = ProvMark(tool=tool, seed=SEED).run_benchmark(name)
    with solver_optimizations(False):
        reference = ProvMark(tool=tool, seed=SEED).run_benchmark(name)
    assert optimized.classification.value == "ok"
    assert optimized.target_graph == reference.target_graph
    assert optimized.timings.solver_steps < reference.timings.solver_steps


@pytest.mark.parametrize("name", ["scale16", "scale32", "scale128", "scale512"])
@pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
def test_headroom_rows_decompose(tool, name):
    assert "scalability" in SUITE_REGISTRY.tags(name)
    result = ProvMark(tool=tool, seed=SEED).run_benchmark(name)
    assert result.classification.value == "ok"
    assert result.timings.decomposed_components > 0


def mixed_workload() -> Program:
    """A build-like session: dirs, copies, permissions, cleanup."""
    ops = [
        Op("mkdir", ("build",), target=True),
        Op("chdir", ("build",), target=True),
    ]
    for index in range(4):
        ops += [
            Op("creat", (f"obj{index}.o", 0o644), result=f"fd{index}",
               target=True),
            Op("write", (f"$fd{index}", b"obj"), target=True),
            Op("close", (f"$fd{index}",), target=True),
        ]
    ops += [
        Op("creat", ("app", 0o755), result="out", target=True),
        Op("write", ("$out", b"linked"), target=True),
        Op("chmod", ("app", 0o755), target=True),
        Op("link", ("app", "app.release"), target=True),
        Op("chdir", ("..",), target=True),
        Op("rename", ("build/app.release", "app.final"), target=True),
    ]
    for index in range(4):
        ops.append(Op("unlink", (f"build/obj{index}.o",), target=True))
    return Program(name="headroom_mixed", ops=tuple(ops))


@pytest.mark.parametrize("tool", ["spade", "camflow"])
def test_mixed_workload_within_step_budget(tool):
    result = ProvMark(tool=tool, seed=SEED).run_benchmark(mixed_workload())
    assert result.classification.value == "ok"
    assert result.timings.solver_steps < 100_000
