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
  ~25-syscall build-like workload stays inside the step budget;
* each trial pair is searched once: a two-trial generalization launches
  one search, similarity classing prices nothing (a first-solution
  search, decomposed or not, prices no placement), and a scale-major
  pass stays under its search and ``property_mismatch_cost`` ceilings;
* the comparison prices no candidate pair: its embedding reads costs
  from the foreground's property postings, so a Table 2 pass makes
  almost no ``property_mismatch_cost`` calls there, and the postings
  entries it reads in a scale-major pass grow linearly, an item every
  candidate holds counted once rather than walked.
"""

from __future__ import annotations

import pytest

from typing import Iterator, Tuple

from repro import ProvMark
from repro.api import BenchmarkService, RunRequest
from repro.core import generalize, stages
from repro.core.result import BenchmarkResult
from repro.solver import native
from repro.solver.native import solver_decomposition, solver_optimizations
from repro.suite.program import Op, Program
from repro.suite.registry import SUITE_REGISTRY, TABLE2_ORDER

SEED = 5
#: per-tool solver_steps ceilings at scale128 — observed values are
#: (spade 150, opus 512, camflow 1216); the ceilings were set at ~2.5x
#: the values before each trial pair was searched once (292, 944, 1486).
SMOKE_STEP_CEILINGS = {"spade": 750, "camflow": 3700, "opus": 2400}
#: scale128 is 4x scale32: a linear search grows ~4x, a quadratic ~16x.
SMOKE_GROWTH_ALARM = 6


#: comparison postings entries a scale-major pass may read at scale128
#: (486 read; 3051 when an item every candidate holds is walked too)
SCALE128_POSTINGS_CEILING = 600


@pytest.fixture
def cost_calls(monkeypatch):
    """``property_mismatch_cost`` calls from now on: all, those made
    while the generalization stage classes trials and those made in the
    comparison stage; and the postings entries the comparison reads."""
    calls = {"all": 0, "classing": 0, "comparison": 0, "postings": 0}
    phase = [None]
    original_cost = native.property_mismatch_cost
    original_holders = native._holder_counts

    def counted(props1, props2):
        calls["all"] += 1
        if phase[0] is not None:
            calls[phase[0]] += 1
        return original_cost(props1, props2)

    def holder_counts(props, postings, size):
        common, hits = original_holders(props, postings, size)
        if phase[0] == "comparison":
            # one hit per postings entry read
            calls["postings"] += sum(hits.values())
        return common, hits

    def during(name, function):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return function(*args, **kwargs)
            finally:
                phase[0] = None
        return wrapped

    monkeypatch.setattr(native, "property_mismatch_cost", counted)
    monkeypatch.setattr(native, "_holder_counts", holder_counts)
    monkeypatch.setattr(
        generalize, "partition_similarity_classes",
        during("classing", generalize.partition_similarity_classes),
    )
    monkeypatch.setattr(stages, "compare", during("comparison", stages.compare))
    return calls


def scale_major_results() -> Iterator[Tuple[str, BenchmarkResult]]:
    """A scale-major scale32+scale128 pass over the three tools through
    one service (``scale_tail``'s order): each scale and result."""
    with BenchmarkService() as service:
        for scale in ("scale32", "scale128"):
            for tool in ("spade", "opus", "camflow"):
                result = service.run(
                    RunRequest(benchmark=scale, tool=tool, seed=SEED)
                ).result
                assert result.classification.value == "ok"
                yield scale, result


def scale_major_searches() -> int:
    """Solver searches of a scale-major pass."""
    return sum(
        result.timings.solver_searches for _, result in scale_major_results()
    )


def test_a_two_trial_generalization_searches_once():
    """SPADE's two trials per variant: one minimizing search each, which
    also proves the pair similar, plus the comparison's embedding (5
    when classing searched the pair first)."""
    result = ProvMark(tool="spade", seed=SEED).run_benchmark("rename")
    assert result.timings.solver_searches <= 3
    assert result.timings.matching_cache_hits == 2


def test_classing_prices_nothing(cost_calls):
    """Classing only decides membership (7710 calls when it priced each
    matching it found)."""
    scale_major_searches()
    assert cost_calls["all"] > 0
    assert cost_calls["classing"] == 0


def test_a_first_solution_search_prices_nothing(cost_calls):
    """Without the decomposed pass, classing runs monolithic
    first-solution searches, which price no placement: CamFlow scale128
    made 149472 calls when they did, in the same 33736 steps.  Nor does
    a similarity check price the isomorphism it finds."""
    with solver_decomposition(False):
        result = ProvMark(tool="camflow", seed=SEED).run_benchmark("scale128")
        graph = result.foreground
        assert native.are_similar(graph, graph.relabel("z"))
    assert native.are_similar(graph, graph.relabel("z"))
    assert result.classification.value == "ok"
    assert cost_calls["all"] == 0


def test_a_scale_major_pass_searches_each_pair_once(cost_calls):
    """Was 42 searches and 16090 cost calls, each first trial pair
    searched by classing and again by generalization; then 8380 calls,
    4070 of them the comparison's pairwise pricing."""
    assert scale_major_searches() <= 30
    assert cost_calls["all"] <= 4310
    assert cost_calls["comparison"] == 0


def test_the_comparison_prices_no_candidate_pair(cost_calls):
    """A seed-5 three-tool Table 2 pass: the comparison priced 28389
    pairs when its embedding search called ``property_mismatch_cost``."""
    with BenchmarkService() as service:
        for tool in ("spade", "opus", "camflow"):
            for name in TABLE2_ORDER:
                service.run(RunRequest(benchmark=name, tool=tool, seed=SEED))
    assert cost_calls["postings"] > 0
    assert cost_calls["comparison"] <= 500


def test_comparison_postings_reads_grow_linearly(cost_calls):
    """The embedding reads each background element's postings, never an
    item every candidate holds: scale32 reads 198 entries and scale128
    486 (939 and 3051 when such items are walked)."""
    reads = {"scale32": 0, "scale128": 0}
    seen = 0
    for scale, _ in scale_major_results():
        reads[scale] += cost_calls["postings"] - seen
        seen = cost_calls["postings"]
    assert 0 < reads["scale32"]
    assert reads["scale128"] <= SMOKE_GROWTH_ALARM * reads["scale32"]
    assert reads["scale128"] <= SCALE128_POSTINGS_CEILING


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
