"""The comparison's embedding reads postings, with unchanged matchings.

With the optimizations on, ``embed_subgraph`` reads every cost its
search needs from the foreground's per-label property postings; under
``solver_optimizations(False)`` it prices each pair with
``property_mismatch_cost``.  Both must return the same ``Matching`` —
the node and edge maps, in the same order, and the cost — for every
comparison of a seed-5 three-tool Table 2 sweep and of scale8/scale32.
"""

from __future__ import annotations

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.core import stages
from repro.core.compare import ComparisonError
from repro.solver.native import embed_subgraph, solver_optimizations
from repro.suite.registry import TABLE2_ORDER

BENCHMARKS = (*TABLE2_ORDER, "scale8", "scale32")


def matching_items(matching):
    return (
        list(matching.node_map.items()),
        list(matching.edge_map.items()),
        matching.cost,
    )


@pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
def test_comparisons_match_the_pairwise_reference(monkeypatch, tool):
    compared = []
    real_compare = stages.compare

    def both_modes(foreground, background, engine="native"):
        with solver_optimizations(False):
            reference = embed_subgraph(background.copy(), foreground.copy())
        try:
            outcome = real_compare(foreground, background, engine=engine)
        except ComparisonError:
            assert reference is None, len(compared)
            raise
        assert reference is not None, len(compared)
        assert matching_items(outcome.matching) == matching_items(reference), (
            len(compared)
        )
        compared.append(outcome)
        return outcome

    monkeypatch.setattr(stages, "compare", both_modes)
    with BenchmarkService() as service:
        for name in BENCHMARKS:
            service.run(RunRequest(benchmark=name, tool=tool, seed=5))
    assert len(compared) == len(BENCHMARKS)
