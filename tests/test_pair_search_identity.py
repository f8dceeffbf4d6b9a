"""Generalization searches each trial pair once, with unchanged results.

By default ``generalize_trials`` runs the minimizing search on trials 0
and 1 before classing, and classing decides membership without pricing.
The reference path (``matching_cache=False``) classes every pair first,
then searches the chosen pair cold.  Both paths must return the same
graph (ids, order, labels and props), ``discarded`` count and
``class_sizes``, and fail with the same error:

* for both variants of every Table 2 benchmark under SPADE, OPUS and
  CamFlow at seed 5;
* when trials 0 and 1 are not similar;
* when a class other than {0, 1}'s is chosen, under both pair policies;
* when the speculative search runs out of steps.
"""

from __future__ import annotations

from typing import List

import pytest

from repro import ProvMark
from repro.core import generalize, stages
from repro.core.generalize import GeneralizationError, generalize_trials
from repro.graph.model import PropertyGraph
from repro.solver import SolverLimit, solver_stats
from repro.suite.registry import TABLE2_ORDER


def outcome_of(graphs, **options):
    """A generalization's payload, or its error, and the searches it ran."""
    before = solver_stats().snapshot()
    try:
        outcome = generalize_trials(graphs, **options).to_payload()
    except GeneralizationError as error:
        outcome = {"error": str(error)}
    return outcome, solver_stats().delta(before).searches


def reference_of(graphs, **options):
    """The reference path, on copies that share no matcher caches."""
    return outcome_of(
        [graph.copy() for graph in graphs], matching_cache=False, **options
    )


@pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
def test_table2_generalizations_match_the_reference(monkeypatch, tool):
    searches = {"default": 0, "reference": 0}
    generalizations = []

    def both_paths(graphs, **options):
        reference, reference_searches = reference_of(graphs, **options)
        default, default_searches = outcome_of(graphs, **options)
        assert default == reference, (len(generalizations), options)
        searches["reference"] += reference_searches
        searches["default"] += default_searches
        generalizations.append(default)
        return generalize_trials(graphs, **options)

    monkeypatch.setattr(stages, "generalize_trials", both_paths)
    provmark = ProvMark(tool=tool, seed=5)
    for name in TABLE2_ORDER:
        provmark.run_benchmark(name)
    assert len(generalizations) == 2 * len(TABLE2_ORDER)
    # one search per two-trial generalization instead of two
    assert searches["default"] < searches["reference"]


def cycles(gid: str, sizes: List[int], stamp: str) -> PropertyGraph:
    """Disjoint directed cycles of ``N`` nodes joined by ``r`` edges.

    Each node carries a stable ``name`` and, like each edge, a volatile
    ``time``.  One hexagon and two triangles share a structural
    signature (every node is 1-in/1-out) without being similar.
    """
    graph = PropertyGraph(gid)
    for index, size in enumerate(sizes):
        names = [f"c{index}n{i}" for i in range(size)]
        for name in names:
            graph.add_node(name, "N", {"name": name, "time": stamp})
        for i, name in enumerate(names):
            graph.add_edge(
                f"e_{name}", name, names[(i + 1) % size], "r",
                {"time": stamp},
            )
    return graph


@pytest.fixture
def known_verdicts(monkeypatch):
    """The ``known`` verdicts each classing is handed, in call order."""
    seen = []
    real = generalize.partition_similarity_classes

    def spy(graphs, **options):
        seen.append(dict(options.get("known") or {}))
        return real(graphs, **options)

    monkeypatch.setattr(generalize, "partition_similarity_classes", spy)
    return seen


def test_dissimilar_first_trials(known_verdicts):
    trials = [
        cycles("t0", [6], "1"), cycles("t1", [3, 3], "2"),
        cycles("t2", [6], "3"), cycles("t3", [3, 3], "4"),
        cycles("t4", [2, 2, 2], "5"),
    ]
    assert trials[0].structural_signature() == (
        trials[1].structural_signature()
    )
    default, _ = outcome_of(trials)
    # the pair search refuted trials 0 and 1, and classing trusted it
    assert known_verdicts == [{(0, 1): False}]
    assert default == reference_of(trials)[0]
    assert default["class_sizes"] == [2, 2, 1]
    assert default["discarded"] == 1


@pytest.mark.parametrize("policy,first,other", [
    ("smallest", 6, 3),
    ("largest", 3, 6),
])
def test_another_class_chosen(known_verdicts, policy, first, other):
    trials = [cycles(f"t{i}", [first], str(i)) for i in range(2)] + [
        cycles(f"t{i}", [other], str(i)) for i in range(2, 5)
    ]
    before = solver_stats().snapshot()
    default, _ = outcome_of(trials, pair_policy=policy)
    hits = solver_stats().delta(before).matching_cache_hits
    assert known_verdicts == [{(0, 1): True}]
    assert default == reference_of(trials, pair_policy=policy)[0]
    assert default["class_sizes"] == [3, 2]
    # the pair search of trials 0 and 1 goes unused; trials 2 and 3
    # are generalized, warm-started from their classing matching
    assert default["graph"]["gid"] == "t2"
    assert len(default["graph"]["nodes"]) == other
    assert hits == 1


def test_speculative_search_out_of_steps(monkeypatch, known_verdicts):
    trials = [cycles(f"t{i}", [3, 3], str(i)) for i in range(3)]
    calls = []
    real = generalize.generalize_pair

    def limited(g1, g2, **options):
        calls.append(options)
        if len(calls) == 1:
            raise SolverLimit("out of steps")
        return real(g1, g2, **options)

    monkeypatch.setattr(generalize, "generalize_pair", limited)
    default, _ = outcome_of(trials)
    # classing searched the pair itself, and its matching warm-started
    # the second search
    assert known_verdicts == [{}]
    assert len(calls) == 2 and calls[1]["warm"] is not None
    monkeypatch.undo()
    assert default == reference_of(trials)[0]
    assert default["class_sizes"] == [3]
