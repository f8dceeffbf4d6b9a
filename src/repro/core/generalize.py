"""Stage 3 — graph generalization (paper §3.4).

Partitions the trial graphs into similarity classes, discards graphs that
are only similar to themselves (failed runs), picks the smallest
consistent pair, and generalizes it: the matching that minimizes property
mismatches is computed, and only agreeing properties are kept.  Trials 0
and 1 are usually that pair, so their minimizing search runs first and
doubles as their similarity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graph.model import PropertyGraph
from repro.solver import (
    SolverLimit,
    apply_matching,
    generalize_pair,
    isomorphism,
    partition_similarity_classes,
    price_node_map,
    solver_stats,
)
from repro.storage.artifacts import graph_from_payload, graph_to_payload


class GeneralizationError(Exception):
    """No pair of consistent trials could be found."""


@dataclass
class GeneralizationOutcome:
    graph: PropertyGraph
    discarded: int
    class_sizes: List[int]

    def to_payload(self) -> Dict[str, object]:
        return {
            "graph": graph_to_payload(self.graph),
            "discarded": self.discarded,
            "class_sizes": list(self.class_sizes),
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, object]
    ) -> "GeneralizationOutcome":
        return cls(
            graph=graph_from_payload(payload["graph"]),
            discarded=int(payload["discarded"]),
            class_sizes=[int(s) for s in payload["class_sizes"]],
        )


def filter_incomplete(graphs: Sequence[PropertyGraph]) -> List[PropertyGraph]:
    """The ``filtergraphs`` option (paper appendix A.4).

    Drops graphs bearing recording-restart artifacts — obviously incomplete
    or incorrect output — before similarity classing.  Increases benchmark
    accuracy at some recording cost (more trials may be needed).
    """
    kept = []
    for graph in graphs:
        if any(node.label == "machine" for node in graph.nodes()):
            continue
        kept.append(graph)
    return kept


def generalize_trials(
    graphs: Sequence[PropertyGraph],
    filtergraphs: bool = False,
    engine: str = "native",
    pair_policy: str = "smallest",
    matching_cache: bool = True,
) -> GeneralizationOutcome:
    """Generalize one program variant's trial graphs into one graph.

    ``pair_policy`` selects which consistent similarity class supplies the
    representative pair.  The paper (§3.4) uses ``"smallest"`` and notes
    ``"largest"`` also works, while *mixing* the policies across program
    variants misbehaves: a larger background may not embed into a smaller
    foreground, and the opposite mix leaves extra structure in the
    difference.  The pipeline exposes the policy so that remark can be
    reproduced (``tests/test_ablations.py``).

    With ``matching_cache`` (the default) no pair is searched twice.  The
    native engine generalizes trials 0 and 1 before classing: a matching
    proves them similar, and its graph is the answer whenever their class
    is the one chosen (a ``matching_cache_hits`` hit); ``None`` proves
    them dissimilar, and a :class:`~repro.solver.native.SolverLimit`
    leaves the pair to classing as before.  Any other chosen pair
    warm-starts its minimizing search from the isomorphism classing found
    for it, priced once.  The generalized graph, ``discarded`` and
    ``class_sizes`` are identical either way: classing reaches the same
    verdicts, and the warm bound only prunes, never redirects, the
    branch-and-bound.  ``matching_cache=False`` is the reference: it
    classes every pair, then searches the chosen pair cold.

    On large trial graphs the minimizing search itself is decomposed: the
    solver partitions the pair along WL-color-stable anchors into
    independent connected components, solves each piece, and stitches the
    results (``repro.solver.native._decomposed_isomorphism``).  The split
    is only kept when a lower-bound certificate (every node and edge group
    pays its class-minimum mismatch cost) proves the stitched answer
    byte-identical to the monolithic search, and it falls back to the
    monolithic path — warm bound and all — on any ambiguity, so this stage
    never observes a different generalized graph.  When the split fires,
    the stage's :class:`~repro.core.result.StageTimings` report it via the
    ``decomposed_components`` and ``component_steps_max`` counters.
    """
    if pair_policy not in ("smallest", "largest"):
        raise ValueError(f"unknown pair policy {pair_policy!r}")
    if len(graphs) < 2:
        raise GeneralizationError("need at least two trial graphs")
    pool: List[PropertyGraph] = list(graphs)
    discarded = 0
    if filtergraphs:
        filtered = filter_incomplete(pool)
        discarded += len(pool) - len(filtered)
        pool = filtered
    if len(pool) < 2:
        raise GeneralizationError(
            "fewer than two trials survived graph filtering"
        )
    # Trials 0 and 1 generalized, when they are similar.
    speculative: Optional[PropertyGraph] = None
    known: Dict[Tuple[int, int], bool] = {}
    if engine == "native" and matching_cache:
        try:
            speculative = generalize_pair(pool[0], pool[1])
        except SolverLimit:
            pass  # classing's first-solution search decides the pair
        else:
            known[(0, 1)] = speculative is not None
    classes, node_maps = partition_similarity_classes(
        pool, collect_matchings=True, known=known
    )
    class_sizes = sorted((len(c) for c in classes), reverse=True)
    consistent = [c for c in classes if len(c) >= 2]
    discarded += sum(1 for c in classes if len(c) == 1)
    if not consistent:
        raise GeneralizationError(
            "all trials were singletons: no consistent pair "
            f"(classes: {class_sizes})"
        )
    # Among consistent classes pick the pair of smallest (default) or
    # largest size (paper §3.4: "we choose a pair of graphs whose size is
    # smallest. Picking the two largest graphs also seems to work").
    chooser = min if pair_policy == "smallest" else max
    best_class = chooser(consistent, key=lambda c: pool[c[0]].size)
    g1, g2 = pool[best_class[0]], pool[best_class[1]]
    if speculative is not None and best_class[:2] == [0, 1]:
        solver_stats().matching_cache_hits += 1
        generalized = speculative
    elif engine == "native":
        warm = (
            price_node_map(g1, g2, node_maps[best_class[0], best_class[1]])
            if matching_cache else None
        )
        generalized = generalize_pair(g1, g2, warm=warm)
    else:
        matching = isomorphism(g1, g2, minimize_properties=True, engine=engine)
        generalized = None
        if matching is not None:
            generalized = apply_matching(g1, g2, matching)
    if generalized is None:
        raise GeneralizationError("similar graphs failed to generalize")
    return GeneralizationOutcome(
        graph=generalized, discarded=discarded, class_sizes=class_sizes
    )

