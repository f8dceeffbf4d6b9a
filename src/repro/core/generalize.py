"""Stage 3 — graph generalization (paper §3.4).

Partitions the trial graphs into similarity classes, discards graphs that
are only similar to themselves (failed runs), picks the smallest
consistent pair, and generalizes it: the matching that minimizes property
mismatches is computed, and only agreeing properties are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.graph.model import PropertyGraph
from repro.solver import (
    generalize_pair,
    isomorphism,
    partition_similarity_classes,
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

    With ``matching_cache`` (the default) the isomorphism found while
    classing the chosen pair warm-starts the minimizing search instead of
    re-solving the identical problem from scratch; the generalized graph
    is identical either way (the warm bound only prunes, never redirects,
    the branch-and-bound).

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
    classes, pair_matchings = partition_similarity_classes(
        pool, collect_matchings=True
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
    if engine == "native":
        warm = (
            pair_matchings.get((best_class[0], best_class[1]))
            if matching_cache else None
        )
        generalized = generalize_pair(g1, g2, warm=warm)
    else:
        matching = isomorphism(g1, g2, minimize_properties=True, engine=engine)
        generalized = None
        if matching is not None:
            generalized = _apply_matching(g1, g2, matching)
    if generalized is None:
        raise GeneralizationError("similar graphs failed to generalize")
    return GeneralizationOutcome(
        graph=generalized, discarded=discarded, class_sizes=class_sizes
    )


def _apply_matching(g1: PropertyGraph, g2: PropertyGraph, matching) -> PropertyGraph:
    """Keep agreeing properties under an externally computed matching."""
    out = PropertyGraph(g1.gid)
    for node in g1.nodes():
        other = g2.node(matching.node_map[node.id])
        props = {
            key: value for key, value in node.props.items()
            if other.props.get(key) == value
        }
        out.add_node(node.id, node.label, props)
    for edge in g1.edges():
        other_edge = g2.edge(matching.edge_map[edge.id])
        props = {
            key: value for key, value in edge.props.items()
            if other_edge.props.get(key) == value
        }
        out.add_edge(edge.id, edge.src, edge.tgt, edge.label, props)
    return out
