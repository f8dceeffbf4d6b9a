"""Stage 4 — graph comparison (paper §3.5).

Embeds the generalized background graph into the generalized foreground
graph (approximate subgraph isomorphism, minimizing mismatched
properties), subtracts the match, and keeps anchor nodes as dummies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.graph.model import PropertyGraph
from repro.solver import subgraph_embedding
from repro.solver.native import Matching, subtract_matching
from repro.storage.artifacts import graph_from_payload, graph_to_payload


class ComparisonError(Exception):
    """The background graph could not be embedded into the foreground."""


@dataclass
class ComparisonOutcome:
    target: PropertyGraph
    matching: Matching

    @property
    def is_empty(self) -> bool:
        return self.target.is_empty()

    def to_payload(self) -> Dict[str, object]:
        return {
            "target": graph_to_payload(self.target),
            "matching": {
                "node_map": dict(self.matching.node_map),
                "edge_map": dict(self.matching.edge_map),
                "cost": self.matching.cost,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ComparisonOutcome":
        matching = payload["matching"]
        return cls(
            target=graph_from_payload(payload["target"]),
            matching=Matching(
                node_map=dict(matching["node_map"]),
                edge_map=dict(matching["edge_map"]),
                cost=int(matching["cost"]),
            ),
        )


def compare(
    foreground: PropertyGraph,
    background: PropertyGraph,
    engine: str = "native",
) -> ComparisonOutcome:
    """Subtract the background from the foreground graph."""
    matching = subgraph_embedding(background, foreground, engine=engine)
    if matching is None:
        raise ComparisonError(
            "background does not embed into foreground "
            f"(bg {background.size} elements, fg {foreground.size})"
        )
    target = subtract_matching(foreground, matching)
    return ComparisonOutcome(target=target, matching=matching)

