"""Graph-matching solvers: the fast native engine and the mini-ASP engine.

Both engines solve the paper's three matching problems (similarity,
generalization, approximate subgraph isomorphism).  ``engine="native"`` is
the default; ``engine="asp"`` runs the paper's actual Listing 3/4 ASP
programs through :mod:`repro.solver.asp`.
"""

from typing import Optional

from repro.graph.model import PropertyGraph
from repro.solver.asp.bridge import (
    asp_are_similar,
    asp_embed_subgraph,
    asp_find_isomorphism,
)
from repro.solver.native import (
    DUMMY_LABEL,
    Matching,
    SolverLimit,
    SolverStats,
    apply_matching,
    are_similar,
    embed_subgraph,
    find_isomorphism,
    generalize_pair,
    partition_similarity_classes,
    price_node_map,
    property_mismatch_cost,
    reset_solver_stats,
    solver_decomposition,
    solver_optimizations,
    solver_stats,
    subtract_background,
)

ENGINES = ("native", "asp")


def similarity(g1: PropertyGraph, g2: PropertyGraph, engine: str = "native") -> bool:
    """Structure-only isomorphism check with a selectable engine."""
    if engine == "native":
        return are_similar(g1, g2)
    if engine == "asp":
        return asp_are_similar(g1, g2)
    raise ValueError(f"unknown engine {engine!r}")


def isomorphism(
    g1: PropertyGraph,
    g2: PropertyGraph,
    minimize_properties: bool = False,
    engine: str = "native",
) -> Optional[Matching]:
    if engine == "native":
        return find_isomorphism(g1, g2, minimize_properties=minimize_properties)
    if engine == "asp":
        return asp_find_isomorphism(g1, g2, minimize_properties=minimize_properties)
    raise ValueError(f"unknown engine {engine!r}")


def subgraph_embedding(
    g1: PropertyGraph, g2: PropertyGraph, engine: str = "native"
) -> Optional[Matching]:
    if engine == "native":
        return embed_subgraph(g1, g2)
    if engine == "asp":
        return asp_embed_subgraph(g1, g2)
    raise ValueError(f"unknown engine {engine!r}")


__all__ = [
    "DUMMY_LABEL",
    "ENGINES",
    "Matching",
    "SolverLimit",
    "SolverStats",
    "apply_matching",
    "are_similar",
    "embed_subgraph",
    "find_isomorphism",
    "generalize_pair",
    "isomorphism",
    "partition_similarity_classes",
    "price_node_map",
    "property_mismatch_cost",
    "reset_solver_stats",
    "similarity",
    "solver_decomposition",
    "solver_optimizations",
    "solver_stats",
    "subgraph_embedding",
    "subtract_background",
]
