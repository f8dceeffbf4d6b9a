"""Stage 2 — transformation (paper §3.3).

Maps each tool's native output — Graphviz DOT (SPADE), a Neo4j store
(OPUS), PROV-JSON (CamFlow) — into the uniform Datalog property-graph
representation.  For OPUS this includes starting the database session and
querying every node and relationship out of it, which is why the paper's
OPUS transformation times dwarf the others (Figure 6); the virtual
processing clock in :mod:`repro.core.stages` prices that start-up.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.capture.base import RawOutput
from repro.graph.dot import dot_to_graph
from repro.graph.model import PropertyGraph
from repro.graph.provjson import provjson_to_graph
from repro.storage.neo4jsim import Neo4jSim


class TransformError(Exception):
    """Raised for unknown formats or malformed native output."""


def transform_dot(raw: RawOutput, gid: str) -> PropertyGraph:
    if not isinstance(raw, str):
        raise TransformError("DOT transformer expects text output")
    return dot_to_graph(raw, gid=gid)


def transform_provjson(raw: RawOutput, gid: str) -> PropertyGraph:
    if not isinstance(raw, str):
        raise TransformError("PROV-JSON transformer expects text output")
    return provjson_to_graph(raw, gid=gid)


def transform_neo4j(raw: RawOutput, gid: str) -> PropertyGraph:
    if not isinstance(raw, Neo4jSim):
        raise TransformError("Neo4j transformer expects a Neo4jSim store")
    raw.start()
    graph = PropertyGraph(gid)
    try:
        # Batched session: the compiled rows come back in replay order as
        # one batch, so the graph is built without per-row deserialization
        # or copies (add_node/add_edge copy props on insert).
        session = raw.session()
        for row in session.nodes():
            graph.add_node(f"n{row.node_id}", row.label, row.props)
        for rel in session.relationships():
            graph.add_edge(
                f"e{rel.rel_id}", f"n{rel.start}", f"n{rel.end}", rel.rel_type, rel.props
            )
    finally:
        raw.shutdown()
    return graph


_TRANSFORMERS: Dict[str, Callable[[RawOutput, str], PropertyGraph]] = {
    "dot": transform_dot,
    "provjson": transform_provjson,
    "neo4j": transform_neo4j,
}


def transform(raw: RawOutput, output_format: str, gid: str = "g") -> PropertyGraph:
    """Convert one trial's native output into a property graph."""
    try:
        transformer = _TRANSFORMERS[output_format]
    except KeyError:
        raise TransformError(
            f"unknown output format {output_format!r}; "
            f"known: {sorted(_TRANSFORMERS)}"
        ) from None
    return transformer(raw, gid)


def supported_formats() -> tuple:
    return tuple(sorted(_TRANSFORMERS))
