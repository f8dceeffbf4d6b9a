"""Graphviz DOT serialization.

SPADE's Graphviz storage emits one DOT statement per vertex and edge with
the provenance annotations packed into the ``label`` attribute
(``key1:value1\\nkey2:value2``) and the element kind in ``shape``
(box = Process, ellipse = Artifact, octagon = Agent).  The transformation
stage parses exactly this dialect; the writer is also used to visualize
benchmark results.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.graph.model import PropertyGraph

_SHAPE_FOR_LABEL = {
    "Process": "box",
    "Activity": "box",
    "Artifact": "ellipse",
    "Entity": "ellipse",
    "Agent": "octagon",
    "Dummy": "egg",
}

_LABEL_FOR_SHAPE = {
    "box": "Process",
    "ellipse": "Artifact",
    "octagon": "Agent",
    "egg": "Dummy",
}

_NODE_RE = re.compile(r'^\s*"?([\w.]+)"?\s*\[(.*)\];?\s*$')
_EDGE_RE = re.compile(r'^\s*"?([\w.]+)"?\s*->\s*"?([\w.]+)"?\s*\[(.*)\];?\s*$')
_ATTR_RE = re.compile(r'(\w+)\s*=\s*"((?:[^"\\]|\\.)*)"')


class DotError(Exception):
    """Raised when DOT text cannot be parsed."""


def _pack_label(label: str, props: Mapping[str, str]) -> str:
    parts = [f"type:{label}"]
    for key in sorted(props):
        parts.append(f"{key}:{props[key]}")
    return "\\n".join(parts)


def _unpack_label(packed: str) -> Tuple[str, Dict[str, str]]:
    label = ""
    props: Dict[str, str] = {}
    for part in packed.split("\\n"):
        if not part:
            continue
        key, _, value = part.partition(":")
        if key == "type" and not label:
            label = value
        else:
            props[key] = value
    return label or "Unknown", props


def dot_node(node_id: str, label: str, props: Mapping[str, str]) -> str:
    """One vertex statement of the dialect."""
    shape = _SHAPE_FOR_LABEL.get(label, "ellipse")
    packed = _pack_label(label, props)
    return f'  "{node_id}" [label="{packed}" shape="{shape}"];'


def dot_edge(
    edge_id: str, src: str, tgt: str, label: str, props: Mapping[str, str]
) -> str:
    """One edge statement of the dialect."""
    packed = _pack_label(label, props)
    return f'  "{src}" -> "{tgt}" [id="{edge_id}" label="{packed}"];'


def dot_document(name: str, statements: Iterable[str]) -> str:
    """A DOT document: ``statements`` inside ``digraph name { }``."""
    return "\n".join([f"digraph {name} {{", *statements, "}"]) + "\n"


def graph_to_dot(graph: PropertyGraph, name: str = "provenance") -> str:
    """Render ``graph`` in the SPADE-like DOT dialect: its vertices,
    then its edges, each sorted by id."""
    nodes = sorted(graph.nodes(), key=lambda n: n.id)
    edges = sorted(graph.edges(), key=lambda e: e.id)
    return dot_document(name, [
        *(dot_node(node.id, node.label, node.props) for node in nodes),
        *(
            dot_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
            for edge in edges
        ),
    ])


def dot_to_graph(text: str, gid: str = "dot") -> PropertyGraph:
    """Parse the SPADE-like DOT dialect back into a property graph."""
    graph = PropertyGraph(gid)
    edge_seq = 0
    pending_edges: List[Tuple[str, str, str, Dict[str, str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if (
            not line
            or line.startswith(("digraph", "}", "//", "#"))
            or line in ("{",)
        ):
            continue
        edge_match = _EDGE_RE.match(line)
        if edge_match:
            src, tgt, attrs_text = edge_match.groups()
            attrs = dict(_ATTR_RE.findall(attrs_text))
            label, props = _unpack_label(attrs.get("label", ""))
            edge_id = attrs.get("id") or f"e{edge_seq}"
            edge_seq += 1
            pending_edges.append((edge_id, src, tgt, {"label": label, **props}))
            continue
        node_match = _NODE_RE.match(line)
        if node_match:
            node_id, attrs_text = node_match.groups()
            attrs = dict(_ATTR_RE.findall(attrs_text))
            if "label" in attrs:
                label, props = _unpack_label(attrs["label"])
            else:
                label = _LABEL_FOR_SHAPE.get(attrs.get("shape", ""), "Unknown")
                props = {}
            graph.add_node(node_id, label, props)
            continue
        raise DotError(f"unparseable DOT line: {raw!r}")
    for edge_id, src, tgt, attrs in pending_edges:
        label = attrs.pop("label")
        for endpoint in (src, tgt):
            if not graph.has_node(endpoint):
                graph.add_node(endpoint, "Unknown")
        graph.add_edge(edge_id, src, tgt, label, attrs)
    return graph
