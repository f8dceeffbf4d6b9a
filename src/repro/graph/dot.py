"""Graphviz DOT serialization.

SPADE's Graphviz storage emits one DOT statement per vertex and edge with
the provenance annotations packed into the ``label`` attribute
(``key1:value1\\nkey2:value2``) and the element kind in ``shape``
(box = Process, ellipse = Artifact, octagon = Agent).  A ``\\`` or a
``"`` inside a key or a value is written with Graphviz's own escapes
(``\\\\``, ``\\"``), so any string value round-trips.  The
transformation stage parses exactly this dialect; the writer is also
used to visualize benchmark results.
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

#: a vertex (``"id" [attrs]``) or an edge (``"src" -> "tgt" [attrs]``)
#: statement, stripped
_STATEMENT_RE = re.compile(
    r'"?([\w.]+)"?\s*(?:->\s*"?([\w.]+)"?\s*)?\[(.*)\];?'
)
#: one ``key="value"`` attribute; the quoted part is unrolled (runs of
#: plain characters between escapes), which matches what the alternation
#: ``(?:[^"\\]|\\.)*`` does at a third of its cost
_ATTR_RE = re.compile(r'(\w+)\s*=\s*"([^"\\]*(?:\\.[^"\\]*)*)"')
#: an escape sequence inside a quoted DOT string
_ESCAPE_RE = re.compile(r"(\\.)", re.S)
#: starts of lines that hold no statement
_SKIPPED = ("digraph", "}", "//", "#")


class DotError(Exception):
    """Raised when DOT text cannot be parsed."""


def _escape(part: str) -> str:
    return part.replace("\\", "\\\\").replace('"', '\\"')


def _pack_label(label: str, props: Mapping[str, str]) -> str:
    parts = [f"type:{label}"]
    for key in sorted(props):
        parts.append(f"{key}:{props[key]}")
    packed = "\\n".join(parts)
    if '"' in packed or packed.count("\\") >= len(parts):
        # a part holds a quote or a backslash of its own
        packed = "\\n".join(map(_escape, parts))
    return packed


def _split_escaped(packed: str) -> List[str]:
    """The parts of a packed label that holds escapes other than the
    ``\\n`` separators, unescaped; an escape DOT does not define
    stays as written."""
    parts = [""]
    for index, token in enumerate(_ESCAPE_RE.split(packed)):
        if index % 2 == 0 or token not in ("\\n", "\\\\", '\\"'):
            parts[-1] += token
        elif token == "\\n":
            parts.append("")
        else:
            parts[-1] += token[1]
    return parts


def _unpack_label(packed: str) -> Tuple[str, Dict[str, str]]:
    if "\\\\" in packed or '\\"' in packed:
        parts = _split_escaped(packed)
    else:
        parts = packed.split("\\n")
    label = ""
    props: Dict[str, str] = {}
    for part in parts:
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
    """Parse the SPADE-like DOT dialect back into a property graph.

    Vertices keep their order; an edge endpoint no statement declares
    becomes an ``Unknown`` vertex after them, in the order edges name
    it.  Edges without an ``id`` are numbered ``e0``, ``e1``, ...
    """
    nodes: List[Tuple[str, str, Dict[str, str]]] = []
    edges: List[Tuple[str, str, str, str, Dict[str, str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(_SKIPPED) or line == "{":
            continue
        match = _STATEMENT_RE.fullmatch(line)
        if match is None:
            raise DotError(f"unparseable DOT line: {raw!r}")
        element_id, tgt, attrs_text = match.groups()
        attrs = dict(_ATTR_RE.findall(attrs_text))
        if tgt is not None:
            label, props = _unpack_label(attrs.get("label", ""))
            edge_id = attrs.get("id") or f"e{len(edges)}"
            edges.append((edge_id, element_id, tgt, label, props))
        elif "label" in attrs:
            nodes.append((element_id, *_unpack_label(attrs["label"])))
        else:
            label = _LABEL_FOR_SHAPE.get(attrs.get("shape", ""), "Unknown")
            nodes.append((element_id, label, {}))
    declared = {node[0] for node in nodes}
    for _, src, tgt, _, _ in edges:
        for endpoint in (src, tgt):
            if endpoint not in declared:
                declared.add(endpoint)
                nodes.append((endpoint, "Unknown", {}))
    return PropertyGraph.from_elements(gid, nodes, edges)
