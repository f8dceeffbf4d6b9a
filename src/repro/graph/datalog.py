"""Datalog graph format (paper Listing 1).

Nodes, edges, and properties of a property graph become logical facts::

    n<gid>(<nodeID>, "<label>").
    e<gid>(<edgeID>, <srcID>, <tgtID>, "<label>").
    p<gid>(<nodeID/edgeID>, "<key>", "<value>").

This module renders a :class:`~repro.graph.model.PropertyGraph` to that
textual form and parses it back.  The Datalog text is also what the mini-ASP
engine consumes, what the regression tester stores on disk, and what the
comparison stage feeds to the solver.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple

from repro.graph.model import GraphError, PropertyGraph


class DatalogError(Exception):
    """Raised when Datalog text cannot be parsed."""


_ATOM_RE = re.compile(r"^([a-z]\w*)\((.*)\)\.$")


def quote(value: str) -> str:
    """Quote a string constant for Datalog output."""
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token.startswith('"') and token.endswith('"'):
        body = token[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    return token


def _split_args(body: str) -> List[str]:
    """Split a fact's argument list on commas not inside quotes."""
    args: List[str] = []
    current: List[str] = []
    in_quote = False
    escaped = False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if in_quote:
        raise DatalogError(f"unterminated string in fact body: {body!r}")
    args.append("".join(current).strip())
    return args


def graph_to_datalog(graph: PropertyGraph, gid: str = "") -> str:
    """Render ``graph`` as Datalog facts with relation suffix ``gid``.

    The suffix defaults to the graph's own ``gid``.
    """
    suffix = gid or graph.gid
    lines: List[str] = []
    for node in sorted(graph.nodes(), key=lambda n: n.id):
        lines.append(f"n{suffix}({node.id},{quote(node.label)}).")
        for key in sorted(node.props):
            lines.append(
                f"p{suffix}({node.id},{quote(key)},{quote(node.props[key])})."
            )
    for edge in sorted(graph.edges(), key=lambda e: e.id):
        lines.append(
            f"e{suffix}({edge.id},{edge.src},{edge.tgt},{quote(edge.label)})."
        )
        for key in sorted(edge.props):
            lines.append(
                f"p{suffix}({edge.id},{quote(key)},{quote(edge.props[key])})."
            )
    return "\n".join(lines) + ("\n" if lines else "")


def iter_facts(text: str) -> Iterator[Tuple[str, List[str]]]:
    """Yield ``(relation, args)`` for each fact line in ``text``.

    Blank lines and ``%`` comments are skipped.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        match = _ATOM_RE.match(line)
        if not match:
            raise DatalogError(f"line {lineno}: not a fact: {raw!r}")
        relation, body = match.groups()
        yield relation, [_unquote(a) for a in _split_args(body)]


def datalog_to_graph(text: str, gid: str = "") -> PropertyGraph:
    """Parse Datalog facts back into a :class:`PropertyGraph`.

    ``gid`` selects which relation family (``n<gid>``/``e<gid>``/``p<gid>``)
    to read; with the default empty string the suffix is inferred from the
    first node or edge fact.
    """
    suffix = gid
    nodes: List[Tuple[str, str]] = []
    edges: List[Tuple[str, str, str, str]] = []
    props: List[Tuple[str, str, str]] = []
    for relation, args in iter_facts(text):
        if not suffix:
            if relation.startswith("n") or relation.startswith("e"):
                suffix = relation[1:]
        if suffix and relation == f"n{suffix}":
            if len(args) != 2:
                raise DatalogError(f"node fact arity != 2: {args}")
            nodes.append((args[0], args[1]))
        elif suffix and relation == f"e{suffix}":
            if len(args) != 4:
                raise DatalogError(f"edge fact arity != 4: {args}")
            edges.append((args[0], args[1], args[2], args[3]))
        elif suffix and relation == f"p{suffix}":
            if len(args) != 3:
                raise DatalogError(f"property fact arity != 3: {args}")
            props.append((args[0], args[1], args[2]))
    element_props: Dict[str, Dict[str, str]] = {}
    for element_id, key, value in props:
        element_props.setdefault(element_id, {})[key] = value
    graph = PropertyGraph.from_elements(
        suffix or "g",
        [
            (node_id, label, element_props.pop(node_id, {}))
            for node_id, label in nodes
        ],
        [
            (edge_id, src, tgt, label, element_props.pop(edge_id, {}))
            for edge_id, src, tgt, label in edges
        ],
    )
    if element_props:  # a property of no node or edge, first in fact order
        raise GraphError(f"unknown element {next(iter(element_props))!r}")
    return graph
