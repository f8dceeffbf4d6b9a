"""W3C PROV-JSON serialization (CamFlow's output format).

PROV-JSON groups elements by PROV type::

    {"entity":   {"id": {props...}},
     "activity": {"id": {props...}},
     "agent":    {"id": {props...}},
     "used":     {"id": {"prov:activity": a, "prov:entity": e, props...}},
     "wasGeneratedBy": {...},  ...}

CamFlow labels its nodes with ``prov:type`` values such as ``task``,
``inode``, ``path``; we keep that value as the property-graph label.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Mapping, Tuple

from repro.graph.model import PropertyGraph

# PROV relation name -> (source key, target key).  Source/target follow the
# PROV-DM direction (effect -> cause), which is also how CamFlow emits them.
RELATION_KEYS: Dict[str, Tuple[str, str]] = {
    "used": ("prov:activity", "prov:entity"),
    "wasGeneratedBy": ("prov:entity", "prov:activity"),
    "wasInformedBy": ("prov:informed", "prov:informant"),
    "wasDerivedFrom": ("prov:generatedEntity", "prov:usedEntity"),
    "wasAssociatedWith": ("prov:activity", "prov:agent"),
    "wasAttributedTo": ("prov:entity", "prov:agent"),
}

_NODE_KINDS = ("entity", "activity", "agent")

#: a PROV-JSON document: group (a node kind or a relation) -> id -> body
ProvDocument = Dict[str, Dict[str, Dict[str, str]]]


class ProvJsonError(Exception):
    """Raised when PROV-JSON input is malformed."""


def node_body(
    label: str, props: Mapping[str, str]
) -> Tuple[str, Dict[str, str]]:
    """A node's PROV-JSON group and body.

    The ``prov:kind`` property picks the group (``entity`` when it is
    missing or not a PROV node kind) and is left out of the body; the
    label becomes ``prov:type``.
    """
    body = {"prov:type": label, **props}
    kind = body.pop("prov:kind", "entity")
    return (kind if kind in _NODE_KINDS else "entity"), body


def edge_body(
    src: str, tgt: str, label: str, props: Mapping[str, str]
) -> Tuple[str, Dict[str, str]]:
    """An edge's PROV-JSON relation and body.

    The endpoints go under the relation's source and target keys; a
    label PROV does not name is a ``used`` relation whose ``prov:type``
    is the label.
    """
    relation = label if label in RELATION_KEYS else "used"
    src_key, tgt_key = RELATION_KEYS[relation]
    body = {src_key: src, tgt_key: tgt}
    if relation != label:
        body["prov:type"] = label
    body.update(props)
    return relation, body


def document_text(doc: ProvDocument) -> str:
    """The PROV-JSON text of a document built from these bodies."""
    # No indent: an indented dump runs json's pure-Python encoder, a
    # compact one the C encoder (about 3x faster on a scale128 trial).
    return json.dumps(doc, sort_keys=True)


def graph_to_provjson(graph: PropertyGraph) -> str:
    """Render ``graph`` as a PROV-JSON document string."""
    doc: ProvDocument = defaultdict(dict)
    for node in graph.nodes():
        kind, body = node_body(node.label, node.props)
        doc[kind][node.id] = body
    for edge in graph.edges():
        relation, body = edge_body(edge.src, edge.tgt, edge.label, edge.props)
        doc[relation][edge.id] = body
    return document_text(doc)


def provjson_to_graph(text: str, gid: str = "prov") -> PropertyGraph:
    """Parse a PROV-JSON document into a property graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProvJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProvJsonError("top level must be an object")
    graph = PropertyGraph(gid)
    for kind in _NODE_KINDS:
        for node_id, body in doc.get(kind, {}).items():
            props = {k: str(v) for k, v in body.items() if k != "prov:type"}
            props["prov:kind"] = kind
            label = str(body.get("prov:type", kind))
            graph.add_node(node_id, label, props)
    for relation, (src_key, tgt_key) in RELATION_KEYS.items():
        for edge_id, body in doc.get(relation, {}).items():
            src = body.get(src_key)
            tgt = body.get(tgt_key)
            if src is None or tgt is None:
                raise ProvJsonError(
                    f"relation {edge_id!r} missing {src_key}/{tgt_key}"
                )
            label = str(body.get("prov:type", relation))
            props = {
                k: str(v)
                for k, v in body.items()
                if k not in (src_key, tgt_key, "prov:type")
            }
            for endpoint in (src, tgt):
                if not graph.has_node(endpoint):
                    graph.add_node(endpoint, "entity", {"prov:kind": "entity"})
            graph.add_edge(edge_id, src, tgt, label, props)
    return graph
