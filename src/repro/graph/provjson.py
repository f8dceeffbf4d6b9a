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


def _strings(body: Dict[str, object]) -> Dict[str, str]:
    """``body`` with every value a string: ``body`` itself when each
    already is (CamFlow writes nothing else), else a converted copy."""
    for value in body.values():
        if type(value) is not str:
            return {key: str(value) for key, value in body.items()}
    return body


def provjson_to_graph(text: str, gid: str = "prov") -> PropertyGraph:
    """Parse a PROV-JSON document into a property graph.

    Nodes come in group order (entities, activities, agents), then
    relations in :data:`RELATION_KEYS` order; an endpoint no node group
    declares becomes an ``entity`` node after them, in the order
    relations name it.  The graph adopts the decoded bodies as its
    property dicts.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProvJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProvJsonError("top level must be an object")
    nodes = []
    for kind in _NODE_KINDS:
        for node_id, body in doc.get(kind, {}).items():
            props = _strings(body)
            label = props.pop("prov:type", kind)
            props["prov:kind"] = kind
            nodes.append((node_id, label, props))
    declared = {node[0] for node in nodes}
    edges = []
    for relation, (src_key, tgt_key) in RELATION_KEYS.items():
        for edge_id, body in doc.get(relation, {}).items():
            src = body.pop(src_key, None)
            tgt = body.pop(tgt_key, None)
            if src is None or tgt is None:
                raise ProvJsonError(
                    f"relation {edge_id!r} missing {src_key}/{tgt_key}"
                )
            props = _strings(body)
            label = props.pop("prov:type", relation)
            for endpoint in (src, tgt):
                if endpoint not in declared:
                    declared.add(endpoint)
                    nodes.append((endpoint, "entity", {"prov:kind": "entity"}))
            edges.append((edge_id, src, tgt, label, props))
    return PropertyGraph.from_elements(gid, nodes, edges)
