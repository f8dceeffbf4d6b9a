"""An embedded property-graph store standing in for OPUS's Neo4j backend.

OPUS persists its PVM graph into Neo4j; ProvMark's transformation stage
must start the database, run queries to extract every node and
relationship, and convert the rows (paper §5.1 attributes OPUS's large
transformation times to exactly this: JVM warm-up, database initialization,
and query execution over larger graphs).

This store reproduces the database's interface, not its cost.  Records
are persisted as serialized JSON rows; opening a session **compiles** the
log — one ``json.loads`` of the whole log, then typed row objects — and
nothing else.  The JVM and database start-up is priced on the virtual
processing clock instead (:data:`repro.core.stages.STARTUP_SECONDS`),
which charges every trial graph built from a ``neo4j`` output, so
Figure 6's shape holds exactly and costs no CPU.

Queries serve the typed rows directly.  Label- and rel-type-filtered
matches go through lazy inverted indexes built on first use, and the
:meth:`Neo4jSim.session` API exposes the compiled rows in one batch so the
transformation stage can build its property graph without per-row copies.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_string
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple


#: the encoder of a row's properties: ``json.dumps(props, sort_keys=True)``
#: without building an encoder per row
_PROPS_ENCODER = json.JSONEncoder(sort_keys=True)


def _props_json(props: Optional[Mapping[str, str]]) -> str:
    return _PROPS_ENCODER.encode(dict(props)) if props else "{}"


class Neo4jSimError(Exception):
    """Raised on malformed queries or closed-session access."""


class NodeRow(NamedTuple):
    """One compiled node record (parsed exactly once per session).

    Rows are :class:`typing.NamedTuple` records, like the graph's
    ``Node``: a scale128 OPUS trial compiles about a thousand.
    """

    node_id: int
    label: str
    props: Mapping[str, str]


class RelRow(NamedTuple):
    """One compiled relationship record (parsed exactly once per session)."""

    rel_id: int
    start: int
    end: int
    rel_type: str
    props: Mapping[str, str]


class Neo4jSession:
    """A started store's compiled rows, exposed as one batch.

    ``transform_neo4j`` reads every node and relationship exactly once;
    handing it the compiled row lists directly (rather than per-row
    deserialized copies) is the batched-query equivalent of running one
    ``MATCH (n) RETURN n`` / ``MATCH ()-[r]->() RETURN r`` pair.  Rows are
    shared, not copied: callers must not change ``props``.  The
    transformation stage's graph adopts each row's ``props`` dict, and
    :meth:`Neo4jSim.shutdown` drops the rows, so after the session that
    graph is the dicts' only holder.
    """

    def __init__(self, store: "Neo4jSim") -> None:
        self._store = store

    def nodes(self) -> Tuple[NodeRow, ...]:
        self._store._require_open()
        return self._store._node_rows

    def relationships(self) -> Tuple[RelRow, ...]:
        self._store._require_open()
        return self._store._rel_rows


class Neo4jSim:
    """A tiny log-structured node/relationship store with a query layer."""

    def __init__(self) -> None:
        self._log: List[str] = []
        self._open = False
        #: compiled typed rows, in log-replay order (one parse per start)
        self._node_rows: Tuple[NodeRow, ...] = ()
        self._rel_rows: Tuple[RelRow, ...] = ()
        self._node_index: Dict[int, NodeRow] = {}
        self._rel_index: Dict[int, RelRow] = {}
        #: built lazily on the first label-filtered query; most sessions
        #: (e.g. ProvMark's transformation stage) never touch labels, so
        #: startup should not pay for indexing them
        self._label_index: Optional[Dict[str, List[int]]] = None
        #: lazy mirror of ``_label_index`` for rel-type-filtered queries
        self._rel_type_index: Optional[Dict[str, List[int]]] = None

    # -- write path (used by the OPUS capture system) -------------------------
    #
    # Each row is the line ``json.dumps(record, sort_keys=True)`` writes
    # for the record, with its keys spelled out in that sorted order: a
    # scale128 OPUS trial writes about a thousand rows, most of them
    # relationships without properties.

    def create_node(
        self, node_id: int, label: str, props: Optional[Dict[str, str]] = None
    ) -> None:
        self._log.append(
            f'{{"id": {node_id}, "kind": "node", '
            f'"label": {_json_string(label)}, "props": {_props_json(props)}}}'
        )

    def create_relationship(
        self,
        rel_id: int,
        start: int,
        end: int,
        rel_type: str,
        props: Optional[Dict[str, str]] = None,
    ) -> None:
        self._log.append(
            f'{{"end": {end}, "id": {rel_id}, "kind": "rel", '
            f'"props": {_props_json(props)}, "start": {start}, '
            f'"type": {_json_string(rel_type)}}}'
        )

    # -- session lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Compile the log: one ``json.loads`` of every row at once, then
        the typed row objects and id indexes."""
        node_rows: List[NodeRow] = []
        rel_rows: List[RelRow] = []
        node_index: Dict[int, NodeRow] = {}
        rel_index: Dict[int, RelRow] = {}
        for record in json.loads(f"[{','.join(self._log)}]"):
            if record["kind"] == "node":
                row = NodeRow(record["id"], record["label"], record["props"])
                node_rows.append(row)
                node_index[row.node_id] = row
            else:
                rel = RelRow(
                    record["id"],
                    record["start"],
                    record["end"],
                    record["type"],
                    record["props"],
                )
                rel_rows.append(rel)
                rel_index[rel.rel_id] = rel
        self._node_rows = tuple(node_rows)
        self._rel_rows = tuple(rel_rows)
        self._node_index = node_index
        self._rel_index = rel_index
        self._label_index = None
        self._rel_type_index = None
        self._open = True

    def shutdown(self) -> None:
        """Close the session and drop its compiled rows; the next
        :meth:`start` compiles the log again."""
        self._open = False
        self._node_rows = self._rel_rows = ()
        self._node_index, self._rel_index = {}, {}

    @property
    def is_open(self) -> bool:
        return self._open

    def _require_open(self) -> None:
        if not self._open:
            raise Neo4jSimError("session not started; call start() first")

    def session(self) -> Neo4jSession:
        """Batched access to the compiled rows of a started store."""
        self._require_open()
        return Neo4jSession(self)

    # -- query layer ----------------------------------------------------------------

    def _labels(self) -> Dict[str, List[int]]:
        """The label index, built on first use from the compiled rows.

        Node ids are appended in compiled-row (= log replay) order, so
        label-filtered results are identical to the eager index's.
        """
        if self._label_index is None:
            label_index: Dict[str, List[int]] = {}
            for row in self._node_rows:
                label_index.setdefault(row.label, []).append(row.node_id)
            self._label_index = label_index
        return self._label_index

    def _rel_types(self) -> Dict[str, List[int]]:
        """The rel-type index — same laziness contract as :meth:`_labels`.

        Rel ids are appended in compiled-row order, so type-filtered
        results are identical to a full replay-order scan.
        """
        if self._rel_type_index is None:
            rel_type_index: Dict[str, List[int]] = {}
            for rel in self._rel_rows:
                rel_type_index.setdefault(rel.rel_type, []).append(rel.rel_id)
            self._rel_type_index = rel_type_index
        return self._rel_type_index

    def match_nodes(
        self, label: Optional[str] = None
    ) -> Iterator[Tuple[int, str, Dict[str, str]]]:
        """``MATCH (n[:label]) RETURN n`` — each row's props are a fresh copy."""
        self._require_open()
        if label is not None:
            ids = self._labels().get(label, [])
            rows = [self._node_index[node_id] for node_id in ids]
        else:
            rows = self._node_rows
        for row in rows:
            yield row.node_id, row.label, dict(row.props)

    def match_relationships(
        self, rel_type: Optional[str] = None
    ) -> Iterator[Tuple[int, int, int, str, Dict[str, str]]]:
        """``MATCH ()-[r[:type]]->() RETURN r`` — props are a fresh copy."""
        self._require_open()
        if rel_type is not None:
            ids = self._rel_types().get(rel_type, [])
            rels = [self._rel_index[rel_id] for rel_id in ids]
        else:
            rels = self._rel_rows
        for rel in rels:
            yield rel.rel_id, rel.start, rel.end, rel.rel_type, dict(rel.props)

    def node_count(self) -> int:
        self._require_open()
        return len(self._node_index)

    def relationship_count(self) -> int:
        self._require_open()
        return len(self._rel_index)

    def dump_log(self) -> str:
        """Serialized store contents (for regression snapshots)."""
        return "\n".join(self._log)

    @classmethod
    def from_log(cls, text: str) -> "Neo4jSim":
        store = cls()
        store._log = [line for line in text.splitlines() if line.strip()]
        return store
