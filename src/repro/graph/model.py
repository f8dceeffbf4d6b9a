"""Property-graph data model.

This is the common representation every other subsystem works on.  It
follows Section 3.3 of the paper: a property graph
``G = (V, E, src, tgt, lab, prop)`` where nodes and edges carry a label
from a label alphabet and a partial map of string properties.

Node and edge identifiers live in disjoint namespaces (the paper requires
``V`` and ``E`` disjoint); :class:`PropertyGraph` enforces this.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple,
)


class GraphError(Exception):
    """Raised on malformed graph operations (duplicate ids, dangling edges)."""


class Node(NamedTuple):
    """A labelled vertex with string properties.

    Nodes and edges are :class:`typing.NamedTuple` records: a scale128
    run builds thousands, and a NamedTuple costs a third of a frozen
    dataclass to construct.  Assigning a field raises
    :class:`AttributeError`.  :class:`PropertyGraph` builds them, each
    with a ``props`` dict of its own that nothing changes in place.
    """

    id: str
    label: str
    props: Mapping[str, str]

    def prop(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.props.get(key, default)


class Edge(NamedTuple):
    """A labelled, directed edge with string properties."""

    id: str
    src: str
    tgt: str
    label: str
    props: Mapping[str, str]

    def prop(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.props.get(key, default)


class PropertyGraph:
    """A mutable directed multigraph with labelled, attributed nodes and edges.

    >>> g = PropertyGraph()
    >>> g.add_node("n1", "File", {"name": "test.txt"})
    >>> g.add_node("n2", "Process")
    >>> g.add_edge("e1", "n1", "n2", "Used")
    >>> g.node_count, g.edge_count
    (2, 1)
    """

    def __init__(self, gid: str = "g") -> None:
        self.gid = gid
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[str, Edge] = {}
        #: edge ids out of / into each node that has such an edge: a
        #: node gets its out (in) list with its first out (in) edge and
        #: loses it with its last, so an isolated node costs no list
        #: (read them with ``.get``)
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        #: bumped on every mutation; lets derived-structure caches (the
        #: matching engine's indexes) validate themselves cheaply
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def __getstate__(self) -> Dict[str, object]:
        # Derived-structure caches must not cross process boundaries:
        # WL colors are hash()-based and only comparable under one hash
        # seed, and shipping the indexes would bloat every pickle.
        state = dict(self.__dict__)
        state.pop("_matcher_cache", None)
        return state

    # -- construction -----------------------------------------------------

    @classmethod
    def from_elements(
        cls,
        gid: str,
        nodes: Iterable[Tuple[str, str, Dict[str, str]]],
        edges: Iterable[Tuple[str, str, str, str, Dict[str, str]]],
    ) -> "PropertyGraph":
        """A graph of ``nodes`` (id, label, props) and then ``edges``
        (id, src, tgt, label, props), in order, checked as
        :meth:`add_node` and :meth:`add_edge` check them.

        Adopts each ``props`` dict instead of copying it.  The caller
        hands over dicts it has just built, keeps no reference to them
        and changes none of them afterwards; a graph never changes a
        props dict in place.  Incremental builders, and any caller whose
        dicts belong to someone else, use ``add_node``/``add_edge``,
        which copy.
        """
        graph = cls(gid)
        place_node, place_edge = graph._place_node, graph._place_edge
        for node_id, label, props in nodes:
            place_node(node_id, label, props)
        for edge_id, src, tgt, label, props in edges:
            place_edge(edge_id, src, tgt, label, props)
        graph._version = len(graph._nodes) + len(graph._edges)
        return graph

    def add_node(
        self, node_id: str, label: str, props: Optional[Mapping[str, str]] = None
    ) -> Node:
        node = self._place_node(node_id, label, dict(props or {}))
        self._version += 1
        return node

    def add_edge(
        self,
        edge_id: str,
        src: str,
        tgt: str,
        label: str,
        props: Optional[Mapping[str, str]] = None,
    ) -> Edge:
        edge = self._place_edge(edge_id, src, tgt, label, dict(props or {}))
        self._version += 1
        return edge

    def _place_node(self, node_id: str, label: str, props: Dict[str, str]) -> Node:
        """Insert a node that owns ``props``."""
        if node_id in self._nodes or node_id in self._edges:
            raise GraphError(f"duplicate identifier {node_id!r}")
        node = self._nodes[node_id] = Node(node_id, label, props)
        return node

    def _place_edge(
        self, edge_id: str, src: str, tgt: str, label: str,
        props: Dict[str, str],
    ) -> Edge:
        """Insert an edge that owns ``props``."""
        if edge_id in self._edges or edge_id in self._nodes:
            raise GraphError(f"duplicate identifier {edge_id!r}")
        if src not in self._nodes:
            raise GraphError(f"edge {edge_id!r} has unknown source {src!r}")
        if tgt not in self._nodes:
            raise GraphError(f"edge {edge_id!r} has unknown target {tgt!r}")
        edge = self._edges[edge_id] = Edge(edge_id, src, tgt, label, props)
        out = self._out.get(src)
        if out is None:
            self._out[src] = [edge_id]
        else:
            out.append(edge_id)
        into = self._in.get(tgt)
        if into is None:
            self._in[tgt] = [edge_id]
        else:
            into.append(edge_id)
        return edge

    def set_prop(self, element_id: str, key: str, value: str) -> None:
        """Set one property on a node or edge (replacing the element)."""
        if element_id in self._nodes:
            node = self._nodes[element_id]
            props = dict(node.props)
            props[key] = value
            self._nodes[element_id] = Node(node.id, node.label, props)
        elif element_id in self._edges:
            edge = self._edges[element_id]
            props = dict(edge.props)
            props[key] = value
            self._edges[element_id] = Edge(
                edge.id, edge.src, edge.tgt, edge.label, props
            )
        else:
            raise GraphError(f"unknown element {element_id!r}")
        self._version += 1

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every edge incident to it."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        for edge_id in self._out.get(node_id, []) + self._in.get(node_id, []):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._nodes[node_id]
        self._version += 1

    def remove_edge(self, edge_id: str) -> None:
        if edge_id not in self._edges:
            raise GraphError(f"unknown edge {edge_id!r}")
        edge = self._edges.pop(edge_id)
        for adjacency, node_id in ((self._out, edge.src), (self._in, edge.tgt)):
            ids = adjacency[node_id]
            ids.remove(edge_id)
            if not ids:
                del adjacency[node_id]
        self._version += 1

    # -- access -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def size(self) -> int:
        """Total number of elements (the paper's size measure for trials)."""
        return len(self._nodes) + len(self._edges)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def node_ids(self) -> Iterator[str]:
        return iter(self._nodes)

    def edge_ids(self) -> Iterator[str]:
        return iter(self._edges)

    def out_edges(self, node_id: str) -> List[Edge]:
        return [self._edges[e] for e in self._out.get(node_id, ())]

    def in_edges(self, node_id: str) -> List[Edge]:
        return [self._edges[e] for e in self._in.get(node_id, ())]

    def degree(self, node_id: str) -> int:
        return len(self._out.get(node_id, ())) + len(self._in.get(node_id, ()))

    def element_props(self, element_id: str) -> Mapping[str, str]:
        if element_id in self._nodes:
            return self._nodes[element_id].props
        if element_id in self._edges:
            return self._edges[element_id].props
        raise GraphError(f"unknown element {element_id!r}")

    # -- derived graphs ---------------------------------------------------

    def copy(self, gid: Optional[str] = None) -> "PropertyGraph":
        out = PropertyGraph(gid or self.gid)
        for node in self.nodes():
            out.add_node(node.id, node.label, node.props)
        for edge in self.edges():
            out.add_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
        return out

    def subgraph(self, node_ids: Iterable[str], edge_ids: Iterable[str]) -> "PropertyGraph":
        """Induced sub-multigraph over explicit node and edge id sets.

        Elements keep this graph's order, so the result does not depend
        on the order of the given ids or on the process's hash seed.
        """
        keep_nodes: Set[str] = set(node_ids)
        keep_edges: Set[str] = set(edge_ids)
        for unknown, kind in (
            (keep_nodes - self._nodes.keys(), "node"),
            (keep_edges - self._edges.keys(), "edge"),
        ):
            if unknown:
                raise GraphError(f"unknown {kind} {min(unknown)!r}")
        out = PropertyGraph(self.gid)
        for node in self.nodes():
            if node.id in keep_nodes:
                out.add_node(node.id, node.label, node.props)
        for edge in self.edges():
            if edge.id not in keep_edges:
                continue
            if edge.src not in keep_nodes or edge.tgt not in keep_nodes:
                raise GraphError(f"edge {edge.id!r} endpoints outside subgraph")
            out.add_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
        return out

    def relabel(self, prefix: str) -> "PropertyGraph":
        """Return an isomorphic copy with fresh, prefixed element ids."""
        mapping: Dict[str, str] = {}
        out = PropertyGraph(self.gid)
        for i, node in enumerate(self.nodes()):
            mapping[node.id] = f"{prefix}n{i}"
            out.add_node(mapping[node.id], node.label, node.props)
        for i, edge in enumerate(self.edges()):
            mapping[edge.id] = f"{prefix}e{i}"
            out.add_edge(
                mapping[edge.id], mapping[edge.src], mapping[edge.tgt],
                edge.label, edge.props,
            )
        return out

    # -- structural summaries ----------------------------------------------

    def label_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for node in self.nodes():
            hist[node.label] = hist.get(node.label, 0) + 1
        for edge in self.edges():
            hist[edge.label] = hist.get(edge.label, 0) + 1
        return hist

    def structural_signature(self) -> Tuple:
        """A cheap isomorphism-invariant used to pre-partition trial graphs.

        Two isomorphic graphs always share a signature; unequal signatures
        prove non-similarity without running the solver.
        """
        out, into = self._out, self._in
        node_part = sorted(
            (n.label, len(out.get(n.id, ())), len(into.get(n.id, ())))
            for n in self.nodes()
        )
        edge_part = sorted(
            (e.label, self.node(e.src).label, self.node(e.tgt).label)
            for e in self.edges()
        )
        return (tuple(node_part), tuple(edge_part))

    def is_empty(self) -> bool:
        return not self._nodes and not self._edges

    def __eq__(self, other: object) -> bool:
        """Exact equality (same ids, labels, props) — *not* isomorphism."""
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(gid={self.gid!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
