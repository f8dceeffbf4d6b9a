"""Unit tests for the property-graph model."""

import dataclasses
import importlib
import pickle
import typing

import pytest

from repro.graph.model import Edge, GraphError, Node, PropertyGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = PropertyGraph()
        assert graph.node_count == 0
        assert graph.edge_count == 0
        assert graph.size == 0
        assert graph.is_empty()

    def test_add_node_and_edge(self, tiny_graph):
        assert tiny_graph.node_count == 2
        assert tiny_graph.edge_count == 1
        assert tiny_graph.size == 3
        assert not tiny_graph.is_empty()

    def test_node_lookup(self, tiny_graph):
        node = tiny_graph.node("n1")
        assert node.label == "File"
        assert node.prop("Userid") == "1"
        assert node.prop("missing") is None
        assert node.prop("missing", "dflt") == "dflt"

    def test_edge_lookup(self, tiny_graph):
        edge = tiny_graph.edge("e1")
        assert (edge.src, edge.tgt, edge.label) == ("n1", "n2", "Used")

    def test_duplicate_node_id_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.add_node("n1", "File")

    def test_node_edge_namespaces_disjoint(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.add_node("e1", "File")
        with pytest.raises(GraphError):
            tiny_graph.add_edge("n1", "n1", "n2", "Used")

    def test_edge_with_unknown_endpoint_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.add_edge("e2", "n1", "nope", "Used")
        with pytest.raises(GraphError):
            tiny_graph.add_edge("e3", "nope", "n1", "Used")

    def test_unknown_lookups_raise(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.node("zzz")
        with pytest.raises(GraphError):
            tiny_graph.edge("zzz")

    def test_multigraph_parallel_edges(self):
        graph = PropertyGraph()
        graph.add_node("a", "X")
        graph.add_node("b", "X")
        graph.add_edge("e1", "a", "b", "r")
        graph.add_edge("e2", "a", "b", "r")
        assert graph.edge_count == 2

    def test_self_loop(self):
        graph = PropertyGraph()
        graph.add_node("a", "X")
        graph.add_edge("e", "a", "a", "self")
        assert graph.degree("a") == 2


class TestMutation:
    def test_set_prop_on_node(self, tiny_graph):
        tiny_graph.set_prop("n1", "Name", "other")
        assert tiny_graph.node("n1").prop("Name") == "other"

    def test_set_prop_on_edge(self, tiny_graph):
        tiny_graph.set_prop("e1", "time", "5")
        assert tiny_graph.edge("e1").prop("time") == "5"

    def test_set_prop_unknown_element(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.set_prop("zzz", "k", "v")

    def test_remove_edge(self, tiny_graph):
        tiny_graph.remove_edge("e1")
        assert tiny_graph.edge_count == 0
        assert tiny_graph.out_edges("n1") == []

    def test_remove_node_cascades_edges(self, tiny_graph):
        tiny_graph.remove_node("n1")
        assert tiny_graph.node_count == 1
        assert tiny_graph.edge_count == 0

    def test_remove_unknown_raises(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.remove_node("zzz")
        with pytest.raises(GraphError):
            tiny_graph.remove_edge("zzz")


class TestAccessors:
    def test_adjacency(self, diamond_graph):
        out = {e.id for e in diamond_graph.out_edges("top")}
        assert out == {"e1", "e2"}
        incoming = {e.id for e in diamond_graph.in_edges("bottom")}
        assert incoming == {"e3", "e4"}
        assert diamond_graph.degree("top") == 2
        assert diamond_graph.degree("left") == 2

    def test_element_props(self, tiny_graph):
        assert tiny_graph.element_props("n1")["Name"] == "text"
        assert tiny_graph.element_props("e1") == {}
        with pytest.raises(GraphError):
            tiny_graph.element_props("zzz")

    def test_label_histogram(self, diamond_graph):
        hist = diamond_graph.label_histogram()
        assert hist["B"] == 2
        assert hist["x"] == 2
        assert hist["y"] == 2


class TestAdjacency:
    """A node holds an out (in) edge list only while it has an out (in)
    edge; every reader treats a missing list as no edges."""

    @staticmethod
    def lollipop() -> PropertyGraph:
        """a -> b, a loop on b, and an isolated node c."""
        graph = PropertyGraph("l")
        graph.add_node("a", "P")
        graph.add_node("b", "F", {"k": "v"})
        graph.add_node("c", "F")
        graph.add_edge("e1", "a", "b", "Used")
        graph.add_edge("e2", "b", "b", "Self")
        return graph

    def test_an_isolated_node_holds_no_adjacency_list(self):
        graph = PropertyGraph()
        graph.add_node("n", "Process")
        assert graph._out == {} and graph._in == {}
        graph = self.lollipop()
        assert graph._out == {"a": ["e1"], "b": ["e2"]}
        assert graph._in == {"b": ["e1", "e2"]}

    def test_readers(self):
        graph = self.lollipop()
        assert [graph.degree(n) for n in "abc"] == [1, 3, 0]
        assert [e.id for e in graph.out_edges("b")] == ["e2"]
        assert [e.id for e in graph.in_edges("b")] == ["e1", "e2"]
        assert graph.out_edges("c") == graph.in_edges("c") == []
        assert graph.out_edges("b")[0].tgt == "b"
        assert graph.structural_signature() == (
            (("F", 0, 0), ("F", 1, 2), ("P", 1, 0)),
            (("Self", "F", "F"), ("Used", "P", "F")),
        )

    def test_removing_the_last_edge_drops_the_lists(self):
        graph = self.lollipop()
        graph.remove_edge("e2")
        assert graph._out == {"a": ["e1"]} and graph._in == {"b": ["e1"]}
        assert graph.degree("b") == 1
        graph.remove_edge("e1")
        assert graph._out == {} and graph._in == {}
        assert graph.degree("a") == graph.degree("b") == 0

    def test_remove_node_with_and_without_edges(self):
        graph = self.lollipop()
        graph.remove_node("c")
        graph.remove_node("b")
        assert list(graph.node_ids()) == ["a"]
        assert graph.edge_count == 0
        assert graph._out == {} and graph._in == {}
        graph.add_node("b", "F")
        graph.add_edge("e3", "a", "b", "Used")
        assert graph.degree("a") == graph.degree("b") == 1

    def test_copy_subgraph_and_pickle_keep_the_structure(self):
        graph = self.lollipop()
        for derived in (
            graph.copy(),
            graph.subgraph(["a", "b", "c"], ["e1", "e2"]),
            pickle.loads(pickle.dumps(graph)),
        ):
            assert derived == graph
            assert derived.structural_signature() == (
                graph.structural_signature()
            )
            assert [derived.degree(n) for n in "abc"] == [1, 3, 0]
        part = graph.subgraph(["a", "c"], [])
        assert [part.degree(n) for n in "ac"] == [0, 0]
        assert part._out == {} and part._in == {}


class TestDerivedGraphs:
    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.set_prop("n1", "Name", "changed")
        assert tiny_graph.node("n1").prop("Name") == "text"
        assert clone == clone.copy()

    def test_copy_equality(self, tiny_graph):
        assert tiny_graph.copy() == tiny_graph
        other = tiny_graph.copy()
        other.set_prop("n1", "Name", "changed")
        assert other != tiny_graph

    def test_subgraph(self, diamond_graph):
        sub = diamond_graph.subgraph(["top", "left"], ["e1"])
        assert sub.node_count == 2
        assert sub.edge_count == 1

    def test_subgraph_dangling_edge_rejected(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.subgraph(["top"], ["e3"])

    def test_subgraph_unknown_ids_rejected(self, diamond_graph):
        with pytest.raises(GraphError, match="unknown node"):
            diamond_graph.subgraph(["top", "nowhere"], [])
        with pytest.raises(GraphError, match="unknown edge"):
            diamond_graph.subgraph(["top", "left"], ["e1", "e99"])

    def test_subgraph_keeps_source_order(self):
        """Order follows the source graph, not the (hash-seeded) id sets."""
        graph = PropertyGraph()
        node_ids = [f"n{i}" for i in range(12)]
        edge_ids = [f"e{i}" for i in range(11)]
        for node_id in node_ids:
            graph.add_node(node_id, "File")
        for index, edge_id in enumerate(edge_ids):
            graph.add_edge(
                edge_id, node_ids[index], node_ids[index + 1], "Used"
            )
        sub = graph.subgraph(reversed(node_ids), reversed(edge_ids))
        assert list(sub.node_ids()) == node_ids
        assert list(sub.edge_ids()) == edge_ids

    def test_relabel_preserves_structure(self, diamond_graph):
        relabeled = diamond_graph.relabel("z")
        assert relabeled.node_count == diamond_graph.node_count
        assert relabeled.edge_count == diamond_graph.edge_count
        assert (
            relabeled.structural_signature()
            == diamond_graph.structural_signature()
        )
        assert all(n.id.startswith("z") for n in relabeled.nodes())


class TestSignature:
    def test_signature_invariant_under_relabeling(self, diamond_graph):
        assert (
            diamond_graph.relabel("a").structural_signature()
            == diamond_graph.relabel("b").structural_signature()
        )

    def test_signature_differs_on_label_change(self, diamond_graph):
        other = diamond_graph.copy()
        other.remove_node("bottom")
        other.add_node("bottom", "DIFFERENT")
        assert (
            other.structural_signature()
            != diamond_graph.structural_signature()
        )

    def test_signature_differs_on_extra_edge(self, diamond_graph):
        other = diamond_graph.copy()
        other.add_edge("extra", "top", "bottom", "x")
        assert (
            other.structural_signature()
            != diamond_graph.structural_signature()
        )


class TestElements:
    """Nodes and edges are records: immutable, readable, picklable."""

    def test_assigning_a_field_raises(self, tiny_graph):
        for element, names in (
            (tiny_graph.node("n1"), ("id", "label", "props")),
            (tiny_graph.edge("e1"), ("id", "src", "tgt", "label", "props")),
        ):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(element, name, "changed")
        assert tiny_graph.node("n1").label == "File"

    def test_repr_names_every_field(self, tiny_graph):
        assert repr(tiny_graph.node("n2")) == (
            "Node(id='n2', label='Process', props={})"
        )
        assert repr(tiny_graph.edge("e1")) == (
            "Edge(id='e1', src='n1', tgt='n2', label='Used', props={})"
        )

    def test_pickle_round_trip_is_equal(self, tiny_graph):
        for element in (tiny_graph.node("n1"), tiny_graph.edge("e1")):
            clone = pickle.loads(pickle.dumps(element))
            assert type(clone) is type(element)
            assert clone == element
        clone = pickle.loads(pickle.dumps(tiny_graph))
        assert clone == tiny_graph
        assert list(clone.nodes()) == list(tiny_graph.nodes())

    def test_graph_equality_tells_ids_labels_and_props_apart(
        self, tiny_graph
    ):
        def rebuilt(node_id="n2", label="Process", props=None):
            graph = PropertyGraph("g2")
            graph.add_node("n1", "File", {"Userid": "1", "Name": "text"})
            graph.add_node(node_id, label, props)
            graph.add_edge("e1", "n1", node_id, "Used")
            return graph

        assert rebuilt() == tiny_graph
        assert rebuilt(node_id="n3") != tiny_graph
        assert rebuilt(label="Thread") != tiny_graph
        assert rebuilt(props={"pid": "7"}) != tiny_graph
        edge_props = tiny_graph.copy()
        edge_props.set_prop("e1", "time", "5")
        assert edge_props != tiny_graph

    def test_no_payload_type_holds_a_bare_element(self):
        """The payload codec encodes any tuple as a list, so a node or
        edge in a payload field would lose its field names; graphs
        travel as ``graph_to_payload`` objects instead."""
        modules = [
            importlib.import_module(f"repro.{name}") for name in (
                "api.specs", "api.types", "cluster.events", "exec.policy",
                "faults", "sched.policy",
            )
        ]
        payload_types = {
            value for module in modules for value in vars(module).values()
            if isinstance(value, type) and "_payload_fields" in vars(value)
        }
        assert len(payload_types) >= 20
        for cls in payload_types:
            hints = typing.get_type_hints(cls)
            for field in dataclasses.fields(cls):
                assert not _mentions_element(hints[field.name]), (
                    f"{cls.__name__}.{field.name}"
                )


def _mentions_element(hint) -> bool:
    if hint in (Node, Edge):
        return True
    return any(_mentions_element(arg) for arg in typing.get_args(hint))
