"""DOT and PROV-JSON serializer tests."""

import json

import pytest

from repro.graph.dot import DotError, dot_to_graph, graph_to_dot
from repro.graph.model import PropertyGraph
from repro.graph.provjson import (
    ProvJsonError,
    graph_to_provjson,
    provjson_to_graph,
)


class TestDot:
    def test_roundtrip(self, tiny_graph):
        text = graph_to_dot(tiny_graph)
        back = dot_to_graph(text)
        assert back.node_count == 2
        assert back.edge_count == 1
        assert back.node("n1").label == "File"
        assert back.node("n1").prop("Name") == "text"
        assert back.edge("e1").label == "Used"

    def test_shapes_match_opm_kinds(self, tiny_graph):
        text = graph_to_dot(tiny_graph)
        assert 'shape="ellipse"' in text  # File -> Artifact-ish fallback
        assert "digraph" in text

    def test_process_gets_box(self):
        graph = PropertyGraph()
        graph.add_node("p", "Process", {"pid": "1"})
        assert 'shape="box"' in graph_to_dot(graph)

    def test_edge_props_roundtrip(self):
        graph = PropertyGraph()
        graph.add_node("a", "Process")
        graph.add_node("b", "Artifact")
        graph.add_edge("e9", "a", "b", "Used", {"operation": "open", "time": "5"})
        back = dot_to_graph(graph_to_dot(graph))
        edge = back.edge("e9")
        assert edge.props["operation"] == "open"
        assert edge.props["time"] == "5"

    @pytest.mark.parametrize("value", [
        'we"ird.txt', "back\\slash", "literal\\nnewline", 'mix\\"ed\\', '"',
    ], ids=["quote", "backslash", "literal_newline_escape", "mixed", "bare_quote"])
    def test_values_with_quotes_and_backslashes_roundtrip(self, value):
        graph = PropertyGraph()
        graph.add_node("a", "Process", {"exe": value, "pid": "1"})
        graph.add_node("b", "Artifact", {"path": value})
        graph.add_edge("e1", "a", "b", "Used", {"operation": value})
        back = dot_to_graph(graph_to_dot(graph))
        assert back == graph
        assert back.node("b").props == {"path": value}

    def test_an_edge_property_named_label_roundtrips(self):
        graph = PropertyGraph()
        graph.add_node("a", "Process")
        graph.add_node("b", "Artifact")
        graph.add_edge("e1", "a", "b", "Used", {"label": "x", "time": "5"})
        back = dot_to_graph(graph_to_dot(graph))
        assert back.edge("e1").label == "Used"
        assert back.edge("e1").props == {"label": "x", "time": "5"}

    def test_dangling_edge_endpoint_becomes_unknown_node(self):
        text = 'digraph g {\n  "a" -> "ghost" [label="type:Used"];\n  "a" [label="type:Process"];\n}'
        graph = dot_to_graph(text)
        assert graph.node("ghost").label == "Unknown"

    def test_unparseable_line_raises(self):
        with pytest.raises(DotError):
            dot_to_graph("digraph g {\n  ???garbage\n}")

    def test_empty_graph(self):
        back = dot_to_graph(graph_to_dot(PropertyGraph()))
        assert back.is_empty()


class TestProvJson:
    def make_camflow_like(self) -> PropertyGraph:
        graph = PropertyGraph()
        graph.add_node("t1", "task", {"prov:kind": "activity", "cf:pid": "9"})
        graph.add_node("i1", "inode", {"prov:kind": "entity", "cf:ino": "44"})
        graph.add_node("a1", "user", {"prov:kind": "agent"})
        graph.add_edge("r1", "t1", "i1", "used", {"cf:type": "open"})
        graph.add_edge("r2", "i1", "t1", "wasGeneratedBy")
        graph.add_edge("r3", "t1", "a1", "wasAssociatedWith")
        return graph

    def test_roundtrip(self):
        graph = self.make_camflow_like()
        back = provjson_to_graph(graph_to_provjson(graph))
        assert back.node_count == 3
        assert back.edge_count == 3
        assert back.node("t1").label == "task"
        assert back.node("t1").prop("prov:kind") == "activity"
        assert back.edge("r1").label == "used"
        assert back.edge("r1").prop("cf:type") == "open"

    def test_document_is_valid_prov_json(self):
        doc = json.loads(graph_to_provjson(self.make_camflow_like()))
        assert "activity" in doc and "entity" in doc and "agent" in doc
        used = doc["used"]["r1"]
        assert used["prov:activity"] == "t1"
        assert used["prov:entity"] == "i1"

    def test_kind_roundtrip_for_all_three(self):
        graph = self.make_camflow_like()
        back = provjson_to_graph(graph_to_provjson(graph))
        kinds = {n.id: n.prop("prov:kind") for n in back.nodes()}
        assert kinds == {"t1": "activity", "i1": "entity", "a1": "agent"}

    def test_invalid_json_raises(self):
        with pytest.raises(ProvJsonError):
            provjson_to_graph("{not json")

    def test_non_object_top_level_raises(self):
        with pytest.raises(ProvJsonError):
            provjson_to_graph("[1,2,3]")

    def test_relation_missing_endpoint_raises(self):
        doc = {"entity": {"e": {}}, "used": {"r": {"prov:activity": "e"}}}
        with pytest.raises(ProvJsonError):
            provjson_to_graph(json.dumps(doc))

    def test_unknown_endpoint_materialized_as_entity(self):
        doc = {
            "activity": {"a": {"prov:type": "task"}},
            "used": {"r": {"prov:activity": "a", "prov:entity": "ghost"}},
        }
        graph = provjson_to_graph(json.dumps(doc))
        assert graph.has_node("ghost")
        assert graph.node("ghost").label == "entity"
