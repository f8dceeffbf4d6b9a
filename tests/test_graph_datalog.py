"""Datalog serialization tests (paper Listing 1/2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datalog import (
    DatalogError,
    datalog_to_graph,
    graph_to_datalog,
    iter_facts,
    quote,
)
from repro.graph.model import GraphError, PropertyGraph


class TestRendering:
    def test_listing2_format(self, tiny_graph):
        text = graph_to_datalog(tiny_graph, gid="g2")
        lines = text.strip().splitlines()
        assert 'ng2(n1,"File").' in lines
        assert 'ng2(n2,"Process").' in lines
        assert 'eg2(e1,n1,n2,"Used").' in lines
        assert 'pg2(n1,"Userid","1").' in lines
        assert 'pg2(n1,"Name","text").' in lines

    def test_gid_defaults_to_graph_gid(self, tiny_graph):
        assert graph_to_datalog(tiny_graph).startswith("ng2(")

    def test_empty_graph_renders_empty(self):
        assert graph_to_datalog(PropertyGraph("x")) == ""

    def test_deterministic_ordering(self, tiny_graph):
        assert graph_to_datalog(tiny_graph) == graph_to_datalog(tiny_graph)

    def test_quote_escapes(self):
        assert quote('say "hi"') == '"say \\"hi\\""'
        assert quote("back\\slash") == '"back\\\\slash"'


class TestParsing:
    def test_roundtrip(self, tiny_graph):
        text = graph_to_datalog(tiny_graph, gid="1")
        back = datalog_to_graph(text, gid="1")
        assert back.node_count == 2
        assert back.edge_count == 1
        assert back.node("n1").prop("Name") == "text"
        assert back.edge("e1").label == "Used"

    def test_gid_inferred(self, tiny_graph):
        text = graph_to_datalog(tiny_graph, gid="77")
        back = datalog_to_graph(text)
        assert back.node_count == 2

    def test_comments_and_blank_lines_ignored(self):
        text = '% a comment\n\nng(n1,"X").\n'
        graph = datalog_to_graph(text, gid="g")
        assert graph.node_count == 1

    def test_bad_fact_rejected(self):
        with pytest.raises(DatalogError):
            list(iter_facts("this is not a fact"))

    def test_unterminated_string_rejected(self):
        with pytest.raises(DatalogError):
            list(iter_facts('ng(n1,"unterminated).'))

    def test_wrong_arity_rejected(self):
        with pytest.raises(DatalogError):
            datalog_to_graph('ng(n1,"X","extra").', gid="g")
        with pytest.raises(DatalogError):
            datalog_to_graph('eg(e1,n1,"X").', gid="g")

    def test_a_property_of_no_element_is_a_graph_error(self):
        text = 'ng(n1,"X").\npg(n1,"k","v").\npg(ghost,"k","v").\n'
        with pytest.raises(GraphError, match="unknown element 'ghost'"):
            datalog_to_graph(text, gid="g")

    def test_values_with_commas_and_parens(self):
        graph = PropertyGraph("g")
        graph.add_node("n1", "X", {"cmd": "a, b(c), d"})
        back = datalog_to_graph(graph_to_datalog(graph, gid="g"), gid="g")
        assert back.node("n1").prop("cmd") == "a, b(c), d"


_prop_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    max_size=20,
)
_ids = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(_prop_values, min_size=1, max_size=5),
    keys=st.lists(_ids, min_size=0, max_size=4, unique=True),
    value=_prop_values,
)
def test_roundtrip_property(labels, keys, value):
    """Any graph with arbitrary unicode labels/props survives a roundtrip."""
    graph = PropertyGraph("h")
    for index, label in enumerate(labels):
        graph.add_node(f"n{index}", label or "L", {k: value for k in keys})
    for index in range(len(labels) - 1):
        graph.add_edge(f"e{index}", f"n{index}", f"n{index+1}", "rel")
    back = datalog_to_graph(graph_to_datalog(graph, gid="h"), gid="h")
    assert back.node_count == graph.node_count
    assert back.edge_count == graph.edge_count
    for node in graph.nodes():
        assert back.node(node.id).label == node.label
        assert dict(back.node(node.id).props) == dict(node.props)
