"""Fidelity tests against the concrete examples printed in the paper.

* Figure 4 / Listing 2 — the two sample graphs and their Datalog facts;
* Listing 1 — the generic fact format;
* the close.c benchmark program of §3;
* Listing 3/4 behaviour on the Figure 4 graphs;
* Figure 1 — one rename, three structurally different graphs.
"""

import pytest

from repro import ProvMark
from repro.graph.datalog import graph_to_datalog
from repro.graph.model import PropertyGraph
from repro.solver.asp.bridge import asp_are_similar, asp_embed_subgraph
from repro.solver.native import are_similar, embed_subgraph
from repro.suite.registry import get_benchmark


def figure4_g1() -> PropertyGraph:
    """g1: a lone File node with Userid/Name properties."""
    graph = PropertyGraph("1")
    graph.add_node("n1", "File", {"Userid": "1", "Name": "text"})
    return graph


def figure4_g2() -> PropertyGraph:
    """g2: the same File node plus a Process and a Used edge."""
    graph = PropertyGraph("2")
    graph.add_node("n1", "File", {"Userid": "1", "Name": "text"})
    graph.add_node("n2", "Process")
    graph.add_edge("e1", "n1", "n2", "Used")
    return graph


class TestListing2:
    def test_g1_facts_match_paper(self):
        facts = graph_to_datalog(figure4_g1(), gid="g1").splitlines()
        assert facts == [
            'ng1(n1,"File").',
            'pg1(n1,"Name","text").',
            'pg1(n1,"Userid","1").',
        ]

    def test_g2_facts_match_paper(self):
        facts = set(graph_to_datalog(figure4_g2(), gid="g2").splitlines())
        # Exactly the facts of Listing 2 (order differs; the paper
        # interleaves them).
        assert facts == {
            'ng2(n1,"File").',
            'ng2(n2,"Process").',
            'pg2(n1,"Userid","1").',
            'eg2(e1,n1,n2,"Used").',
            'pg2(n1,"Name","text").',
        }


class TestFigure4Matching:
    def test_g1_g2_not_similar(self):
        """Similarity is a bijection: different sizes can never match."""
        assert not are_similar(figure4_g1(), figure4_g2())
        assert not asp_are_similar(figure4_g1(), figure4_g2())

    def test_g1_embeds_into_g2(self):
        """Listing 4 finds g1 inside g2 with zero property mismatches."""
        for engine_embed in (embed_subgraph, asp_embed_subgraph):
            matching = engine_embed(figure4_g1(), figure4_g2())
            assert matching is not None
            assert matching.node_map == {"n1": "n1"}
            assert matching.cost == 0

    def test_g2_does_not_embed_into_g1(self):
        assert embed_subgraph(figure4_g2(), figure4_g1()) is None
        assert asp_embed_subgraph(figure4_g2(), figure4_g1()) is None


class TestCloseBenchmarkProgram:
    """§3's close.c: open in the background, close inside #ifdef TARGET."""

    def test_source_matches_paper_shape(self):
        source = get_benchmark("close").to_c_source()
        assert "#include <fcntl.h>" in source
        assert "#include <unistd.h>" in source
        body = source[source.index("void main()"):]
        assert body.index('open("test.txt", O_RDWR)') < body.index(
            "#ifdef TARGET"
        )
        assert body.index("#ifdef TARGET") < body.index("close(id);")
        assert body.index("close(id);") < body.index("#endif")

    def test_background_is_open_only(self):
        program = get_benchmark("close")
        assert [op.call for op in program.background_ops()] == ["open"]
        assert [op.call for op in program.foreground_ops()] == ["open", "close"]


class TestFigure1:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            tool: ProvMark(tool=tool, seed=1).run_benchmark("rename")
            for tool in ("spade", "opus", "camflow")
        }

    def test_rename_recorded_by_every_tool(self, results):
        assert all(result.is_ok for result in results.values())

    def test_three_tools_three_structures(self, results):
        signatures = {
            result.target_graph.structural_signature()
            for result in results.values()
        }
        assert len(signatures) == 3

