"""Figure 1 — the same rename syscall under three recorders.

Regenerates the paper's opening comparison: three structurally different
graphs for one operation.  The benchmark times the full four-stage
pipeline per tool.
"""

import pytest

from repro import ProvMark
from repro.graph.stats import summarize

from conftest import emit

TOOLS = ("spade", "opus", "camflow")


@pytest.mark.parametrize("tool", TOOLS)
def test_fig1_rename(benchmark, tool):
    provmark = ProvMark(tool=tool, seed=1)
    result = benchmark.pedantic(
        provmark.run_benchmark, args=("rename",), rounds=1, iterations=1
    )
    assert result.classification.value == "ok"
    summary = summarize(result.target_graph)
    emit(f"fig1_rename_{tool}", [
        f"tool: {tool}",
        f"structure: {summary.describe()}",
        f"node labels: {sorted(n.label for n in result.target_graph.nodes())}",
        f"edge labels: {sorted(e.label for e in result.target_graph.edges())}",
    ])


def test_fig1_structures_differ(benchmark):
    """The point of Figure 1: three tools, three different shapes."""
    def run():
        return {
            tool: ProvMark(tool=tool, seed=1).run_benchmark("rename")
            for tool in TOOLS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    signatures = {
        tool: result.target_graph.structural_signature()
        for tool, result in results.items()
    }
    assert len(set(signatures.values())) == 3
