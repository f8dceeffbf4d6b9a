"""Table 3 — example benchmark result structures.

The paper shows the target graphs of six representative syscalls (open,
read, write, dup, setuid, setresuid) for all three tools.  We summarize
each cell structurally (node/edge counts, labels, components) and keep the
DOT source for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.pipeline import PipelineConfig, ProvMark
from repro.graph.dot import graph_to_dot
from repro.graph.stats import GraphSummary, summarize

TABLE3_SYSCALLS = ("open", "read", "write", "dup", "setuid", "setresuid")
TOOLS = ("spade", "opus", "camflow")


@dataclass
class Table3Cell:
    summary: GraphSummary
    dot: str

    @property
    def rendered(self) -> str:
        return self.summary.describe()


@dataclass
class Table3:
    cells: Dict[str, Dict[str, Table3Cell]]

    def render(self) -> str:
        lines = []
        syscalls = sorted({s for cells in self.cells.values() for s in cells})
        width = max(len(s) for s in syscalls) + 2
        for tool in self.cells:
            lines.append(f"--- {tool} ---")
            for syscall in syscalls:
                cell = self.cells[tool].get(syscall)
                if cell is not None:
                    lines.append(f"  {syscall:<{width}} {cell.rendered}")
        return "\n".join(lines)


def generate_table3(
    syscalls: Sequence[str] = TABLE3_SYSCALLS,
    tools: Sequence[str] = TOOLS,
    seed: Optional[int] = 2019,
) -> Table3:
    cells: Dict[str, Dict[str, Table3Cell]] = {}
    for tool in tools:
        provmark = ProvMark(config=PipelineConfig(tool=tool, seed=seed))
        cells[tool] = {}
        for syscall in syscalls:
            result = provmark.run_benchmark(syscall)
            cells[tool][syscall] = Table3Cell(
                summary=summarize(result.target_graph),
                dot=graph_to_dot(result.target_graph),
            )
    return Table3(cells=cells)
