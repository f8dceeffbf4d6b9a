"""Table 2 — the validation matrix (ok/empty per syscall per tool)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.result import BenchmarkResult
from repro.suite.registry import TABLE2_BENCHMARKS, TABLE2_ORDER

NOTE_MEANINGS = {
    "NR": "Behavior not recorded (by default configuration)",
    "SC": "Only state changes monitored",
    "LP": "Limitation in ProvMark",
    "DV": "Disconnected vforked process",
}

TOOLS = ("spade", "opus", "camflow")


@dataclass
class Table2Cell:
    classification: str
    note: str
    expected_classification: str
    expected_note: str

    @property
    def rendered(self) -> str:
        note = f" ({self.note})" if self.note else ""
        return f"{self.classification}{note}"

    @property
    def matches_expectation(self) -> bool:
        return self.classification == self.expected_classification


@dataclass
class Table2:
    """The full matrix plus agreement statistics."""

    rows: Dict[str, Dict[str, Table2Cell]]

    def mismatches(self) -> List[Tuple[str, str, Table2Cell]]:
        out = []
        for benchmark, cells in self.rows.items():
            for tool, cell in cells.items():
                if not cell.matches_expectation:
                    out.append((benchmark, tool, cell))
        return out

    @property
    def agreement(self) -> float:
        total = sum(len(cells) for cells in self.rows.values())
        good = total - len(self.mismatches())
        return good / total if total else 1.0

    def render(self) -> str:
        """Text rendering in the paper's row order."""
        lines = [
            f"{'syscall':<12} {'group':>5}  "
            + "  ".join(f"{tool:<14}" for tool in TOOLS)
        ]
        for benchmark in self.rows:
            group = TABLE2_BENCHMARKS[benchmark].group
            cells = self.rows[benchmark]
            lines.append(
                f"{benchmark:<12} {group:>5}  "
                + "  ".join(f"{cells[tool].rendered:<14}" for tool in TOOLS)
            )
        lines.append("")
        for note, meaning in NOTE_MEANINGS.items():
            lines.append(f"  {note}: {meaning}")
        return "\n".join(lines)


def generate_table2(
    tools: Sequence[str] = TOOLS,
    benchmarks: Optional[Sequence[str]] = None,
    seed: Optional[int] = 2019,
    trials: Optional[int] = None,
) -> Table2:
    """Run the full pipeline for every (tool, benchmark) cell."""
    names = list(benchmarks or TABLE2_ORDER)
    rows: Dict[str, Dict[str, Table2Cell]] = {name: {} for name in names}
    for tool in tools:
        provmark = ProvMark(
            config=PipelineConfig(tool=tool, seed=seed, trials=trials)
        )
        for name in names:
            result = provmark.run_benchmark(name)
            rows[name][tool] = _to_cell(result)
    return Table2(rows=rows)


def _to_cell(result: BenchmarkResult) -> Table2Cell:
    program = TABLE2_BENCHMARKS.get(result.benchmark)
    expectation = program.expectation(result.tool) if program else None
    expected_classification, expected_note = expectation or ("?", "")
    note = expected_note if result.classification.value == expected_classification else ""
    return Table2Cell(
        classification=result.classification.value,
        note=note,
        expected_classification=expected_classification,
        expected_note=expected_note,
    )
