"""Figures 5-10 — processing time per stage, and against target size.

The paper's §5.1 reports each tool's transformation, generalization and
comparison times for five representative syscalls (Figures 5-7), and
each tool's processing time over the scale1/2/4/8 benchmarks, which
repeat a creat+unlink pair 1/2/4/8 times (Figures 8-10).  Both are
regenerated here on the virtual processing clock
(:class:`~repro.core.result.StageTimings`' ``virtual_*`` fields), which
is deterministic: the figures are byte-identical from run to run, and
the section's shape claims are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.result import BenchmarkResult

SEED = 5
SYSCALLS = ("open", "execve", "fork", "setuid", "rename")
SCALES = ("scale1", "scale2", "scale4", "scale8")
#: each tool's stage-time figure and scalability figure
FIGURES = {"spade": (5, 8), "opus": (6, 9), "camflow": (7, 10)}
STAGES = ("transformation", "generalization", "comparison")

#: benchmark name -> its result, for one tool
Column = Dict[str, BenchmarkResult]


@dataclass
class Figures:
    #: tool -> one run per syscall (Figures 5-7)
    stages: Dict[str, Column]
    #: tool -> one run per scale benchmark (Figures 8-10)
    scales: Dict[str, Column]

    def processing(self, tool: str) -> float:
        """Virtual processing seconds over the five syscalls."""
        return sum(
            r.timings.virtual_processing for r in self.stages[tool].values()
        )

    def scale_ratio(self, tool: str) -> float:
        """Virtual processing at scale8 over that at scale1."""
        column = self.scales[tool]
        return (
            column[SCALES[-1]].timings.virtual_processing
            / column[SCALES[0]].timings.virtual_processing
        )

    def claims(self) -> List[Tuple[str, bool]]:
        """§5.1's shape claims, each described with its numbers."""
        ms = {tool: 1e3 * self.processing(tool) for tool in FIGURES}
        opus_transformation = 1e3 * sum(
            r.timings.virtual_transformation
            for r in self.stages["opus"].values()
        )
        ratio = {tool: self.scale_ratio(tool) for tool in FIGURES}
        claims = [
            (f"opus processing {ms['opus']:.2f} ms > 3 x spade's "
             f"{ms['spade']:.2f} ms", ms["opus"] > 3 * ms["spade"]),
            (f"opus processing {ms['opus']:.2f} ms > 3 x camflow's "
             f"{ms['camflow']:.2f} ms", ms["opus"] > 3 * ms["camflow"]),
            (f"opus transformation {opus_transformation:.2f} ms > half "
             f"its processing", opus_transformation > ms["opus"] / 2),
        ]
        claims += [
            (f"{tool} processing grows from scale1 to scale8 "
             f"({ratio[tool]:.2f}x)", ratio[tool] > 1)
            for tool in FIGURES
        ]
        claims += [
            ("opus has the smallest scale8/scale1 ratio",
             ratio["opus"] == min(ratio.values())),
            (f"camflow scale8/scale1 {ratio['camflow']:.2f}x > 1.5",
             ratio["camflow"] > 1.5),
            (f"spade scale8/scale1 {ratio['spade']:.2f}x > 1.2",
             ratio["spade"] > 1.2),
        ]
        return claims

    def render(self) -> str:
        header = f"  {'':<10}" + "".join(f"{s:>16}" for s in STAGES)
        lines = []
        for tool, (stage_figure, _) in FIGURES.items():
            lines.append(
                f"Figure {stage_figure} ({tool}): virtual stage times, ms"
            )
            lines.append(header)
            lines += _rows(self.stages[tool], STAGES)
            lines.append("")
        for tool, (_, scale_figure) in FIGURES.items():
            lines.append(
                f"Figure {scale_figure} ({tool}): virtual processing "
                f"against target size, ms"
            )
            lines.append(header + f"{'processing':>16}")
            lines += _rows(self.scales[tool], STAGES + ("processing",))
            lines.append("")
        lines.append(f"§5.1 claims (seed {SEED}):")
        lines += [
            f"  {'holds' if holds else 'FAILS'}  {text}"
            for text, holds in self.claims()
        ]
        return "\n".join(lines)


def _rows(column: Column, fields: Tuple[str, ...]) -> List[str]:
    return [
        f"  {name:<10}" + "".join(
            f"{1e3 * getattr(result.timings, f'virtual_{field}'):>16.2f}"
            for field in fields
        )
        for name, result in column.items()
    ]


def generate_figures() -> Figures:
    """Run Figures 5-10's benchmarks under every tool at :data:`SEED`."""
    stages: Dict[str, Column] = {}
    scales: Dict[str, Column] = {}
    for tool in FIGURES:
        provmark = ProvMark(config=PipelineConfig(tool=tool, seed=SEED))
        stages[tool] = {name: provmark.run_benchmark(name) for name in SYSCALLS}
        scales[tool] = {name: provmark.run_benchmark(name) for name in SCALES}
    return Figures(stages=stages, scales=scales)
