"""Figures 5-7 — ProvMark stage timings per tool.

For the paper's five representative syscalls (open, execve, fork, setuid,
rename) we measure the transformation / generalization / comparison time
under each tool and regenerate the per-figure rows.

Shape assertions (the paper's claims, §5.1):
* OPUS stage times dwarf SPADE's and CamFlow's (database startup/query
  cost plus larger graphs);
* within OPUS, transformation dominates;
* SPADE and CamFlow complete each benchmark in a small fraction of
  OPUS's time.
"""

import pytest

from repro import ProvMark

from conftest import emit

SYSCALLS = ("open", "execve", "fork", "setuid", "rename")
FIGURES = {"spade": "fig5", "opus": "fig6", "camflow": "fig7"}

_collected = {}


@pytest.mark.parametrize("tool", list(FIGURES))
def test_stage_timing(benchmark, tool):
    provmark = ProvMark(tool=tool, seed=5)

    def run_all():
        return {name: provmark.run_benchmark(name) for name in SYSCALLS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [f"{'syscall':<8} {'transform':>10} {'generalize':>11} {'compare':>9}"]
    for name, result in results.items():
        timing = result.timings
        rows.append(
            f"{name:<8} {timing.transformation:>9.4f}s "
            f"{timing.generalization:>10.4f}s {timing.comparison:>8.4f}s"
        )
    emit(f"{FIGURES[tool]}_timing_{tool}", rows)
    _collected[tool] = results


def test_cross_tool_shape(benchmark):
    """OPUS must dominate overall; its transformation must dominate
    within-tool (Figure 6 vs Figures 5/7)."""
    def totals():
        out = {}
        for tool in FIGURES:
            provmark = ProvMark(tool=tool, seed=5)
            processing = transform = 0.0
            for name in SYSCALLS:
                timing = provmark.run_benchmark(name).timings
                processing += timing.processing
                transform += timing.transformation
            out[tool] = (processing, transform)
        return out

    out = benchmark.pedantic(totals, rounds=1, iterations=1)
    emit("fig5to7_shape", [
        f"{tool}: processing={processing:.3f}s transformation={transform:.3f}s"
        for tool, (processing, transform) in out.items()
    ])
    opus_processing = out["opus"][0]
    assert opus_processing > 3 * out["spade"][0]
    assert opus_processing > 3 * out["camflow"][0]
    # Within OPUS, transformation is the largest stage overall.
    assert out["opus"][1] > opus_processing / 2
