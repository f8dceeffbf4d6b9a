"""Scalability headroom beyond the paper's scale8 (§5.2, §5.4).

The paper evaluates 10-20 target syscalls and notes that realistic
suspicious-behaviour analysis needs much larger targets.  This bench
pushes the reproduction through the registry's scalability rows up to
the slow-tagged scale128/scale512 tiers, plus a mixed "application"
workload (~30 heterogeneous syscalls), and records how the matching
stages behave.
"""

import pytest

from repro import ProvMark
from repro.suite.program import Op, Program
from repro.suite.registry import SUITE_REGISTRY

from conftest import emit, record_bench, timings_payload

#: registry rows tagged ``scalability`` beyond the paper's scale8
HEADROOM_SCALES = ("scale16", "scale32", "scale128", "scale512")


def mixed_workload() -> Program:
    """A build-like session: dirs, copies, permissions, cleanup."""
    ops = [
        Op("mkdir", ("build",), target=True),
        Op("chdir", ("build",), target=True),
    ]
    for index in range(4):
        ops += [
            Op("creat", (f"obj{index}.o", 0o644), result=f"fd{index}", target=True),
            Op("write", (f"$fd{index}", b"obj"), target=True),
            Op("close", (f"$fd{index}",), target=True),
        ]
    ops += [
        Op("creat", ("app", 0o755), result="out", target=True),
        Op("write", ("$out", b"linked"), target=True),
        Op("chmod", ("app", 0o755), target=True),
        Op("link", ("app", "app.release"), target=True),
        Op("chdir", ("..",), target=True),
        Op("rename", ("build/app.release", "app.final"), target=True),
    ]
    for index in range(4):
        ops.append(Op("unlink", (f"build/obj{index}.o",), target=True))
    return Program(name="headroom_mixed", ops=tuple(ops))


@pytest.mark.parametrize("name", HEADROOM_SCALES)
@pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
def test_scale_headroom(benchmark, tool, name):
    assert "scalability" in SUITE_REGISTRY.tags(name)
    provmark = ProvMark(tool=tool, seed=5)
    result = benchmark.pedantic(
        provmark.run_benchmark, args=(name,), rounds=1, iterations=1
    )
    assert result.classification.value == "ok"
    timings = result.timings
    emit(f"headroom_{tool}_{name}", [
        f"target graph: {result.target_graph.node_count} nodes, "
        f"{result.target_graph.edge_count} edges",
        f"generalization: {timings.generalization:.3f}s, "
        f"comparison: {timings.comparison:.3f}s",
        f"solver steps: {timings.solver_steps}, decomposed components: "
        f"{timings.decomposed_components} "
        f"(largest: {timings.component_steps_max} steps)",
    ])
    record_bench(f"headroom/{tool}/{name}", timings_payload(timings))
    # Every tool decomposes at every tier; the largest single component
    # searched stays tiny even at scale512.
    assert timings.decomposed_components > 0


@pytest.mark.parametrize("tool", ["spade", "camflow"])
def test_mixed_workload(benchmark, tool):
    provmark = ProvMark(tool=tool, seed=5)
    result = benchmark.pedantic(
        provmark.run_benchmark, args=(mixed_workload(),), rounds=1, iterations=1
    )
    assert result.classification.value == "ok"
    emit(f"headroom_mixed_{tool}", [
        f"target graph: {result.target_graph.node_count} nodes, "
        f"{result.target_graph.edge_count} edges",
        f"processing: {result.timings.processing:.3f}s",
    ])
    # ~25-syscall targets stay comfortably inside the solver budget.
    assert result.timings.processing < 30.0
