"""Ablation — trial count and the `filtergraphs` option under flaky
recording (paper §3.2 and appendix A.4/A.5).

CamFlow occasionally produces structurally jittered output; ProvMark
copes via more trials (similarity classes filter failed runs) and/or the
filtergraphs pre-filter.  This ablation measures benchmark success rate
and cost across those settings.
"""

import pytest

from repro import PipelineConfig, ProvMark
from repro.capture.camflow import CamFlowCapture, CamFlowConfig

from conftest import emit

JITTER = 0.45


def run_attempts(trials: int, filtergraphs: bool, attempts: int = 6):
    """Returns (completed, accurate) rates.

    *completed* — the pipeline produced a benchmark at all;
    *accurate* — and the target graph is the clean expected structure
    (no spurious 'machine' node leaked into the result).  Two jittered
    trials are similar to each other, so without filtering the pipeline
    can succeed with a contaminated answer — precisely why the paper says
    filtering "can increase the accuracy ... but decrease the efficiency"
    (appendix A.4).
    """
    completed = accurate = 0
    for attempt in range(attempts):
        capture = CamFlowCapture(CamFlowConfig(structural_jitter=JITTER))
        provmark = ProvMark(
            capture=capture,
            config=PipelineConfig(
                tool="camflow", seed=100 + attempt, trials=trials,
                filtergraphs=filtergraphs,
            ),
        )
        result = provmark.run_benchmark("open")
        if result.classification.value != "failed":
            completed += 1
            clean = not any(
                "machine" in (node.label, node.props.get("was", ""))
                for graph in (result.target_graph, result.foreground)
                for node in graph.nodes()
            )
            if result.classification.value == "ok" and clean:
                accurate += 1
    return completed / attempts, accurate / attempts


@pytest.mark.parametrize("trials", [2, 5])
def test_trials_ablation(benchmark, trials):
    completed, accurate = benchmark.pedantic(
        run_attempts, args=(trials, False), rounds=1, iterations=1
    )
    emit(f"ablation_trials_{trials}", [
        f"jitter={JITTER}, filtergraphs=off, trials={trials}: "
        f"completed {completed:.0%}, accurate {accurate:.0%}",
    ])
    if trials >= 5:
        assert completed >= 0.8


def test_filtergraphs_ablation(benchmark):
    def both():
        return (
            run_attempts(3, filtergraphs=False),
            run_attempts(3, filtergraphs=True),
        )

    without, with_filter = benchmark.pedantic(both, rounds=1, iterations=1)
    emit("ablation_filtergraphs", [
        f"trials=3, jitter={JITTER}",
        f"filtergraphs off: completed {without[0]:.0%}, accurate {without[1]:.0%}",
        f"filtergraphs on:  completed {with_filter[0]:.0%}, accurate {with_filter[1]:.0%}",
    ])
    # Filtering never yields an inaccurate benchmark; every completed run
    # is accurate (the paper's accuracy/efficiency trade-off).
    assert with_filter[1] == with_filter[0]
    assert with_filter[1] >= without[1]
