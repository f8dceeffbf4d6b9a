"""Ablation — representative-pair choice in generalization (paper §3.4).

The paper: "we choose a pair of graphs whose size is smallest.  Picking
the two largest graphs also seems to work; the choice seems arbitrary.
However, picking the largest background graph and the smallest foreground
graph leads to failure if the extra background structure is not found in
the foreground, while making the opposite choice leads to extra structure
being found in the difference."

We reproduce all four combinations under CamFlow recording jitter, which
creates both small (clean) and large (jittered, extra machine node)
similarity classes for each program variant.
"""

import pytest

from repro import PipelineConfig, ProvMark
from repro.capture.camflow import CamFlowCapture, CamFlowConfig

from conftest import emit

#: Seed chosen so that, with jitter=0.5 and 6 trials, both program
#: variants have a clean pair AND a jittered pair available (so the
#: smallest/largest choice is real for both).
SEED = 0


def run_policy(fg_policy: str, bg_policy: str):
    capture = CamFlowCapture(CamFlowConfig(structural_jitter=0.5))
    provmark = ProvMark(
        capture=capture,
        config=PipelineConfig(
            tool="camflow", seed=SEED, trials=6, filtergraphs=False,
            fg_pair_policy=fg_policy, bg_pair_policy=bg_policy,
        ),
    )
    return provmark.run_benchmark("open")


@pytest.mark.parametrize("policy", ["smallest", "largest"])
def test_consistent_policies_work(benchmark, policy):
    result = benchmark.pedantic(
        run_policy, args=(policy, policy), rounds=1, iterations=1
    )
    assert result.classification.value == "ok"


def test_mismatched_policies_misbehave(benchmark):
    def all_combos():
        return {
            (fg, bg): run_policy(fg, bg)
            for fg in ("smallest", "largest")
            for bg in ("smallest", "largest")
        }

    results = benchmark.pedantic(all_combos, rounds=1, iterations=1)
    rows = []
    for (fg, bg), result in results.items():
        extra = [
            node.label for node in result.target_graph.nodes()
            if node.label == "machine"
            or node.props.get("was") == "machine"
        ]
        rows.append(
            f"fg={fg:<8} bg={bg:<8} -> {result.classification.value:<6} "
            f"target size {result.target_graph.size}"
            + (f", {len(extra)} spurious machine element(s)" if extra else "")
            + (f"  [{result.error[:48]}]" if result.error else "")
        )
    emit("ablation_pair_choice", rows)

    # Consistent choices: both fine.
    assert results[("smallest", "smallest")].classification.value == "ok"
    assert results[("largest", "largest")].classification.value == "ok"
    # Largest bg + smallest fg: extra background structure cannot embed.
    assert results[("smallest", "largest")].classification.value == "failed"
    # Smallest bg + largest fg: extra structure leaks into the difference.
    leaked = results[("largest", "smallest")]
    assert leaked.classification.value == "ok"
    assert leaked.target_graph.size > (
        results[("smallest", "smallest")].target_graph.size
    )
