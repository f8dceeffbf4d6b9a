"""Ablation — native branch-and-bound vs the mini-ASP engine.

The paper solves its matching problems with clingo; this reproduction
offers a fast native matcher plus a faithful ASP engine executing the
paper's Listing 3/4 programs.  The ablation quantifies the cost of the
declarative route and asserts both engines agree.
"""

import pytest

from repro import PipelineConfig, ProvMark
from repro.core.recording import Recorder
from repro.core.transform import transform
from repro.capture.spade import SpadeCapture
from repro.solver import subgraph_embedding, similarity
from repro.suite.registry import get_benchmark

from conftest import emit


def trial_graphs(benchmark_name="open", seed=3):
    capture = SpadeCapture()
    session = Recorder(capture, trials=2, seed=seed).record(
        get_benchmark(benchmark_name)
    )
    fg = transform(session.foreground_trials[0].raw, "dot", gid="fg")
    bg = transform(session.background_trials[0].raw, "dot", gid="bg")
    return fg, bg


@pytest.mark.parametrize("engine", ["native", "asp"])
def test_similarity_engine(benchmark, engine):
    fg, _ = trial_graphs()
    fg2 = fg.relabel("q")
    assert benchmark(similarity, fg, fg2, engine=engine)


@pytest.mark.parametrize("engine", ["native", "asp"])
def test_embedding_engine(benchmark, engine):
    fg, bg = trial_graphs()
    matching = benchmark.pedantic(
        subgraph_embedding, args=(bg, fg), kwargs={"engine": engine},
        rounds=1, iterations=1,
    )
    assert matching is not None


def test_engines_agree_end_to_end(benchmark):
    def run_both():
        native = ProvMark(
            config=PipelineConfig(tool="spade", seed=5, engine="native")
        ).run_benchmark("open")
        asp = ProvMark(
            config=PipelineConfig(tool="spade", seed=5, engine="asp")
        ).run_benchmark("open")
        return native, asp

    native, asp = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert native.classification == asp.classification
    assert (
        native.target_graph.structural_signature()
        == asp.target_graph.structural_signature()
    )
    emit("ablation_solver", [
        f"native: {native.timings.generalization + native.timings.comparison:.4f}s solve time",
        f"asp:    {asp.timings.generalization + asp.timings.comparison:.4f}s solve time",
        "identical classifications and target structure",
    ])
