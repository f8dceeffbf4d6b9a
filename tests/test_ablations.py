"""Ablations of the paper's design choices, checked on classifications.

* §3.4, the representative pair: choosing the smallest or the largest
  similarity class for both program variants works; mixing the choices
  fails one way and leaks background structure into the result the
  other way.
* §3.2 and appendix A.4, trials and ``filtergraphs`` under CamFlow's
  recording jitter: more trials complete more benchmarks, and filtering
  trades completions for accuracy.
* The matching engine: the native solver and the mini-ASP engine running
  the paper's listings agree.
"""

from __future__ import annotations

import pytest

from repro import PipelineConfig, ProvMark
from repro.capture.camflow import CamFlowCapture, CamFlowConfig
from repro.capture.spade import SpadeCapture
from repro.core.recording import Recorder
from repro.core.result import Classification
from repro.core.transform import transform
from repro.solver import similarity, subgraph_embedding
from repro.suite.registry import get_benchmark


def jittered_camflow(
    seed: int, jitter: float, trials: int, filtergraphs: bool,
    fg_pair_policy: str = "smallest", bg_pair_policy: str = "smallest",
):
    provmark = ProvMark(
        capture=CamFlowCapture(CamFlowConfig(structural_jitter=jitter)),
        config=PipelineConfig(
            tool="camflow", seed=seed, trials=trials,
            filtergraphs=filtergraphs,
            fg_pair_policy=fg_pair_policy, bg_pair_policy=bg_pair_policy,
        ),
    )
    return provmark.run_benchmark("open")


class TestPairChoice:
    """Seed 0, jitter 0.5 and 6 trials give both variants a clean and a
    jittered similarity class, so the choice between them is real."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            (fg, bg): jittered_camflow(
                0, 0.5, 6, False, fg_pair_policy=fg, bg_pair_policy=bg
            )
            for fg in ("smallest", "largest")
            for bg in ("smallest", "largest")
        }

    def test_consistent_choices_work(self, results):
        assert results[("smallest", "smallest")].is_ok
        assert results[("largest", "largest")].is_ok

    def test_largest_background_cannot_embed(self, results):
        failed = results[("smallest", "largest")]
        assert failed.classification is Classification.FAILED

    def test_smallest_background_leaks_structure(self, results):
        leaked = results[("largest", "smallest")]
        assert leaked.is_ok
        assert leaked.target_graph.size > (
            results[("smallest", "smallest")].target_graph.size
        )


def completion_rates(trials: int, filtergraphs: bool, attempts: int = 6):
    """(completed, accurate) shares of ``attempts`` jittered runs.

    Accurate means OK with no jittered ``machine`` node in the target
    or the generalized foreground: two jittered trials are similar to
    each other, so an unfiltered run can complete with a contaminated
    answer.
    """
    completed = accurate = 0
    for attempt in range(attempts):
        result = jittered_camflow(100 + attempt, 0.45, trials, filtergraphs)
        if result.classification is Classification.FAILED:
            continue
        completed += 1
        clean = not any(
            "machine" in (node.label, node.props.get("was", ""))
            for graph in (result.target_graph, result.foreground)
            for node in graph.nodes()
        )
        if result.is_ok and clean:
            accurate += 1
    return completed / attempts, accurate / attempts


class TestTrialsAndFiltergraphs:
    def test_five_trials_complete_most_runs(self):
        completed, _ = completion_rates(5, filtergraphs=False)
        assert completed >= 0.8

    def test_filtering_completes_only_accurate_runs(self):
        _, accurate_without = completion_rates(3, filtergraphs=False)
        completed, accurate = completion_rates(3, filtergraphs=True)
        assert accurate == completed
        assert accurate >= accurate_without


class TestEngines:
    @pytest.fixture(scope="class")
    def trial_graphs(self):
        session = Recorder(SpadeCapture(), trials=2, seed=3).record(
            get_benchmark("open")
        )
        fg = transform(session.foreground_trials[0].raw, "dot", gid="fg")
        bg = transform(session.background_trials[0].raw, "dot", gid="bg")
        return fg, bg

    @pytest.mark.parametrize("engine", ["native", "asp"])
    def test_similarity(self, trial_graphs, engine):
        fg, _ = trial_graphs
        assert similarity(fg, fg.relabel("q"), engine=engine)

    @pytest.mark.parametrize("engine", ["native", "asp"])
    def test_embedding(self, trial_graphs, engine):
        fg, bg = trial_graphs
        assert subgraph_embedding(bg, fg, engine=engine) is not None

    def test_engines_agree_end_to_end(self):
        native, asp = (
            ProvMark(config=PipelineConfig(
                tool="spade", seed=5, engine=engine
            )).run_benchmark("open")
            for engine in ("native", "asp")
        )
        assert native.classification == asp.classification
        assert (
            native.target_graph.structural_signature()
            == asp.target_graph.structural_signature()
        )
