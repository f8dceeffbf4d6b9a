"""Regression tests for the matching cache.

The fast path must be invisible in the results: warm-started
generalization produces byte-identical graphs, and the matcher's
derived caches never travel with a pickled result graph.
"""

from __future__ import annotations

import pytest

from repro import ProvMark
from repro.core.generalize import generalize_trials
from repro.core.pipeline import PipelineConfig
from repro.core.recording import Recorder
from repro.core.transform import transform
from repro.capture.spade import SpadeCapture
from repro.suite.registry import get_benchmark


def record_trial_graphs(name: str, trials: int = 4, seed: int = 11):
    """Real trial graphs for one benchmark's foreground variant."""
    capture = SpadeCapture()
    recorder = Recorder(capture, trials=trials, seed=seed)
    session = recorder.record(get_benchmark(name))
    return [
        transform(trial.raw, capture.output_format, gid=f"fg{i}")
        for i, trial in enumerate(session.foreground_trials)
    ]


class TestMatchingCacheIdentity:
    @pytest.mark.parametrize("name", ["rename", "fork", "tee"])
    def test_cached_generalization_is_byte_identical(self, name):
        graphs = record_trial_graphs(name)
        cached = generalize_trials(graphs, matching_cache=True)
        uncached = generalize_trials(graphs, matching_cache=False)
        assert cached.graph == uncached.graph  # exact ids, labels, props
        assert cached.discarded == uncached.discarded
        assert cached.class_sizes == uncached.class_sizes

    def test_cached_generalization_identical_with_volatile_props(
        self, volatile_pair
    ):
        g1, g2 = volatile_pair
        cached = generalize_trials([g1, g2], matching_cache=True)
        uncached = generalize_trials([g1, g2], matching_cache=False)
        assert cached.graph == uncached.graph

    def test_pipeline_records_cache_hits(self):
        result = ProvMark(tool="spade", seed=11).run_benchmark("rename")
        timings = result.timings
        # fg and bg generalizations each warm-start from the classing pass.
        assert timings.matching_cache_hits == 2
        assert timings.solver_searches > 0
        assert timings.solver_steps > 0
        assert set(timings.solver_row()) == {
            "solver_steps", "solver_searches",
            "matching_cache_hits", "cost_cache_hits",
            "decomposed_components", "component_steps_max",
        }


class TestParallelSuiteRunner:
    """What a caller sweeping benchmarks across its own processes relies
    on: results pickle cleanly, and a run's error raises out of the
    driver instead of becoming a result."""

    def test_results_pickle_without_matcher_cache(self):
        import pickle

        from repro.solver.native import find_isomorphism

        provmark = ProvMark(tool="spade", seed=7)
        for name in ("open", "rename"):
            graph = provmark.run_benchmark(name).target_graph
            assert find_isomorphism(graph, graph.relabel("w")) is not None
            assert "_matcher_cache" in graph.__dict__
            # Derived caches (hash-seed-dependent WL colors) must not
            # travel with the graph; matching the unpickled graph must
            # still work.
            clone = pickle.loads(pickle.dumps(graph))
            assert "_matcher_cache" not in clone.__dict__
            assert clone == graph
            assert find_isomorphism(clone, clone.relabel("w")) is not None

    def test_task_errors_propagate_not_swallowed(self):
        config = PipelineConfig(tool="spade", seed=7, fg_pair_policy="typo")
        provmark = ProvMark(config=config)
        with pytest.raises(ValueError, match="unknown pair policy"):
            provmark.run_benchmark("open")
