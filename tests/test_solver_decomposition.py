"""Decomposed minimizing search: byte-identity, linearity, counters.

The solver partitions large generalization problems along WL-color-stable
anchors and solves the connected pieces of the residue independently
(``repro.solver.native._decomposed_isomorphism``).  The split must be
invisible in the results: generalized graphs are byte-identical with the
decomposition forced off (``solver_decomposition(False)``) and with every
optimization off (``solver_optimizations(False)``).  What *is* allowed to
change is the work done, which the ``decomposed_components`` and
``component_steps_max`` counters make observable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProvMark
from repro.core.generalize import generalize_trials
from repro.graph.model import PropertyGraph
from repro.solver import native, solver_decomposition, solver_optimizations
from repro.synth.generator import SpecGenerator
from repro.api.specs import compile_spec

from tests.test_solver_optimizations import PROP_VALUES, random_multigraph

TOOLS = ("spade", "opus", "camflow")


def run_three_ways(tool, name, seed=5):
    """The same benchmark decomposed, monolithic, and reference."""
    decomposed = ProvMark(tool=tool, seed=seed).run_benchmark(name)
    with solver_decomposition(False):
        monolithic = ProvMark(tool=tool, seed=seed).run_benchmark(name)
    with solver_optimizations(False):
        reference = ProvMark(tool=tool, seed=seed).run_benchmark(name)
    return decomposed, monolithic, reference


def assert_identical(a, b):
    assert a.classification is b.classification
    assert a.target_graph == b.target_graph
    assert a.foreground == b.foreground
    assert a.background == b.background


class TestByteIdentity:
    @pytest.mark.parametrize("name", ["scale8", "scale32"])
    @pytest.mark.parametrize("tool", TOOLS)
    def test_identical_across_engines(self, tool, name):
        decomposed, monolithic, reference = run_three_ways(tool, name)
        assert_identical(decomposed, monolithic)
        assert_identical(decomposed, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("tool", TOOLS)
    def test_scale128_identical_to_reference(self, tool):
        decomposed, monolithic, reference = run_three_ways(tool, "scale128")
        assert_identical(decomposed, monolithic)
        assert_identical(decomposed, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("tool", TOOLS)
    def test_scale512_identical_and_linear(self, monkeypatch, tool):
        """The acceptance tier: decomposition at scale512, every tool.

        The lower-bound certificate proves SPADE's ``creat``/``unlink``
        groups and OPUS's ``Env``/``Call``/``LocalVersion`` classes
        minimal, and CamFlow's colliding ``cf:jiffies`` values take the
        slot-valued plan.  The full unoptimized reference at this size
        takes minutes, so the reference cross-check lives at scale128
        above; here the decomposed run must match the monolithic
        optimized search bit for bit and stay ~linear both in solver steps
        and in ``property_mismatch_cost`` calls (which see quadratic
        scans that steps do not).
        """
        calls = {"count": 0}
        original = native.property_mismatch_cost

        def counted(props1, props2):
            calls["count"] += 1
            return original(props1, props2)

        monkeypatch.setattr(native, "property_mismatch_cost", counted)
        small = ProvMark(tool=tool, seed=5).run_benchmark("scale128")
        small_calls = calls["count"]
        decomposed = ProvMark(tool=tool, seed=5).run_benchmark("scale512")
        large_calls = calls["count"] - small_calls
        monkeypatch.undo()
        with solver_decomposition(False):
            monolithic = ProvMark(tool=tool, seed=5).run_benchmark(
                "scale512"
            )
        assert_identical(decomposed, monolithic)
        assert decomposed.timings.decomposed_components > 0
        # 4x the scale must cost ~4x the work, nowhere near the ~16x a
        # quadratic search shows (the monolithic search reads ~15x for
        # SPADE and OPUS steps).
        ratio = (
            decomposed.timings.solver_steps / small.timings.solver_steps
        )
        assert ratio < 5, f"superlinear solver growth: {ratio:.1f}x"
        call_ratio = large_calls / small_calls
        assert call_ratio < 6, f"superlinear cost calls: {call_ratio:.1f}x"
        # The monolithic search pays for it: the decomposed run is far
        # cheaper in steps at this size.
        assert (
            decomposed.timings.solver_steps
            < monolithic.timings.solver_steps / 4
        )


class TestCounters:
    def test_pipeline_reports_decomposition(self):
        result = ProvMark(tool="camflow", seed=5).run_benchmark("scale8")
        assert result.timings.decomposed_components > 0
        assert result.timings.component_steps_max > 0
        # The largest component is a tiny fraction of the total steps.
        assert (
            result.timings.component_steps_max < result.timings.solver_steps
        )

    def test_counters_zero_when_disabled(self):
        with solver_decomposition(False):
            result = ProvMark(tool="camflow", seed=5).run_benchmark("scale8")
        assert result.timings.decomposed_components == 0
        assert result.timings.component_steps_max == 0


class TestSynthProperty:
    """Stitching never changes generalized output on synthesized specs."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=9999))
    def test_decomposition_invisible_on_synth_specs(self, seed):
        spec = SpecGenerator(seed=seed).generate()
        program = compile_spec(spec)
        for tool in TOOLS:
            provmark = ProvMark(tool=tool, seed=11)
            decomposed = provmark.run_benchmark(program)
            with solver_decomposition(False):
                monolithic = provmark.run_benchmark(program)
            assert decomposed.classification is monolithic.classification
            if decomposed.classification.value == "ok":
                assert_identical(decomposed, monolithic)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=9999))
    def test_stage_level_identity_on_synth_trials(self, seed):
        """generalize_trials itself, not the whole pipeline."""
        from repro.capture.spade import SpadeCapture
        from repro.core.recording import Recorder
        from repro.core.transform import transform

        spec = SpecGenerator(seed=seed).generate()
        program = compile_spec(spec)
        capture = SpadeCapture()
        session = Recorder(capture, trials=4, seed=17).record(program)
        graphs = [
            transform(trial.raw, capture.output_format, gid=f"fg{i}")
            for i, trial in enumerate(session.foreground_trials)
        ]
        on = generalize_trials(graphs)
        with solver_decomposition(False):
            off = generalize_trials(graphs)
        assert on.graph == off.graph
        assert on.class_sizes == off.class_sizes


class TestRandomPairs:
    """Matching-level identity on seeded random multigraph pairs.

    Three-valued properties collide across nodes and edges, so node
    classes carry discriminating items and edge classes several buckets:
    the shapes the lower-bound certificate must either prove or refuse.
    """

    @staticmethod
    def shuffled_twin(rng, graph, mutate):
        """An isomorphic copy in shuffled order, some values redrawn."""
        def redraw(props):
            return {
                key: rng.choice(PROP_VALUES) if rng.random() < mutate else value
                for key, value in props.items()
            }

        nodes, edges = list(graph.nodes()), list(graph.edges())
        rng.shuffle(nodes)
        rng.shuffle(edges)
        twin = PropertyGraph("twin")
        names = {}
        for index, node in enumerate(nodes):
            names[node.id] = f"t{index}"
            twin.add_node(names[node.id], node.label, redraw(node.props))
        for index, edge in enumerate(edges):
            twin.add_edge(
                f"f{index}", names[edge.src], names[edge.tgt], edge.label,
                redraw(edge.props),
            )
        return twin

    def test_stitched_matching_equals_monolithic(self):
        rng = random.Random(14)
        stitched = 0
        for trial in range(150):
            size = rng.randint(2, 12)
            g1 = random_multigraph(rng, size, rng.randint(0, 2 * size))
            g2 = self.shuffled_twin(rng, g1, rng.choice((0.0, 0.2, 0.5)))
            warm = native.find_isomorphism(g1, g2)
            for bound in (None, warm.cost):
                on = native.find_isomorphism(
                    g1, g2, minimize_properties=True, upper_bound=bound
                )
                with solver_decomposition(False):
                    off = native.find_isomorphism(
                        g1, g2, minimize_properties=True, upper_bound=bound
                    )
                assert on == off, (trial, bound)
            stitched += native._decomposed_isomorphism(
                g1, g2, True, native.DEFAULT_MAX_STEPS
            ) is not native._FALLBACK
        # Most pairs must be proven, or the test exercises only fallbacks.
        assert stitched > 100, stitched

    def test_expansion_order_matches_rescanning_reference(self):
        """The heap-driven order equals the per-pick rescan it replaced."""
        def reference(graph):
            degree = {node.id: graph.degree(node.id) for node in graph.nodes()}
            neighbors = {node_id: set() for node_id in degree}
            for edge in graph.edges():
                neighbors[edge.src].add(edge.tgt)
                neighbors[edge.tgt].add(edge.src)
            remaining = dict.fromkeys(degree)
            frontier, order = set(), []
            while remaining:
                pool = [n for n in remaining if n in frontier]
                pick = max(pool or remaining, key=degree.__getitem__)
                order.append(pick)
                del remaining[pick]
                frontier.discard(pick)
                frontier.update(n for n in neighbors[pick] if n in remaining)
            return order

        rng = random.Random(15)
        for trial in range(200):
            size = rng.randint(1, 20)
            graph = random_multigraph(rng, size, rng.randint(0, 2 * size))
            expected = reference(graph)
            assert native._connected_expansion_order(graph) == expected, trial
