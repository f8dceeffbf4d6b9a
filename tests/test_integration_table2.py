"""Integration test: the complete Table 2 matrix must match the paper.

This runs the entire pipeline (record, transform, generalize, compare) for
every Table 2 row under every tool — 132 cells — plus the failure and
scalability suites.  It is the headline reproduction claim.
"""

import pytest

from repro import ProvMark
from repro.suite.registry import (
    FAILURE_BENCHMARKS,
    SCALABILITY_BENCHMARKS,
    SUITE_REGISTRY,
    TABLE2_BENCHMARKS,
)

TOOLS = ("spade", "opus", "camflow")


@pytest.mark.parametrize("tool", TOOLS)
def test_table2_column_matches_paper(tool):
    provmark = ProvMark(tool=tool, seed=2019)
    mismatches = []
    for name, program in TABLE2_BENCHMARKS.items():
        result = provmark.run_benchmark(name)
        expected_classification, _ = program.expectation(tool)
        if result.classification.value != expected_classification:
            mismatches.append(
                f"{name}: expected {expected_classification}, "
                f"got {result.classification.value} ({result.error})"
            )
    assert not mismatches, f"{tool}: " + "; ".join(mismatches)


@pytest.mark.parametrize("tool", TOOLS)
def test_failure_suite_matches_paper(tool):
    provmark = ProvMark(tool=tool, seed=2019)
    for name, program in FAILURE_BENCHMARKS.items():
        result = provmark.run_benchmark(name)
        expected_classification, _ = program.expectation(tool)
        assert result.classification.value == expected_classification, name


@pytest.mark.parametrize("tool", TOOLS)
def test_scalability_suite_all_ok(tool):
    provmark = ProvMark(tool=tool, seed=2019)
    sizes = []
    for name in SCALABILITY_BENCHMARKS:
        if "slow" in SUITE_REGISTRY.tags(name):
            continue  # scale128/scale512: tests/test_solver_decomposition.py
        result = provmark.run_benchmark(name)
        assert result.classification.value == "ok", name
        sizes.append(result.target_graph.size)
    # Target graph size grows monotonically with the scale factor.
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


def test_opus_sees_failed_rename_like_successful_one():
    """§3.1 Alice: a failed rename has the same structure, retval -1."""
    provmark = ProvMark(tool="opus", seed=2019)
    ok = provmark.run_benchmark("rename")
    failed = provmark.run_benchmark("rename_fail")
    ok_labels = sorted(n.label for n in ok.target_graph.nodes())
    failed_labels = sorted(n.label for n in failed.target_graph.nodes())
    # Same node vocabulary; the failed one lacks only the version bump of
    # the (never-created) target name.
    assert set(failed_labels) <= set(ok_labels)
    retvals = {
        n.props.get("retval")
        for n in failed.target_graph.nodes()
        if n.label == "Call"
    }
    assert retvals == {"-1"}
