"""Extended coverage — the introduction's socket blind spot, quantified.

Beyond Table 2: local-socket benchmarks (socketpair/send/recv) and
multi-syscall sequences.  The paper's §1 motivation — recorders that miss
local sockets allow covert channels — becomes a measurable coverage row.
"""

import pytest

from repro import ProvMark
from repro.analysis.coverage import coverage_for
from repro.suite.extended import EXTENDED_BENCHMARKS, SOCKET_BENCHMARKS

from conftest import emit

TOOLS = ("spade", "opus", "camflow")


def test_extended_coverage(benchmark):
    def run_all():
        results = []
        for tool in TOOLS:
            provmark = ProvMark(tool=tool, seed=6)
            for name in EXTENDED_BENCHMARKS:
                results.append(provmark.run_benchmark(name))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reports = coverage_for(results)
    rows = []
    for tool in TOOLS:
        report = reports[tool]
        rows.append(
            f"{tool:<8} records: {', '.join(sorted(report.recorded)) or '-'}"
        )
        rows.append(
            f"{'':<8} blind:   {', '.join(sorted(report.blind_spots)) or '-'}"
        )
    emit("extended_coverage", rows)

    # The intro's claim: only the LSM vantage sees the socket channel.
    socket_names = set(SOCKET_BENCHMARKS)
    assert socket_names <= set(reports["camflow"].recorded)
    assert socket_names <= set(reports["spade"].blind_spots)
    assert socket_names <= set(reports["opus"].blind_spots)


@pytest.mark.parametrize("tool", TOOLS)
def test_socket_benchmark_cost(benchmark, tool):
    provmark = ProvMark(tool=tool, seed=6)
    result = benchmark.pedantic(
        provmark.run_benchmark, args=("send",), rounds=1, iterations=1
    )
    expected, _ = SOCKET_BENCHMARKS["send"].expectation(tool)
    assert result.classification.value == expected
