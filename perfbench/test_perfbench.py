"""Tiny-size self-test of the benchmark harness.

Runs each workload on a handful of cells and checks that every metric
``BENCHMARK.json`` names is printed with its unit, and that a corrupted
output makes the correctness check fail.  Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import backlog  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.api import BenchmarkService  # noqa: E402
from repro.core.result import Classification  # noqa: E402
from repro.graph.model import PropertyGraph  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CELLS = [("open", "spade"), ("rename", "opus"), ("close", "camflow")]


def tiny(name, seed, scratch):
    if name == "suite_cold":
        return workloads.SuiteCold(seed, scratch, cells=CELLS)
    if name == "scale_tail":
        return workloads.ScaleTail(seed, scratch, scales=("scale32",))
    return backlog.ServiceBacklog(seed, scratch, run.SRC, cells=CELLS)


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run the tiny benchmark; returns its parsed last output line."""
    monkeypatch.setattr(run, "make_workload", tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(
        run, "SETUP_REPEATS", dict.fromkeys(run.WORKLOADS, 1)
    )

    def _bench(workload, trace):
        code = run.main([
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        report = json.loads(line)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert (tmp_path / f"{workload}-seed3-trace{trace}.json").is_file()
        return report

    return _bench


def assert_metrics(report, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {
        name: metric["unit"] for name, metric in report["metrics"].items()
    }
    assert got == expected
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spec_names_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        run.LAYER_UNITS
    )


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", run="r1"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = sorted(tracer.spans, key=lambda s: s["id"])
    assert inner["parent"] == outer["id"] and inner["run"] == "r1"
    own = tracer.self_times()
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )
    assert own[inner["id"]] == inner["end"] - inner["start"]


def test_pace_scales_by_the_samples_around_the_work(monkeypatch):
    readings = iter([4.0, 2.0, 3.0, 5.0])
    monkeypatch.setattr(calibrate, "sample", lambda: next(readings))
    monkeypatch.setattr(calibrate, "INTERVAL_S", 0.05)
    pace = calibrate.Pace()
    assert pace.factor() == pytest.approx(calibrate.REFERENCE_MS / 3.0)
    with pace.beside() as mark:
        while len(pace.samples_ms) < 3:
            time.sleep(0.01)  # the side thread takes the third reading
    assert mark == 1
    # readings 2 (before), 3 (during) and 5 (after) cover the block
    assert pace.factor_since(mark) == pytest.approx(
        calibrate.REFERENCE_MS / (10.0 / 3.0)
    )


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(100))) == (pytest.approx(89.1), 90.0)
    assert run.tail(list(range(19))) == (18, 100.0)


@pytest.mark.parametrize("workload", ["suite_cold", "scale_tail"])
def test_batch_workloads_emit_every_metric(bench, workload):
    report = bench(workload, 0)
    assert report["correct"] and report["failed"] == 0
    assert_metrics(report, "end_to_end")
    traced = bench(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert_metrics(traced, "per_layer")
    assert traced["metrics"]["core.recording_ms"]["value"] > 0


def test_service_workload_emits_every_layer(bench):
    report = bench("service_backlog", 1)
    assert report["correct"] and report["failed"] == 0
    assert_metrics(report, "per_layer")
    metrics = report["metrics"]
    assert metrics["exec.submit_ms"]["value"] > 0
    # set-up warmed the agent's store: every job reads its stored result
    assert metrics["storage.hit_ratio"]["value"] == 1.0
    # one second's worth of jobs, in bursts, each completed once
    assert metrics["cluster.completions_total"]["value"] == (
        backlog.ServiceBacklog.JOBS_PER_SECOND
    )


def _corrupting_run(original):
    def corrupted(self, request, progress=None):
        response = original(self, request, progress)
        result = dataclasses.replace(
            response.result,
            classification=Classification.FAILED,
            target_graph=PropertyGraph("empty"),
        )
        return dataclasses.replace(response, result=result)
    return corrupted


@pytest.mark.parametrize("workload", ["suite_cold", "scale_tail"])
def test_corrupted_batch_output_fails_the_check(bench, monkeypatch, workload):
    monkeypatch.setattr(
        BenchmarkService, "run", _corrupting_run(BenchmarkService.run)
    )
    report = bench(workload, 0)
    assert not report["correct"]
    assert report["failed"] == report["attempted"]


def test_corrupted_job_result_fails_the_check(bench, monkeypatch):
    original = backlog.BenchmarkResult.from_payload

    def corrupted(payload):
        return dataclasses.replace(original(payload), note="corrupted")

    monkeypatch.setattr(
        backlog.BenchmarkResult, "from_payload", staticmethod(corrupted)
    )
    report = bench("service_backlog", 0)
    assert not report["correct"]
    assert report["failed"] == report["attempted"]
