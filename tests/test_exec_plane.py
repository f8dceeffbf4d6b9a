"""The fault-tolerant execution plane, end to end.

Covers the acceptance contract of the exec subsystem: a supervised
multi-process fleet serving durable jobs; chaos (worker kill + torn
store write) producing results byte-identical to a fault-free run;
bounded-queue backpressure as 429 + Retry-After; deadlines failing
permanently; and graceful drain on shutdown/SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.api.errors import BackpressureError, DeadlineError, ValidationError
from repro.api.http import make_server
from repro.api.jobs import JobManager
from repro.api.types import BatchRequest
from repro.exec import FleetJobManager, RetryPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.suite import TABLE2_ORDER
from repro.suite.registry import SUITE_REGISTRY

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: tight timings so recovery paths run in test time, not operator time
FAST = dict(lease_ttl=2.0, heartbeat_interval=0.2, backoff_base=0.05,
            backoff_cap=0.2, seed=7)


def wait_terminal(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = manager.poll(job_id)
        if status.state in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {status.state} after {timeout}s")


def fifty_benchmarks():
    extra = [name for name in sorted(SUITE_REGISTRY.names())
             if name not in TABLE2_ORDER]
    return tuple(list(TABLE2_ORDER) + extra[: 50 - len(TABLE2_ORDER)])


def stripped(payload):
    """A result payload minus wall-clock timings (the only run-variant
    field; everything else must be byte-identical)."""
    payload = json.loads(json.dumps(payload))
    payload["result"].pop("timings", None)
    return payload


# -- happy path -------------------------------------------------------------


def test_fleet_runs_a_job_end_to_end(tmp_path):
    with FleetJobManager(tmp_path, workers=1,
                         policy=RetryPolicy(**FAST)) as manager:
        service = BenchmarkService(jobs=manager)
        status = service.submit(
            RunRequest(benchmark="open", tool="spade", seed=5))
        assert status.state == "queued"
        done = wait_terminal(manager, status.job_id)
        assert done.state == "done"
        assert done.attempts == 1
        assert done.result.result.classification.value == "ok"
        stats = manager.queue_stats()
        assert stats["active"] == 0
        assert stats["workers"] == 1
        assert stats["restarts"] == 0


def test_fleet_batch_reports_progress_and_results(tmp_path):
    names = ("open", "close", "creat")
    with FleetJobManager(tmp_path, workers=2,
                         policy=RetryPolicy(**FAST)) as manager:
        service = BenchmarkService(jobs=manager)
        status = service.submit(
            BatchRequest(benchmarks=names, tool="spade", seed=5))
        done = wait_terminal(manager, status.job_id)
        assert done.state == "done"
        assert done.completed == done.total == len(names)
        assert [r.result.benchmark for r in done.results] == list(names)


def test_fleet_poll_unknown_job_is_a_404(tmp_path):
    from repro.api.errors import NotFoundError

    with FleetJobManager(tmp_path, workers=1,
                         policy=RetryPolicy(**FAST)) as manager:
        with pytest.raises(NotFoundError, match="unknown job"):
            manager.poll("job-0000-deadbeef")


# -- the chaos proof --------------------------------------------------------


def test_chaos_run_is_byte_identical_to_fault_free(tmp_path):
    """A 50-benchmark batch survives a worker kill plus a torn artifact
    write and still produces results byte-identical (minus wall-clock
    timings) to an undisturbed serial run."""
    names = fifty_benchmarks()
    assert len(names) == 50

    with BenchmarkService() as service:
        baseline = [
            response.to_payload() for response in service.run_batch(
                BatchRequest(benchmarks=names, tool="spade", seed=2019))
        ]

    faults = FaultPlan(
        [
            # kill the worker process cold at a mid-batch stage boundary
            FaultSpec(kind="worker_kill", stage="generalization", at=30,
                      times=1),
            # and tear an earlier artifact write in half
            FaultSpec(kind="torn_write", stage="transformation", at=12,
                      times=1),
        ],
        seed=7,
    )
    policy = RetryPolicy(max_attempts=4, **FAST)
    with FleetJobManager(tmp_path, workers=3, policy=policy,
                         faults=faults) as manager:
        service = BenchmarkService(jobs=manager)
        status = service.submit(
            BatchRequest(benchmarks=names, tool="spade", seed=2019))
        done = wait_terminal(manager, status.job_id, timeout=120.0)

        assert done.state == "done", done.error
        # the faults really fired: the job needed more than one attempt
        # and the supervisor respawned the killed worker
        assert done.attempts >= 2
        assert manager.queue_stats()["restarts"] >= 1
        record = manager.queue.record(status.job_id)
        assert any("lost its lease" in line or "torn write" in line
                   for line in record["error_history"])

        chaos = [response.to_payload() for response in done.results]

    assert len(chaos) == len(baseline)
    for fault_free, recovered in zip(baseline, chaos):
        assert stripped(recovered) == stripped(fault_free)


def test_zombie_worker_converges_after_heartbeat_loss(tmp_path):
    """A worker that stops heartbeating (but keeps running) loses its
    lease and the job is requeued — yet its eventual result still lands,
    and the record converges to done."""
    faults = FaultPlan([
        FaultSpec(kind="heartbeat_loss", at=1),
        # keep the silent worker busy long enough to be declared lost
        FaultSpec(kind="stage_latency", stage="generalization",
                  latency=1.5),
    ])
    policy = RetryPolicy(max_attempts=3, lease_ttl=0.6,
                         heartbeat_interval=0.2, backoff_base=0.05,
                         backoff_cap=0.2, seed=7)
    with FleetJobManager(tmp_path, workers=1, policy=policy,
                         faults=faults) as manager:
        service = BenchmarkService(jobs=manager)
        status = service.submit(
            RunRequest(benchmark="open", tool="spade", seed=5))
        done = wait_terminal(manager, status.job_id, timeout=60.0)
        assert done.state == "done"
        assert done.result.result.classification.value == "ok"
        record = manager.queue.record(status.job_id)
        assert any("lost its lease" in line
                   for line in record["error_history"])


# -- backpressure -----------------------------------------------------------


def test_fleet_backpressure_raises_429(tmp_path):
    with FleetJobManager(tmp_path, workers=1, capacity=0,
                         policy=RetryPolicy(**FAST)) as manager:
        service = BenchmarkService(jobs=manager)
        with pytest.raises(BackpressureError) as excinfo:
            service.submit(RunRequest(benchmark="open", tool="spade"))
        assert excinfo.value.http_status == 429
        assert excinfo.value.retry_after >= 1.0


def test_saturated_queue_answers_429_with_retry_after_over_http():
    server = make_server(
        BenchmarkService(jobs=JobManager(capacity=0),
                         registry=SUITE_REGISTRY.builtin_copy()),
        port=0,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/runs",
            data=json.dumps({"benchmark": "open", "tool": "spade"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        error = excinfo.value
        assert error.code == 429
        assert int(error.headers["Retry-After"]) >= 1
        body = json.loads(error.read())
        assert body["error"]["type"] == "BackpressureError"
        assert "capacity" in body["error"]["message"]
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()


def test_health_exposes_queue_depth_and_eviction_counter():
    server = make_server(
        BenchmarkService(jobs=JobManager(),
                         registry=SUITE_REGISTRY.builtin_copy()),
        port=0,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/health", timeout=30
        ) as response:
            health = json.loads(response.read())
        assert health["jobs"]["total"] == 0
        queue = health["queue"]
        for key in ("pending", "leased", "active", "capacity", "evicted",
                    "workers"):
            assert key in queue, key
        assert queue["active"] == 0
        assert queue["evicted"] == 0
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()


# -- deadlines --------------------------------------------------------------


def test_expired_deadline_is_a_permanent_504():
    with BenchmarkService() as service:
        with pytest.raises(DeadlineError, match="overran its deadline"):
            service.run(RunRequest(benchmark="open", tool="spade",
                                   deadline=1e-9))
    assert DeadlineError.http_status == 504


def test_fleet_does_not_retry_deadline_misses(tmp_path):
    request = RunRequest(benchmark="open", tool="spade", deadline=1e-9)
    with FleetJobManager(tmp_path, workers=1,
                         policy=RetryPolicy(**FAST)) as manager:
        service = BenchmarkService(jobs=manager)
        status = service.submit(request)
        done = wait_terminal(manager, status.job_id)
        assert done.state == "failed"
        assert done.attempts == 1  # deterministic failure: no retries
        assert done.error.startswith("DeadlineError: "), done.error
    # the thread-pool manager renders the same failure the same way
    with BenchmarkService() as service:
        status = service.submit(request)
        done = wait_terminal(service.jobs, status.job_id)
        assert done.state == "failed"
        assert done.error.startswith("DeadlineError: "), done.error


def test_deadline_must_be_positive():
    with pytest.raises(ValidationError):
        RunRequest(benchmark="open", deadline=0.0)
    with pytest.raises(ValidationError):
        RunRequest(benchmark="open", deadline=-3.0)


# -- drain / shutdown -------------------------------------------------------


def test_drain_finishes_inflight_jobs_then_refuses_new_ones(tmp_path):
    manager = FleetJobManager(tmp_path, workers=1,
                              policy=RetryPolicy(**FAST))
    try:
        service = BenchmarkService(jobs=manager)
        status = service.submit(
            BatchRequest(benchmarks=("open", "close"), tool="spade",
                         seed=5))
        time.sleep(0.3)  # let a worker lease it
        assert manager.drain(timeout=60.0) is True
        record = manager.queue.record(status.job_id)
        assert record["state"] == "done"
        with pytest.raises(ValidationError, match="shut down"):
            service.submit(RunRequest(benchmark="open", tool="spade"))
    finally:
        manager.shutdown(wait=False)


def test_serve_sigterm_drains_the_fleet(tmp_path):
    """``provmark serve --workers N`` drains on SIGTERM: the leased job
    finishes, the process exits 0, and the record is durable — for one
    worker and for a fleet of two under a capacity cap."""
    from repro.exec import JobQueue

    env = dict(os.environ, PYTHONPATH=SRC)
    for workers in (1, 2):
        plane = tmp_path / f"plane{workers}"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(workers), "--queue", str(plane),
             "--capacity", "8", "--drain-timeout", "60"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            line = proc.stdout.readline().decode()
            assert "serving on http://" in line, line
            base = line.split("serving on ")[1].split("/v1")[0]
            request = urllib.request.Request(
                base + "/v1/runs",
                data=json.dumps({"benchmark": "open", "tool": "spade",
                                 "seed": 5}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                job_id = json.loads(response.read())["job_id"]
            time.sleep(0.3)  # let a worker lease it
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, (workers, output.decode())
        assert b"drained cleanly" in output, workers

        record = JobQueue(plane / "spool").record(job_id)
        assert record["state"] == "done", workers
