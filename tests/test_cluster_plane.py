"""The multi-host execution plane, end to end (PR 10).

Covers the cluster acceptance contract: a TCP coordinator arbitrating
the durable spool for remote agents; fleet-wide strict-priority claims
(PR 9 semantics hold across hosts); idempotent completion under
injected connection drops; dead-node lease recovery within the
heartbeat TTL; the pub-sub fleet status surface (`subscribe`,
``GET /v1/cluster``, health block, metrics gauges); the ``provmark
agent`` CLI; and the chaos proof — a 50-benchmark batch on one
coordinator plus two agents, with one agent SIGKILLed mid-batch and
connection drops at the coordinator, finishing byte-identical to a
fault-free single-host run.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.api.errors import UnauthorizedError, ValidationError
from repro.api.http import make_server
from repro.api.types import BatchRequest, ClusterStatus
from repro.cli import main
from repro.cluster import (
    ClusterCoordinator,
    ClusterUnavailableError,
    RemoteQueue,
    decode_event,
    recv_frame,
    run_agent,
)
from repro.cluster import remote
from repro.exec import FleetJobManager, RetryPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.sched import PRIORITY_CLASSES
from repro.suite import TABLE2_ORDER
from repro.suite.registry import SUITE_REGISTRY

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: tight timings so recovery paths run in test time, not operator time
FAST = dict(lease_ttl=2.0, heartbeat_interval=0.2, backoff_base=0.05,
            backoff_cap=0.2, seed=7)


def wait_terminal(manager, job_id, timeout=90.0):
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


def submit(queue, priority="", client_id=""):
    return queue.submit("run", {"benchmark": "open"}, 1, 3,
                        client_id=client_id, priority=priority)


@pytest.fixture(autouse=True)
def fast_reconnects(monkeypatch):
    """Tight client backoff so drop and partition paths run in test time."""
    monkeypatch.setattr(remote, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(remote, "BACKOFF_CAP", 0.05)


def make_client(coordinator, node_id="node-a", **kwargs):
    kwargs.setdefault("auth", coordinator.auth_token)
    return RemoteQueue(coordinator.host, coordinator.port, node_id, **kwargs)


# -- coordinator + remote queue ----------------------------------------------


class TestCoordinator:
    def test_register_hands_out_scheduler_and_policy(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool",
                                policy=RetryPolicy(**FAST)) as coord:
            client = make_client(coord, node_id="node-a")
            try:
                joined = client.register(workers=3, host="hosta")
                assert joined["node_id"] == "node-a"
                assert joined["node_ttl"] == pytest.approx(coord.node_ttl)
                assert joined["policy"]["lease_ttl"] == FAST["lease_ttl"]
                assert "classes" in joined["sched"] or joined["sched"]
                stats = coord.stats()
                assert [n["node_id"] for n in stats["nodes"]] == ["node-a"]
                assert stats["remote_workers"] == 3
                client.deregister()
                assert coord.node_count() == 0
            finally:
                client.close()

    def test_remote_claims_follow_strict_priority(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool") as coord:
            background = [submit(coord.queue, priority="background")
                          for _ in range(3)]
            interactive = submit(coord.queue, priority="interactive")
            urgent = submit(coord.queue, priority="urgent")
            client = make_client(coord)
            try:
                client.register(workers=1)
                claimed = [client.claim("node-a:w0.g1")["job_id"]
                           for _ in range(5)]
            finally:
                client.close()
        assert claimed[0] == urgent["job_id"]
        assert claimed[1] == interactive["job_id"]
        assert claimed[2:] == [r["job_id"] for r in background]

    def test_complete_is_idempotent_over_the_wire(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool") as coord:
            record = submit(coord.queue, client_id="ci")
            client = make_client(coord)
            try:
                client.register(workers=1)
                claimed = client.claim("node-a:w0.g1")
                assert claimed["job_id"] == record["job_id"]
                first = client.complete(record["job_id"],
                                        result={"answer": 42})
                charged = coord.queue.ledger.usage("ci")
                again = client.complete(record["job_id"],
                                        result={"answer": 42})
            finally:
                client.close()
            assert first["state"] == again["state"] == "done"
            assert coord.counters["completions_total"] == 1
            # the replayed complete never re-charges the fair-share
            # ledger (usage may only decay between the two reads)
            assert charged > 0
            assert coord.queue.ledger.usage("ci") <= charged

    def test_wrong_auth_token_is_rejected(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool",
                                auth_token="s3cret") as coord:
            client = make_client(coord, auth="wrong")
            try:
                with pytest.raises(UnauthorizedError):
                    client.register(workers=1)
            finally:
                client.close()
            assert coord.counters["auth_failures_total"] >= 1
            assert coord.node_count() == 0

    def test_draining_coordinator_claims_nothing(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool") as coord:
            submit(coord.queue)
            coord.set_draining(True)
            client = make_client(coord)
            try:
                client.register(workers=1)
                assert client.claim("node-a:w0.g1") is None
            finally:
                client.close()

    def test_dead_node_leases_are_recovered(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool", node_ttl=0.4,
                                policy=RetryPolicy(**FAST)) as coord:
            record = submit(coord.queue)
            client = make_client(coord, node_id="doomed")
            try:
                client.register(workers=1)
                claimed = client.claim("doomed:w0.g1")
                assert claimed["job_id"] == record["job_id"]
            finally:
                client.close()  # no more heartbeats: the node goes dark

            # the sweep requeues the job before it bumps the counter, so
            # wait for the counter as well as the state
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                state = coord.queue.record(record["job_id"])["state"]
                if (
                    state == "queued" and coord.node_count() == 0
                    and coord.counters["recovered_leases_total"]
                ):
                    break
                time.sleep(0.05)
            assert coord.queue.record(record["job_id"])["state"] == "queued"
            assert coord.node_count() == 0
            assert coord.counters["dead_nodes_total"] == 1
            assert coord.counters["recovered_leases_total"] == 1
            kinds = [e.kind for e in coord.events.recent(16)]
            assert kinds[-1] == "node_leave"

    def test_swept_node_reregisters_on_heartbeat(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool", node_ttl=60.0) as coord:
            client = make_client(coord)
            try:
                client.register(workers=1)
                coord.sweep_dead_nodes(now=time.monotonic() + 120.0)
                assert coord.node_count() == 0
                # agent must re-register
                assert client.node_heartbeat() is False
                client.register(workers=1)
                assert coord.node_count() == 1
            finally:
                client.close()

    def test_wall_clock_jump_sweeps_no_live_node(self, tmp_path,
                                                 monkeypatch):
        # liveness runs on the monotonic clock: an NTP step of an hour
        # on the coordinator host must not declare live agents dead
        with ClusterCoordinator(tmp_path / "spool", node_ttl=5.0) as coord:
            client = make_client(coord)
            try:
                client.register(workers=1)
                wall = time.time
                monkeypatch.setattr(time, "time", lambda: wall() + 3600.0)
                assert coord.sweep_dead_nodes() == []
                assert coord.node_count() == 1
                assert client.node_heartbeat() is True
            finally:
                client.close()

    def test_subscribe_streams_events_in_order(self, tmp_path):
        with ClusterCoordinator(tmp_path / "spool") as coord:
            record = submit(coord.queue)
            client = make_client(coord, node_id="watcher")
            try:
                client.register(workers=0)
                stream, replayed = client.subscribe(replay=8)
                assert [e["kind"] for e in replayed] == ["node_join"]
                worker = make_client(coord, node_id="node-b")
                try:
                    worker.register(workers=1)
                    worker.claim("node-b:w0.g1")
                    worker.complete(record["job_id"], result={"ok": True})
                    kinds = []
                    stream.settimeout(5.0)
                    while len(kinds) < 3:
                        frame = recv_frame(stream)
                        assert frame is not None
                        kinds.append(decode_event(frame)["kind"])
                    assert kinds == ["node_join", "claim", "complete"]
                finally:
                    worker.close()
                stream.close()
            finally:
                client.close()


class TestClusterFaults:
    def test_conn_drop_retry_is_invisible_to_the_caller(self, tmp_path):
        faults = FaultPlan(
            [FaultSpec(kind="conn_drop", op="complete", times=1)], seed=7,
        )
        with ClusterCoordinator(tmp_path / "spool", faults=faults) as coord:
            record = submit(coord.queue, client_id="ci")
            client = make_client(coord)
            try:
                client.register(workers=1)
                client.claim("node-a:w0.g1")
                # the coordinator applies the complete, then drops the
                # connection before answering; the client's retry must
                # converge on the same terminal record
                done = client.complete(record["job_id"], result={"n": 1})
            finally:
                client.close()
            assert done["state"] == "done"
            assert client.reconnects >= 1
            assert coord.counters["conn_drops_total"] == 1
            assert coord.counters["completions_total"] == 1
            assert coord.queue.ledger.usage("ci") > 0

    def test_partition_window_feeds_backoff_then_recovers(self, tmp_path):
        faults = FaultPlan(
            [FaultSpec(kind="partition", op="claim", latency=0.1)], seed=7,
        )
        with ClusterCoordinator(tmp_path / "spool") as coord:
            record = submit(coord.queue)
            client = make_client(coord, faults=faults)
            try:
                client.register(workers=1)
                started = time.monotonic()
                claimed = client.claim("node-a:w0.g1")
                elapsed = time.monotonic() - started
            finally:
                client.close()
            assert claimed["job_id"] == record["job_id"]
            assert elapsed >= 0.1  # the no-connectivity window was real
            assert client.reconnects >= 1

    def test_unreachable_coordinator_raises_unavailable(self, monkeypatch):
        # grab a port nobody listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        monkeypatch.setattr(remote, "MAX_RETRIES", 2)
        client = RemoteQueue("127.0.0.1", port, "node-a")
        with pytest.raises(ClusterUnavailableError, match="unreachable"):
            client.register(workers=1)


# -- agents ------------------------------------------------------------------


class TestAgent:
    def test_agent_serves_a_fleet_job_end_to_end(self, tmp_path):
        with FleetJobManager(tmp_path, workers=0, cluster_port=0,
                             policy=RetryPolicy(**FAST)) as manager:
            address = manager.coordinator.address
            stop = threading.Event()
            agent = threading.Thread(
                target=run_agent,
                args=(address,),
                kwargs=dict(workers=2, plane=str(tmp_path), node_id="node-a",
                            poll_interval=0.02, stop_event=stop),
                daemon=True,
            )
            agent.start()
            try:
                service = BenchmarkService(jobs=manager)
                status = service.submit(
                    RunRequest(benchmark="open", tool="spade", seed=5))
                done = wait_terminal(manager, status.job_id)
                assert done.state == "done"
                assert done.result.result.classification.value == "ok"
                summary = manager.cluster_summary()
                assert summary == {
                    "enabled": True, "address": address,
                    "nodes": 1, "remote_workers": 2,
                }
            finally:
                stop.set()
                agent.join(timeout=30.0)
            assert not agent.is_alive()

    def test_agent_exits_3_when_coordinator_never_answers(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        lines = []
        code = run_agent(f"127.0.0.1:{port}", workers=1,
                         plane=str(tmp_path / "agent"),
                         log=lines.append)
        assert code == 3
        assert any("cannot join" in line for line in lines)

    def test_agent_endpoint_must_be_host_port(self):
        with pytest.raises(ValidationError, match="HOST:PORT"):
            run_agent("not-an-endpoint", workers=1)


# -- the HTTP surface --------------------------------------------------------


class TestHttpSurface:
    def test_cluster_route_health_block_and_gauges(self, tmp_path):
        from repro.middleware import MetricsMiddleware, MiddlewareChain

        with FleetJobManager(tmp_path, workers=0, cluster_port=0,
                             policy=RetryPolicy(**FAST)) as manager:
            service = BenchmarkService(jobs=manager)
            chain = MiddlewareChain([MetricsMiddleware()])
            server = make_server(service, port=0, chain=chain)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                health = json.load(
                    urllib.request.urlopen(f"{base}/v1/health"))
                assert health["cluster"]["enabled"] is True
                assert health["cluster"]["nodes"] == 0
                # stable zeroed per-class schema on an empty spool
                classes = health["sched"]["classes"]
                assert set(classes) == set(PRIORITY_CLASSES)
                for row in classes.values():
                    assert row["pending"] == row["running"] == 0

                payload = json.load(
                    urllib.request.urlopen(f"{base}/v1/cluster"))
                events = payload.pop("recent_events")
                status = ClusterStatus.from_payload(payload)
                assert status.enabled and not status.draining
                assert status.coordinator == manager.coordinator.address
                assert events == []

                metrics = json.load(
                    urllib.request.urlopen(f"{base}/v1/metrics"))
                gauges = metrics["gauges"]
                assert gauges["cluster_nodes"] == 0
                assert gauges["cluster_claims_total"] == 0
                assert gauges["cluster"]["enabled"] is True
            finally:
                server.shutdown()
                server.server_close()

    def test_single_host_cluster_route_reports_disabled(self, tmp_path):
        with FleetJobManager(tmp_path, workers=1,
                             policy=RetryPolicy(**FAST)) as manager:
            service = BenchmarkService(jobs=manager)
            server = make_server(service, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                payload = json.load(
                    urllib.request.urlopen(f"{base}/v1/cluster"))
                payload.pop("recent_events")
                status = ClusterStatus.from_payload(payload)
                assert not status.enabled
                assert status.nodes == ()
                health = json.load(
                    urllib.request.urlopen(f"{base}/v1/health"))
                assert health["cluster"] == {
                    "enabled": False, "nodes": 0, "remote_workers": 0,
                }
            finally:
                server.shutdown()
                server.server_close()


# -- zeroed scheduler stats (satellite: stable schema) ------------------------


class TestZeroedSchedStats:
    def test_empty_spool_reports_every_class_zeroed(self, tmp_path):
        with FleetJobManager(tmp_path, workers=0, cluster_port=0,
                             policy=RetryPolicy(**FAST)) as manager:
            stats = manager.sched_stats()
            assert set(stats["classes"]) == set(PRIORITY_CLASSES)
            for row in stats["classes"].values():
                assert row == {"pending": 0, "running": 0, "waited": 0,
                               "wait_p50": 0.0, "wait_max": 0.0}
            assert stats["promotions"] == 0

    def test_thread_manager_matches_the_schema(self):
        from repro.api.jobs import JobManager

        manager = JobManager(max_workers=1)
        try:
            stats = manager.sched_stats()
            assert set(stats["classes"]) == set(PRIORITY_CLASSES)
            for row in stats["classes"].values():
                assert row == {"pending": 0, "running": 0, "waited": 0,
                               "wait_p50": 0.0, "wait_max": 0.0}
        finally:
            manager.shutdown(wait=False)


# -- the serve/agent CLI (satellite: uniform config errors) -------------------


class TestServeCliErrors:
    def run_main(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.err

    def test_malformed_scheduler_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "sched.json"
        bad.write_text("{not json")
        code, err = self.run_main(
            capsys, ["serve", "--scheduler", str(bad)])
        assert code == 2
        assert err.startswith("provmark: ")

    def test_unreadable_scheduler_config_exits_2(self, tmp_path, capsys):
        code, err = self.run_main(
            capsys, ["serve", "--scheduler", str(tmp_path / "missing.json")])
        assert code == 2
        assert err.startswith("provmark: ")

    def test_malformed_middleware_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "mw.json"
        bad.write_text("[1, 2,")
        code, err = self.run_main(
            capsys, ["serve", "--middleware", str(bad)])
        assert code == 2
        assert err.startswith("provmark: ")

    def test_non_numeric_ratelimit_rate_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "mw.json"
        bad.write_text(json.dumps({"ratelimit": {"rate": "fast"}}))
        code, err = self.run_main(
            capsys, ["serve", "--middleware", str(bad)])
        assert code == 2
        assert err.startswith("provmark: ")
        assert "ratelimit.rate" in err

    def test_non_numeric_client_quota_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "mw.json"
        bad.write_text(json.dumps(
            {"ratelimit": {"clients": {"ci": {"burst": []}}}}))
        code, err = self.run_main(
            capsys, ["serve", "--middleware", str(bad)])
        assert code == 2
        assert err.startswith("provmark: ")
        assert "burst" in err

    def test_bad_middleware_with_workers_spawns_nothing(
            self, tmp_path, capsys):
        # the chain must be validated before the fleet starts: a typoed
        # config exits 2 without ever creating the execution plane
        bad = tmp_path / "mw.json"
        bad.write_text(json.dumps({"ratelimit": {"rate": "fast"}}))
        code, err = self.run_main(capsys, [
            "serve", "--middleware", str(bad),
            "--workers", "2", "--queue", str(tmp_path / "plane"),
        ])
        assert code == 2
        assert err.startswith("provmark: ")
        assert not (tmp_path / "plane" / "spool").exists()

    def test_malformed_serve_fault_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "faults.json"
        bad.write_text(json.dumps({"specs": [{"kind": "meteor"}]}))
        code, err = self.run_main(capsys, [
            "serve", "--faults", str(bad), "--workers", "0",
            "--cluster", "0", "--queue", str(tmp_path / "plane"),
        ])
        assert code == 2
        assert err.startswith("provmark: ")
        assert "meteor" in err
        assert not (tmp_path / "plane" / "spool").exists()

    def test_queue_without_workers_or_cluster_exits_2(self, tmp_path,
                                                      capsys):
        # the in-process pool would ignore the spool: nothing durable
        code, err = self.run_main(
            capsys, ["serve", "--queue", str(tmp_path / "plane")])
        assert code == 2
        assert err == "provmark: --queue requires --workers or --cluster\n"
        assert not (tmp_path / "plane").exists()

    def test_retired_op_in_agent_fault_plan_exits_2(self, tmp_path, capsys):
        # a v1 op name would never match, so the fault would never fire
        bad = tmp_path / "faults.json"
        bad.write_text(json.dumps(
            {"specs": [{"kind": "conn_drop", "op": "progress"}]}))
        code, err = self.run_main(capsys, [
            "agent", "--coordinator", "127.0.0.1:9", "--faults", str(bad),
        ])
        assert code == 2
        assert err.startswith("provmark: ")
        assert "'progress'" in err

    def test_agent_rejects_bad_endpoint(self, capsys):
        code, err = self.run_main(
            capsys, ["agent", "--coordinator", "nowhere"])
        assert code == 2
        assert err.startswith("provmark: ")
        assert "HOST:PORT" in err


# -- the chaos proof ---------------------------------------------------------


def start_agent_process(address, plane, node_id, faults_path=None):
    argv = [
        sys.executable, "-m", "repro.cli", "agent",
        "--coordinator", address, "--workers", "1",
        "--plane", str(plane), "--node-id", node_id, "--poll", "0.02",
    ]
    if faults_path is not None:
        argv += ["--faults", str(faults_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        argv, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def test_fleet_interactive_is_never_starved_by_background_flood(tmp_path):
    """Jobs queued before any agent joins are claimed fleet-wide in
    strict priority order: the lone interactive run beats the whole
    pre-queued background flood."""
    with FleetJobManager(tmp_path, workers=0, cluster_port=0,
                         policy=RetryPolicy(**FAST)) as manager:
        service = BenchmarkService(jobs=manager)
        flood = [
            service.submit(RunRequest(benchmark="open", tool="spade",
                                      seed=5, priority="background"))
            for _ in range(6)
        ]
        urgent = service.submit(RunRequest(
            benchmark="close", tool="spade", seed=5,
            priority="interactive"))

        stop = threading.Event()
        agent = threading.Thread(
            target=run_agent, args=(manager.coordinator.address,),
            kwargs=dict(workers=1, plane=str(tmp_path), node_id="node-a",
                        poll_interval=0.02, stop_event=stop),
            daemon=True,
        )
        agent.start()
        try:
            done = wait_terminal(manager, urgent.job_id)
            assert done.state == "done"
            for status in flood:
                assert wait_terminal(manager, status.job_id).state == "done"
        finally:
            stop.set()
            agent.join(timeout=30.0)

        claims = [e for e in manager.coordinator.events.recent(64)
                  if e.kind == "claim"]
        # the interactive job is the very first claim despite being
        # submitted after six background jobs
        assert claims[0].job_id == urgent.job_id


def test_chaos_fleet_batch_is_byte_identical_to_single_host(tmp_path):
    """The PR 10 acceptance proof: a 50-benchmark batch on one
    coordinator plus two agents — one SIGKILLed mid-batch (with its
    worker), connection drops injected at the coordinator — completes
    byte-identical (minus wall-clock timings) to a fault-free
    single-host serial run."""
    names = fifty_benchmarks()
    assert len(names) == 50

    with BenchmarkService() as service:
        baseline = [
            response.to_payload() for response in service.run_batch(
                BatchRequest(benchmarks=names, tool="spade", seed=2019))
        ]

    faults = FaultPlan(
        [
            FaultSpec(kind="conn_drop", op="update_progress", at=5, times=1),
            FaultSpec(kind="conn_drop", op="complete", times=1),
        ],
        seed=2019,
    )
    plane = tmp_path / "plane"
    with FleetJobManager(plane, workers=0, cluster_port=0,
                         policy=RetryPolicy(**FAST),
                         faults=faults) as manager:
        address = manager.coordinator.address
        service = BenchmarkService(jobs=manager)
        # the victim joins alone, so it is guaranteed to claim the batch
        victim = start_agent_process(address, plane, "node-victim")
        survivor = None
        try:
            status = service.submit(BatchRequest(
                benchmarks=names, tool="spade", seed=2019))

            # wait until the victim demonstrably owns and works the batch
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                owners = set(manager.queue.lease_owners().values())
                progress = manager.poll(status.job_id)
                if progress.completed >= 5 and any(
                        o.startswith("node-victim:") for o in owners):
                    break
                assert progress.state != "done", "batch finished too fast"
                time.sleep(0.02)
            else:
                raise AssertionError("victim never started on the batch")

            survivor = start_agent_process(address, plane, "node-survivor")
            deadline = time.monotonic() + 30.0
            while manager.coordinator.node_count() < 2:
                assert time.monotonic() < deadline, "survivor never joined"
                time.sleep(0.05)

            # kill the victim cold — whole process group, like a host loss
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30.0)

            done = wait_terminal(manager, status.job_id, timeout=180.0)
            assert done.state == "done"
            assert done.completed == done.total == 50
            assert done.attempts >= 2  # the kill forced a re-run

            fleet = [r.to_payload() for r in done.results]
            assert [stripped(p) for p in fleet] == [
                stripped(p) for p in baseline]

            # the coordinator declares the silent node dead within its TTL
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                counters = manager.cluster_stats()["counters"]
                if counters["dead_nodes_total"] >= 1:
                    break
                time.sleep(0.1)
            assert counters["conn_drops_total"] >= 1
            assert counters["dead_nodes_total"] == 1
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGTERM)
            assert survivor is not None
            survivor_out = survivor.communicate(timeout=60.0)[0]
        assert survivor.returncode == 0, survivor_out
