"""Deterministic cost ceilings for the durable queue's claim arbiter.

Every job passes through one claim and one completion at the cluster
coordinator.  These tests count job-record reads (``_read_json`` calls
on ``jobs/``), so a per-claim scan of every pending record fails on any
runner without a wall clock:

* a fresh ``JobQueue`` draining 200 FIFO jobs reads each record once on
  first sight and the winner's once more: at most 400 (a full scan per
  claim read 20,300);
* one coordinator ``complete`` op reads its record once (it read it
  three times: the coordinator's check, ``complete()``'s own and the
  update's);
* with aging on, a claim after a promotion pass reads no record of a
  token the claim index has already seen (a scan read one per aged
  token, per claim);
* one ``/v1/metrics`` render over a fleet spool of N finished jobs
  parses 2N records (the ``jobs`` and ``sched`` gauges), not 3N.
"""

from __future__ import annotations

from repro.api import BenchmarkService
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.remote import RemoteQueue
from repro.exec import FleetJobManager, JobQueue
from repro.exec import queue as queue_module
from repro.middleware.metrics import MetricsRegistry, register_service_gauges
from repro.sched.policy import SchedulerConfig


def count_record_reads(monkeypatch):
    """Record the job id of every job-record read from now on."""
    real = queue_module._read_json
    reads = []

    def counting(path):
        if path.parent.name == "jobs":
            reads.append(path.stem)
        return real(path)

    monkeypatch.setattr(queue_module, "_read_json", counting)
    return reads


def submit(queue, kind="run", client_id=""):
    return queue.submit(kind, {"benchmark": "open"}, 1, 3,
                        client_id=client_id)["job_id"]


def test_fifo_drain_reads_each_record_at_most_twice(tmp_path, monkeypatch):
    spool = tmp_path / "spool"
    writer = JobQueue(spool)
    ids = [submit(writer) for _ in range(200)]
    queue = JobQueue(spool)  # a fresh index: every token is unseen
    reads = count_record_reads(monkeypatch)
    claimed = [queue.claim("w0.g1")["job_id"] for _ in range(200)]
    assert claimed == ids
    assert len(reads) <= 400  # a full scan per claim read 20,300
    assert queue.claim("w0.g1") is None
    assert queue.depth() == {"pending": 0, "leased": 200, "active": 200}


def test_coordinator_complete_reads_its_record_once(tmp_path, monkeypatch):
    with ClusterCoordinator(tmp_path / "spool") as coordinator:
        job_id = submit(coordinator.queue)
        client = RemoteQueue(coordinator.host, coordinator.port, "node-a")
        try:
            assert client.claim("node-a:w0.g1")["job_id"] == job_id
            reads = count_record_reads(monkeypatch)
            assert client.complete(job_id, result={"ok": True})["state"] == "done"
            assert reads == [job_id]  # was 3
            counters = coordinator.stats()["counters"]
            assert counters["completions_total"] == 1
            # a zombie's duplicate completion: one read, not counted again
            reads.clear()
            client.complete(job_id, result={"ok": True})
            assert reads == [job_id]
            counters = coordinator.stats()["counters"]
            assert counters["completions_total"] == 1
            events = [e.kind for e in coordinator.events.recent()]
            assert events.count("complete") == 1
        finally:
            client.close()


def test_aging_reads_no_record_the_index_has_seen(tmp_path, monkeypatch):
    queue = JobQueue(tmp_path / "spool")
    queue.configure(SchedulerConfig(aging_wait=10.0))
    ids = [submit(queue, kind="synth") for _ in range(10)]  # background
    start = queue.record(ids[-1])["submitted_at"]
    reads = count_record_reads(monkeypatch)
    # the first pass promotes every token to batch, reading each once
    assert queue.claim("w0.g1", now=start + 15.0)["job_id"] == ids[0]
    assert len(reads) == len(ids) + 1
    assert queue.promotions() == len(ids)
    # the second pass promotes the nine left to interactive from the
    # index: the winner's record is the only read
    reads.clear()
    assert queue.claim("w0.g1", now=start + 25.0)["job_id"] == ids[1]
    assert reads == [ids[1]]
    assert queue.promotions() == len(ids) + len(ids) - 1
    assert queue.pending_by_class()["interactive"] == len(ids) - 2


def test_metrics_render_parses_each_record_twice(tmp_path, monkeypatch):
    finished = 20
    with FleetJobManager(tmp_path, workers=0, scheduler=SchedulerConfig(
            aging_wait=10.0)) as manager:
        # no supervisor eviction pass (it parses every record) mid-count
        monkeypatch.setattr(manager.supervisor, "EVICT_EVERY", 10**9)
        queue = manager.queue
        ids = [submit(queue, kind="synth") for _ in range(finished)]
        queue.promote_starved(now=queue.record(ids[-1])["submitted_at"] + 15)
        for job_id in ids:
            assert queue.claim("w0.g1")["job_id"] == job_id
            queue.complete(job_id, result={"ok": True})
        registry = MetricsRegistry()
        register_service_gauges(registry, BenchmarkService(jobs=manager))
        # the same gauges, promotions read through sched_stats() instead
        reference = MetricsRegistry()
        register_service_gauges(reference, BenchmarkService(jobs=manager))
        reference.gauge_fn(
            "sched_promotions_total",
            lambda: manager.sched_stats().get("promotions", 0),
        )
        reads = count_record_reads(monkeypatch)
        rendered = registry.render()
        assert len(reads) == 2 * finished  # was 3N
        reads.clear()
        assert reference.render() == rendered
        assert len(reads) == 3 * finished
        assert rendered["gauges"]["sched_promotions_total"] == finished
