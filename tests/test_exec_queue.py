"""The durable lease-based job queue, its in-memory twin, and the retry
policy.

Every case that does not look at the spool's files runs twice: against a
:class:`JobQueue` (module level) and, in :class:`TestMemoryQueue`,
against a :class:`MemoryQueue`, which shares its record builder and
state rules."""

import sys
import threading
import time

import pytest

from repro.exec import JobQueue, QueueError, RetryPolicy
from repro.exec.queue import TERMINAL_STATES, MemoryQueue


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(tmp_path / "spool")


def submit(queue, payload=None, total=1, max_attempts=3):
    return queue.submit("run", payload or {"benchmark": "open"}, total,
                        max_attempts)


# -- policy -----------------------------------------------------------------


def test_policy_payload_roundtrip():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.5, lease_ttl=9.0,
                         heartbeat_interval=2.0, seed=3)
    assert RetryPolicy.from_payload(policy.to_payload()) == policy


def test_policy_rejects_heartbeat_slower_than_lease():
    with pytest.raises(Exception):
        RetryPolicy(lease_ttl=1.0, heartbeat_interval=2.0)


def test_backoff_is_deterministic_capped_and_jittered():
    policy = RetryPolicy(backoff_base=0.25, backoff_cap=2.0,
                         backoff_jitter=0.25, seed=3)
    first = [policy.backoff("job-x", n) for n in range(1, 8)]
    again = [policy.backoff("job-x", n) for n in range(1, 8)]
    assert first == again  # same seed/job/attempt, same delay
    other = [policy.backoff("job-y", n) for n in range(1, 8)]
    assert first != other  # jitter decorrelates jobs
    for attempt, delay in enumerate(first, start=1):
        base = min(2.0, 0.25 * 2 ** (attempt - 1))
        assert base <= delay <= base * 1.25
    assert first[-1] <= 2.0 * 1.25  # capped, jitter on top


# -- submit / claim ---------------------------------------------------------


def test_submit_creates_record_and_pending_token(queue):
    record = submit(queue)
    assert record["state"] == "queued"
    assert record["attempts"] == 0
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}
    assert queue.record(record["job_id"])["job_id"] == record["job_id"]


def test_claim_is_fifo_and_flips_to_running(queue):
    first = submit(queue)
    time.sleep(0.002)  # distinct token stamps
    second = submit(queue)
    claimed = queue.claim("w0.g1")
    assert claimed["job_id"] == first["job_id"]
    assert claimed["state"] == "running"
    assert claimed["attempts"] == 1
    assert claimed["owner"] == "w0.g1"
    assert queue.depth() == {"pending": 1, "leased": 1, "active": 2}
    assert queue.claim("w1.g1")["job_id"] == second["job_id"]
    assert queue.claim("w2.g1") is None


def test_claim_skips_jobs_inside_their_backoff_window(queue):
    record = submit(queue)
    policy = RetryPolicy(backoff_base=30.0, backoff_cap=60.0)
    queue.claim("w0.g1")
    queue.retry_or_fail(record["job_id"], "boom", policy)
    assert queue.claim("w0.g1") is None  # not_before is in the future
    assert queue.depth()["pending"] == 1  # but the token stays


def test_unknown_ids_raise_queue_error(queue):
    assert queue.record("job-nope") is None
    with pytest.raises(QueueError):
        queue.retry_or_fail("job-nope", "boom", RetryPolicy())
    with pytest.raises(QueueError):
        queue.cancel("job-nope")


# -- retry / permanent failure ---------------------------------------------


def test_retry_requeues_with_history_then_fails_permanently(queue):
    policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue, max_attempts=2)["job_id"]

    queue.claim("w0.g1")
    record = queue.retry_or_fail(job_id, "first boom", policy)
    assert record["state"] == "queued"
    assert record["error"] == "first boom"
    assert record["error_history"] == ["attempt 1: first boom"]
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}

    queue.claim("w0.g2")
    record = queue.retry_or_fail(job_id, "second boom", policy)
    assert record["state"] == "failed"
    assert "failed permanently after 2 attempt(s)" in record["error"]
    assert len(record["error_history"]) == 2
    assert queue.depth()["active"] == 0


def test_done_is_never_demoted(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.complete(job_id, result={"ok": True})
    # a lagging zombie writer cannot downgrade a real result
    record = queue.fail(job_id, "late zombie error")
    assert record["state"] == "done"
    record = queue.retry_or_fail(job_id, "boom", RetryPolicy())
    assert record["state"] == "done"
    assert queue.depth()["active"] == 0


def test_complete_wins_over_recovery_written_retry(queue):
    # the inverse interleaving: recovery requeued the job while the
    # zombie was still running; the zombie's result converges to done
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.retry_or_fail(job_id, "presumed dead", RetryPolicy(
        backoff_base=0.0, backoff_cap=0.0, backoff_jitter=0.0))
    record = queue.complete(job_id, result={"ok": True})
    assert record["state"] == "done"


# -- cancellation -----------------------------------------------------------


def test_cancel_unclaimed_job_finalizes_immediately(queue):
    job_id = submit(queue)["job_id"]
    record = queue.cancel(job_id)
    assert record["state"] == "cancelled"
    assert queue.depth()["active"] == 0
    # idempotent on terminal records
    assert queue.cancel(job_id)["state"] == "cancelled"


def test_cancel_running_job_sets_marker_for_stage_boundaries(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    record = queue.cancel(job_id)
    assert record["state"] == "running"  # stops at the next boundary
    assert queue.cancel_requested(job_id)
    record = queue.mark_cancelled(job_id)
    assert record["state"] == "cancelled"
    assert not queue.cancel_requested(job_id)  # marker released
    assert queue.depth()["active"] == 0


def test_cancel_requested_queued_job_finalizes_at_claim_time(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.cancel(job_id)
    queue.retry_or_fail(job_id, "worker died", RetryPolicy(
        backoff_base=0.0, backoff_cap=0.0, backoff_jitter=0.0))
    # the requeued job still carries the cancel request: the next claim
    # pass finalizes it instead of running it
    assert queue.claim("w1.g1") is None
    assert queue.record(job_id)["state"] == "cancelled"


def test_cancel_of_leased_job_leaves_record_file_untouched(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    path = queue.root / "jobs" / f"{job_id}.json"
    before = path.read_bytes()
    queue.cancel(job_id)
    assert path.read_bytes() == before  # the marker alone carries it
    assert queue.cancel_requested(job_id)


def test_cancel_racing_claim_never_erases_the_claim(tmp_path):
    race_cancel_against_claim(
        lambda trial: JobQueue(tmp_path / f"spool{trial}"),
        lambda queue, job_id: (queue.root / "leases" / job_id).exists(),
    )


def race_cancel_against_claim(make_queue, lease_held):
    """A claim and a cancel released together: whoever wins, a held
    lease always comes with the claim's ``running`` record."""
    for trial in range(200):
        queue = make_queue(trial)
        job_id = submit(queue)["job_id"]
        barrier = threading.Barrier(2, timeout=10)

        def race(action):
            barrier.wait()
            action()

        threads = [
            threading.Thread(target=race, args=(lambda: queue.claim("w0"),)),
            threading.Thread(target=race, args=(lambda: queue.cancel(job_id),)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), trial
        if lease_held(queue, job_id):
            record = queue.record(job_id)
            assert record["state"] == "running", trial
            assert record["owner"] == "w0", trial
            assert record["started_at"] is not None, trial
            assert record["attempts"] == 1, trial


# -- lease recovery ---------------------------------------------------------


def test_recover_requeues_dead_owners_immediately(queue):
    policy = RetryPolicy(backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    assert queue.recover(policy, dead_owners=["w9.g9"]) == []
    recovered = queue.recover(policy, dead_owners=["w0.g1"])
    assert recovered == [job_id]
    record = queue.record(job_id)
    assert record["state"] == "queued"
    assert "lost its lease" in record["error_history"][0]
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}


def test_recover_sweeps_stale_heartbeats_but_not_fresh_ones(queue):
    policy = RetryPolicy(lease_ttl=5.0, heartbeat_interval=1.0,
                         backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    now = time.time()
    assert queue.recover(policy, now=now + 1.0) == []  # fresh beat
    assert queue.recover(policy, now=now + 60.0) == [job_id]  # silent worker


def test_recovery_past_max_attempts_fails_permanently(queue):
    policy = RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue, max_attempts=1)["job_id"]
    queue.claim("w0.g1")
    queue.recover(policy, dead_owners=["w0.g1"])
    record = queue.record(job_id)
    assert record["state"] == "failed"
    assert "lost its lease" in record["error"]


def test_heartbeat_after_lease_recovery_is_a_noop(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.recover(RetryPolicy(backoff_base=0.0, backoff_cap=0.0,
                              backoff_jitter=0.0), dead_owners=["w0.g1"])
    queue.heartbeat(job_id, "w0.g1", "recording")  # the zombie beats on
    assert queue.depth()["leased"] == 0  # without resurrecting the lease


ZERO_BACKOFF = RetryPolicy(lease_ttl=5.0, heartbeat_interval=1.0,
                           backoff_base=0.0, backoff_cap=0.0,
                           backoff_jitter=0.0)


@pytest.mark.parametrize("trigger", ["lease_ttl", "dead_owner"])
def test_zombie_retry_after_recovery_mints_no_second_token(queue, trigger):
    # recovery requeued the job while its worker was still running; the
    # worker's own failure report must not queue the job a second time
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    if trigger == "lease_ttl":
        stale = time.time() + ZERO_BACKOFF.lease_ttl + 1
        assert queue.recover(ZERO_BACKOFF, now=stale) == [job_id]
    else:
        assert queue.recover(ZERO_BACKOFF, dead_owners=["w0.g1"]) == [job_id]
    not_before = queue.record(job_id)["not_before"]
    record = queue.retry_or_fail(job_id, "zombie boom", ZERO_BACKOFF)
    assert record["state"] == "queued"
    assert record["not_before"] == not_before
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}
    assert queue.claim("w1.g1")["attempts"] == 2
    assert queue.claim("w2.g1") is None


@pytest.mark.parametrize("report", ["complete", "fail", "mark_cancelled"])
def test_zombie_terminal_report_after_recovery_drops_the_token(queue, report):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    stale = time.time() + ZERO_BACKOFF.lease_ttl + 1
    assert queue.recover(ZERO_BACKOFF, now=stale) == [job_id]
    if report == "complete":
        record = queue.complete(job_id, result={"ok": True})
    elif report == "fail":
        record = queue.fail(job_id, "zombie boom")
    else:
        record = queue.mark_cancelled(job_id)
    assert record["state"] in TERMINAL_STATES
    # the requeued token goes with the job, not at some later claim
    assert queue.depth() == {"pending": 0, "leased": 0, "active": 0}
    assert queue.claim("w1.g1") is None


def test_threads_sharing_one_index_claim_every_job_once(tmp_path):
    """Eight claiming threads and a submitter share one queue (and so
    one claim index) with thread switches forced every microsecond."""
    claim_each_once_across_threads(JobQueue(tmp_path / "spool"))


def claim_each_once_across_threads(queue):
    total, claimers = 300, 8
    submitted, claimed, errors = [], [], []
    done_submitting = threading.Event()

    def guarded(body):
        def run():
            try:
                body()
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)
        return run

    def submitter():
        try:
            for _ in range(total):
                submitted.append(submit(queue)["job_id"])
        finally:
            done_submitting.set()

    def claimer(slot):
        def body():
            while True:
                record = queue.claim(f"w{slot}.g1")
                if record is not None:
                    claimed.append(record["job_id"])
                elif done_submitting.is_set() and queue.depth()["pending"] == 0:
                    return
        return body

    threads = [threading.Thread(target=guarded(submitter), daemon=True)] + [
        threading.Thread(target=guarded(claimer(slot)), daemon=True)
        for slot in range(claimers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(submitted) == total
    assert sorted(claimed) == sorted(submitted)  # each exactly once
    assert queue.depth() == {"pending": 0, "leased": total, "active": total}
    for job_id in submitted:
        record = queue.record(job_id)
        assert (record["state"], record["attempts"]) == ("running", 1)


# -- eviction ---------------------------------------------------------------


def test_evict_finished_drops_oldest_and_counts_durably(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    ids = []
    for n in range(5):
        job_id = submit(queue)["job_id"]
        queue.claim(f"w{n}.g1")
        queue.complete(job_id, result={"n": n})
        ids.append(job_id)
        time.sleep(0.002)
    live = submit(queue)["job_id"]  # active jobs are never evicted

    assert queue.evict_finished(cap=2) == 3
    kept = {record["job_id"] for record in queue.records()}
    assert kept == {live, *ids[3:]}
    # the counter survives a restart (a fresh queue over the same spool)
    assert JobQueue(tmp_path / "spool").evicted() == 3


def test_evict_finished_holds_one_parsed_record_at_a_time(tmp_path):
    """The pass keeps each record's stamp and id, not its result, so its
    peak allocation stays near one parsed record however many finished
    results are spooled."""
    import tracemalloc

    queue = JobQueue(tmp_path / "spool")
    result = {"nodes": [{"id": f"n{i}", "label": "file"} for i in range(400)]}
    for n in range(40):
        job_id = submit(queue)["job_id"]
        queue.claim(f"w{n}.g1")
        queue.complete(job_id, result=result)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert queue.record(job_id)["result"] == result
        one = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert queue.evict_finished(cap=10) == 30
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * one, (peak, one)
    assert len(queue.records()) == 10


def test_an_undecodable_record_reads_as_missing(queue, tmp_path):
    """A record whose bytes are not UTF-8 is skipped like a torn one:
    ``records()`` and ``census()`` (behind ``/v1/health``) still answer."""
    job_id = submit(queue)["job_id"]
    (tmp_path / "spool" / "jobs" / "job-bad.json").write_bytes(
        b'{"a": "\xff"}'
    )
    assert [record["job_id"] for record in queue.records()] == [job_id]
    states, _sched = queue.census()
    assert states == {"queued": 1}


def test_terminal_states_match_api_job_states():
    from repro.api.types import JOB_STATES

    assert set(TERMINAL_STATES) <= set(JOB_STATES)


# -- the in-memory queue ----------------------------------------------------


class TestMemoryQueue:
    """The backend-agnostic cases above, over a :class:`MemoryQueue`."""

    @pytest.fixture()
    def queue(self):
        return MemoryQueue()

    test_submit_creates_record_and_pending_token = staticmethod(
        test_submit_creates_record_and_pending_token)
    test_claim_is_fifo_and_flips_to_running = staticmethod(
        test_claim_is_fifo_and_flips_to_running)
    test_claim_skips_jobs_inside_their_backoff_window = staticmethod(
        test_claim_skips_jobs_inside_their_backoff_window)
    test_unknown_ids_raise_queue_error = staticmethod(
        test_unknown_ids_raise_queue_error)
    test_retry_requeues_with_history_then_fails_permanently = staticmethod(
        test_retry_requeues_with_history_then_fails_permanently)
    test_done_is_never_demoted = staticmethod(test_done_is_never_demoted)
    test_complete_wins_over_recovery_written_retry = staticmethod(
        test_complete_wins_over_recovery_written_retry)
    test_cancel_unclaimed_job_finalizes_immediately = staticmethod(
        test_cancel_unclaimed_job_finalizes_immediately)
    test_cancel_running_job_sets_marker_for_stage_boundaries = staticmethod(
        test_cancel_running_job_sets_marker_for_stage_boundaries)
    test_cancel_requested_queued_job_finalizes_at_claim_time = staticmethod(
        test_cancel_requested_queued_job_finalizes_at_claim_time)
    test_recover_requeues_dead_owners_immediately = staticmethod(
        test_recover_requeues_dead_owners_immediately)
    test_recover_sweeps_stale_heartbeats_but_not_fresh_ones = staticmethod(
        test_recover_sweeps_stale_heartbeats_but_not_fresh_ones)
    test_recovery_past_max_attempts_fails_permanently = staticmethod(
        test_recovery_past_max_attempts_fails_permanently)
    test_heartbeat_after_lease_recovery_is_a_noop = staticmethod(
        test_heartbeat_after_lease_recovery_is_a_noop)
    test_zombie_retry_after_recovery_mints_no_second_token = staticmethod(
        test_zombie_retry_after_recovery_mints_no_second_token)
    test_zombie_terminal_report_after_recovery_drops_the_token = staticmethod(
        test_zombie_terminal_report_after_recovery_drops_the_token)

    def test_cancel_racing_claim_never_erases_the_claim(self):
        race_cancel_against_claim(
            lambda trial: MemoryQueue(),
            lambda queue, job_id: job_id in queue.lease_owners(),
        )

    def test_threads_sharing_one_queue_claim_every_job_once(self):
        claim_each_once_across_threads(MemoryQueue())

    def test_claim_is_strict_priority_then_fifo(self, queue):
        ids = [
            queue.submit("run", {}, 1, 3, priority=cls)["job_id"]
            for cls in ("background", "batch", "interactive", "batch")
        ]
        order = [queue.claim("w0.g1")["job_id"] for _ in ids]
        assert order == [ids[2], ids[1], ids[3], ids[0]]
        assert queue.pending_by_class() == {
            "urgent": 0, "interactive": 0, "batch": 0, "background": 0}

    def test_a_claim_carries_the_submitting_service(self, queue):
        service, request = object(), object()
        job_id = queue.submit("run", request, 1, 3, service=service)["job_id"]
        claimed = queue.claim("w0.g1")
        assert claimed["service"] is service
        assert claimed["request"] is request
        assert "service" not in queue.record(job_id)
        queue.complete(job_id, result=request)  # objects, not payloads
        assert queue.record(job_id)["result"] is request
        assert queue._services == {}  # a finished job lets go of it

    def test_finished_records_are_evicted_as_they_finish(self):
        queue = MemoryQueue(finished_cap=2)
        ids = [submit(queue)["job_id"] for _ in range(5)]
        for job_id in ids[:4]:
            queue.claim("w0.g1")
            queue.complete(job_id, result={"ok": True})
        assert queue.evicted() == 2
        assert [r["job_id"] for r in queue.records()] == ids[2:]
        assert [r["job_id"] for r in queue.finished_records(8)] == [
            ids[3], ids[2]]
        assert [r["job_id"] for r in queue.live_records()] == [ids[4]]
        with pytest.raises(QueueError):
            queue.complete(ids[0], result={"ok": True})  # gone for good

    def test_wait_returns_when_a_token_is_minted(self, queue):
        # a slot's 60 s wait that ends within 10 s was woken by a mint
        # (one submit per 50 ms, in case the first lands before the claim)
        def slot():
            queue.claim("w0.g1")
            queue.wait(60.0)

        thread = threading.Thread(target=slot)
        thread.start()
        deadline = time.monotonic() + 10
        while thread.is_alive() and time.monotonic() < deadline:
            submit(queue)
            thread.join(timeout=0.05)
        assert not thread.is_alive()

    def test_wait_sees_a_mint_that_landed_after_the_claim(self, queue):
        assert queue.claim("w0.g1") is None
        submit(queue)  # between the idle claim and the wait
        started = time.monotonic()
        queue.wait(30.0)
        assert time.monotonic() - started < 5.0

    def test_run_dry_waits_for_the_last_lease(self, queue):
        job_id = submit(queue)["job_id"]
        assert queue.run_dry(0.0) is False  # a token is left
        queue.claim("w0.g1")
        assert queue.run_dry(0.0) is False  # a lease is left
        finisher = threading.Timer(
            0.1, queue.complete, args=(job_id,), kwargs={"result": {}})
        finisher.start()
        assert queue.run_dry(30.0) is True
        finisher.join()
