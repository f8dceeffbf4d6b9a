"""A model-based proof of the durable job queue.

A hypothesis state machine drives two ``JobQueue`` handles over one
spool — an arbiter and a peer, each with its own claim index — against
a pure in-memory model of what the spool should hold.  The queue
module's clock is replaced by one the rules advance (every rule moves it
at least a millisecond, as real time does between two calls), so
backoff, aging and lease expiry are exact.

Rules: submit over 2 clients x 3 classes, claim from either handle,
complete, fail, ``retry_or_fail`` with zero and with a future backoff,
cancel (also one whose caller died after touching the marker), a
worker honouring a cancel marker, a TTL ``recover``, and a
zombie's late ``complete``, ``fail`` or ``retry_or_fail`` after that
recovery.  The same machine runs with aging on.

Invariants:

* each claim returns the job the model picks: the best token rank first,
  then the client's fair-share usage read through ``queue.ledger.usage``,
  then the token stamp; cancel markers met in the ranks walked finalize;
* every record holds the state the model holds, so ``done`` is never
  demoted;
* every live job owns exactly one of {pending token, lease}, with the
  token's rank and stamp the model's; a finished job owns neither;
* ``depth()`` equals the model's counts.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exec import JobQueue, RetryPolicy
from repro.exec import queue as queue_module
from repro.sched.policy import (
    AGING_FLOOR,
    SchedulerConfig,
    class_rank,
)

CLIENTS = ("alpha", "beta")
CLASSES = ("interactive", "batch", "background")
MAX_ATTEMPTS = 2
TICK = 0.001


def policy(backoff: float) -> RetryPolicy:
    return RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_base=backoff,
                       backoff_cap=backoff, backoff_jitter=0.0,
                       lease_ttl=5.0, heartbeat_interval=1.0)


RECOVERY = policy(0.0)


@dataclass
class Job:
    """What the model knows of one job."""

    client: str
    rank: int  # admitted
    state: str = "queued"
    token_rank: int = 0
    micros: int = 0  # token stamp, while queued
    not_before: float = 0.0
    attempts: int = 0
    cancel: bool = False


class QueueMachine(RuleBasedStateMachine):
    AGING: Optional[float] = None

    def __init__(self) -> None:
        super().__init__()
        self.now = 1_000_000.0
        self._real_now = queue_module._now
        queue_module._now = lambda: self.now
        self.dir = Path(tempfile.mkdtemp(prefix="queue-model-"))
        root = self.dir / "spool"
        if self.AGING is not None:
            JobQueue(root).configure(SchedulerConfig(aging_wait=self.AGING))
        self.queues = [JobQueue(root), JobQueue(root)]
        self.jobs: Dict[str, Job] = {}
        #: jobs whose worker lost its lease to a recovery but still runs
        self.zombies: Set[str] = set()
        self.claims = 0

    def teardown(self) -> None:
        queue_module._now = self._real_now
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- the model ----------------------------------------------------------

    def tick(self, seconds: float = TICK) -> None:
        self.now += seconds

    def in_state(self, *states: str) -> List[str]:
        return sorted(j for j, job in self.jobs.items() if job.state in states)

    def mint(self, job: Job) -> None:
        """A fresh token at the job's admitted class, stamped now."""
        job.state = "queued"
        job.token_rank = job.rank
        job.micros = int(self.now * 1e6)

    def requeue(self, job_id: str, backoff: float) -> None:
        """Model ``retry_or_fail`` on a record in any state."""
        job = self.jobs[job_id]
        if job.attempts >= MAX_ATTEMPTS:
            self.finish(job, "failed")
        elif job.state == "running":
            self.mint(job)
            job.not_before = self.now + policy(backoff).backoff(
                job_id, job.attempts)
        # queued: a recovery already requeued it; terminal: unchanged

    def finish(self, job: Job, state: str) -> None:
        """A terminal write: ``done`` is never demoted (completing a
        failed or cancelled record is allowed), and the job's cancel
        marker is released with it."""
        if job.state == "done":
            return
        job.state = state
        job.cancel = False

    def promote(self) -> None:
        floor = class_rank(AGING_FLOOR)
        for job in self.jobs.values():
            if job.state != "queued" or job.token_rank <= floor:
                continue
            age = self.now - job.micros / 1e6
            if age < self.AGING:
                continue
            new_rank = max(floor, job.rank - int(age // self.AGING))
            if new_rank < job.token_rank:
                job.token_rank = new_rank
                job.micros = int(job.micros / 1e6 * 1e6)

    def pick(self) -> Optional[str]:
        """The job a claim must return (finalizing cancels on the way)."""
        if self.AGING is not None:
            self.promote()
        ledger = self.queues[0].ledger
        for rank in sorted({job.token_rank for job in self.jobs.values()
                            if job.state == "queued"}):
            runnable = []
            for job_id in self.in_state("queued"):
                job = self.jobs[job_id]
                if job.token_rank != rank:
                    continue
                if job.cancel:
                    self.finish(job, "cancelled")
                    continue
                if job.not_before > self.now:
                    continue
                usage = ledger.usage(job.client, self.now)
                runnable.append((usage, job.micros, job_id))
            if runnable:
                return min(runnable)[2]
        return None

    # -- rules --------------------------------------------------------------

    @rule(client=st.sampled_from(CLIENTS), cls=st.sampled_from(CLASSES),
          side=st.integers(0, 1))
    def submit(self, client: str, cls: str, side: int) -> None:
        self.tick()
        record = self.queues[side].submit(
            "run", {"benchmark": "open"}, 1, MAX_ATTEMPTS,
            client_id=client, priority=cls,
        )
        job = self.jobs[record["job_id"]] = Job(client, class_rank(cls))
        self.mint(job)

    @rule(side=st.integers(0, 1))
    def claim(self, side: int) -> None:
        self.tick()
        expected = self.pick()
        self.claims += 1
        owner = f"w{self.claims}.g1"
        record = self.queues[side].claim(owner)
        assert (record["job_id"] if record else None) == expected
        if expected is not None:
            job = self.jobs[expected]
            job.state = "running"
            job.attempts += 1
            assert (record["owner"], record["attempts"]) == (
                owner, job.attempts)

    @precondition(lambda self: self.in_state("running"))
    @rule(data=st.data(), side=st.integers(0, 1))
    def complete(self, data, side: int) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(self.in_state("running")))
        self.queues[side].complete(job_id, result={"ok": True})
        self.finish(self.jobs[job_id], "done")

    @precondition(lambda self: self.in_state("running"))
    @rule(data=st.data(), side=st.integers(0, 1))
    def fail(self, data, side: int) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(self.in_state("running")))
        self.queues[side].fail(job_id, "boom")
        self.finish(self.jobs[job_id], "failed")

    @precondition(lambda self: self.in_state("running"))
    @rule(data=st.data(), side=st.integers(0, 1),
          backoff=st.sampled_from([0.0, 30.0]))
    def retry(self, data, side: int, backoff: float) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(self.in_state("running")))
        self.queues[side].retry_or_fail(job_id, "transient", policy(backoff))
        self.requeue(job_id, backoff)

    @precondition(lambda self: self.in_state("queued", "running"))
    @rule(data=st.data(), side=st.integers(0, 1))
    def cancel(self, data, side: int) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(self.in_state("queued", "running")))
        self.queues[side].cancel(job_id)
        job = self.jobs[job_id]
        if job.state == "queued":
            self.finish(job, "cancelled")
        else:
            job.cancel = True  # the worker stops at its next boundary

    @precondition(lambda self: self.in_state("queued"))
    @rule(data=st.data())
    def cancel_marker_only(self, data) -> None:
        # a canceller that died between touching the marker and removing
        # the token: the claim that walks the job's rank finalizes it
        self.tick()
        job_id = data.draw(st.sampled_from(self.in_state("queued")))
        (self.queues[0].root / "cancel" / job_id).touch()
        self.jobs[job_id].cancel = True

    @precondition(lambda self: any(
        self.jobs[j].cancel for j in self.in_state("running")))
    @rule(data=st.data(), side=st.integers(0, 1))
    def honour_cancel(self, data, side: int) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(
            [j for j in self.in_state("running") if self.jobs[j].cancel]))
        self.queues[side].mark_cancelled(job_id)
        self.finish(self.jobs[job_id], "cancelled")

    @rule(seconds=st.sampled_from([0.5, 15.0, 40.0]))
    def wait(self, seconds: float) -> None:
        self.tick(seconds)

    @rule(side=st.integers(0, 1))
    def recover(self, side: int) -> None:
        # every lease goes stale: its worker is lost, or a zombie
        self.tick(RECOVERY.lease_ttl + 1.0)
        running = self.in_state("running")
        assert sorted(self.queues[side].recover(RECOVERY)) == running
        for job_id in running:
            self.zombies.add(job_id)
            self.requeue(job_id, 0.0)

    @precondition(lambda self: self.zombies)
    @rule(data=st.data(), side=st.integers(0, 1),
          report=st.sampled_from(["complete", "fail", "retry"]))
    def zombie_reports(self, data, side: int, report: str) -> None:
        self.tick()
        job_id = data.draw(st.sampled_from(sorted(self.zombies)))
        self.zombies.discard(job_id)
        queue, job = self.queues[side], self.jobs[job_id]
        if report == "complete":
            queue.complete(job_id, result={"ok": "late"})
            self.finish(job, "done")
        elif report == "fail":
            queue.fail(job_id, "zombie boom")
            self.finish(job, "failed")
        else:
            queue.retry_or_fail(job_id, "zombie boom", RECOVERY)
            self.requeue(job_id, 0.0)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def records_hold_the_model_state(self) -> None:
        for job_id, job in self.jobs.items():
            assert self.queues[0].record(job_id)["state"] == job.state, job_id

    @invariant()
    def every_live_job_owns_one_token_or_lease(self) -> None:
        root = self.queues[0].root
        tokens: Dict[str, List[str]] = {}
        for name in (root / "pending").iterdir():
            tokens.setdefault(name.name.partition("-")[2], []).append(
                name.name)
        leases = {path.name for path in (root / "leases").iterdir()}
        for job_id, job in self.jobs.items():
            if job.state == "queued":
                expected = [f"p{job.token_rank}.{job.micros:020d}-{job_id}"]
                assert tokens.get(job_id) == expected, job_id
                assert job_id not in leases, job_id
            else:
                assert job_id not in tokens, job_id
                assert (job_id in leases) == (job.state == "running"), job_id

    @invariant()
    def depth_matches_the_model(self) -> None:
        pending = len(self.in_state("queued"))
        leased = len(self.in_state("running"))
        for queue in self.queues:
            assert queue.depth() == {
                "pending": pending, "leased": leased,
                "active": pending + leased,
            }


class AgingQueueMachine(QueueMachine):
    AGING = 10.0


SETTINGS = settings(max_examples=30, stateful_step_count=40, deadline=None)
TestQueueModel = QueueMachine.TestCase
TestQueueModel.settings = SETTINGS
TestAgingQueueModel = AgingQueueMachine.TestCase
TestAgingQueueModel.settings = SETTINGS
