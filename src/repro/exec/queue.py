"""Durable, lease-based job queue spooled on disk.

The queue is a directory any number of worker processes (and one
supervisor) share, sitting next to the content-addressed artifact store
that makes any worker able to serve any job.  Everything is plain files
with atomic-rename coordination — no daemons, no sockets, no locks held
across processes:

* ``jobs/<job_id>.json`` — the job record: request payload, state,
  attempts, timestamps, error history, and (when done) the result
  payloads.  Records are written atomically (temp file + ``os.replace``)
  so readers never see a half-written record.
* ``pending/p<rank>.<stamp>-<job_id>`` — claim tokens.  The ``p<rank>.``
  prefix is the job's priority class (``p0`` urgent … ``p3``
  background), the stamp its submit time, so a ``(rank, stamp)`` scan
  is strict-priority FIFO; within one rank, claim order is fair-shared
  by the ledger (see :meth:`JobQueue.claim`) and a starved token ages
  *up* a rank by rename (:meth:`JobQueue.promote_starved`).  Claiming
  is one atomic ``os.rename`` of the token into ``leases/<job_id>``:
  exactly one worker wins, losers get ``FileNotFoundError`` and move
  on.  Every active job owns exactly one of {pending token, lease},
  which is the queue-depth invariant backpressure counts.  Tokens from
  pre-priority spools (no prefix) still parse and claim as interactive.
* ``leases/<job_id>`` — the winner's lease, doubling as its heartbeat:
  the worker rewrites it every ``heartbeat_interval``; a lease whose
  embedded timestamp goes stale past ``lease_ttl`` marks a lost worker,
  and :meth:`JobQueue.recover` requeues the job with ``attempts``
  incremented (or fails it permanently past ``max_attempts``).
* ``cancel/<job_id>`` — cancellation markers, the only record of a
  cancel request: checked by workers at stage boundaries (one ``stat``
  per boundary) and listed once per claim.

Each :class:`JobQueue` keeps an in-memory **claim index** over
``pending/``: per token name, the parsed ``(rank, stamp, job_id)`` and,
once read, the job's client, ``not_before`` and admitted rank.  A token
name is minted once (its stamp is the mint time in microseconds) and a
record's ``not_before`` only changes when a requeue mints a new name,
so what the index read stays current for as long as the name is listed.
A claim therefore lists ``pending/`` as plain names and reads a job
record only the first time it sees a token, plus the winner's record
once; draining N jobs reads O(N) records, not O(N²).  The directory
stays the only shared state: an index is a per-process cache that
starts empty and is rebuilt from the listing.

Delivery is **at-least-once**: a worker that loses its lease to a stale
heartbeat may still be running (the zombie case fault injection
exercises via ``heartbeat_loss``), so two workers can run the same job.
Both coordinate results through the artifact store's atomic
content-addressed writes; job-record updates are last-writer-wins with
one guard — a terminal record is never downgraded back to a live state,
so a completed job stays completed whatever a lagging writer thinks.
Only the call that moves a record to ``queued`` mints its token, and a
zombie's terminal write to a requeued record removes that token, so the
token/lease invariant holds through the zombie case too.

:class:`MemoryQueue` is the same worker-facing surface over records
held in memory, for in-process jobs: the same record builder and the
same state rules (:class:`_QueueRules`), claimed strict-priority then
FIFO, with no fair share, no aging and no durability.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.api.errors import ValidationError
from repro.exec.policy import RetryPolicy
from repro.sched.policy import (
    AGING_FLOOR,
    PRIORITY_CLASSES,
    FairShareLedger,
    SchedulerConfig,
    class_of_rank,
    class_rank,
    summarize_class_stats,
    zeroed_class_stats,
)
from repro.storage.artifacts import write_text_atomic

#: bump when the record schema changes incompatibly
QUEUE_VERSION = 1

#: record states, mirroring the API's JOB_STATES
TERMINAL_STATES = ("done", "failed", "cancelled")

#: the rank prefix-less tokens (pre-priority spools) claim under
_LEGACY_RANK = class_rank("interactive")


def _parse_token(name: str) -> Optional[Tuple[Optional[int], float, str]]:
    """``(rank, stamp, job_id)`` of a pending token name, or None.

    ``rank`` is None for pre-priority tokens (``<stamp>-<job_id>``) and
    for unparseable prefixes — callers decide the fallback rank.
    """
    head, sep, job_id = name.partition("-")
    if not sep or not job_id:
        return None
    rank: Optional[int] = None
    digits = head
    if head.startswith("p") and "." in head:
        prefix, _, digits = head.partition(".")
        try:
            rank = int(prefix[1:])
        except ValueError:
            rank = None
    try:
        stamp = int(digits) / 1e6
    except ValueError:
        stamp = 0.0
    return rank, stamp, job_id


class _Token:
    """One pending token as a claim index knows it: its name, parsed,
    and ``facts`` — ``(client_id, not_before, admitted rank)`` from the
    job record, or None until a claim or aging pass has read it."""

    __slots__ = ("name", "rank", "stamp", "job_id", "facts")

    def __init__(self, name: str, rank: int, stamp: float, job_id: str) -> None:
        self.name = name
        self.rank = rank
        self.stamp = stamp
        self.job_id = job_id
        self.facts: Optional[Tuple[str, float, int]] = None


class QueueError(Exception):
    """Raised for unusable spool directories or malformed records."""


def _now() -> float:
    return time.time()


def _write_json_atomic(path: Path, payload: Dict[str, object]) -> None:
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


def _read_json(path: Path) -> Optional[Dict[str, object]]:
    """Best-effort read: None for missing, torn, undecodable, or
    non-object payloads."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _new_record(
    sched: SchedulerConfig,
    kind: str,
    request: object,
    total: int,
    max_attempts: int,
    client_id: str,
    request_id: str,
    priority: str,
) -> Dict[str, object]:
    """A fresh ``queued`` job record, the one both queues build.

    ``priority`` is the admitted class name ("" = the kind's default
    from scheduler config).  Job ids reuse the API scheme: an
    unguessable uuid4 suffix is the only access control on job records
    over ``/v1/jobs``.
    """
    now = _now()
    cls = priority or sched.class_for_kind(kind)
    class_rank(cls)  # rejects unknown class names
    return {
        "version": QUEUE_VERSION,
        "job_id": f"job-{int(now * 1e3) % 10000:04d}-{uuid.uuid4().hex}",
        "kind": kind,
        "request": request,
        "state": "queued",
        "total": total,
        "completed": 0,
        "stage": "",
        "attempts": 0,
        "max_attempts": max_attempts,
        "not_before": 0.0,
        "submitted_at": now,
        "started_at": None,
        "finished_at": None,
        "owner": None,
        "error": "",
        "error_history": [],
        "result": None,
        "results": None,
        "report": None,
        # middleware correlation: the submitting client and the HTTP
        # request id its access-log line carries ("" outside HTTP)
        "client_id": client_id,
        "request_id": request_id,
        # the admitted priority class (the token prefix's source of
        # truth: retries and recovery re-token at this class)
        "priority": cls,
    }


def _claimed(record: Dict[str, object], owner: str) -> None:
    """A won claim: ``running`` under ``owner``, one more attempt (the
    attempt counter counts claims, so a worker that dies before its
    first record write still gets charged by recovery)."""
    record["state"] = "running"
    record["attempts"] = int(record.get("attempts") or 0) + 1
    record["owner"] = owner
    record["started_at"] = record.get("started_at") or _now()
    record["stage"] = ""


class _QueueRules:
    """What each verb does to a job record, shared by both queues.

    A subclass holds the records, pending tokens, leases and cancel
    markers: :meth:`record` and :meth:`_store` read and publish one
    record, :meth:`_make_token` / :meth:`_drop_token` mint and remove a
    job's pending token, :meth:`_mark_cancel` / :meth:`_release` set and
    drop its cancel marker and lease, :meth:`_lease_stamps` lists the
    leases with their heartbeat stamps and :meth:`_drop_lease` takes one
    away.
    """

    sched: SchedulerConfig

    #: held across one record's read-modify-write and the releases that
    #: settle it (the spool's files need no lock: writes are atomic)
    _guard = contextlib.nullcontext()

    def __init__(self) -> None:
        #: per thread: whether its last complete() was the job's first
        self._completion = threading.local()

    # -- worker side ---------------------------------------------------------

    def update_progress(
        self, job_id: str, completed: int, stage: str = ""
    ) -> None:
        def _progress(rec: Dict[str, object]) -> None:
            if rec.get("state") in TERMINAL_STATES:
                return
            rec["completed"] = completed
            if stage:
                rec["stage"] = stage
        self._update(job_id, _progress)

    def complete(
        self,
        job_id: str,
        result: Optional[Dict[str, object]] = None,
        results: Optional[Sequence[Dict[str, object]]] = None,
        report: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Record success.  A real result always wins: ``done`` may
        overwrite a recovery-written ``failed``/retrying state (the
        zombie-worker convergence case), never the other way around.
        The first completion also charges the job's wall-clock runtime
        to its client in the fair-share ledger; whether this call was
        the first, decided inside its one read-modify-write, is what
        :meth:`first_completion` reports to the calling thread."""
        def _done(rec: Dict[str, object]) -> None:
            rec["state"] = "done"
            rec["result"] = result
            if results is not None:
                rec["results"] = list(results)
                rec["completed"] = len(results)
            elif result is not None:
                rec["completed"] = 1
            else:
                rec["completed"] = rec.get("total", 0)
            rec["report"] = report
            rec["error"] = ""
            rec["finished_at"] = _now()
        record, prior = self._settle(job_id, _done, allow_terminal=True)
        first = self._completion.first = prior != "done"
        started = record.get("started_at")
        finished = record.get("finished_at")
        if first and started and finished and float(finished) > float(started):
            self._charge(
                str(record.get("client_id") or ""),
                float(finished) - float(started),
                float(finished),
            )
        return record

    def first_completion(self) -> bool:
        """Whether the calling thread's last :meth:`complete` moved its
        job to ``done`` (a zombie's duplicate completion does not)."""
        return getattr(self._completion, "first", False)

    def fail(self, job_id: str, error: str) -> Dict[str, object]:
        """Record a permanent failure (root cause preserved)."""
        def _failed(rec: Dict[str, object]) -> None:
            if rec.get("state") == "done":
                return  # a completed result is never demoted
            rec["state"] = "failed"
            rec["error"] = error
            history = list(rec.get("error_history") or [])
            history.append(f"attempt {rec.get('attempts')}: {error}")
            rec["error_history"] = history
            rec["finished_at"] = _now()
        return self._settle(job_id, _failed, allow_terminal=True)[0]

    def mark_cancelled(self, job_id: str) -> Dict[str, object]:
        return self._settle(job_id, self._cancelled)[0]

    def retry_or_fail(
        self, job_id: str, error: str, policy: RetryPolicy
    ) -> Dict[str, object]:
        """A failed attempt: requeue under backoff, or fail permanently.

        The attempt that just failed is ``record["attempts"]`` (claims
        are counted up front).  Under ``max_attempts`` the job re-enters
        the pending queue with ``not_before`` pushed out by the policy's
        capped, jittered exponential backoff; at the cap it fails with
        the full error history and the *last* root cause in ``error``.
        A record some other call already requeued (lease recovery racing
        a worker that is still running) keeps its token and
        ``not_before``: only the error joins its history.  A job allowed
        one attempt fails with the error as given.
        """
        record = self.record(job_id)
        if record is None:
            raise QueueError(f"unknown job {job_id!r}")
        attempts = int(record.get("attempts") or 0)
        max_attempts = int(record.get("max_attempts") or 1)
        if attempts >= max_attempts:
            if max_attempts > 1:
                error = (
                    f"{error} (failed permanently after {attempts} "
                    f"attempt(s))"
                )
            return self.fail(job_id, error)
        delay = policy.backoff(job_id, attempts)
        def _requeue(rec: Dict[str, object]) -> None:
            history = list(rec.get("error_history") or [])
            history.append(f"attempt {attempts}: {error}")
            rec["error_history"] = history
            rec["error"] = error
            if rec.get("state") == "queued":
                return
            rec["state"] = "queued"
            rec["owner"] = None
            rec["not_before"] = _now() + delay
        record, prior = self._update(job_id, _requeue)
        if prior == "queued":
            return record  # its token, and any lease a claim is taking, stand
        self._release(job_id, keep_cancel=True)
        if record.get("state") == "queued":
            # re-token at the *admitted* class: an aging promotion does
            # not survive a failed attempt (the job re-earns it)
            self._make_token(job_id, _now(), self._rank_of_record(record))
        return record

    # -- control side --------------------------------------------------------

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Request cancellation: queued jobs stop now, running ones at
        their next stage boundary (workers poll the marker).

        The marker is the only record of the request: a claimed job's
        record is left untouched, so this never races the claimer's
        read-modify-write of it.
        """
        record = self.record(job_id)
        if record is None:
            raise QueueError(f"unknown job {job_id!r}")
        if record.get("state") in TERMINAL_STATES:
            return record
        self._mark_cancel(job_id)
        if self._drop_token(job_id):
            return self.mark_cancelled(job_id)
        return self.record(job_id) or record  # claimed in the meantime

    def lease_owners(self) -> Dict[str, str]:
        """Current lease holders: ``{job_id: owner}``.

        The cluster coordinator recovers a dead *node* by matching
        owners on the node's ``<node_id>:`` prefix — the fleet-level
        analogue of the supervisor naming its reaped workers' uids.
        """
        return {
            job_id: owner
            for job_id, owner, _stamp in self._lease_stamps() if owner
        }

    def recover(
        self,
        policy: RetryPolicy,
        dead_owners: Sequence[str] = (),
        now: Optional[float] = None,
    ) -> List[str]:
        """Requeue (or permanently fail) jobs whose lease is lost.

        A lease is lost when its heartbeat timestamp is older than
        ``lease_ttl``, or when its owner is known-dead (the supervisor
        passes the worker ids of slots it just reaped, which makes
        crash recovery immediate instead of waiting out the TTL).
        """
        now = _now() if now is None else now
        recovered: List[str] = []
        dead = set(dead_owners)
        for job_id, owner, stamp in self._lease_stamps():
            lost = owner in dead or (now - stamp) > policy.lease_ttl
            if not lost:
                continue
            if not self._drop_lease(job_id):
                continue  # the worker finished in the window; nothing to do
            record = self.record(job_id)
            if record is None or record.get("state") in TERMINAL_STATES:
                continue
            self.retry_or_fail(
                job_id,
                f"worker {owner or 'unknown'} lost its lease "
                f"(crash or missed heartbeats)",
                policy,
            )
            recovered.append(job_id)
        return recovered

    # -- introspection -------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """Every readable record, oldest submission first."""
        out = list(self._iter_records())
        out.sort(key=lambda rec: float(rec.get("submitted_at") or 0.0))
        return out

    def sched_stats(self, now: Optional[float] = None) -> Dict[str, object]:
        """Per-class depth and queue-wait stats (parses every record,
        one at a time and in directory order, since nothing here depends
        on order).

        Waits count time from submit to first claim: finished and
        running jobs contribute their realized wait, still-queued jobs
        their live wait so starvation is visible while it happens.
        """
        return self.census(now)[1]

    def census(
        self, now: Optional[float] = None
    ) -> Tuple[Dict[str, int], Dict[str, object]]:
        """One pass over every record: how many jobs are in each state,
        and :meth:`sched_stats` (``/v1/health`` reports both)."""
        now = _now() if now is None else now
        states: Dict[str, int] = {}
        per: Dict[str, Dict[str, object]] = zeroed_class_stats()
        for record in self._iter_records():
            cls = str(record.get("priority") or "")
            if cls not in per:
                cls = self.sched.class_for_kind(str(record.get("kind") or ""))
            if cls not in per:
                cls = "batch"
            row = per[cls]
            state = record.get("state")
            states[state] = states.get(state, 0) + 1
            submitted = float(record.get("submitted_at") or 0.0)
            started = record.get("started_at")
            if state == "queued":
                row["pending"] += 1
                row["waits"].append(max(0.0, now - submitted))
            elif state == "running":
                row["running"] += 1
            if started:
                row["waits"].append(max(0.0, float(started) - submitted))
        return states, {
            "classes": summarize_class_stats(per),
            "promotions": self.promotions(),
        }

    # -- internals -----------------------------------------------------------

    def _rank_of_record(self, record: Dict[str, object]) -> int:
        """The claim rank of a record's admitted class (tolerant of
        records from pre-priority spools, which fall back to the kind's
        default class)."""
        try:
            return class_rank(str(record.get("priority") or ""))
        except ValidationError:
            return class_rank(
                self.sched.class_for_kind(str(record.get("kind") or ""))
            )

    def _update(
        self,
        job_id: str,
        mutate: Callable[[Dict[str, object]], None],
        allow_terminal: bool = False,
    ) -> Tuple[Dict[str, object], object]:
        """Read-modify-write one record (atomic publish, terminal guard);
        returns the record and the state it had before.

        Concurrent updates are last-writer-wins, but a record already in
        a terminal state is returned unchanged unless ``allow_terminal``
        (complete/fail pass it; their mutators enforce the finer rule
        that ``done`` is never demoted).
        """
        with self._guard:
            record = self.record(job_id)
            if record is None:
                raise QueueError(f"unknown job {job_id!r}")
            prior = record.get("state")
            if prior in TERMINAL_STATES and not allow_terminal:
                return record, prior
            mutate(record)
            self._store(job_id, record)
        return record, prior

    def _settle(
        self,
        job_id: str,
        mutate: Callable[[Dict[str, object]], None],
        allow_terminal: bool = False,
    ) -> Tuple[Dict[str, object], object]:
        """Finish a job in one read-modify-write, then drop what it
        holds: its lease, its cancel marker and, when the record was
        ``queued`` (a recovery requeued it under a worker that was
        still running), the token that requeue minted."""
        with self._guard:
            record, prior = self._update(job_id, mutate, allow_terminal)
            if prior == "queued":
                # a claim that took the token meanwhile finds the record
                # terminal and gives its lease back
                self._drop_token(job_id)
            self._release(job_id)
        return record, prior

    @staticmethod
    def _cancelled(rec: Dict[str, object]) -> None:
        rec["state"] = "cancelled"
        rec["finished_at"] = _now()


class JobQueue(_QueueRules):
    """One spool directory's worth of durable jobs."""

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__()
        self.root = Path(root)
        try:
            for sub in ("jobs", "pending", "leases", "cancel", "promoted"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise QueueError(f"cannot create spool at {root}: {exc}") from exc
        self._jobs = self.root / "jobs"
        self._pending = self.root / "pending"
        self._leases = self.root / "leases"
        self._cancel = self.root / "cancel"
        self._promoted = self.root / "promoted"
        self._evicted_file = self.root / "evicted.count"
        self._promotions_file = self.root / "promotions.count"
        self._sched_file = self.root / "sched.json"
        # Scheduler policy is part of the spool, not the process: every
        # JobQueue over one spool (manager, supervisor, each worker
        # process) reads the same sched.json, so claim-side fairness and
        # aging agree fleet-wide.  Absent file = permissive defaults.
        self.sched = self._load_sched()
        self.ledger = self._make_ledger()
        #: the claim index: listed pending token name -> what it knows.
        #: The coordinator claims from one thread per agent connection,
        #: so claims and aging passes hold the lock throughout.
        self._index: Dict[str, _Token] = {}
        self._index_lock = threading.Lock()

    def configure(self, config: SchedulerConfig) -> None:
        """Persist scheduler policy into the spool (read by every
        process that opens this queue after the atomic write lands)."""
        _write_json_atomic(self._sched_file, config.to_payload())
        self.sched = config
        self.ledger = self._make_ledger()
        with self._index_lock:
            # a pre-priority record's admitted class follows the policy
            self._index = {}

    def _load_sched(self) -> SchedulerConfig:
        payload = _read_json(self._sched_file)
        if payload is None:
            return SchedulerConfig()
        try:
            return SchedulerConfig.from_payload(payload)
        except ValidationError as exc:
            raise QueueError(
                f"invalid scheduler config in {self._sched_file}: {exc}"
            ) from exc

    def _make_ledger(self) -> FairShareLedger:
        return FairShareLedger(
            self.root / "ledger",
            weights=self.sched.fair_share_weights,
            halflife=self.sched.fair_share_halflife,
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        request_payload: Dict[str, object],
        total: int,
        max_attempts: int,
        client_id: str = "",
        request_id: str = "",
        priority: str = "",
    ) -> Dict[str, object]:
        """Persist a new job record and its pending token; returns the record.

        ``priority`` is the admitted class name ("" = the kind's default
        from scheduler config); it is stamped into the record *and*
        encoded into the token name, which is what makes claim order
        priority-aware.
        """
        record = _new_record(
            self.sched, kind, request_payload, total, max_attempts,
            client_id, request_id, priority,
        )
        job_id = str(record["job_id"])
        _write_json_atomic(self._record_path(job_id), record)
        self._make_token(
            job_id, float(record["submitted_at"]), self._rank_of_record(record)
        )
        return record

    # -- worker side ---------------------------------------------------------

    def claim(
        self, owner: str, now: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Atomically claim the best runnable pending job, if any.

        Claim order is **strict priority** across classes (a pending
        ``p0`` token always beats a ``p3``), and **deficit-round-robin
        fair share** within a class: runnable candidates of the best
        non-empty rank are ordered by their client's decayed fair-share
        usage (completed runtimes over weight), FIFO stamp breaking
        ties — so anonymous/same-usage clients preserve the old pure
        FIFO order exactly.  Starved tokens are aged up a class first
        (:meth:`promote_starved`).

        Jobs still inside their retry backoff (``not_before`` in the
        future) are skipped, cancellation requests observed while queued
        finalize immediately, and losing a rename race just moves on.
        On a win the record flips to ``running`` with ``attempts``
        incremented — the attempt counter counts claims, so a worker
        that dies before its first record write still gets charged by
        recovery.  ``now`` is injectable for deterministic tests.

        What a claim reads: one listing of ``pending/`` and one of
        ``cancel/``, the ledger usage of each runnable client in the
        ranks it walks, and a job record only for a token this index has
        not seen yet or whose job has a cancel marker — rank by rank, so
        orphan and terminal tokens are cleaned up in the ranks walked —
        plus the winner's record once.  A winner whose record turns out
        missing or terminal gives its lease back and the next candidate
        is tried.
        """
        now = _now() if now is None else now
        with self._index_lock:
            self._refresh_index()
            if self.sched.aging_wait is not None:
                self._promote(now, self.sched.aging_wait)
            by_rank: Dict[int, List[_Token]] = {}
            for token in self._index.values():
                by_rank.setdefault(token.rank, []).append(token)
            # the cancel markers, listed once: a stat per candidate would
            # cost nearly as much as reading its record
            cancelled = set(os.listdir(self._cancel))
            usages: Dict[str, float] = {}
            for rank in sorted(by_rank):
                runnable: List[Tuple[float, float, str, _Token]] = []
                for token in by_rank[rank]:
                    facts = token.facts
                    if facts is None or token.job_id in cancelled:
                        facts = self._sight(token, token.job_id in cancelled)
                        if facts is None:
                            continue
                    client, not_before, _origin = facts
                    if not_before > now:
                        continue
                    usage = usages.get(client)
                    if usage is None:
                        usage = usages[client] = self.ledger.usage(client, now)
                    runnable.append((usage, token.stamp, token.name, token))
                # a heap, not a sort: the first candidate nearly always wins
                heapq.heapify(runnable)
                while runnable:
                    record = self._take(heapq.heappop(runnable)[3], owner)
                    if record is not None:
                        return record
        return None

    def _refresh_index(self) -> None:
        """Re-list ``pending/``: keep what the index knows of names still
        listed, parse new names (their records are read later, by the
        rank walk), and forget names no longer listed."""
        known = self._index
        index: Dict[str, _Token] = {}
        for name in os.listdir(self._pending):
            token = known.get(name)
            if token is None:
                parsed = _parse_token(name)
                if parsed is None:
                    continue
                rank, stamp, job_id = parsed
                token = _Token(
                    name, _LEGACY_RANK if rank is None else rank, stamp, job_id
                )
            index[name] = token
        self._index = index

    def _sight(
        self, token: _Token, cancelled: bool
    ) -> Optional[Tuple[str, float, int]]:
        """Read a token's job record and learn its facts, or drop the
        token (orphan or terminal record; a cancelled job is finalized).
        Returns the facts of a token that is still a claim candidate."""
        token.facts = self._facts(self.record(token.job_id))
        if token.facts is None:
            self._drop_pending(token)
        elif cancelled:
            if self._drop_pending(token):
                self._settle(token.job_id, self._cancelled)
            return None
        return token.facts

    def _facts(
        self, record: Optional[Dict[str, object]]
    ) -> Optional[Tuple[str, float, int]]:
        """What the claim index keeps of a live record: client,
        ``not_before`` and admitted rank (None: missing or terminal)."""
        if record is None or record.get("state") in TERMINAL_STATES:
            return None
        return (
            str(record.get("client_id") or ""),
            float(record.get("not_before") or 0.0),
            self._rank_of_record(record),
        )

    def _drop_pending(self, token: _Token) -> bool:
        """Unlink a listed token; False when a peer got to it first."""
        self._index.pop(token.name, None)
        try:
            os.unlink(self._pending / token.name)
        except OSError:
            return False
        return True

    def _take(self, token: _Token, owner: str) -> Optional[Dict[str, object]]:
        """Rename a token into ``owner``'s lease and mark the job
        running, from one read of its record; None when the rename race
        is lost or the record is gone or terminal."""
        self._index.pop(token.name, None)
        job_id = token.job_id
        lease = self._leases / job_id
        try:
            os.rename(self._pending / token.name, lease)
        except OSError:
            return None  # lost the race
        record = self.record(job_id)
        if record is None or record.get("state") in TERMINAL_STATES:
            try:
                lease.unlink()
            except OSError:
                pass
            return None
        self.heartbeat(job_id, owner, "claimed")
        _claimed(record, owner)
        _write_json_atomic(self._record_path(job_id), record)
        return record

    def promote_starved(self, now: Optional[float] = None) -> int:
        """Age starved pending tokens up a class; returns promotions made.

        A token whose stamp is ``aging_wait`` old is promoted one class
        per elapsed wait, monotonically, measured from the job's
        *admitted* class — capped at :data:`AGING_FLOOR` (interactive),
        never into the admin-only urgent lane.  Promotion is a bare
        token rename (same stamp, lower rank prefix): losing the rename
        race to a claim or a peer's promotion sweep is benign.  Each win
        drops an O_EXCL marker under ``promoted/``, the durable source
        of the ``sched_promotions_total`` counter.  The admitted class
        comes from the claim index, so only a token not seen before
        costs a record read.
        """
        wait = self.sched.aging_wait
        if wait is None:
            return 0
        now = _now() if now is None else now
        with self._index_lock:
            self._refresh_index()
            return self._promote(now, wait)

    def _promote(self, now: float, wait: float) -> int:
        floor = class_rank(AGING_FLOOR)
        promoted = 0
        for token in list(self._index.values()):
            rank = token.rank
            if rank <= floor:
                continue
            age = now - token.stamp
            if age < wait:
                continue
            if token.facts is not None:
                origin = token.facts[2]
            else:
                record = self.record(token.job_id)
                token.facts = self._facts(record)
                origin = self._rank_of_record(record) if record else rank
            new_rank = max(floor, origin - int(age // wait))
            if new_rank >= rank:
                continue
            micros = int(token.stamp * 1e6)
            new_name = f"p{new_rank}.{micros:020d}-{token.job_id}"
            try:
                os.rename(self._pending / token.name, self._pending / new_name)
            except OSError:
                continue  # claimed, cancelled, or promoted by a peer
            del self._index[token.name]
            # what a parse of the new name gives, as a peer would see it
            token.name, token.rank, token.stamp = new_name, new_rank, micros / 1e6
            self._index[new_name] = token
            self._note_promotion(token.job_id, new_rank)
            promoted += 1
        return promoted

    def heartbeat(self, job_id: str, owner: str, stage: str = "") -> None:
        """Refresh the lease (atomic rewrite; stale mtime = lost worker)."""
        lease = self._leases / job_id
        if not lease.exists():
            return  # lease was recovered away; the zombie keeps running
        _write_json_atomic(
            lease, {"owner": owner, "stage": stage, "ts": _now()}
        )

    # -- control side --------------------------------------------------------

    def cancel_requested(self, job_id: str) -> bool:
        return (self._cancel / job_id).exists()

    def evict_finished(self, cap: int) -> int:
        """Drop the oldest terminal records past ``cap``; returns total
        evictions ever (the counter survives restarts).

        Only each terminal record's submission stamp and id are kept, so
        the pass holds one parsed record (and its result payload) at a
        time rather than the whole spool's."""
        terminal = []
        for record in self._iter_records():
            if record.get("state") in TERMINAL_STATES:
                terminal.append(
                    (float(record.get("submitted_at") or 0.0),
                     str(record["job_id"]))
                )
        terminal.sort(key=lambda entry: entry[0])
        evicted = self.evicted()
        folded = 0
        for _stamp, job_id in terminal[: max(0, len(terminal) - cap)]:
            try:
                self._record_path(job_id).unlink()
            except OSError:
                continue
            try:
                (self._cancel / job_id).unlink()
            except OSError:
                pass
            # fold the job's promotion markers into the durable base so
            # sched_promotions_total stays monotonic across eviction
            for marker in self._promoted.glob(f"{job_id}.p*"):
                try:
                    marker.unlink()
                except OSError:
                    continue
                folded += 1
            evicted += 1
        _write_json_atomic(self._evicted_file, {"evicted": evicted})
        if folded:
            base = self._promotions_base() + folded
            _write_json_atomic(self._promotions_file, {"promoted": base})
        return evicted

    def run_dry(self, timeout: float) -> bool:
        """True at once: a spool outlives the fleet serving it, so a
        drain leaves its pending jobs for the next fleet."""
        return True

    def evicted(self) -> int:
        payload = _read_json(self._evicted_file) or {}
        try:
            return int(payload.get("evicted") or 0)
        except (TypeError, ValueError):
            return 0

    # -- introspection -------------------------------------------------------

    def record(self, job_id: str) -> Optional[Dict[str, object]]:
        record = _read_json(self._record_path(job_id))
        if record is None or record.get("version") != QUEUE_VERSION:
            return None
        return record

    def _iter_records(self) -> Iterator[Dict[str, object]]:
        """Every readable record, in directory order, one at a time."""
        for path in self._jobs.glob("*.json"):
            record = _read_json(path)
            if record is not None and record.get("version") == QUEUE_VERSION:
                yield record

    def live_records(self) -> Iterator[Dict[str, object]]:
        """The records of jobs holding a pending token or a lease, read
        one at a time: what admission counts, without parsing a single
        finished record."""
        for job_id in self._live_ids():
            record = self.record(job_id)
            if record is not None:
                yield record

    def finished_records(self, limit: int) -> List[Dict[str, object]]:
        """Up to ``limit`` finished records, the last written first.

        The names in ``pending/`` and ``leases/`` rule out the live
        jobs and the job directory's mtimes pick the newest of the rest,
        so at most ``limit`` records are parsed."""
        live = self._live_ids()
        stamped = []
        for entry in os.scandir(self._jobs):
            job_id, dot, ext = entry.name.rpartition(".")
            if ext != "json" or not dot or job_id in live:
                continue  # an atomic write's temp file, or a live job
            try:
                stamped.append((entry.stat().st_mtime, job_id))
            except OSError:
                continue
        out = []
        for _mtime, job_id in heapq.nlargest(limit, stamped):
            record = self.record(job_id)
            if record is not None and record.get("state") in TERMINAL_STATES:
                out.append(record)
        return out

    def _live_ids(self) -> Set[str]:
        """Job ids holding a pending token or a lease (names only)."""
        live = set(os.listdir(self._leases))
        for name in os.listdir(self._pending):
            parsed = _parse_token(name)
            if parsed is not None:
                live.add(parsed[2])
        return live

    def depth(self) -> Dict[str, int]:
        """Active-job counts from the token/lease invariant (no record
        parsing — this is the hot path behind every health poll)."""
        pending = sum(1 for _ in self._pending.iterdir())
        leased = sum(1 for _ in self._leases.iterdir())
        return {"pending": pending, "leased": leased, "active": pending + leased}

    def pending_by_class(self) -> Dict[str, int]:
        """Pending-token counts per priority class (token names only —
        cheap enough for every autoscaler tick and metrics render)."""
        counts = {name: 0 for name in PRIORITY_CLASSES}
        for token in self._pending.iterdir():
            parsed = _parse_token(token.name)
            if parsed is None:
                continue
            rank = parsed[0]
            if rank is None:
                rank = _LEGACY_RANK
            try:
                counts[class_of_rank(rank)] += 1
            except ValidationError:
                counts["batch"] += 1
        return counts

    def promotions(self) -> int:
        """Total aging promotions ever (survives restarts and eviction:
        durable base counter + live per-job markers)."""
        return self._promotions_base() + sum(
            1 for _ in self._promoted.iterdir()
        )

    # -- internals -----------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self._jobs / f"{job_id}.json"

    def _make_token(self, job_id: str, stamp: float, rank: int) -> None:
        token = self._pending / f"p{rank}.{int(stamp * 1e6):020d}-{job_id}"
        token.touch()

    def _note_promotion(self, job_id: str, rank: int) -> None:
        """Drop the O_EXCL promotion marker (idempotent per job+rank:
        concurrent sweeps that both win distinct renames of one token
        cannot double-count one promotion level)."""
        marker = self._promoted / f"{job_id}.p{rank}"
        try:
            fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return
        os.close(fd)

    def _promotions_base(self) -> int:
        payload = _read_json(self._promotions_file) or {}
        try:
            return int(payload.get("promoted") or 0)
        except (TypeError, ValueError):
            return 0

    # -- storage -------------------------------------------------------------

    def _store(self, job_id: str, record: Dict[str, object]) -> None:
        _write_json_atomic(self._record_path(job_id), record)

    def _drop_token(self, job_id: str) -> bool:
        """Unlink the job's pending token; False when there was none or
        a claim or peer got to it first."""
        for token in self._pending.glob(f"*-{job_id}"):
            try:
                token.unlink()
            except OSError:
                return False
            return True
        return False

    def _mark_cancel(self, job_id: str) -> None:
        try:
            (self._cancel / job_id).touch()
        except OSError:
            pass

    def _release(self, job_id: str, keep_cancel: bool = False) -> None:
        """Drop the lease (and, for terminal jobs, the cancel marker)."""
        for path in ([self._leases / job_id] if keep_cancel else
                     [self._leases / job_id, self._cancel / job_id]):
            try:
                path.unlink()
            except OSError:
                pass

    def _lease_stamps(self) -> Iterator[Tuple[str, str, float]]:
        """``(job_id, owner, heartbeat stamp)`` per lease file, in name
        order; a lease without a readable stamp falls back to its mtime."""
        for lease in sorted(self._leases.iterdir()):
            beat = _read_json(lease) or {}
            ts = beat.get("ts")
            try:
                stamp = float(ts) if ts is not None else lease.stat().st_mtime
            except (OSError, TypeError, ValueError):
                stamp = 0.0
            yield lease.name, str(beat.get("owner") or ""), stamp

    def _drop_lease(self, job_id: str) -> bool:
        try:
            (self._leases / job_id).unlink()
        except OSError:
            return False
        return True

    def _charge(self, client_id: str, seconds: float, now: float) -> None:
        self.ledger.charge(client_id, seconds, now=now)


class MemoryQueue(_QueueRules):
    """:class:`JobQueue`'s worker-facing surface over records in memory.

    The queue of in-process jobs: thread slots claim from it, and the
    job runs through the service that submitted it, so a record keeps
    the request object as submitted and whatever the run returned (no
    payload codec), and a claimed record carries that ``service``.
    Claims are strict priority, then FIFO by mint order; there is no
    fair share, no aging and no durability.  One lock serialises every
    verb, :meth:`wait` parks an idle slot until a token is minted after
    its last claim, :meth:`run_dry` holds a drain until no job is left,
    and a job's record is evicted as it finishes once more than
    ``finished_cap`` finished records are held, oldest first.
    """

    def __init__(self, finished_cap: int = 256) -> None:
        super().__init__()
        self.sched = SchedulerConfig()
        self.finished_cap = finished_cap
        self._lock = self._guard = threading.RLock()
        #: tokens minted so far, and per slot thread the count its last
        #: claim saw: a wait after a mint the claim missed returns at once
        self._mint_no = 0
        self._seen = threading.local()
        self._minted = threading.Condition(self._lock)
        #: notified when the last token or lease goes (run_dry waits)
        self._dry = threading.Condition(self._lock)
        self._records: Dict[str, Dict[str, object]] = {}
        #: each live job's submitting service (dropped when it finishes)
        self._services: Dict[str, object] = {}
        #: pending tokens: a heap of (rank, mint number, job_id) and each
        #: job's live entry; a popped entry that is not live is skipped
        self._heap: List[Tuple[int, int, str]] = []
        self._tokens: Dict[str, Tuple[int, int, str]] = {}
        self._mints = itertools.count()
        #: job_id -> (owner, heartbeat stamp)
        self._leases: Dict[str, Tuple[str, float]] = {}
        self._cancel: Set[str] = set()
        self._finished: Deque[str] = deque()
        self._evicted = 0

    def configure(self, config: SchedulerConfig) -> None:
        self.sched = config

    def submit(
        self,
        kind: str,
        request: object,
        total: int,
        max_attempts: int,
        client_id: str = "",
        request_id: str = "",
        priority: str = "",
        service: object = None,
    ) -> Dict[str, object]:
        record = _new_record(
            self.sched, kind, request, total, max_attempts,
            client_id, request_id, priority,
        )
        job_id = str(record["job_id"])
        with self._lock:
            self._records[job_id] = record
            self._services[job_id] = service
            self._make_token(job_id, 0.0, self._rank_of_record(record))
            return dict(record)

    def claim(
        self, owner: str, now: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Claim the best runnable job: strict priority, then FIFO.

        Tokens inside their retry backoff stay queued, and a job with a
        cancel request finalizes here instead of running.  A token only
        ever names a live record: every verb that finishes a job drops
        its token under the same lock.
        """
        now = _now() if now is None else now
        waiting = []
        with self._lock:
            self._seen.mint_no = self._mint_no
            try:
                while self._heap:
                    entry = heapq.heappop(self._heap)
                    job_id = entry[2]
                    if self._tokens.get(job_id) is not entry:
                        continue  # dropped or minted again
                    record = self._records[job_id]
                    if job_id in self._cancel:
                        del self._tokens[job_id]
                        self._settle(job_id, self._cancelled)
                    elif float(record["not_before"]) > now:
                        waiting.append(entry)
                    else:
                        del self._tokens[job_id]
                        self._leases[job_id] = (owner, _now())
                        _claimed(record, owner)
                        claimed = dict(record)
                        claimed["service"] = self._services.get(job_id)
                        return claimed
            finally:
                for entry in waiting:
                    heapq.heappush(self._heap, entry)
        return None

    def wait(
        self, timeout: float, stop: Optional[threading.Event] = None
    ) -> None:
        """Park an idle slot until a token is minted after the calling
        thread's last :meth:`claim`, ``stop`` is set (see :meth:`wake`),
        or ``timeout`` ends."""
        with self._lock:
            seen = getattr(self._seen, "mint_no", -1)
            self._minted.wait_for(
                lambda: self._mint_no != seen
                or (stop is not None and stop.is_set()),
                timeout,
            )

    def wake(self) -> None:
        """Rouse every parked slot, so each rereads its ``stop`` event."""
        with self._lock:
            self._minted.notify_all()

    def run_dry(self, timeout: float) -> bool:
        """Wait until no job holds a token or a lease: nothing outlives
        the slots serving this queue, so a drain lets them finish every
        job first.  False when ``timeout`` ends with jobs left."""
        with self._lock:
            return self._dry.wait_for(
                lambda: not self._tokens and not self._leases, timeout
            )

    def heartbeat(self, job_id: str, owner: str, stage: str = "") -> None:
        with self._lock:
            if job_id in self._leases:
                self._leases[job_id] = (owner, _now())

    def cancel_requested(self, job_id: str) -> bool:
        return job_id in self._cancel

    def evict_finished(self, cap: int) -> int:
        """Drop the oldest finished records past ``cap``; returns total
        evictions."""
        with self._lock:
            while len(self._finished) > cap:
                job_id = self._finished.popleft()
                del self._records[job_id]
                self._cancel.discard(job_id)
                self._evicted += 1
            return self._evicted

    def evicted(self) -> int:
        return self._evicted

    def record(self, job_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            record = self._records.get(job_id)
            return dict(record) if record is not None else None

    def _iter_records(self) -> Iterator[Dict[str, object]]:
        with self._lock:
            return iter([dict(record) for record in self._records.values()])

    def live_records(self) -> List[Dict[str, object]]:
        """The records of jobs holding a pending token or a lease."""
        with self._lock:
            return [
                dict(self._records[job_id])
                for job_id in itertools.chain(self._tokens, self._leases)
            ]

    def finished_records(self, limit: int) -> List[Dict[str, object]]:
        """Up to ``limit`` finished records, the last to finish first."""
        with self._lock:
            return [
                dict(self._records[job_id])
                for job_id in itertools.islice(reversed(self._finished), limit)
            ]

    def depth(self) -> Dict[str, int]:
        with self._lock:
            pending, leased = len(self._tokens), len(self._leases)
        return {"pending": pending, "leased": leased, "active": pending + leased}

    def pending_by_class(self) -> Dict[str, int]:
        counts = {name: 0 for name in PRIORITY_CLASSES}
        with self._lock:
            for rank, _mint, _job_id in self._tokens.values():
                counts[class_of_rank(rank)] += 1
        return counts

    def promotions(self) -> int:
        return 0  # no aging

    # -- storage -------------------------------------------------------------

    def _store(self, job_id: str, record: Dict[str, object]) -> None:
        """Publish a copy (the caller keeps its own); a job that just
        finished lets go of its service and joins the retention queue."""
        finished = (
            record["state"] in TERMINAL_STATES
            and self._records[job_id]["state"] not in TERMINAL_STATES
        )
        self._records[job_id] = dict(record)
        if finished:
            self._services.pop(job_id, None)
            self._finished.append(job_id)
            self.evict_finished(self.finished_cap)

    def _make_token(self, job_id: str, stamp: float, rank: int) -> None:
        with self._lock:
            entry = (rank, next(self._mints), job_id)
            self._tokens[job_id] = entry
            heapq.heappush(self._heap, entry)
            self._mint_no += 1
            self._minted.notify()

    def _drop_token(self, job_id: str) -> bool:
        with self._lock:
            dropped = self._tokens.pop(job_id, None) is not None
            self._note_dry()
            return dropped

    def _mark_cancel(self, job_id: str) -> None:
        with self._lock:
            self._cancel.add(job_id)

    def _release(self, job_id: str, keep_cancel: bool = False) -> None:
        with self._lock:
            self._leases.pop(job_id, None)
            if not keep_cancel:
                self._cancel.discard(job_id)
            self._note_dry()

    def _lease_stamps(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            return sorted(
                (job_id, owner, stamp)
                for job_id, (owner, stamp) in self._leases.items()
            )

    def _drop_lease(self, job_id: str) -> bool:
        with self._lock:
            dropped = self._leases.pop(job_id, None) is not None
            self._note_dry()
            return dropped

    def _note_dry(self) -> None:
        if not self._tokens and not self._leases:
            self._dry.notify_all()

    def _charge(self, client_id: str, seconds: float, now: float) -> None:
        pass  # no fair share
