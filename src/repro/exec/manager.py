"""FleetJobManager: the one job manager behind ``BenchmarkService.submit``.

``submit`` / ``poll`` / ``cancel`` / ``jobs`` / ``queue_stats`` /
``drain`` / ``shutdown`` are what :class:`~repro.api.service.BenchmarkService`
and the HTTP layer call.  A :class:`~repro.exec.supervisor.Supervisor`
runs the slots that serve the queue, and the plane root picks both:

* with a plane root (``provmark serve --workers``/``--cluster``), every
  job persists into a durable :class:`~repro.exec.queue.JobQueue`
  spooled next to the plane's shared artifact store, and the slots are
  worker processes (plus, with a coordinator, remote agents);
* without one (``plane_root=None``: the manager a service builds on its
  first ``submit``, and plain ``provmark serve``), jobs queue in a
  :class:`~repro.exec.queue.MemoryQueue` and the slots are threads that
  run each job through the service that submitted it.  In-process jobs
  touch no disk, have no fair share, no aging and no durability, start
  as soon as they are queued, and get one attempt unless a policy says
  otherwise (retries recover from crashed processes and torn store
  writes, which an in-memory job cannot meet).  Nothing outlives the
  slots, so a drain runs the queue dry and cancels what its deadline
  leaves.

The plane root directory holds both halves::

    <plane>/store/   shared content-addressed artifact store
    <plane>/spool/   durable job queue (records, tokens, leases)

They are siblings, not nested: the store's own maintenance operations
(``clear()``, ``artifact_count()``) glob every ``*.json`` under its
root, and queue records must never be collateral.

Capacity is enforced at submit: past ``capacity`` active jobs, submit
raises :class:`~repro.api.errors.BackpressureError`, which HTTP renders
as ``429`` with a ``Retry-After`` header.  Custom (non-builtin)
benchmarks referenced by name are persisted into the plane store at
submit time so worker processes — whose registries only know builtins —
resolve them through the store fallback; tag selections are pinned to
explicit names for the same reason.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.api.errors import (
    BackpressureError,
    NotFoundError,
    ValidationError,
)
from repro.api.specs import persist_spec
from repro.api.types import (
    BatchRequest,
    JobStatus,
    RunRequest,
    RunResponse,
    SynthConfig,
    SynthReport,
)
from repro.exec.policy import RetryPolicy
from repro.exec.queue import JobQueue, MemoryQueue, TERMINAL_STATES
from repro.exec.supervisor import Supervisor
from repro.faults import FaultPlan
from repro.sched.admission import AdmissionController
from repro.sched.autoscale import QueueAutoscaler
from repro.sched.policy import SchedulerConfig
from repro.storage.artifacts import ArtifactStore

#: plane-root subdirectories
STORE_DIR = "store"
SPOOL_DIR = "spool"


class FleetJobManager:
    """Durable, supervised, multi-process job manager."""

    #: finished records retained in the spool (oldest evicted beyond
    #: this, counted in ``queue_stats()["evicted"]``)
    MAX_FINISHED_JOBS = 256

    #: recently finished jobs whose median duration is the Retry-After
    #: hint of a refused submit
    RETRY_AFTER_WINDOW = 32

    def __init__(
        self,
        plane_root: Optional[Union[str, Path]],
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        capacity: Optional[int] = None,
        poll_interval: float = 0.05,
        scheduler: Optional[SchedulerConfig] = None,
        cluster_port: Optional[int] = None,
        cluster_host: str = "127.0.0.1",
        cluster_token: str = "",
    ) -> None:
        """``cluster_port`` (0 = ephemeral) starts a
        :class:`~repro.cluster.ClusterCoordinator` over this plane's
        spool: remote agents then claim from the same queue local
        workers do.  ``workers`` may be 0 when a coordinator runs — a
        pure arbiter node whose execution capacity is all remote.
        ``plane_root=None`` keeps jobs in memory on thread slots, which
        fault plans, a coordinator and the scheduler's autoscale section
        cannot reach."""
        self.policy = policy if policy is not None else RetryPolicy()
        self.capacity = capacity
        self.scheduler = (
            scheduler if scheduler is not None else SchedulerConfig()
        )
        self.admission = AdmissionController(self.scheduler)
        if plane_root is None:
            if faults is not None or cluster_port is not None:
                raise ValidationError(
                    "fault plans and a cluster coordinator need a plane "
                    "root (in-memory jobs have no spool to share)"
                )
            self.store_path = self.spool_root = None
            self.queue = MemoryQueue(self.MAX_FINISHED_JOBS)
            if policy is None:
                # an in-memory job has no process to crash and no store
                # write to tear: a retry would only repeat its failure
                self.policy = RetryPolicy(max_attempts=1)
            # autoscaling resizes a fleet of worker processes; thread
            # slots stay at ``workers``
            autoscale = None
        else:
            plane = Path(plane_root)
            self.store_path = str(plane / STORE_DIR)
            self.spool_root = str(plane / SPOOL_DIR)
            # creating the store up front also validates the plane root
            self._store = ArtifactStore(self.store_path)
            self.queue = JobQueue(self.spool_root)
            autoscale = self.scheduler.autoscale
        # persist scheduler policy into the spool *before* worker
        # processes open their own JobQueue over it, so claim-side
        # fairness/aging agree fleet-wide (remote claimants inherit it
        # too: the coordinator arbitrates over this spool)
        self.queue.configure(self.scheduler)
        self.coordinator = None
        if cluster_port is not None:
            from repro.cluster.coordinator import ClusterCoordinator

            self.coordinator = ClusterCoordinator(
                self.spool_root,
                host=cluster_host,
                port=cluster_port,
                auth_token=cluster_token,
                policy=self.policy,
                faults=faults,
            )
        initial = workers
        if autoscale is not None and workers > 0:
            initial = min(
                max(workers, autoscale.min_workers), autoscale.max_workers
            )
        self.supervisor = Supervisor(
            self.spool_root,
            self.store_path,
            workers=initial,
            policy=self.policy,
            faults=faults,
            poll_interval=poll_interval,
            finished_cap=self.MAX_FINISHED_JOBS,
            queue=self.queue,
        )
        if autoscale is not None and initial > 0:
            coordinator = self.coordinator
            self.supervisor.autoscaler = QueueAutoscaler(
                self.queue,
                autoscale,
                fleet_workers=(
                    coordinator.remote_workers
                    if coordinator is not None else None
                ),
                on_scale=(
                    (lambda old, new: coordinator.events.publish(
                        "autoscale", detail=f"local target {old} -> {new}",
                    ))
                    if coordinator is not None else None
                ),
            )
        self._lock = threading.Lock()
        self._closed = False
        if self.coordinator is not None:
            self.coordinator.start()
        self.supervisor.start()

    # -- the manager surface -------------------------------------------------

    def submit(
        self,
        service,
        request,
        kind: str,
        total: int,
        client_id: str = "",
        request_id: str = "",
        role: str = "",
    ) -> JobStatus:
        """Queue a validated request as a job.

        The service already validated names against *its* registry;
        here the submit passes admission (priority class resolution
        against ``role``, per-client/per-role quotas — 429 with a
        distinct ``QuotaExceededError`` type), then whole-queue
        capacity.  An in-memory job then queues with the request object
        and the submitting ``service``, which runs it.  A spooled one is
        made portable to worker processes first (custom specs persisted
        into the plane store, tag selections pinned to names) before the
        record is written and a pending token makes it claimable.
        """
        with self._lock:
            if self._closed:
                raise ValidationError(
                    "job manager is shut down; no new jobs accepted"
                )
            priority = self.admission.admit(
                request, kind, role, client_id,
                active=self._active_jobs(),
                retry_after=self._retry_after_estimate,
            )
            if self.capacity is not None:
                active = self.queue.depth()["active"]
                if active >= self.capacity:
                    raise BackpressureError(
                        f"job queue is at capacity ({active}/"
                        f"{self.capacity} active jobs); retry later",
                        retry_after=self._retry_after_estimate(),
                    )
            if isinstance(self.queue, MemoryQueue):
                record = self.queue.submit(
                    kind, request, total, self.policy.max_attempts,
                    client_id=client_id, request_id=request_id,
                    priority=priority, service=service,
                )
            else:
                request = self._make_portable(service, request, kind)
                record = self.queue.submit(
                    kind, request.to_payload(), total,
                    self.policy.max_attempts, client_id=client_id,
                    request_id=request_id, priority=priority,
                )
        return self._status(record)

    def poll(self, job_id: str) -> JobStatus:
        """Full status snapshot, result payloads decoded when done."""
        record = self.queue.record(job_id)
        if record is None:
            # Deliberately does not list known ids: job ids are the only
            # access control on /v1/jobs, so enumerating them in a 404
            # body would let any client find and cancel others' jobs.
            raise NotFoundError(f"unknown job {job_id!r}")
        return self._status(record, decode_results=True)

    def cancel(self, job_id: str) -> JobStatus:
        record = self.queue.record(job_id)
        if record is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return self._status(self.queue.cancel(job_id))

    def jobs(self) -> List[JobStatus]:
        """Lightweight snapshots (results omitted — this backs every
        health poll, which must not decode megabytes of graph payloads)."""
        return [self._status(record) for record in self.queue.records()]

    def queue_stats(self) -> Dict[str, object]:
        stats = self.queue.depth()
        stats["capacity"] = self.capacity
        stats["evicted"] = self.queue.evicted()
        stats["workers"] = self.supervisor.alive_workers()
        stats["restarts"] = self.supervisor.restarts
        stats["priorities"] = self.queue.pending_by_class()
        stats["promotions"] = self.queue.promotions()
        autoscaler = self.supervisor.autoscaler
        if autoscaler is not None:
            auto = autoscaler.stats()
            auto["target"] = self.supervisor.target
            stats["autoscale"] = auto
        if self.coordinator is not None:
            stats["cluster"] = self.cluster_summary()
        return stats

    def sched_stats(self) -> Dict[str, object]:
        """Per-class depth/wait stats + promotion total, for metrics."""
        return self.queue.sched_stats()

    def census(self) -> Tuple[Dict[str, int], Dict[str, object]]:
        """Jobs per state and :meth:`sched_stats`, from one pass over the
        records (a health poll needs both)."""
        return self.queue.census()

    def cluster_stats(self) -> Optional[Dict[str, object]]:
        """The coordinator's full fleet snapshot (None when single-host)."""
        if self.coordinator is None:
            return None
        return self.coordinator.stats()

    def cluster_summary(self) -> Dict[str, object]:
        """Small always-shaped cluster block for health dashboards."""
        if self.coordinator is None:
            return {"enabled": False, "nodes": 0, "remote_workers": 0}
        return {
            "enabled": True,
            "address": self.coordinator.address,
            "nodes": self.coordinator.node_count(),
            "remote_workers": self.coordinator.remote_workers(),
        }

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain: refuse new jobs, let workers finish in-flight
        leases, stop the fleet.  True when everything finished in time.

        Pending spooled jobs wait for the next fleet.  An in-memory
        queue does not outlive its slots: they run it dry first, and
        when the deadline passes with jobs left, those are cancelled,
        never left queued.  With a coordinator, remote claims stop first
        (agents idle while keeping their in-flight jobs), then local
        workers drain, then the coordinator goes down — fleet-wide
        SIGTERM order."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            self._closed = True
        if self.coordinator is not None:
            self.coordinator.set_draining(True)
        if self.queue.run_dry(timeout):
            clean = self.supervisor.drain(deadline - time.monotonic())
        else:
            self._cancel_all()
            clean = False
        if self.coordinator is not None:
            self.coordinator.stop()
        return clean

    def shutdown(self, wait: bool = True, cancel: bool = False) -> None:
        """Stop the fleet.  ``cancel=True`` marks every active job
        cancelled; otherwise ``wait=True`` drains gracefully first, and
        ``wait=False`` stops at once (cancelling any in-memory job left,
        which no slot would run).  Records stay pollable after
        shutdown."""
        with self._lock:
            stopped = self._closed and self.supervisor.alive_workers() == 0
        if stopped:
            self._stop_coordinator()
            return
        if wait and not cancel:
            self.drain()
        else:
            with self._lock:
                self._closed = True
            if self.coordinator is not None:
                self.coordinator.set_draining(True)
            if cancel or not self.queue.run_dry(0.0):
                self._cancel_all()
            else:
                self.supervisor.stop()
        self._stop_coordinator()

    # -- internals -----------------------------------------------------------

    def _cancel_all(self) -> None:
        """Cancel every active job (queued ones now, running ones at
        their next stage boundary), stop the fleet, then finalize any
        cancellation the slots did not get to observe."""
        for record in self.queue.live_records():
            if record.get("state") not in TERMINAL_STATES:
                try:
                    self.queue.cancel(str(record["job_id"]))
                except Exception:  # noqa: BLE001 — best-effort sweep
                    pass
        self.supervisor.stop()
        for record in self.queue.live_records():
            if record.get("state") not in TERMINAL_STATES:
                self.queue.mark_cancelled(str(record["job_id"]))

    def _stop_coordinator(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
            self.coordinator = None

    def _active_jobs(self) -> Iterator[Tuple[str, str]]:
        """``(client_id, state)`` of every live job.  A generator, so
        the records are read only if admission walks them (bounded
        quotas), and only the live ones."""
        for rec in self.queue.live_records():
            yield str(rec.get("client_id") or ""), str(rec.get("state") or "")

    def _retry_after_estimate(self) -> float:
        """Suggested client wait when saturated: the median duration of
        the last ``RETRY_AFTER_WINDOW`` finished jobs, bounded to
        [1, 60] seconds."""
        durations = []
        for record in self.queue.finished_records(self.RETRY_AFTER_WINDOW):
            started = record.get("started_at")
            finished = record.get("finished_at")
            if started and finished and finished > started:
                durations.append(float(finished) - float(started))
        if not durations:
            return 1.0
        durations.sort()
        return min(60.0, max(1.0, durations[len(durations) // 2]))

    def _make_portable(self, service, request, kind: str):
        """Rewrite a request so any worker process can serve it.

        Worker registries only know builtin benchmarks; custom ones the
        front end knows (registered over HTTP, loaded from a store) are
        persisted into the plane store, which workers consult as their
        resolution fallback.  Tag selections are pinned to the explicit
        names they resolve to *now* — the worker's registry could
        otherwise select a different set.
        """
        if isinstance(request, SynthConfig):
            return request
        store = self._spec_store(request)
        if isinstance(request, RunRequest):
            if request.benchmark is not None:
                self._persist_custom(service, store, request.benchmark)
            return request
        if isinstance(request, BatchRequest):
            names = service.resolve_batch_names(request)
            for name in names:
                self._persist_custom(service, store, name)
            if request.tags is not None:
                return dataclasses.replace(
                    request, tags=None, benchmarks=tuple(names)
                )
            return request
        raise ValidationError(
            f"fleet submit() takes a RunRequest, BatchRequest, or "
            f"SynthConfig, got {type(request).__name__}"
        )

    def _spec_store(self, request) -> ArtifactStore:
        """Where this request's workers will look for persisted specs:
        the request's own store when set, else the plane store."""
        if request.store_path and request.store_path != self.store_path:
            return ArtifactStore(request.store_path)
        return self._store

    @staticmethod
    def _persist_custom(service, store: ArtifactStore, name: str) -> None:
        try:
            if service.benchmark_info(name).builtin:
                return
            persist_spec(store, service.benchmark_spec(name))
        except NotFoundError:
            # the service validated the name already; a concurrent
            # unregistration fails the job later with the same message
            pass

    def _status(
        self, record: Dict[str, object], decode_results: bool = False
    ) -> JobStatus:
        """A :class:`JobStatus` view of one queue record (a spooled
        record holds result payloads, an in-memory one the objects)."""
        result = results = report = None
        if decode_results and record.get("state") == "done":
            result = _decoded(RunResponse, record.get("result"))
            if record.get("results") is not None:
                results = tuple(
                    _decoded(RunResponse, r) for r in record["results"]
                )
            report = _decoded(SynthReport, record.get("report"))
        submitted = float(record.get("submitted_at") or 0.0)
        started = record.get("started_at")
        queue_wait = (
            max(0.0, float(started) - submitted)
            if started is not None else None
        )
        return JobStatus(
            job_id=str(record["job_id"]),
            state=str(record["state"]),
            kind=str(record["kind"]),
            submitted_at=float(record.get("submitted_at") or 0.0),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            total=int(record.get("total") or 0),
            completed=int(record.get("completed") or 0),
            stage=str(record.get("stage") or ""),
            error=str(record.get("error") or ""),
            attempts=int(record.get("attempts") or 0),
            client_id=str(record.get("client_id") or ""),
            request_id=str(record.get("request_id") or ""),
            priority=str(record.get("priority") or ""),
            queue_wait=queue_wait,
            result=result,
            results=results,
            report=report,
        )

    def __enter__(self) -> "FleetJobManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(cancel=True)

    def __del__(self) -> None:
        try:
            if not self._closed:
                self.supervisor.stop(grace=0.1)
        except Exception:  # noqa: BLE001 — interpreter teardown
            pass


def _decoded(cls, value):
    """A result as the API returns it: payloads decode, objects pass."""
    return cls.from_payload(value) if isinstance(value, dict) else value
