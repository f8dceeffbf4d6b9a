"""FleetJobManager: the execution plane behind ``provmark serve --workers``.

Duck-types :class:`~repro.api.jobs.JobManager` — ``submit`` / ``poll`` /
``cancel`` / ``jobs`` / ``queue_stats`` / ``drain`` / ``shutdown`` — so
:class:`~repro.api.service.BenchmarkService` and the HTTP layer plug
into it unchanged.  Where the thread-pool manager keeps mutable records
in memory, this one persists every job into a durable
:class:`~repro.exec.queue.JobQueue` spooled next to the plane's shared
artifact store, and a :class:`~repro.exec.supervisor.Supervisor` runs
the fleet of worker processes that serve it.

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
from repro.exec.queue import JobQueue, TERMINAL_STATES
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

    def __init__(
        self,
        plane_root: Union[str, Path],
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
        pure arbiter node whose execution capacity is all remote."""
        plane = Path(plane_root)
        self.store_path = str(plane / STORE_DIR)
        self.spool_root = str(plane / SPOOL_DIR)
        # creating the store up front also validates the plane root
        self._store = ArtifactStore(self.store_path)
        self.policy = policy if policy is not None else RetryPolicy()
        self.capacity = capacity
        self.scheduler = (
            scheduler if scheduler is not None else SchedulerConfig()
        )
        self.admission = AdmissionController(self.scheduler)
        self.queue = JobQueue(self.spool_root)
        # persist scheduler policy into the spool *before* the
        # supervisor and workers open their own JobQueue over it, so
        # claim-side fairness/aging agree fleet-wide (remote claimants
        # inherit it too: the coordinator arbitrates over this spool)
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
        autoscale = self.scheduler.autoscale
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
        )
        if autoscale is not None and initial > 0:
            coordinator = self.coordinator
            self.supervisor.autoscaler = QueueAutoscaler(
                self.supervisor.queue,
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

    # -- JobManager surface --------------------------------------------------

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
        """Persist a validated request as a durable job.

        The service already validated names against *its* registry;
        here the submit passes admission (priority class resolution
        against ``role``, per-client/per-role quotas — 429 with a
        distinct ``QuotaExceededError`` type), then whole-queue
        capacity, and the request is made portable to worker processes
        (custom specs persisted into the plane store, tag selections
        pinned to names) before the record is written and a pending
        token makes it claimable.
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
            request = self._make_portable(service, request, kind)
            record = self.queue.submit(
                kind, request.to_payload(), total, self.policy.max_attempts,
                client_id=client_id, request_id=request_id,
                priority=priority,
            )
        return self._status(record)

    def poll(self, job_id: str) -> JobStatus:
        """Full status snapshot, result payloads decoded when done."""
        record = self.queue.record(job_id)
        if record is None:
            # same non-enumerating 404 contract as the in-process manager
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
        leases, stop the fleet.  True when every worker exited in time.

        With a coordinator, remote claims stop first (agents idle while
        keeping their in-flight jobs), then local workers drain, then
        the coordinator goes down — fleet-wide SIGTERM order."""
        with self._lock:
            self._closed = True
        if self.coordinator is not None:
            self.coordinator.set_draining(True)
        clean = self.supervisor.drain(timeout)
        if self.coordinator is not None:
            self.coordinator.stop()
        return clean

    def shutdown(self, wait: bool = True, cancel: bool = False) -> None:
        """Stop the fleet.  ``cancel=True`` marks every active job
        cancelled; otherwise ``wait=True`` drains gracefully first.
        Records stay durable (and pollable) after shutdown."""
        with self._lock:
            if self._closed and self.supervisor.alive_workers() == 0:
                if self.coordinator is not None:
                    self.coordinator.stop()
                    self.coordinator = None
                return
            self._closed = True
        if self.coordinator is not None:
            self.coordinator.set_draining(True)
        if cancel:
            for record in self.queue.records():
                if record.get("state") not in TERMINAL_STATES:
                    try:
                        self.queue.cancel(str(record["job_id"]))
                    except Exception:  # noqa: BLE001 — best-effort sweep
                        pass
            self.supervisor.stop()
            # workers are gone; finalize whatever cancellation the fleet
            # did not get to observe
            for record in self.queue.records():
                if record.get("state") not in TERMINAL_STATES:
                    self.queue.mark_cancelled(str(record["job_id"]))
        elif wait:
            self.supervisor.drain()
        else:
            self.supervisor.stop()
        if self.coordinator is not None:
            self.coordinator.stop()
            self.coordinator = None

    # -- internals -----------------------------------------------------------

    def _active_jobs(self) -> Iterator[Tuple[str, str]]:
        """``(client_id, state)`` of every spooled job.  A generator, so
        the spool is read only if admission walks it (bounded quotas)."""
        for rec in self.queue.records():
            yield str(rec.get("client_id") or ""), str(rec.get("state") or "")

    def _retry_after_estimate(self) -> float:
        """Suggested client wait when saturated: recently finished jobs'
        median duration, bounded to [1, 60] seconds."""
        durations = []
        for record in self.queue.records():
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
        """A :class:`JobStatus` view of one queue record."""
        result = results = report = None
        if decode_results and record.get("state") == "done":
            if record.get("result") is not None:
                result = RunResponse.from_payload(record["result"])
            if record.get("results") is not None:
                results = tuple(
                    RunResponse.from_payload(r) for r in record["results"]
                )
            if record.get("report") is not None:
                report = SynthReport.from_payload(record["report"])
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
