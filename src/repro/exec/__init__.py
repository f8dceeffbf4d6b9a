"""Fault-tolerant execution plane: supervised workers over a durable queue.

The package splits the HTTP front end from a fleet of worker
*processes*:

* :class:`~repro.exec.policy.RetryPolicy` — retry/backoff/lease knobs,
  deterministic jitter;
* :class:`~repro.exec.queue.JobQueue` — a durable, lease-based job
  queue spooled on disk next to the shared artifact store, safe for
  concurrent workers (atomic-rename claims, heartbeat leases,
  crash-recovery requeue); :class:`~repro.exec.queue.MemoryQueue` is
  its in-memory twin for in-process jobs;
* :mod:`~repro.exec.worker` — the claim loop every slot runs (claim,
  heartbeat, run through :class:`~repro.api.service.BenchmarkService`,
  persist results) and the worker process entry point;
* :class:`~repro.exec.supervisor.Supervisor` — spawns and restarts
  worker processes or threads, recovers expired/orphaned leases,
  drains gracefully;
* :class:`~repro.exec.manager.FleetJobManager` — the one job manager
  :class:`~repro.api.service.BenchmarkService` hands jobs to: worker
  processes over the spool with a plane root (``provmark serve
  --workers N``), thread slots over a
  :class:`~repro.exec.queue.MemoryQueue` without one.

The queue speaks the :mod:`repro.sched` surface natively: pending
tokens carry a priority-class prefix claimed strict-priority with
fair-share tie-breaking, starved jobs age upward, and the supervisor
hosts a :class:`~repro.sched.QueueAutoscaler` resizing the fleet from
queue pressure (``provmark serve --scheduler CONFIG.json``).

Delivery semantics are **at-least-once**: a lost worker's leased job is
requeued and re-run, so only seeded (deterministic) requests should be
submitted when byte-identical results matter — which the artifact store
then guarantees, since every retry replays completed stages from the
shared cache.
"""

from repro.exec.manager import FleetJobManager
from repro.exec.policy import RetryPolicy
from repro.exec.queue import JobQueue, QueueError
from repro.exec.supervisor import Supervisor

__all__ = [
    "FleetJobManager",
    "JobQueue",
    "QueueError",
    "RetryPolicy",
    "Supervisor",
]
