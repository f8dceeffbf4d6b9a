"""Job slots: claim, heartbeat, run, persist.

A slot is one loop over :meth:`~repro.exec.queue.JobQueue.claim`
(:func:`serve_slot`): decode the claimed record's request, run it
through a :class:`~repro.api.service.BenchmarkService`, and write the
outcome back into the record — ``done`` with result payloads, ``cancelled``,
permanently ``failed`` (API errors: validation, unknown names, deadline
overruns — retrying cannot fix those), or handed to
:meth:`~repro.exec.queue.JobQueue.retry_or_fail` for everything else
(crashes of the infrastructure around the run, injected faults, torn
store writes).  The loop runs in a worker process
(:func:`worker_main`, over the spool or a cluster coordinator, through
the process's own service) or on a supervisor's thread over a
:class:`~repro.exec.queue.MemoryQueue` (in-process jobs, through the
service that submitted them).

While a job runs, a daemon thread refreshes the worker's lease every
``heartbeat_interval`` — unless a ``heartbeat_loss`` fault suppressed it,
which is how chaos tests make a perfectly healthy worker look dead.  The
pipeline's stage-boundary progress hook does triple duty: it feeds the
fault plan's occurrence counters (kills and latency fire here), polls the
queue's cancel marker (one ``stat`` per boundary), and publishes
stage/progress into the job record.

Spooled requests are rewritten before running: ``store_path`` defaults
to the plane's shared artifact store and ``resume`` is forced on, so a
retried job replays every stage its dead predecessor completed from the
content-addressed cache — the mechanism behind byte-identical retry
results for seeded requests.  An in-process job runs its request object
as submitted and keeps what the run returned: no store, no codec.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

from repro.api.errors import ApiError, JobCancelled, render_error
from repro.api.service import BenchmarkService
from repro.api.types import BatchRequest, RunRequest, SynthConfig
from repro.core.stages import ProgressEvent
from repro.exec.policy import RetryPolicy
from repro.exec.queue import JobQueue
from repro.faults import FaultPlan, install_store_gate

#: subdirectory of the spool holding fleet-wide fault firing tokens
FAULT_TOKEN_DIR = "faults"

_REQUEST_TYPES = {
    "run": RunRequest,
    "batch": BatchRequest,
    "synth": SynthConfig,
}


def worker_main(
    slot: int,
    uid: str,
    spool_root: str,
    store_path: str,
    policy_payload: Mapping[str, object],
    fault_payload: Optional[Mapping[str, object]] = None,
    poll_interval: float = 0.05,
    remote_payload: Optional[Mapping[str, object]] = None,
) -> None:
    """Run one worker process until drained (the ``Process`` target).

    ``slot`` is the stable worker index fault specs address; ``uid`` is
    this incarnation's unique owner id (slot + respawn generation), so
    the supervisor can recover exactly the leases a dead incarnation
    held.  SIGTERM requests a graceful drain: stop claiming, finish the
    job in flight, exit.

    With ``remote_payload`` set, the queue is a
    :class:`~repro.cluster.remote.RemoteQueue` speaking to a cluster
    coordinator instead of the local spool — the loop itself is
    unchanged, which is the point of the duck type.
    """
    draining = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: draining.set())
    # Ctrl-C at the terminal reaches the whole foreground process group;
    # drain is the supervisor's call (it SIGTERMs us), not the tty's.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    policy = RetryPolicy.from_payload(policy_payload)
    plan: Optional[FaultPlan] = None
    if fault_payload is not None:
        plan = FaultPlan.from_payload(fault_payload).bind(
            slot, str(Path(spool_root) / FAULT_TOKEN_DIR)
        )
        install_store_gate(plan)
    if remote_payload is not None:
        # imported here: repro.cluster depends on repro.exec, not the
        # other way around, except through this runtime seam
        from repro.cluster.remote import RemoteQueue

        queue = RemoteQueue.from_payload(remote_payload, faults=plan)
    else:
        queue = JobQueue(spool_root)
    service = BenchmarkService()
    try:
        serve_slot(
            queue, service, policy, plan, uid, store_path, draining,
            lambda: time.sleep(poll_interval),
        )
    finally:
        install_store_gate(None)
        close = getattr(queue, "close", None)
        if callable(close):
            close()
        service.close()


def serve_slot(
    queue: JobQueue,
    service: Optional[BenchmarkService],
    policy: RetryPolicy,
    plan: Optional[FaultPlan],
    uid: str,
    store_path: Optional[str],
    draining: threading.Event,
    idle: Callable[[], None],
) -> None:
    """Claim and run jobs until ``draining`` is set; ``idle`` waits
    between empty claims.  Every slot, process or thread, is this loop."""
    while not draining.is_set():
        record = queue.claim(uid)
        if record is None:
            idle()
            continue
        _run_claimed(queue, service, policy, plan, uid, store_path, record)


def _run_claimed(
    queue: JobQueue,
    service: Optional[BenchmarkService],
    policy: RetryPolicy,
    plan: Optional[FaultPlan],
    uid: str,
    store_path: Optional[str],
    record: Dict[str, object],
) -> None:
    """One claimed job, end to end: heartbeat, run, record the outcome.

    A claimed record that carries a ``service`` (only a
    :class:`~repro.exec.queue.MemoryQueue` puts one there) is an
    in-process job: it runs its request object through that service and
    keeps the response objects the run returns."""
    job_id = str(record["job_id"])
    kind = str(record["kind"])
    if plan is not None:
        plan.on_attempt_start()

    state = {"stage": "", "completed": 0}
    stop_beat = threading.Event()

    def _beat() -> None:
        while not stop_beat.wait(policy.heartbeat_interval):
            if plan is not None and plan.heartbeat_suppressed():
                continue  # alive but silent: the lost-worker chaos case
            queue.heartbeat(job_id, uid, state["stage"])

    beat = threading.Thread(
        target=_beat, name=f"heartbeat-{uid}", daemon=True
    )
    beat.start()

    def progress(event: ProgressEvent) -> None:
        if plan is not None:
            plan.on_stage(event.benchmark, event.stage, event.status)
        if queue.cancel_requested(job_id):
            raise JobCancelled(job_id)
        state["stage"] = f"{event.benchmark}/{event.stage}:{event.status}"
        queue.update_progress(job_id, state["completed"], state["stage"])

    def advance(response) -> None:
        state["completed"] += 1
        queue.update_progress(job_id, state["completed"], state["stage"])

    try:
        if "service" in record:
            service, request = record["service"], record["request"]
            keep = _as_is
        else:
            request = _decode_request(kind, record["request"], store_path)
            keep = _payload
        if kind == "run":
            response = service.run(request, progress=progress)
            queue.complete(job_id, result=keep(response))
        elif kind == "batch":
            # serial in-process: fleet-level parallelism comes from many
            # workers, and only the serial path has observable (and
            # cancellable, and fault-injectable) stage boundaries
            responses = service.run_batch(
                request, progress=progress, on_response=advance
            )
            queue.complete(job_id, results=[keep(r) for r in responses])
        else:
            report = service.synthesize(request, progress=progress)
            queue.complete(job_id, report=keep(report))
    except JobCancelled:
        queue.mark_cancelled(job_id)
    except ApiError as exc:
        # validation, unknown names, deadline overruns: deterministic —
        # a retry would fail identically, so fail permanently now
        queue.fail(job_id, f"{type(exc).__name__}: {render_error(exc)}")
    except Exception as exc:  # noqa: BLE001 — workers must not die quietly
        queue.retry_or_fail(
            job_id, f"{type(exc).__name__}: {render_error(exc)}", policy
        )
    finally:
        stop_beat.set()
        beat.join(timeout=policy.heartbeat_interval * 2)


def _as_is(value):
    return value


def _payload(value):
    return value.to_payload()


def _decode_request(kind: str, payload: object, store_path: str):
    """Decode and re-anchor a job's request for fleet execution.

    Requests without an explicit ``store_path`` get the plane's shared
    store, and ``resume`` is forced on for run/batch: both are required
    for any-worker serving and stage-exact retry replay.  The submitted
    payload in the job record stays as the client sent it.
    """
    cls = _REQUEST_TYPES.get(kind)
    if cls is None:
        raise ApiError(f"job record has unknown kind {kind!r}")
    request = cls.from_payload(payload)
    if isinstance(request, SynthConfig):
        if request.store_path is None:
            request = dataclasses.replace(request, store_path=store_path)
        return request
    return dataclasses.replace(
        request,
        store_path=request.store_path or store_path,
        resume=True,
    )
