"""Server-Sent Events streaming of job progress.

``GET /v1/jobs/<id>/events`` answers a ``text/event-stream`` body that
follows one job to completion, replacing poll loops with a single
long-lived response.  The stream is built by *snapshot polling* on the
server: :func:`job_event_stream` repeatedly calls ``service.poll(id)``
and emits an event whenever the observable surface (state, completed
count, current stage) changes.  Polling the façade rather than hooking
the executor means the stream works identically whichever slots serve
the job — the in-memory thread slots, spooled worker processes or
remote agents of the one ``FleetJobManager`` — since every poll is a
consistent snapshot, and a worker crash/retry simply shows up as the
next snapshot diff.

Wire format (https://html.spec.whatwg.org/multipage/server-sent-events):

* ``event: snapshot`` — first event, the job's full current status;
* ``event: progress`` — a change in ``(state, completed, stage)``,
  with the cheap fields only (no result graphs mid-run);
* ``event: heartbeat`` — comment-like keepalive when nothing changed
  for ``heartbeat`` seconds, so proxies do not reap the connection;
* terminal — named by the final state (``done`` / ``failed`` /
  ``cancelled``), carrying the full status payload including results,
  after which the stream ends and the connection closes.

Resume: every ``snapshot``/``progress``/terminal frame carries an
``id:`` line equal to the job's *completed count* at emit time — the
one monotonic, restart-stable measure of stream position (attempt
retries reset stages but never lower ``completed``).  Browsers and
spec-conforming clients echo the last seen id back as the
``Last-Event-ID`` header on reconnect; :func:`job_event_stream` accepts
it as ``last_event_id`` and replays one synthetic ``progress`` frame
per missed completion (reconstructed from the job record's current
counters) before the fresh snapshot, so a dropped connection never
loses a completion tick.  Heartbeats carry no id — per the SSE spec
they do not advance the client's stored position.

The generator is transport-free (yields ``bytes`` chunks) and takes
injectable ``clock``/``sleep``, so ordering and heartbeat timing are
unit-testable without sockets or real time.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterator, Optional, Tuple

#: job states after which no further events can occur
TERMINAL_STATES = ("done", "failed", "cancelled")

#: default seconds between service.poll() snapshots
DEFAULT_POLL_INTERVAL = 0.2

#: default seconds of silence before a keepalive event
DEFAULT_HEARTBEAT = 15.0

#: hard ceiling on one stream's lifetime — a forgotten client cannot
#: pin a handler thread forever (ends with a ``timeout`` frame)
SSE_MAX_STREAM_SECONDS = 3600.0


def format_event(
    name: str, payload: object, event_id: Optional[int] = None
) -> bytes:
    """One SSE frame: optional ``id:``, ``event:``, ``data:`` lines."""
    data = json.dumps(payload, sort_keys=True)
    lines = [f"event: {name}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    for chunk in data.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def _progress_payload(status) -> dict:
    return {
        "job_id": status.job_id,
        "state": status.state,
        "kind": status.kind,
        "total": status.total,
        "completed": status.completed,
        "stage": status.stage,
        "attempts": status.attempts,
        "error": status.error,
    }


def job_event_stream(
    service,
    job_id: str,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat: float = DEFAULT_HEARTBEAT,
    max_duration: Optional[float] = None,
    last_event_id: Optional[int] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[bytes]:
    """SSE frames following ``job_id`` until it reaches a terminal state
    (or ``max_duration`` elapses, ending with a ``timeout`` frame).

    ``last_event_id`` is the completed count the client last saw
    (``Last-Event-ID`` on reconnect); completions it missed while
    disconnected are replayed as synthetic ``progress`` frames before
    the fresh snapshot.

    The first ``service.poll`` happens *here*, not inside the returned
    generator, so a missing job raises ``NotFoundError`` while the HTTP
    layer can still answer a plain 404 instead of a broken stream.
    """
    first = service.poll(job_id)

    def _frames(status) -> Iterator[bytes]:
        started = clock()
        last_emit = started
        if last_event_id is not None:
            # Replay each completion tick the client missed.  Only the
            # counter is reconstructable from the record (per-tick
            # stages are gone), so replayed frames carry the current
            # state/stage with the historical completed count.
            for missed in range(
                max(0, last_event_id) + 1, status.completed + 1
            ):
                payload = _progress_payload(status)
                payload["completed"] = missed
                payload["replayed"] = True
                yield format_event("progress", payload, event_id=missed)
        yield format_event(
            "snapshot", status.to_payload(), event_id=status.completed
        )
        observed: Tuple[str, int, str] = (
            status.state, status.completed, status.stage
        )
        while status.state not in TERMINAL_STATES:
            if max_duration is not None and clock() - started >= max_duration:
                yield format_event(
                    "timeout", _progress_payload(status),
                    event_id=status.completed,
                )
                return
            sleep(poll_interval)
            status = service.poll(job_id)
            current = (status.state, status.completed, status.stage)
            if status.state in TERMINAL_STATES:
                break
            if current != observed:
                observed = current
                last_emit = clock()
                yield format_event(
                    "progress", _progress_payload(status),
                    event_id=status.completed,
                )
            elif clock() - last_emit >= heartbeat:
                last_emit = clock()
                yield format_event("heartbeat", {"job_id": job_id})
        # terminal frame is named by the state itself and carries the
        # full payload (results included) — nothing is needed after it
        yield format_event(
            status.state, status.to_payload(), event_id=status.completed
        )

    return _frames(first)
