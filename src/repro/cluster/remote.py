"""RemoteQueue: the coordinator, duck-typed as a local ``JobQueue``.

A worker process on an agent host runs the unmodified
:func:`~repro.exec.worker.worker_main` loop; the only difference is
that its queue object speaks TCP.  Every queue verb the worker and its
supervisor use is one ``self._call(op, **args)`` carrying the
:class:`~repro.exec.queue.JobQueue` method's own name and arguments
(see :data:`~repro.cluster.protocol.OPS`) and returning that method's
result, computed coordinator-side.  The node verbs the agent itself
needs — ``register`` / ``deregister`` / ``node_heartbeat`` /
``subscribe`` — ride the same envelope.

Connection loss is survived, not surfaced: every call retries over a
fresh connection under capped exponential backoff before giving up
with :class:`~repro.cluster.protocol.ClusterUnavailableError`.  That
makes **idempotency** the load-bearing property — a ``complete`` whose
response was lost to a partition is simply resent, and the
coordinator's queue only charges the fair-share ledger on the first
``done`` transition, so the retry can never double-bill.  Typed errors
in a *received* response (``NotFoundError``, ``ValidationError``...)
are never retried: they are answers, not failures.

``partition`` fault specs inject connection loss client-side: a firing
spec opens a deterministic no-connectivity window during which every
call raises ``ConnectionError`` into the same retry path real
partitions exercise.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.protocol import (
    ClusterUnavailableError,
    FrameError,
    decode_response,
    encode_request,
    recv_frame,
    send_frame,
)
from repro.faults import FaultPlan

#: reconnect schedule: capped exponential backoff over this many tries
MAX_RETRIES = 8
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

#: per-operation socket timeout (a wedged coordinator looks like loss)
TIMEOUT = 10.0


class RemoteQueue:
    """One node's client connection to the cluster coordinator."""

    def __init__(
        self,
        host: str,
        port: int,
        node_id: str,
        auth: str = "",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.node_id = node_id
        self.auth = auth
        self.faults = faults
        self._sock: Optional[socket.socket] = None
        # one socket, many threads (worker main loop + heartbeat thread):
        # calls serialize, which also keeps request/response pairing trivial
        self._lock = threading.Lock()
        self._partition_until = 0.0
        #: transport-level reconnects performed (for tests/telemetry)
        self.reconnects = 0

    # -- construction over process boundaries --------------------------------

    def to_payload(self) -> Dict[str, object]:
        """A picklable/JSON description a worker process rebuilds from."""
        return {
            "host": self.host,
            "port": self.port,
            "node_id": self.node_id,
            "auth": self.auth,
        }

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, object],
        faults: Optional[FaultPlan] = None,
    ) -> "RemoteQueue":
        return cls(
            host=str(payload["host"]),
            port=int(payload["port"]),
            node_id=str(payload["node_id"]),
            auth=str(payload.get("auth") or ""),
            faults=faults,
        )

    # -- transport ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=TIMEOUT
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _maybe_partition(self, op: str) -> None:
        """Open/enforce an injected no-connectivity window for this call."""
        if self.faults is not None:
            seconds = self.faults.partition_seconds(op)
            if seconds > 0:
                self._partition_until = max(
                    self._partition_until, time.monotonic() + seconds
                )
        if time.monotonic() < self._partition_until:
            self._close_socket()
            raise ConnectionError("injected network partition")

    def _call(self, op: str, **args: object) -> object:
        """One request/response round trip, retried across reconnects.

        Retries cover transport failures only (socket errors, frames
        torn by a dying peer).  A decoded error *response* propagates
        untouched — it is the coordinator's answer.  Safe because every
        mutating verb is idempotent coordinator-side: replaying a
        ``complete``/``fail``/``retry_or_fail`` whose response was lost
        converges on the same terminal record.
        """
        request = encode_request(op, args, self.node_id, self.auth)
        with self._lock:
            attempt = 0
            while True:
                try:
                    self._maybe_partition(op)
                    sock = self._connect()
                    send_frame(sock, request)
                    payload = recv_frame(sock)
                    if payload is None:
                        raise FrameError(
                            "coordinator closed the connection mid-call"
                        )
                    return decode_response(payload)
                except (OSError, FrameError) as exc:
                    self._close_socket()
                    attempt += 1
                    if attempt > MAX_RETRIES:
                        raise ClusterUnavailableError(
                            f"coordinator {self.host}:{self.port} "
                            f"unreachable after {attempt} attempt(s): "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
                    self.reconnects += 1
                    time.sleep(
                        min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
                    )

    def close(self) -> None:
        with self._lock:
            self._close_socket()

    # -- node lifecycle --------------------------------------------------------

    def register(self, workers: int, host: str = "") -> Dict[str, object]:
        """Join the fleet; the result carries the spool's scheduler
        config and the fleet retry policy (config download)."""
        return self._call("register", workers=workers, host=host)

    def deregister(self) -> List[str]:
        return self._call("deregister")

    def node_heartbeat(self) -> bool:
        """Node liveness; False means the coordinator no longer knows
        this node (swept or restarted) and it must re-register."""
        return self._call("node_heartbeat")

    # -- JobQueue duck type (worker-facing) -----------------------------------

    def claim(
        self, owner: str, now: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        return self._call("claim", owner=owner)

    def heartbeat(self, job_id: str, owner: str, stage: str = "") -> None:
        self._call("heartbeat", job_id=job_id, owner=owner, stage=stage)

    def update_progress(
        self, job_id: str, completed: int, stage: str = ""
    ) -> None:
        self._call(
            "update_progress", job_id=job_id, completed=completed, stage=stage
        )

    def complete(
        self,
        job_id: str,
        result: Optional[Dict[str, object]] = None,
        results: Optional[Sequence[Dict[str, object]]] = None,
        report: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        return self._call(
            "complete", job_id=job_id, result=result, results=results,
            report=report,
        )

    def fail(self, job_id: str, error: str) -> Dict[str, object]:
        return self._call("fail", job_id=job_id, error=error)

    def retry_or_fail(
        self, job_id: str, error: str, policy=None
    ) -> Dict[str, object]:
        """Requeue-or-fail under the coordinator's policy (one policy
        fleet-wide; the local ``policy`` argument is deliberately unused)."""
        return self._call("retry_or_fail", job_id=job_id, error=error)

    def mark_cancelled(self, job_id: str) -> Dict[str, object]:
        return self._call("mark_cancelled", job_id=job_id)

    def cancel_requested(self, job_id: str) -> bool:
        return self._call("cancel_requested", job_id=job_id)

    def recover(
        self,
        policy=None,
        dead_owners: Sequence[str] = (),
        now: Optional[float] = None,
    ) -> List[str]:
        """Report locally dead worker incarnations for lease recovery.

        TTL sweeps of *other* nodes' leases are the coordinator's job —
        an empty report short-circuits locally so the supervisor's 0.1s
        tick does not turn into network chatter.
        """
        if not dead_owners:
            return []
        return self._call("recover", dead_owners=list(dead_owners))

    def evict_finished(self, cap: int) -> int:
        """Eviction is spool maintenance; the coordinator does it."""
        return 0

    # -- events ---------------------------------------------------------------

    def subscribe(
        self, replay: int = 0
    ) -> Tuple[socket.socket, List[Dict[str, object]]]:
        """Open a *dedicated* streaming connection (not the call socket).

        Returns the raw socket plus the replayed event payloads; the
        caller then reads event frames with
        :func:`~repro.cluster.protocol.recv_frame` /
        :func:`~repro.cluster.protocol.decode_event` until EOF.
        """
        sock = socket.create_connection((self.host, self.port), timeout=TIMEOUT)
        try:
            send_frame(sock, encode_request(
                "subscribe", {"replay": replay}, self.node_id, self.auth,
            ))
            payload = recv_frame(sock)
            if payload is None:
                raise FrameError("coordinator closed before subscribing")
            return sock, decode_response(payload)
        except BaseException:
            sock.close()
            raise
