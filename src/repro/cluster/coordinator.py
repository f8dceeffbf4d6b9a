"""ClusterCoordinator: the TCP claim arbiter colocated with the spool.

One coordinator runs next to the durable spool and exports the
:class:`~repro.exec.queue.JobQueue` over the wire protocol.  A request
names a queue method and its arguments (see
:data:`~repro.cluster.protocol.OPS`), so remote claims go through the
*same* ``claim()`` path local workers use, and every scheduling
property of the queue — strict priority from ``p<rank>.`` token
prefixes, aging promotion, fair-share ledger charges — holds fleet-wide
by construction: there is exactly one arbiter and it is the queue
itself.

Verbs the coordinator adds nothing to (``heartbeat``,
``update_progress``, ``cancel_requested``) are answered by
``getattr(queue, op)(**args)``.  An ``_op_<name>`` hook stands in only
where the coordinator owns fleet-level state:

* **node registry** — agents ``register`` (the result downloads the
  spool's scheduler config and the fleet retry policy),
  ``node_heartbeat``, and ``deregister``; every authenticated request
  refreshes its sending node's liveness stamp;
* **counters and events** — claims, completions, failures, retries and
  cancellations are counted and published into an
  :class:`~repro.cluster.events.EventHub`; a ``subscribe`` request
  turns its connection into a push stream of event frames;
* **draining** — a draining coordinator answers ``claim`` with nothing;
* **one retry policy** — ``retry_or_fail`` and ``recover`` run under the
  fleet :class:`~repro.exec.policy.RetryPolicy`, whatever the agent has;
* **dead-node recovery** — a sweeper thread declares nodes silent past
  ``node_ttl`` dead and recovers every lease held by owners under the
  node's ``<node_id>:`` prefix, exactly like the PR 6 supervisor
  recovers a dead worker's leases by owner id;
* **chaos seams** — ``conn_drop`` fault specs fire here, closing the
  connection after processing a matching op but *before* the response
  leaves, which is precisely the window where client-side idempotency
  earns its keep.

Each connection is handled by one daemon thread (``ThreadingTCPServer``)
looping frames until EOF; the queue's no-locks on-disk coordination
makes concurrent dispatch safe (claims serialize on the queue's claim
index lock), with one coordinator-side lock guarding only the node
registry and counters.  A completion is counted and announced only when
``complete()`` reports it was the job's first, so a zombie's duplicate
costs one record read and no event.
"""

from __future__ import annotations

import socketserver
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.api.errors import UnauthorizedError
from repro.cluster.events import EventHub
from repro.cluster.protocol import (
    FrameError,
    ProtocolError,
    decode_request,
    error_response,
    event_frame,
    ok_response,
    recv_frame,
    send_frame,
)
from repro.exec.policy import RetryPolicy
from repro.exec.queue import JobQueue
from repro.faults import FaultPlan

#: seconds of node silence before its leases are recovered
DEFAULT_NODE_TTL = 5.0

#: sweeper cadence is a fraction of the TTL, bounded sane
_SWEEP_MIN, _SWEEP_MAX = 0.05, 1.0


class _NodeState:
    """Registry row for one live agent node."""

    __slots__ = ("node_id", "host", "workers", "registered_at",
                 "last_seen", "claims")

    def __init__(self, node_id: str, host: str, workers: int) -> None:
        self.node_id = node_id
        self.host = host
        self.workers = workers
        #: wall clock, for display only
        self.registered_at = time.time()
        #: monotonic: a wall-clock step must neither kill nor revive nodes
        self.last_seen = time.monotonic()
        self.claims = 0

    def payload(self, now: float) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "host": self.host,
            "workers": self.workers,
            "claims": self.claims,
            "registered_at": self.registered_at,
            "last_seen_age": max(0.0, now - self.last_seen),
        }


class ClusterCoordinator:
    """The fleet's single claim arbiter, spool-colocated."""

    def __init__(
        self,
        spool_root: Union[str, "object"],
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str = "",
        policy: Optional[RetryPolicy] = None,
        node_ttl: float = DEFAULT_NODE_TTL,
        faults: Optional[FaultPlan] = None,
        queue: Optional[JobQueue] = None,
    ) -> None:
        self.queue = queue if queue is not None else JobQueue(spool_root)
        self.policy = policy if policy is not None else RetryPolicy()
        self.auth_token = auth_token
        self.node_ttl = max(0.1, float(node_ttl))
        self.events = EventHub()
        # conn_drop specs fire coordinator-side; bind to the spool's
        # token dir so `times` budgets hold across coordinator restarts
        self._faults = (
            faults.bind(None, str(self.queue.root / "faults"))
            if faults is not None else None
        )
        self._nodes: Dict[str, _NodeState] = {}
        self._lock = threading.Lock()
        self._draining = False
        self._stop = threading.Event()
        self._sweeper: Optional[threading.Thread] = None
        #: wire-level counters surfaced by stats()/metrics
        self.counters: Dict[str, int] = {
            "connections_total": 0,
            "claims_total": 0,
            "completions_total": 0,
            "failures_total": 0,
            "retries_total": 0,
            "recovered_leases_total": 0,
            "dead_nodes_total": 0,
            "conn_drops_total": 0,
            "auth_failures_total": 0,
        }
        coordinator = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # noqa: D102 — socketserver API
                coordinator._handle_connection(self.request)

        class _Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._server = _Server((host, int(port)), _Handler)
        self.host, self.port = self._server.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="cluster-coordinator",
            daemon=True,
        )
        self._serve_thread.start()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="cluster-sweeper", daemon=True
        )
        self._sweeper.start()

    def set_draining(self, draining: bool = True) -> None:
        """While draining, claims answer empty: agents idle, jobs stay
        durable, and the fleet can be stopped without losing work."""
        with self._lock:
            self._draining = bool(draining)

    def stop(self) -> None:
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
            self._sweeper = None

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- fleet view -----------------------------------------------------------

    def remote_workers(self) -> int:
        """Live remote worker slots (the autoscaler's fleet-wide term)."""
        with self._lock:
            return sum(node.workers for node in self._nodes.values())

    def node_count(self) -> int:
        with self._lock:
            return len(self._nodes)

    def stats(self) -> Dict[str, object]:
        """The fleet snapshot behind ``/v1/cluster``."""
        now = time.monotonic()
        with self._lock:
            nodes = [
                node.payload(now)
                for node in sorted(
                    self._nodes.values(), key=lambda n: n.registered_at
                )
            ]
            counters = dict(self.counters)
            draining = self._draining
        return {
            "address": self.address,
            "draining": draining,
            "node_ttl": self.node_ttl,
            "nodes": nodes,
            "remote_workers": sum(int(n["workers"]) for n in nodes),
            "counters": counters,
            "events_seq": self.events.seq,
            "recent_events": [
                e.to_payload() for e in self.events.recent()
            ],
        }

    # -- connection handling ---------------------------------------------------

    def _handle_connection(self, sock) -> None:
        with self._lock:
            self.counters["connections_total"] += 1
        try:
            while not self._stop.is_set():
                try:
                    payload = recv_frame(sock)
                except FrameError:
                    return  # torn client write; nothing to answer
                if payload is None:
                    return  # clean close
                try:
                    request = decode_request(payload)
                except ProtocolError as exc:
                    send_frame(sock, error_response(exc))
                    return
                if self.auth_token and request["auth"] != self.auth_token:
                    with self._lock:
                        self.counters["auth_failures_total"] += 1
                    send_frame(sock, error_response(UnauthorizedError(
                        "cluster auth token mismatch"
                    )))
                    return
                node, op, args = request["node"], request["op"], request["args"]
                self._touch_node(node)
                if op == "subscribe":
                    self._stream_events(sock, args["replay"])
                    return
                response = self._dispatch(node, op, args)
                if self._fire_conn_drop(op):
                    return  # op processed, response dropped: chaos seam
                send_frame(sock, response)
        except OSError:
            pass  # client went away; its retry path owns the recovery
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _fire_conn_drop(self, op: str) -> bool:
        if self._faults is None:
            return False
        if not self._faults.on_cluster_op(op):
            return False
        with self._lock:
            self.counters["conn_drops_total"] += 1
        return True

    def _touch_node(self, node_id: str) -> None:
        with self._lock:
            node = self._nodes.get(node_id)
            if node is not None:
                node.last_seen = time.monotonic()

    def _dispatch(
        self, node: str, op: str, args: Dict[str, object]
    ) -> Dict[str, object]:
        """Answer one op: the coordinator's hook where it owns fleet
        state, else the queue method of the same name."""
        hook = getattr(self, f"_op_{op}", None)
        try:
            if hook is not None:
                return ok_response(hook(node, **args))
            return ok_response(getattr(self.queue, op)(**args))
        except Exception as exc:  # noqa: BLE001 — never kill the handler
            return error_response(exc)

    # -- hooks: ops that touch fleet state -------------------------------------

    def _op_register(
        self, node: str, workers: int, host: str
    ) -> Dict[str, object]:
        with self._lock:
            known = node in self._nodes
            self._nodes[node] = _NodeState(node, host, workers)
        if not known:
            self.events.publish(
                "node_join", node_id=node, detail=f"{workers} worker(s)",
            )
        # config download: one scheduler policy and one retry policy
        # fleet-wide, both owned by the spool side
        return {
            "node_id": node,
            "node_ttl": self.node_ttl,
            "sched": self.queue.sched.to_payload(),
            "policy": self.policy.to_payload(),
        }

    def _op_deregister(self, node: str) -> List[str]:
        with self._lock:
            gone = self._nodes.pop(node, None)
        if gone is not None:
            self.events.publish(
                "node_leave", node_id=node, detail="deregistered"
            )
        # defensive: a deregistering node should have drained, but any
        # lease its workers still hold must not wait out the TTL
        return self._recover_node_leases(node)

    def _op_node_heartbeat(self, node: str) -> bool:
        # liveness was touched in the connection loop; False tells a
        # swept node it must re-register (e.g. after outliving a partition)
        with self._lock:
            return node in self._nodes

    def _op_claim(self, node: str, owner: str) -> Optional[Dict[str, object]]:
        with self._lock:
            draining = self._draining
        if draining:
            return None
        record = self.queue.claim(owner)
        if record is not None:
            with self._lock:
                self.counters["claims_total"] += 1
                state = self._nodes.get(node)
                if state is not None:
                    state.claims += 1
            self.events.publish(
                "claim", node_id=node,
                job_id=str(record.get("job_id") or ""),
                detail=str(record.get("priority") or ""),
            )
        return record

    def _op_complete(
        self, node: str, job_id: str, **outcome: object
    ) -> Dict[str, object]:
        record = self.queue.complete(job_id, **outcome)
        if self.queue.first_completion():
            with self._lock:
                self.counters["completions_total"] += 1
            self.events.publish("complete", node_id=node, job_id=job_id)
        return record

    def _op_fail(
        self, node: str, job_id: str, error: str
    ) -> Dict[str, object]:
        record = self.queue.fail(job_id, error)
        with self._lock:
            self.counters["failures_total"] += 1
        self.events.publish(
            "fail", node_id=node, job_id=job_id, detail=error[:120],
        )
        return record

    def _op_retry_or_fail(
        self, node: str, job_id: str, error: str
    ) -> Dict[str, object]:
        record = self.queue.retry_or_fail(job_id, error, self.policy)
        with self._lock:
            self.counters["retries_total"] += 1
        if record.get("state") == "failed":
            self.events.publish(
                "fail", node_id=node, job_id=job_id,
                detail=f"retries exhausted: {error[:100]}",
            )
        return record

    def _op_mark_cancelled(self, node: str, job_id: str) -> Dict[str, object]:
        record = self.queue.mark_cancelled(job_id)
        self.events.publish("cancel", node_id=node, job_id=job_id)
        return record

    def _op_recover(self, node: str, dead_owners: Sequence[str]) -> List[str]:
        recovered = self.queue.recover(self.policy, dead_owners=dead_owners)
        if recovered:
            with self._lock:
                self.counters["recovered_leases_total"] += len(recovered)
        return recovered

    # -- event streaming -------------------------------------------------------

    def _stream_events(self, sock, replay: int) -> None:
        sub, replayed = self.events.subscribe(replay)
        try:
            send_frame(sock, ok_response([e.to_payload() for e in replayed]))
            while not self._stop.is_set():
                try:
                    event = sub.get(timeout=0.5)
                except Exception:  # noqa: BLE001 — queue.Empty
                    continue
                send_frame(sock, event_frame(event.to_payload()))
        except OSError:
            pass  # subscriber went away
        finally:
            self.events.unsubscribe(sub)

    # -- dead-node sweeping ----------------------------------------------------

    def _sweep_loop(self) -> None:
        interval = min(_SWEEP_MAX, max(_SWEEP_MIN, self.node_ttl / 4.0))
        while not self._stop.wait(interval):
            self.sweep_dead_nodes()

    def sweep_dead_nodes(self, now: Optional[float] = None) -> List[str]:
        """Drop TTL-expired nodes and recover their workers' leases
        (``now`` is a :func:`time.monotonic` reading)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            dead = [
                node_id for node_id, node in self._nodes.items()
                if now - node.last_seen > self.node_ttl
            ]
            for node_id in dead:
                del self._nodes[node_id]
                self.counters["dead_nodes_total"] += 1
        for node_id in dead:
            self.events.publish(
                "node_leave", node_id=node_id,
                detail=f"lost (no heartbeat for {self.node_ttl:g}s)",
            )
            self._recover_node_leases(node_id)
        return dead

    def _recover_node_leases(self, node_id: str) -> List[str]:
        """Recover every lease held by the node's worker incarnations.

        Agent worker owner ids are prefixed ``<node_id>:`` (the
        supervisor's ``owner_prefix``), so a dead node's in-flight jobs
        are identifiable from lease owners alone — the fleet-level twin
        of the supervisor recovering ``w<slot>.g<gen>`` owners.
        """
        prefix = f"{node_id}:"
        owners = [
            owner
            for owner in self.queue.lease_owners().values()
            if owner.startswith(prefix)
        ]
        return self._op_recover(node_id, owners) if owners else []
