"""Remote worker agent: PR 6 worker processes against a proxy queue.

``provmark agent --coordinator HOST:PORT --workers N`` joins the fleet:

1. **register** — the coordinator's response *is* the config download:
   the spool's scheduler policy and the fleet retry policy, so every
   node claims and retries under exactly one policy regardless of what
   its command line says;
2. **supervise** — an ordinary :class:`~repro.exec.Supervisor` runs N
   worker processes, except its queue (and every worker's) is a
   :class:`~repro.cluster.remote.RemoteQueue` and worker owner ids are
   prefixed ``<node_id>:`` so the coordinator can recover this node's
   leases by prefix if it goes silent;
3. **heartbeat** — a node-level heartbeat loop keeps the registry row
   alive (workers' per-job lease heartbeats ride the same protocol but
   do not prove the *node* is up when idle);
4. **drain** — SIGTERM drains the supervisor (in-flight jobs finish),
   then deregisters, so a polite shutdown never leaves leases to TTL
   recovery.

Results ship back through the shared store path: workers write
artifacts content-addressed into ``<plane>/store`` exactly as local
workers do, which on a fleet is a shared mount.
"""

from __future__ import annotations

import os
import socket
import threading
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.api.errors import ValidationError
from repro.cluster.protocol import ClusterUnavailableError
from repro.cluster.remote import RemoteQueue
from repro.exec.policy import RetryPolicy
from repro.exec.supervisor import Supervisor
from repro.faults import FaultPlan

#: node-registry heartbeat cadence ceiling (the join response's
#: ``node_ttl`` tightens it to ttl/3)
DEFAULT_NODE_HEARTBEAT = 1.0

DEFAULT_DRAIN_TIMEOUT = 30.0


def parse_endpoint(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``, strictly."""
    text = str(value or "").strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"coordinator endpoint must be HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"coordinator endpoint has a non-numeric port: {text!r}"
        ) from None
    if not (0 < port < 65536):
        raise ValidationError(
            f"coordinator endpoint port out of range: {port}"
        )
    return host, port


def default_node_id() -> str:
    """Host + pid: unique per agent process, stable for its lifetime."""
    return f"{socket.gethostname()}-{os.getpid()}"


def run_agent(
    coordinator: str,
    workers: int = 2,
    plane: str = ".provmark-agent",
    node_id: str = "",
    token: str = "",
    poll_interval: float = 0.05,
    faults: Optional[FaultPlan] = None,
    heartbeat_interval: float = DEFAULT_NODE_HEARTBEAT,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    stop_event: Optional[threading.Event] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Run one agent until ``stop_event`` is set (the CLI sets it on
    SIGTERM/SIGINT); returns a process exit code.

    ``plane`` is the agent's plane directory: ``<plane>/store`` is the
    (shared) artifact store results ship through, ``<plane>/spool`` only
    hosts fault-injection token budgets — job state lives coordinator-side.
    """
    emit = log if log is not None else (lambda msg: None)
    host, port = parse_endpoint(coordinator)
    node = node_id or default_node_id()
    stop = stop_event if stop_event is not None else threading.Event()

    plane_dir = Path(plane)
    spool_root = plane_dir / "spool"
    store_path = plane_dir / "store"
    spool_root.mkdir(parents=True, exist_ok=True)
    store_path.mkdir(parents=True, exist_ok=True)

    client = RemoteQueue(host, port, node, auth=token, faults=faults)
    try:
        join = client.register(workers, host=socket.gethostname())
    except ClusterUnavailableError as exc:
        emit(f"provmark agent: cannot join fleet: {exc}")
        return 3
    node_ttl = float(join.get("node_ttl") or 5.0)
    policy_payload = join.get("policy")
    policy = (
        RetryPolicy.from_payload(policy_payload)
        if isinstance(policy_payload, dict) else RetryPolicy()
    )
    emit(
        f"provmark agent: joined {host}:{port} as {node} "
        f"({workers} worker(s), lease_ttl={policy.lease_ttl:g}s, "
        f"node_ttl={node_ttl:g}s)"
    )

    supervisor = Supervisor(
        spool_root=str(spool_root),
        store_path=str(store_path),
        workers=workers,
        policy=policy,
        faults=faults,
        poll_interval=poll_interval,
        owner_prefix=f"{node}:",
        remote=client.to_payload(),
    )
    supervisor.start()
    beat_every = min(max(0.05, heartbeat_interval), node_ttl / 3.0)
    try:
        while not stop.wait(beat_every):
            try:
                if not client.node_heartbeat():
                    # outlived a TTL sweep (partition, coordinator
                    # restart): rejoin so the registry row comes back
                    client.register(workers, host=socket.gethostname())
                    emit(f"provmark agent: re-registered {node}")
            except ClusterUnavailableError:
                # coordinator unreachable past the retry budget: keep
                # the workers running (their own retries ride the same
                # backoff) and keep heartbeating until it returns
                emit("provmark agent: coordinator unreachable, retrying")
    finally:
        emit(f"provmark agent: draining {node}")
        clean = supervisor.drain(drain_timeout)
        try:
            client.deregister()
        except ClusterUnavailableError:
            pass  # TTL sweep will reap the registry row
        client.close()
        emit(
            f"provmark agent: {node} left the fleet "
            f"({'clean' if clean else 'forced'} drain)"
        )
    return 0 if clean else 1
