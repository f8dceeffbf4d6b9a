"""Supervisor: spawn worker slots, restart the dead, recover leases.

The supervisor owns N worker *slots*.  Each slot runs one
:func:`~repro.exec.worker.worker_main` process — or, when there is no
spool a process could open (an in-memory
:class:`~repro.exec.queue.MemoryQueue`), one thread running the same
claim loop (:func:`~repro.exec.worker.serve_slot`).  When a slot dies —
injected kill, OOM, segfault, anything — it respawns with a fresh
*generation* (owner id ``w<slot>.g<gen>``), and the dead incarnation's
leases are recovered immediately by owner, without waiting out the lease
TTL.  A monitor thread ticks continuously, also sweeping leases whose
heartbeat went stale (the worker is alive but wedged or silenced — the
``heartbeat_loss`` chaos case) and evicting finished records past the
retention cap.

Shutdown comes in two shapes:

* :meth:`drain` — graceful: stop respawning, SIGTERM every worker
  (workers finish their in-flight job, then exit), wait up to the
  timeout, SIGKILL stragglers and recover their leases.  Pending jobs
  stay durable in the spool for the next fleet (an in-memory queue's
  manager runs the queue dry before it drains the slots).
* :meth:`stop` — immediate: SIGTERM, a short grace, SIGKILL, recover.

A thread slot takes the same signals as flags: SIGTERM sets its drain
event, and SIGKILL abandons it (a thread cannot be killed: it finishes
its job unowned, and its lease is recovered like a dead process's).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import List, Mapping, Optional

from repro.exec.policy import RetryPolicy
from repro.exec.queue import MemoryQueue
from repro.exec.worker import serve_slot, worker_main
from repro.faults import FaultPlan


def _fork_context():
    """Prefer fork (shares the parent's registry state, no re-import
    cost); fall back to the platform default where fork is unavailable
    (worker_main and its arguments are picklable either way)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


class _ThreadSlot:
    """A slot's thread over a :class:`MemoryQueue`, shaped like the
    ``Process`` a worker slot holds (start, is_alive, terminate, kill,
    join)."""

    def __init__(
        self,
        queue: MemoryQueue,
        policy: RetryPolicy,
        uid: str,
        poll_interval: float,
    ) -> None:
        self._queue = queue
        self._draining = threading.Event()
        self._abandoned = False
        self._thread = threading.Thread(
            target=serve_slot,
            args=(
                queue, None, policy, None, uid, None, self._draining,
                lambda: queue.wait(poll_interval, self._draining),
            ),
            name=f"provmark-{uid}",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def is_alive(self) -> bool:
        return self._thread.is_alive() and not self._abandoned

    def terminate(self) -> None:
        """Stop claiming; an idle slot parked in the queue's wait
        leaves it at once, a busy one after its job."""
        self._draining.set()
        self._queue.wake()

    def kill(self) -> None:
        self.terminate()
        self._abandoned = True

    def join(self, timeout: Optional[float] = None) -> None:
        # a slot can be asked to join itself: the job it just finished
        # held the last reference to a manager, whose teardown stops it
        if not self._abandoned and self._thread is not threading.current_thread():
            self._thread.join(timeout)


class Supervisor:
    """N supervised worker slots over one queue."""

    #: seconds between monitor ticks (restart + lease recovery latency)
    TICK_INTERVAL = 0.1

    #: monitor ticks between finished-record eviction sweeps (eviction
    #: parses every record, so it runs at ~1/50th the tick rate)
    EVICT_EVERY = 50

    def __init__(
        self,
        spool_root: Optional[str],
        store_path: Optional[str],
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        poll_interval: float = 0.05,
        finished_cap: int = 256,
        owner_prefix: str = "",
        remote: Optional[Mapping[str, object]] = None,
        queue: Optional[object] = None,
    ) -> None:
        """``owner_prefix`` namespaces worker owner ids (a cluster agent
        passes ``"<node_id>:"`` so the coordinator can recover a dead
        node's leases by prefix).  ``remote`` is a
        ``RemoteQueue.to_payload()`` mapping: when set, every worker this
        supervisor spawns speaks to a coordinator instead of a local
        spool.  ``queue`` is the queue the monitor recovers and evicts
        over: a manager passes its own, and a cluster agent passes none,
        so one is opened over ``remote``.  With no ``spool_root`` the
        slots are threads claiming from ``queue``.  ``workers`` may be 0
        for a coordinator-only plane (the monitor still sweeps leases)."""
        self.spool_root = spool_root
        self.store_path = store_path
        self.workers = max(0, int(workers))
        self.policy = policy if policy is not None else RetryPolicy()
        self.owner_prefix = owner_prefix
        self._remote = dict(remote) if remote is not None else None
        if queue is None:
            from repro.cluster.remote import RemoteQueue

            queue = RemoteQueue.from_payload(self._remote)
        self.queue = queue
        self.poll_interval = poll_interval
        self.finished_cap = finished_cap
        self._fault_payload = (
            faults.to_payload() if faults is not None else None
        )
        self._ctx = _fork_context()
        self._procs: List[Optional[multiprocessing.Process]] = (
            [None] * self.workers
        )
        self._uids: List[str] = [""] * self.workers
        self._generations: List[int] = [0] * self.workers
        #: total worker restarts (crash respawns), for health/stats
        self.restarts = 0
        #: worker slots the fleet aims to keep alive; slots beyond it
        #: are retired (drained, never respawned) — the autoscaler's
        #: lever, also usable directly via :meth:`set_target`
        self._target = self.workers
        #: optional QueueAutoscaler ticked by the monitor thread
        self.autoscaler = None
        self._draining = False
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._ticks = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker slot and the monitor thread."""
        with self._lock:
            for slot in range(self._target):
                self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="exec-supervisor", daemon=True
        )
        self._monitor.start()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain; True when every worker exited in time.

        Workers stop claiming on SIGTERM and finish their in-flight job
        first.  Stragglers past the timeout are SIGKILLed and their
        leases recovered (those jobs retry under the next fleet).
        Pending jobs are left durable in the spool either way.
        """
        with self._lock:
            self._draining = True
            procs = [p for p in self._procs if p is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: drain, don't kill
        deadline = time.monotonic() + max(0.0, timeout)
        clean = True
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                clean = False
                proc.kill()
                proc.join()
        self._shutdown_monitor()
        self._recover_dead()
        return clean

    def stop(self, grace: float = 1.0) -> None:
        """Immediate shutdown: a :meth:`drain` with a short grace."""
        self.drain(grace)

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for p in self._procs if p is not None and p.is_alive()
            )

    @property
    def target(self) -> int:
        """Current worker-slot target (autoscaling moves it)."""
        with self._lock:
            return self._target

    def set_target(self, target: int) -> bool:
        """Grow or shrink the fleet to ``target`` slots; False while
        draining (a drain is a scale-to-zero that must not be fought).

        Growing spawns fresh incarnations in new/retired slots at once.
        Shrinking retires the *highest* slots gracefully: each gets a
        SIGTERM (workers finish their in-flight job, then exit) and
        :meth:`tick` reaps it without respawning.  Slot bookkeeping
        (uids, generations) is never truncated — lease recovery must
        remember every incarnation that ever ran.
        """
        target = max(1, int(target))
        with self._lock:
            if self._draining:
                return False
            if target > len(self._procs):
                grow = target - len(self._procs)
                self._procs.extend([None] * grow)
                self._uids.extend([""] * grow)
                self._generations.extend([0] * grow)
            self._target = target
            for slot in range(target):
                # dead-but-unreaped procs are left for tick(), which
                # joins them and recovers their leases before respawning
                if self._procs[slot] is None:
                    self._spawn(slot)
            retiring = [
                p for p in self._procs[target:]
                if p is not None and p.is_alive()
            ]
        for proc in retiring:
            proc.terminate()  # SIGTERM: drain the slot, don't kill it
        return True

    # -- supervision ---------------------------------------------------------

    def tick(self) -> None:
        """One supervision pass: reap + respawn, recover, evict, scale.

        Slots at or beyond the current target are retired, not
        respawned — a scale-down exit is deliberate, so it does not
        count as a crash restart.  Retired incarnations' leases recover
        like any dead worker's (a retiring worker that was SIGKILLed by
        the OS mid-drain loses nothing durable).
        """
        dead_uids: List[str] = []
        with self._lock:
            for slot, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                proc.join()
                dead_uids.append(self._uids[slot])
                self._procs[slot] = None
                if not self._draining and slot < self._target:
                    self.restarts += 1
                    self._spawn(slot)
        # Dead incarnations' leases recover immediately (by owner); the
        # same sweep requeues any lease whose heartbeat went stale.
        self.queue.recover(self.policy, dead_owners=dead_uids)
        self._ticks += 1
        if self._ticks % self.EVICT_EVERY == 0:
            self.queue.evict_finished(self.finished_cap)
        if self.autoscaler is not None and not self._draining:
            self.autoscaler.maybe_scale(self)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.TICK_INTERVAL):
            self.tick()

    def _spawn(self, slot: int) -> None:
        """Start a fresh incarnation in ``slot`` (called under _lock)."""
        self._generations[slot] += 1
        uid = f"{self.owner_prefix}w{slot}.g{self._generations[slot]}"
        if self.spool_root is None:
            thread = _ThreadSlot(
                self.queue, self.policy, uid, self.poll_interval
            )
            thread.start()
            self._procs[slot] = thread
            self._uids[slot] = uid
            return
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                slot,
                uid,
                self.spool_root,
                self.store_path,
                self.policy.to_payload(),
                self._fault_payload,
                self.poll_interval,
                self._remote,
            ),
            name=f"provmark-{uid}",
        )
        proc.start()
        self._procs[slot] = proc
        self._uids[slot] = uid

    def _shutdown_monitor(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None

    def _recover_dead(self) -> None:
        """Recover every lease still held by any incarnation ever spawned
        (post-shutdown: all of them are dead by construction)."""
        owners = [uid for uid in self._uids if uid]
        # past generations too: w<slot>.g1 .. g<current>
        for slot, gen in enumerate(self._generations):
            owners.extend(
                f"{self.owner_prefix}w{slot}.g{g}"
                for g in range(1, gen + 1)
            )
        self.queue.recover(self.policy, dead_owners=owners)
