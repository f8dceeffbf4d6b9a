"""Fleet status events: one hub, many subscribers, C-CBPS style.

The coordinator publishes every fleet-visible transition —
node join/leave, claim, completion, failure, cancellation, autoscale —
into one :class:`EventHub`.  Subscribers are content-blind queues: a
``subscribe`` connection drains its queue into event frames, the
``/v1/cluster`` route renders the retained ring buffer, and tests
assert ordering on the monotonic ``seq``.

Events are payload types (:func:`repro.codec.payload_type`): the JSON
codec and field type checks are derived from the fields and fail as
:class:`~repro.cluster.protocol.ProtocolError`, like the rest of the
wire protocol, so a subscriber can round-trip and validate every pushed
frame.  The hub keeps a bounded ring of recent events
(replayable on subscribe) and never blocks a publisher: a subscriber
that stops draining loses events past its queue bound instead of
wedging the coordinator.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Deque, List, Optional, Tuple

from collections import deque

from repro.cluster.protocol import ProtocolError
from repro.codec import payload_type

#: every event kind the coordinator publishes
EVENT_KINDS = (
    "node_join", "node_leave", "claim", "complete", "fail", "cancel",
    "autoscale",
)

#: events retained for replay/rendering
DEFAULT_HISTORY = 256

#: per-subscriber queue bound (a stalled subscriber drops, never blocks)
SUBSCRIBER_QUEUE_MAX = 1024


@payload_type(error=ProtocolError)
class ClusterEvent:
    """One fleet transition, strictly typed for the wire."""

    seq: int
    ts: float
    kind: str
    node_id: str = ""
    job_id: str = ""
    detail: str = ""

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ProtocolError(
                f"ClusterEvent.seq: must be >= 1, got {self.seq}"
            )
        if self.kind not in EVENT_KINDS:
            raise ProtocolError(
                f"ClusterEvent.kind: must be one of {list(EVENT_KINDS)}, "
                f"got {self.kind!r}"
            )


class EventHub:
    """Bounded publish-subscribe fan-out of :class:`ClusterEvent` rows."""

    def __init__(self, history: int = DEFAULT_HISTORY) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._ring: Deque[ClusterEvent] = deque(maxlen=max(1, history))
        self._subscribers: List["queue.Queue[ClusterEvent]"] = []

    @property
    def seq(self) -> int:
        """Total events ever published (monotonic)."""
        with self._lock:
            return self._seq

    def publish(
        self,
        kind: str,
        node_id: str = "",
        job_id: str = "",
        detail: str = "",
        ts: Optional[float] = None,
    ) -> ClusterEvent:
        """Stamp, retain, and fan out one event (non-blocking)."""
        with self._lock:
            self._seq += 1
            event = ClusterEvent(
                seq=self._seq,
                ts=time.time() if ts is None else float(ts),
                kind=kind,
                node_id=node_id,
                job_id=job_id,
                detail=detail,
            )
            self._ring.append(event)
            subscribers = list(self._subscribers)
        for sub in subscribers:
            try:
                sub.put_nowait(event)
            except queue.Full:
                pass  # a wedged subscriber loses events, never blocks us
        return event

    def subscribe(
        self, replay: int = 0
    ) -> Tuple["queue.Queue[ClusterEvent]", List[ClusterEvent]]:
        """Attach a subscriber queue; returns it plus the replayed tail.

        Replay and attachment are atomic under the hub lock, so a
        subscriber sees every event exactly once: the last ``replay``
        retained events, then the live feed from the next publish on.
        """
        sub: "queue.Queue[ClusterEvent]" = queue.Queue(SUBSCRIBER_QUEUE_MAX)
        with self._lock:
            replayed = list(self._ring)[-replay:] if replay > 0 else []
            self._subscribers.append(sub)
        return sub, replayed

    def unsubscribe(self, sub: "queue.Queue[ClusterEvent]") -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def recent(self, count: int = 32) -> List[ClusterEvent]:
        """The newest ``count`` retained events, oldest first."""
        with self._lock:
            tail = list(self._ring)
        return tail[-max(0, count):]
