"""repro.cluster — the multi-host execution plane.

One :class:`ClusterCoordinator` colocated with the durable spool
arbitrates claims for the whole fleet through the local
``JobQueue.claim()`` path (priority, aging, fair share — PR 9 semantics
fleet-wide).  Remote hosts run :func:`run_agent`, whose PR 6 worker
processes speak to the coordinator through a :class:`RemoteQueue` — a
``JobQueue`` duck type over a length-prefixed, versioned JSON wire
protocol with per-request auth, whose vocabulary is the one
:data:`OPS` table of queue-method names.  Fleet transitions fan out
pub-sub style through an :class:`EventHub`; ``subscribe`` streams them
and ``GET /v1/cluster`` renders them.
"""

from repro.cluster.agent import default_node_id, parse_endpoint, run_agent
from repro.cluster.coordinator import DEFAULT_NODE_TTL, ClusterCoordinator
from repro.cluster.events import EVENT_KINDS, ClusterEvent, EventHub
from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ClusterUnavailableError,
    FrameError,
    ProtocolError,
    RemoteOpError,
    decode_event,
    decode_request,
    decode_response,
    encode_request,
    recv_frame,
    send_frame,
)
from repro.cluster.remote import RemoteQueue

__all__ = [
    "ClusterCoordinator",
    "ClusterEvent",
    "ClusterUnavailableError",
    "DEFAULT_NODE_TTL",
    "EVENT_KINDS",
    "EventHub",
    "FrameError",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteOpError",
    "RemoteQueue",
    "decode_event",
    "decode_request",
    "decode_response",
    "encode_request",
    "recv_frame",
    "send_frame",
    "default_node_id",
    "parse_endpoint",
    "run_agent",
]
