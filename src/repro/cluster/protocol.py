"""Wire protocol of the multi-host execution plane.

Everything the coordinator and its agents say to each other is a
**frame**: a 4-byte big-endian length prefix followed by one UTF-8 JSON
object.  Three frame shapes travel over one TCP connection:

* **requests** — ``{"version": 2, "auth": "<token>", "node": "<node id>",
  "op": "claim", "args": {"owner": "..."}}``; every request carries the
  shared auth token (the per-request check means a connection hijacked
  after registration still cannot act) and the sending node's id;
* **responses** — ``{"version": 2, "ok": true, "result": <value>}`` or
  ``{"version": 2, "ok": false, "error": {"type", "message"}}``; the
  result is what the named method returned, and error types map back
  onto the :mod:`repro.api.errors` hierarchy client-side so a remote
  ``NotFoundError`` raises exactly like a local one;
* **events** — ``{"version": 2, "event": {...}}``, pushed down a
  connection that sent ``subscribe`` (see :mod:`repro.cluster.events`).

The vocabulary is one table, :data:`OPS`: op → ``{arg: (check, default
or REQUIRED)}``.  Each queue verb *is* a
:class:`~repro.exec.queue.JobQueue` method — same name, same keyword
arguments minus the local-only ``policy``/``now`` — so the coordinator
can answer it with ``getattr(queue, op)(**args)``; ``register``,
``deregister``, ``node_heartbeat`` and ``subscribe`` are the node verbs
the coordinator answers itself.  :func:`decode_request` checks an
envelope against the table: an unknown op or argument, a missing
required argument, or a wrongly typed value is a :class:`ProtocolError`
naming ``op.arg``.  The version tag makes a mixed fleet fail loudly: a
v1 peer meets a ``ProtocolError``, never a half-decode.

Framing errors split in two deliberately:

* :class:`FrameError` — transport-level damage (truncated frame,
  oversized frame, unparsable JSON).  A client reading a response may
  retry these: the peer died mid-write, and every mutating verb is
  idempotent server-side.
* :class:`ProtocolError` — a well-framed but invalid message (wrong
  version, unknown op, bad envelope).  Never retried: the same bytes
  would fail the same way.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Callable, Dict, Mapping, Optional, Tuple, Type

from repro.api.errors import (
    ApiError,
    ConflictError,
    NotFoundError,
    UnauthorizedError,
    ValidationError,
)

#: version tag every frame carries; mismatches are rejected outright
#: (a mixed-version fleet must fail loudly, not half-decode)
PROTOCOL_VERSION = 2

#: hard cap on one frame's JSON payload — batch results of a
#: 50-benchmark job are a few MB; anything near this is hostile or torn
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: the length prefix: 4-byte big-endian unsigned
_PREFIX = struct.Struct("!I")


class ProtocolError(ApiError):
    """A well-framed but invalid message (never worth retrying)."""

    http_status = 400
    exit_code = 2


class FrameError(ProtocolError):
    """Transport-level framing damage (truncation, oversize, bad JSON)."""


class ClusterUnavailableError(ApiError):
    """The coordinator stayed unreachable past the retry budget."""

    http_status = 503
    exit_code = 3


class RemoteOpError(ApiError):
    """A coordinator-side failure of a type this client cannot map."""


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, payload: Mapping[str, object]) -> None:
    """Serialize and write one frame (length prefix + JSON body)."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(blob) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame too large to send ({len(blob)} > {MAX_FRAME_BYTES} bytes)"
        )
    sock.sendall(_PREFIX.pack(len(blob)) + blob)


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame is a :class:`FrameError` (the peer died
    mid-write), as are oversized length prefixes and unparsable bodies.
    """
    prefix = _recv_exact(sock, _PREFIX.size, eof_ok=True)
    if prefix is None:
        return None
    (length,) = _PREFIX.unpack(prefix)
    if length > max_bytes:
        raise FrameError(
            f"incoming frame too large ({length} > {max_bytes} bytes)"
        )
    blob = _recv_exact(sock, length, eof_ok=False)
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None  # clean close between frames
            raise FrameError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                "bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- the op table ------------------------------------------------------------
#
# A check is a predicate over one decoded JSON value; its docstring is
# the noun phrase error messages use ("claim.owner: must be a non-empty
# string, got ''").

Check = Callable[[object], bool]


def is_str(value: object) -> bool:
    """a string"""
    return isinstance(value, str)


def is_name(value: object) -> bool:
    """a non-empty string"""
    return isinstance(value, str) and bool(value)


def is_count(value: object) -> bool:
    """an int >= 0"""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def is_object(value: object) -> bool:
    """an object or null"""
    return value is None or isinstance(value, dict)


def is_objects(value: object) -> bool:
    """an array of objects, or null"""
    return value is None or (
        isinstance(value, list) and all(isinstance(v, dict) for v in value)
    )


def is_names(value: object) -> bool:
    """an array of non-empty strings"""
    return isinstance(value, list) and all(is_name(v) for v in value)


def check(where: str, value: object, predicate: Check) -> None:
    """Raise a :class:`ProtocolError` naming ``where`` unless
    ``predicate`` accepts ``value``."""
    if not predicate(value):
        raise ProtocolError(
            f"{where}: must be {predicate.__doc__}, got {value!r:.60}"
        )


#: marks an argument every request for its op must carry
REQUIRED = object()

#: the whole wire vocabulary: op -> {arg: (check, default or REQUIRED)}
OPS: Dict[str, Dict[str, Tuple[Check, object]]] = {
    # JobQueue verbs: the method's name and keyword arguments
    "claim": {"owner": (is_name, REQUIRED)},
    "heartbeat": {
        "job_id": (is_name, REQUIRED),
        "owner": (is_name, REQUIRED),
        "stage": (is_str, ""),
    },
    "update_progress": {
        "job_id": (is_name, REQUIRED),
        "completed": (is_count, REQUIRED),
        "stage": (is_str, ""),
    },
    "complete": {
        "job_id": (is_name, REQUIRED),
        "result": (is_object, None),
        "results": (is_objects, None),
        "report": (is_object, None),
    },
    "fail": {"job_id": (is_name, REQUIRED), "error": (is_name, REQUIRED)},
    "retry_or_fail": {
        "job_id": (is_name, REQUIRED),
        "error": (is_name, REQUIRED),
    },
    "mark_cancelled": {"job_id": (is_name, REQUIRED)},
    "cancel_requested": {"job_id": (is_name, REQUIRED)},
    "recover": {"dead_owners": (is_names, ())},
    # node verbs: the agent's fleet membership and the event stream
    "register": {"workers": (is_count, REQUIRED), "host": (is_str, "")},
    "deregister": {},
    "node_heartbeat": {},
    "subscribe": {"replay": (is_count, 0)},
}


# -- envelopes ---------------------------------------------------------------


def encode_request(
    op: str, args: Mapping[str, object], node: str, auth: str = ""
) -> Dict[str, object]:
    return {
        "version": PROTOCOL_VERSION,
        "auth": auth,
        "node": node,
        "op": op,
        "args": dict(args),
    }


def decode_request(payload: object) -> Dict[str, object]:
    """Check one request envelope against :data:`OPS`.

    Returns the envelope with every omitted argument filled from the
    table's defaults, ready for ``method(**request["args"])``.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this node speaks {PROTOCOL_VERSION})"
        )
    unknown = sorted(set(payload) - {"version", "auth", "node", "op", "args"})
    if unknown:
        raise ProtocolError(
            f"request envelope has unknown key(s): {', '.join(unknown)}"
        )
    op = payload.get("op")
    table = OPS.get(op) if isinstance(op, str) else None
    if table is None:
        raise ProtocolError(
            f"unknown op {op!r} (known: {', '.join(sorted(OPS))})"
        )
    auth = payload.get("auth", "")
    node = payload.get("node")
    args = payload.get("args", {})
    check("request.auth", auth, is_str)
    check(f"{op}.node", node, is_name)
    if not isinstance(args, Mapping):
        raise ProtocolError(
            f"{op}.args: must be an object, got {type(args).__name__}"
        )
    unknown = sorted(set(args) - set(table))
    if unknown:
        raise ProtocolError(f"{op}.{unknown[0]}: unknown argument")
    filled: Dict[str, object] = {}
    for name, (predicate, default) in table.items():
        if name in args:
            check(f"{op}.{name}", args[name], predicate)
            filled[name] = args[name]
        elif default is REQUIRED:
            raise ProtocolError(f"{op}.{name}: required argument missing")
        else:
            filled[name] = default
    return encode_request(op, filled, node, auth)


def ok_response(result: object) -> Dict[str, object]:
    return {"version": PROTOCOL_VERSION, "ok": True, "result": result}


def error_response(error: BaseException) -> Dict[str, object]:
    return {
        "version": PROTOCOL_VERSION,
        "ok": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error) or type(error).__name__,
        },
    }


#: error types a response may carry that map back onto local exceptions;
#: anything else raises :class:`RemoteOpError` with the type in the text
_ERROR_TYPES: Dict[str, Type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ProtocolError, FrameError, ValidationError, NotFoundError,
        UnauthorizedError, ConflictError,
    )
}


def decode_response(payload: Mapping[str, object]) -> object:
    """The result of an ok response; error responses raise.

    Mapped error types re-raise as their local
    :mod:`repro.api.errors` class, so remote failures propagate through
    worker code exactly like local ones (a remote ``NotFoundError`` is
    permanent, a remote ``RemoteOpError`` is retryable infrastructure).
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"response must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported response version {payload.get('version')!r}"
        )
    if payload.get("ok") is True:
        return payload.get("result")
    error = payload.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError("response is neither ok nor a typed error")
    type_name = str(error.get("type") or "RemoteOpError")
    message = str(error.get("message") or "remote operation failed")
    cls = _ERROR_TYPES.get(type_name)
    if cls is not None:
        raise cls(message)
    raise RemoteOpError(f"{type_name}: {message}")


def event_frame(event_payload: Mapping[str, object]) -> Dict[str, object]:
    return {"version": PROTOCOL_VERSION, "event": dict(event_payload)}


def decode_event(payload: Mapping[str, object]) -> Dict[str, object]:
    """The event payload of a pushed event frame (see events.py)."""
    if not isinstance(payload, Mapping) or "event" not in payload:
        raise ProtocolError("expected an event frame")
    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported event version {payload.get('version')!r}"
        )
    event = payload["event"]
    if not isinstance(event, Mapping):
        raise ProtocolError("event frame payload must be an object")
    return dict(event)
