"""Wire-protocol codecs of the multi-host execution plane.

Property-style, in the ``test_api_types.py`` mold, and derived from the
op table: each request argument's generator comes from its
:data:`repro.cluster.protocol.OPS` check, so a new op gets round-trip
and rejection coverage (unknown argument, missing required argument,
wrongly typed argument, empty ``node``) without a test edit, and the
table is pinned to the ``JobQueue``/``RemoteQueue`` signatures it
exposes.  The framing layer runs over real socket pairs — truncated
prefixes, mid-frame EOF, oversized frames, and non-object JSON must all
surface as :class:`FrameError`, while a clean close between frames reads
as ``None``.
"""

import inspect
import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.errors import (
    ConflictError,
    NotFoundError,
    UnauthorizedError,
    ValidationError,
)
from repro.api.types import ClusterNodeInfo, ClusterStatus
from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.events import EVENT_KINDS, ClusterEvent, EventHub
from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    REQUIRED,
    FrameError,
    ProtocolError,
    RemoteOpError,
    decode_event,
    decode_request,
    decode_response,
    encode_request,
    error_response,
    event_frame,
    ok_response,
    recv_frame,
    send_frame,
)
from repro.cluster.remote import RemoteQueue
from repro.exec.queue import JobQueue

# -- generators --------------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)
maybe_name = st.just("") | names
small_ints = st.integers(min_value=0, max_value=1000)
json_objects = st.dictionaries(names, names | small_ints, max_size=3)

#: one generator per wire check: an op built from existing checks is
#: covered without an edit here; a new check must add its generator
CHECK_STRATEGIES = {
    protocol.is_str: maybe_name,
    protocol.is_name: names,
    protocol.is_count: small_ints,
    protocol.is_object: st.none() | json_objects,
    protocol.is_objects: st.none() | st.lists(json_objects, max_size=2),
    protocol.is_names: st.lists(names, max_size=2),
}

#: decoded JSON values; a check's valid and invalid samples are the
#: members of this pool it accepts and rejects
JSON_VALUES = [
    None, True, -1, 7, 1.5, "", "x", [], ["x"], [""], [7], {}, {"k": 1},
    [{"k": 1}],
]


def accepted(check):
    return [value for value in JSON_VALUES if check(value)]


def rejected(check):
    return [value for value in JSON_VALUES if not check(value)]


def args_for(op):
    """Valid arguments of ``op``: every required one, any optional subset."""
    table = OPS[op]
    return st.fixed_dictionaries(
        {name: CHECK_STRATEGIES[check]
         for name, (check, default) in table.items() if default is REQUIRED},
        optional={
            name: CHECK_STRATEGIES[check]
            for name, (check, default) in table.items()
            if default is not REQUIRED
        },
    )


#: (op, args, node) triples over the whole table
any_request = st.sampled_from(sorted(OPS)).flatmap(
    lambda op: st.tuples(st.just(op), args_for(op), names)
)


def sample_args(op):
    """One concrete valid argument set: the op's required arguments."""
    return {
        name: accepted(check)[-1]
        for name, (check, default) in OPS[op].items() if default is REQUIRED
    }


def filled(op, args):
    """``args`` plus the table's default for every omitted argument."""
    defaults = {
        name: default
        for name, (_, default) in OPS[op].items() if default is not REQUIRED
    }
    return {**defaults, **args}


cluster_events = st.builds(
    ClusterEvent,
    seq=st.integers(min_value=1, max_value=10**6),
    ts=st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
    kind=st.sampled_from(EVENT_KINDS),
    node_id=maybe_name,
    job_id=maybe_name,
    detail=maybe_name,
)

node_infos = st.builds(
    ClusterNodeInfo,
    node_id=names,
    host=maybe_name,
    workers=small_ints,
    claims=small_ints,
    last_seen_age=st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
)

cluster_statuses = st.builds(
    ClusterStatus,
    enabled=st.booleans(),
    coordinator=maybe_name,
    draining=st.booleans(),
    nodes=st.tuples() | st.tuples(node_infos) | st.tuples(
        node_infos, node_infos
    ),
    remote_workers=small_ints,
    local_workers=small_ints,
    claims_total=small_ints,
    completions_total=small_ints,
    events_seq=small_ints,
)


def wire(payload):
    """One real JSON serialization round (what the socket would carry)."""
    return json.loads(json.dumps(payload, sort_keys=True))


# -- request round-trips -----------------------------------------------------


class TestMessageRoundTrip:
    def test_every_op_has_a_strategy(self):
        # every check the table uses has a generator, and the sample
        # pool holds a value it accepts and a value it rejects
        checks = {check for table in OPS.values()
                  for check, _ in table.values()}
        assert checks <= set(CHECK_STRATEGIES)
        for check in checks:
            assert accepted(check) and rejected(check), check.__name__

    @settings(max_examples=200, deadline=None)
    @given(request=any_request)
    def test_request_roundtrip(self, request):
        op, args, node = request
        decoded = decode_request(wire(encode_request(op, args, node, "tok")))
        assert decoded == encode_request(op, filled(op, args), node, "tok")

    @settings(max_examples=50, deadline=None)
    @given(request=any_request)
    def test_default_auth_is_empty(self, request):
        op, args, node = request
        assert decode_request(wire(encode_request(op, args, node)))[
            "auth"] == ""

    @settings(max_examples=100, deadline=None)
    @given(event=cluster_events)
    def test_event_roundtrip(self, event):
        pushed = wire(event_frame(event.to_payload()))
        assert ClusterEvent.from_payload(decode_event(pushed)) == event

    @settings(max_examples=100, deadline=None)
    @given(status=cluster_statuses)
    def test_cluster_status_roundtrip(self, status):
        assert ClusterStatus.from_payload(wire(status.to_payload())) == status

    @settings(max_examples=50, deadline=None)
    @given(info=node_infos)
    def test_node_info_roundtrip(self, info):
        assert ClusterNodeInfo.from_payload(wire(info.to_payload())) == info


# -- the table against the classes it exposes --------------------------------


class TestOpTable:
    #: method parameters that never cross the wire
    LOCAL_ONLY = ("self", "policy", "now")

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_methods_take_exactly_the_table_arguments(self, op):
        owners = [RemoteQueue] + ([JobQueue] if hasattr(JobQueue, op) else [])
        for cls in owners:
            params = {
                name: param
                for name, param in inspect.signature(
                    getattr(cls, op)).parameters.items()
                if name not in self.LOCAL_ONLY
            }
            assert set(params) == set(OPS[op]), f"{cls.__name__}.{op}"
            for name, (_, default) in OPS[op].items():
                expected = (inspect.Parameter.empty if default is REQUIRED
                            else default)
                assert params[name].default == expected, (
                    f"{cls.__name__}.{op}({name})")

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_op_has_a_handler(self, op):
        # the coordinator answers an op with its own hook or with the
        # JobQueue method of that name (subscribe streams instead)
        assert (op == "subscribe" or hasattr(JobQueue, op)
                or hasattr(ClusterCoordinator, f"_op_{op}"))


# -- malformed arguments and envelopes ---------------------------------------


class TestRejection:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_unknown_body_key_rejected(self, op):
        args = {**sample_args(op), "surprise": 1}
        payload = encode_request(op, args, "n", "tok")
        with pytest.raises(ProtocolError,
                           match=f"{op}.surprise: unknown argument"):
            decode_request(wire(payload))

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_missing_required_field_rejected(self, op):
        # every op needs the envelope's node, plus its required arguments
        payload = encode_request(op, sample_args(op), "n")
        del payload["node"]
        with pytest.raises(ProtocolError, match=f"{op}.node"):
            decode_request(wire(payload))
        for name in sample_args(op):
            args = sample_args(op)
            del args[name]
            with pytest.raises(ProtocolError, match=f"{op}.{name}: required"):
                decode_request(wire(encode_request(op, args, "n")))

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_wrongly_typed_argument_rejected(self, op):
        for name, (check, _) in OPS[op].items():
            for bad in rejected(check):
                args = {**sample_args(op), name: bad}
                with pytest.raises(ProtocolError, match=f"{op}.{name}: must"):
                    decode_request(wire(encode_request(op, args, "n")))

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_empty_node_rejected(self, op):
        for node in ("", 7, None):
            payload = encode_request(op, sample_args(op), node)
            with pytest.raises(ProtocolError, match=f"{op}.node"):
                decode_request(wire(payload))

    @pytest.mark.parametrize("body", [
        {"owner": ""},
        {"owner": 7},
        {"owner": None},
        [],
        "claim me",
    ])
    def test_bad_claim_bodies(self, body):
        payload = {
            "version": PROTOCOL_VERSION, "auth": "", "node": "n",
            "op": "claim", "args": body,
        }
        with pytest.raises(ProtocolError):
            decode_request(payload)

    def test_wrong_version_rejected(self):
        payload = encode_request("claim", {"owner": "w"}, "n", "tok")
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_request(payload)
        # a v1 agent's message-per-verb request fails on its tag alone
        v1 = {"version": 1, "auth": "", "op": "progress",
              "body": {"node_id": "n", "job_id": "j", "completed": 1}}
        with pytest.raises(ProtocolError,
                           match="unsupported protocol version 1"):
            decode_request(v1)

    def test_unknown_op_rejected(self):
        # retired v1 verbs are unknown, like any other stranger
        for op in ("explode", "progress", "record", "stats"):
            payload = encode_request("claim", {"owner": "w"}, "n")
            payload["op"] = op
            with pytest.raises(ProtocolError, match="unknown op"):
                decode_request(payload)

    def test_unknown_envelope_key_rejected(self):
        payload = encode_request("node_heartbeat", {}, "n")
        payload["extra"] = True
        with pytest.raises(ProtocolError, match="envelope"):
            decode_request(payload)

    def test_non_string_auth_rejected(self):
        payload = encode_request("node_heartbeat", {}, "n")
        payload["auth"] = 42
        with pytest.raises(ProtocolError, match="auth"):
            decode_request(payload)

    @pytest.mark.parametrize("kwargs", [
        {"workers": -1},
        {"workers": True},
        {"workers": 1, "host": 9},
    ])
    def test_register_field_validation(self, kwargs):
        with pytest.raises(ProtocolError, match="register"):
            decode_request(encode_request("register", kwargs, "n"))

    def test_heartbeat_with_job_needs_owner(self):
        with pytest.raises(ProtocolError, match="heartbeat.owner"):
            decode_request(encode_request("heartbeat", {"job_id": "j"}, "n"))

    def test_recover_rejects_empty_owner(self):
        with pytest.raises(ProtocolError, match="recover.dead_owners"):
            decode_request(encode_request(
                "recover", {"dead_owners": ["ok", ""]}, "n"))

    def test_complete_rejects_non_object_results_item(self):
        with pytest.raises(ProtocolError, match="complete.results"):
            decode_request(encode_request(
                "complete", {"job_id": "j", "results": ["nope"]}, "n"))

    @pytest.mark.parametrize("kwargs", [
        {"seq": 0, "ts": 1.0, "kind": "claim"},
        {"seq": 1, "ts": "now", "kind": "claim"},
        {"seq": 1, "ts": 1.0, "kind": "meteor"},
    ])
    def test_bad_events_rejected(self, kwargs):
        with pytest.raises(ProtocolError):
            ClusterEvent(**kwargs)

    def test_event_payload_unknown_key_rejected(self):
        payload = ClusterEvent(seq=1, ts=0.0, kind="claim").to_payload()
        payload["bonus"] = 1
        with pytest.raises(ProtocolError, match="unknown key"):
            ClusterEvent.from_payload(payload)

    def test_cluster_status_rejects_unknown_key(self):
        payload = ClusterStatus(enabled=False).to_payload()
        payload["bonus"] = 1
        with pytest.raises(ValidationError):
            ClusterStatus.from_payload(payload)

    def test_cluster_status_rejects_bad_nodes(self):
        payload = ClusterStatus(enabled=True).to_payload()
        payload["nodes"] = "all of them"
        with pytest.raises(ValidationError):
            ClusterStatus.from_payload(payload)


# -- response envelope -------------------------------------------------------


class TestResponses:
    def test_ok_roundtrip(self):
        # the result is whatever the method returned: any JSON value
        for result in ({"a": 1}, None, True, ["job-1"]):
            assert decode_response(wire(ok_response(result))) == result

    @pytest.mark.parametrize("exc_cls", [
        ProtocolError, FrameError, ValidationError, NotFoundError,
        UnauthorizedError, ConflictError,
    ])
    def test_mapped_errors_reraise_local_type(self, exc_cls):
        payload = wire(error_response(exc_cls("boom")))
        with pytest.raises(exc_cls, match="boom"):
            decode_response(payload)

    def test_unmapped_error_becomes_remote_op_error(self):
        payload = wire(error_response(RuntimeError("kaput")))
        with pytest.raises(RemoteOpError, match="RuntimeError: kaput"):
            decode_response(payload)

    def test_wrong_response_version_rejected(self):
        payload = ok_response({})
        payload["version"] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_response(payload)

    def test_neither_ok_nor_error_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response({"version": PROTOCOL_VERSION, "ok": False})

    def test_event_frame_requires_event_key(self):
        with pytest.raises(ProtocolError, match="event frame"):
            decode_event({"version": PROTOCOL_VERSION, "body": {}})


# -- framing over real sockets -----------------------------------------------


def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestFraming:
    def test_frame_roundtrip(self):
        a, b = pair()
        try:
            payload = encode_request("claim", {"owner": "w"}, "n", "tok")
            send_frame(a, payload)
            send_frame(a, ok_response({"x": 1}))
            assert recv_frame(b) == wire(payload)
            assert recv_frame(b) == wire(ok_response({"x": 1}))
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_prefix_is_frame_error(self):
        a, b = pair()
        a.sendall(b"\x00\x00")  # half a length prefix
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_inside_body_is_frame_error(self):
        a, b = pair()
        a.sendall(struct.pack("!I", 100) + b"{\"cut\": ")
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_without_reading_body(self):
        a, b = pair()
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(FrameError, match="too large"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_custom_cap_applies(self):
        a, b = pair()
        send_frame(a, {"k": "v" * 64})
        try:
            with pytest.raises(FrameError, match="too large"):
                recv_frame(b, max_bytes=16)
        finally:
            a.close()
            b.close()

    def test_unparsable_body_is_frame_error(self):
        a, b = pair()
        blob = b"this is not json"
        a.sendall(struct.pack("!I", len(blob)) + blob)
        try:
            with pytest.raises(FrameError, match="not valid JSON"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_json_is_frame_error(self):
        a, b = pair()
        blob = json.dumps([1, 2, 3]).encode()
        a.sendall(struct.pack("!I", len(blob)) + blob)
        try:
            with pytest.raises(FrameError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_send_refuses_oversized_payload(self, monkeypatch):
        import repro.cluster.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        a, b = pair()
        try:
            with pytest.raises(FrameError, match="too large"):
                send_frame(a, {"blob": "x" * 32})
        finally:
            a.close()
            b.close()

    def test_chunked_delivery_reassembles(self):
        # frames survive arbitrary TCP segmentation
        a, b = pair()
        payload = encode_request("node_heartbeat", {}, "n")
        blob = json.dumps(payload, sort_keys=True).encode()
        framed = struct.pack("!I", len(blob)) + blob
        done = threading.Event()

        def dribble():
            for i in range(0, len(framed), 3):
                a.sendall(framed[i:i + 3])
            done.set()

        t = threading.Thread(target=dribble)
        t.start()
        try:
            assert recv_frame(b) == wire(payload)
            assert done.wait(5.0)
        finally:
            t.join()
            a.close()
            b.close()


# -- event hub ---------------------------------------------------------------


class TestEventHub:
    def test_seq_is_monotonic_and_replay_atomic(self):
        hub = EventHub(history=4)
        for i in range(6):
            hub.publish("claim", node_id=f"n{i}")
        assert hub.seq == 6
        sub, replayed = hub.subscribe(replay=10)
        # ring bound: only the newest 4 survive for replay
        assert [e.seq for e in replayed] == [3, 4, 5, 6]
        live = hub.publish("complete", job_id="j")
        assert sub.get(timeout=5.0) == live
        hub.unsubscribe(sub)
        hub.publish("fail")
        assert sub.empty()

    def test_recent_returns_newest_first_ordered_tail(self):
        hub = EventHub()
        hub.publish("node_join", node_id="a")
        hub.publish("node_leave", node_id="a")
        kinds = [e.kind for e in hub.recent(8)]
        assert kinds == ["node_join", "node_leave"]

    def test_publish_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="kind"):
            EventHub().publish("rumor")
