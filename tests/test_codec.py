"""The one payload codec, exercised over every type that adopts it.

``ADOPTERS`` is the single list: each row is a representative instance
of a payload type, the type's error class, and the ``to_payload()`` key
set captured before the codec was derived (the wire shape it keeps).
Every check below derives its cases from that list and from the types'
own field annotations, so a new payload type is covered by one more row.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Dict, Optional, Tuple, Union

import pytest

from repro.api.errors import ValidationError
from repro.api.specs import (
    BenchmarkSpec,
    ExpectationSpec,
    OpSpec,
    ProgramSpec,
    SetupSpec,
    spec_from_program,
)
from repro.api.types import (
    BatchRequest,
    BenchmarkInfo,
    ClusterNodeInfo,
    ClusterStatus,
    JobStatus,
    RunRequest,
    RunResponse,
    SynthConfig,
    SynthCoverage,
    SynthReport,
    ToolInfo,
    ToolQuery,
)
from repro.cluster.events import ClusterEvent
from repro.cluster.protocol import ProtocolError
from repro.codec import check_names, payload_type
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.exec.policy import RetryPolicy
from repro.faults import FaultError, FaultSpec
from repro.graph.model import PropertyGraph
from repro.sched.policy import AutoscalePolicy, QuotaPolicy
from repro.suite.registry import get_benchmark


def _graph(gid: str) -> PropertyGraph:
    graph = PropertyGraph(gid)
    graph.add_node("n0", "Process", {"pid": "1"})
    graph.add_node("n1", "File", {"path": "/tmp/x"})
    graph.add_edge("e0", "n0", "n1", "wasGeneratedBy", {"t": "0"})
    return graph


TIMINGS = StageTimings(recording=0.5, transformation=0.25, solver_steps=42,
                       store_hits=4, store_misses=1)
RESPONSE = RunResponse(result=BenchmarkResult(
    benchmark="open", tool="spade", classification=Classification.OK,
    target_graph=_graph("target"), foreground=_graph("fg"), background=None,
    timings=TIMINGS, trials=2, discarded_trials=1, note="DV",
))
SPEC = spec_from_program(get_benchmark("open"))
COVERAGE = SynthCoverage(syscalls_before=3, syscalls_after=4,
                         new_syscalls=("creat",))
OP = OpSpec(call="write", args=("$fd", b"\x00hello\n"), result="n",
            target=True, expect_success=False)
SETUP = SetupSpec(kind="file", path="data.bin", mode=0o600,
                  content=b"\xff\xfe payload")
PROGRAM = ProgramSpec(
    ops=(OpSpec(call="creat", args=("data.bin", 0o644), result="fd"), OP),
    setup=(SETUP,), run_as_uid=1000, run_as_gid=1000,
)
EXPECTATION = ExpectationSpec(tool="camflow", classification="empty",
                              note="NR")
BENCHMARK = BenchmarkSpec(
    name="write_bytes", program=PROGRAM, group=2, group_name="Custom",
    description="bytes through the codec", tags=("custom", "bytes"),
    expectations=(EXPECTATION,
                  ExpectationSpec(tool="spade", classification="ok")),
)
REPORT = SynthReport(
    seed=5, requested=2, generated=2, mutated=0, kept=("open",),
    digests=("d1",), duplicates=0, no_gain=1, failed=0, tools=("spade",),
    coverage=COVERAGE, specs=(SPEC,), registered=True, persisted=1,
)

#: (representative instance, error class, to_payload() keys at the
#: commit before the codec was derived)
ADOPTERS = [
    (RunRequest(spec=SPEC, tool="opus", seed=3, deadline=2.5,
                priority="batch", trials=2, filtergraphs=True),
     ValidationError,
     ["benchmark", "bg_pair_policy", "cache", "config_path", "deadline",
      "engine", "fg_pair_policy", "filtergraphs", "priority", "profile",
      "resume", "seed", "spec", "store_path", "tool", "trials",
      "truncation_rate"]),
    (BatchRequest(benchmarks=("open", "close"), seed=1),
     ValidationError,
     ["benchmarks", "bg_pair_policy", "cache", "config_path", "deadline",
      "engine", "fg_pair_policy", "filtergraphs", "priority", "profile",
      "resume", "seed", "store_path", "tags", "tool", "trials",
      "truncation_rate"]),
    (SynthConfig(seed=3, count=4, tools=("spade", "opus"), tags=("x",),
                 priority="background"),
     ValidationError,
     ["count", "engine", "max_ops", "mutation_rate", "name_prefix", "priority", "register", "seed", "store_path", "tags",
      "tools", "trials"]),
    (COVERAGE, ValidationError,
     ["arg_shapes_after", "arg_shapes_before", "motifs_after",
      "motifs_before", "new_syscalls", "syscalls_after", "syscalls_before"]),
    (REPORT, ValidationError,
     ["api_version", "coverage", "digests", "duplicates", "failed",
      "generated", "kept", "mutated", "no_gain", "persisted", "registered",
      "requested", "seed", "specs", "tools"]),
    (ToolQuery(name="spade"), ValidationError, ["name"]),
    (ToolInfo(name="spade", trials=2, filtergraphs=False,
              output_format="dot", description="SPADE"),
     ValidationError,
     ["description", "filtergraphs", "name", "output_format", "trials"]),
    (BenchmarkInfo(name="open", group=1, group_name="Files",
                   tags=("builtin",)),
     ValidationError,
     ["builtin", "description", "group", "group_name", "name", "tags"]),
    (RESPONSE, ValidationError, ["api_version", "result"]),
    (JobStatus(job_id="j-1", state="done", kind="run", submitted_at=1.5,
               started_at=2.0, finished_at=3.0, completed=1, attempts=1,
               client_id="c", request_id="r", priority="interactive",
               queue_wait=0.5, result=RESPONSE, results=(RESPONSE,),
               report=REPORT),
     ValidationError,
     ["api_version", "attempts", "client_id", "completed", "error",
      "finished_at", "job_id", "kind", "priority", "queue_wait", "report",
      "request_id", "result", "results", "stage", "started_at", "state",
      "submitted_at", "total"]),
    (ClusterNodeInfo(node_id="n1", host="h", workers=2, claims=3,
                     last_seen_age=0.25),
     ValidationError,
     ["claims", "host", "last_seen_age", "node_id", "workers"]),
    (ClusterStatus(enabled=True, coordinator="127.0.0.1:1",
                   nodes=(ClusterNodeInfo(node_id="n1", workers=2),),
                   remote_workers=2, claims_total=5, events_seq=9),
     ValidationError,
     ["api_version", "claims_total", "completions_total", "coordinator",
      "draining", "enabled", "events_seq", "local_workers", "nodes",
      "remote_workers"]),
    (RetryPolicy(max_attempts=4, backoff_base=0.5, seed=3), ValidationError,
     ["backoff_base", "backoff_cap", "backoff_jitter", "heartbeat_interval",
      "lease_ttl", "max_attempts", "seed"]),
    (FaultSpec(kind="conn_drop", op="claim", worker=1, at=2, times=2,
               probability=0.5, latency=0.1),
     FaultError,
     ["at", "benchmark", "keep_bytes", "kind", "latency", "op",
      "probability", "stage", "status", "times", "worker"]),
    (ClusterEvent(seq=3, ts=12.5, kind="claim", node_id="n", job_id="j",
                  detail="d"),
     ProtocolError,
     ["detail", "job_id", "kind", "node_id", "seq", "ts"]),
    (QuotaPolicy(max_in_flight=3), ValidationError,
     ["max_in_flight", "max_queued"]),
    (AutoscalePolicy(min_workers=2, max_workers=5, backlog_per_worker=1.5),
     ValidationError,
     ["backlog_per_worker", "idle_grace", "max_workers", "min_workers",
      "scale_down_cooldown", "scale_up_cooldown"]),
    (OP, ValidationError,
     ["args", "call", "expect_success", "result", "target"]),
    (SETUP, ValidationError,
     ["content", "kind", "link_target", "mode", "path"]),
    (PROGRAM, ValidationError, ["ops", "run_as_gid", "run_as_uid", "setup"]),
    (EXPECTATION, ValidationError, ["classification", "note", "tool"]),
    (BENCHMARK, ValidationError,
     ["description", "expectations", "group", "group_name", "name",
      "program", "tags"]),
]

adopters = pytest.mark.parametrize(
    "instance,error,keys", ADOPTERS,
    ids=[type(row[0]).__name__ for row in ADOPTERS],
)


def wire(instance) -> Dict[str, object]:
    """``to_payload()`` after a real JSON trip."""
    return json.loads(json.dumps(instance.to_payload()))


def rejects(cls, payload: object, error: type) -> None:
    with pytest.raises(error) as excinfo:
        cls.from_payload(payload)
    assert excinfo.type is error, (payload, excinfo.value)


#: wrong JSON values per annotation: bools are not ints, ints are not bools
_WRONG = {str: (1,), int: ("1", True, 1.5), float: ("1", True),
          bool: ("yes", 1)}


def wrong_values(hint: object) -> tuple:
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    return _WRONG.get(hint, ("x",))  # tuples and nested payload types


@adopters
def test_wire_shape_is_the_pinned_key_set(instance, error, keys):
    assert sorted(instance.to_payload()) == keys


def test_stage_timings_encoder_keeps_its_key_set():
    assert sorted(TIMINGS.to_payload()) == [
        "comparison", "component_steps_max", "cost_cache_hits",
        "decomposed_components", "generalization", "matching_cache_hits",
        "recording", "solver_searches", "solver_steps", "store_hits",
        "store_misses", "transformation", "virtual_comparison",
        "virtual_generalization", "virtual_recording",
        "virtual_transformation",
    ]
    assert StageTimings.from_payload(wire(TIMINGS)) == TIMINGS


@adopters
def test_json_round_trip_is_exact(instance, error, keys):
    assert type(instance).from_payload(wire(instance)) == instance


@adopters
def test_non_object_and_unknown_keys_are_rejected(instance, error, keys):
    cls = type(instance)
    for bad in ([], "x", None, 3):
        rejects(cls, bad, error)
    rejects(cls, dict(wire(instance), bogus=1), error)


@adopters
def test_missing_required_keys_are_rejected(instance, error, keys):
    cls = type(instance)
    for field in dataclasses.fields(cls):
        if field.default is dataclasses.MISSING:
            payload = wire(instance)
            del payload[field.name]
            rejects(cls, payload, error)


@adopters
def test_wrongly_typed_fields_are_rejected(instance, error, keys):
    cls = type(instance)
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        for value in wrong_values(hints[field.name]):
            payload = wire(instance)
            payload[field.name] = value
            rejects(cls, payload, error)
            with pytest.raises(error):
                dataclasses.replace(instance, **{field.name: value})


@pytest.mark.parametrize("cls,payload,error", [
    (RetryPolicy, {"bogus": 1}, ValidationError),
    (RetryPolicy, {"lease_ttl": "5"}, ValidationError),
    (FaultSpec, {"kind": "worker_kill", "worker": "1"}, FaultError),
    (FaultSpec, {"kind": "worker_kill", "times": True}, FaultError),
])
def test_formerly_drifted_codecs_reject_like_the_rest(cls, payload, error):
    rejects(cls, payload, error)


def test_a_field_type_without_a_codec_fails_at_declaration():
    with pytest.raises(TypeError, match="no payload codec"):
        @payload_type
        class Unsupported:
            table: Dict[str, int]


def test_declared_type_gets_the_whole_codec():
    @payload_type
    class Point:
        x: int
        label: Optional[str] = None

    assert Point.from_payload({"x": 1}).to_payload() == {"x": 1,
                                                         "label": None}
    with pytest.raises(ValidationError, match=r"Point\.x: must be an int"):
        Point(x="1")


# -- bytes, scalar unions and decode paths -----------------------------------


@payload_type
class Blob:
    data: bytes
    args: Tuple[Union[str, int, bytes], ...] = ()
    label: str = "blob"

    def __post_init__(self) -> None:
        check_names(self, "label")


@payload_type
class Holder:
    blobs: Tuple[Blob, ...] = ()


def test_bytes_travel_as_base64_objects():
    blob = Blob(data=b"\x00\xffhi", args=("a", 1, b"\x01"))
    assert wire(blob) == {"data": {"base64": "AP9oaQ=="},
                          "args": ["a", 1, {"base64": "AQ=="}],
                          "label": "blob"}
    assert Blob.from_payload(wire(blob)) == blob


@pytest.mark.parametrize("data,message", [
    ({"base64": "!!"}, r"^Holder\.blobs\[1\]\.data\.base64: is not valid base64$"),
    ({"base64": 7}, r"^Holder\.blobs\[1\]\.data\.base64: is not valid base64$"),
    ({"base64": "aGk=", "extra": 1},
     r"^Holder\.blobs\[1\]\.data payload has unknown keys: \['extra'\]$"),
    ({}, r"^Holder\.blobs\[1\]\.data payload is missing required keys"),
    ("aGk=", r"^Holder\.blobs\[1\]\.data: must be bytes"),
])
def test_bad_base64_objects_name_the_full_path(data, message):
    payload = {"blobs": [{"data": {"base64": "aGk="}}, {"data": data}]}
    with pytest.raises(ValidationError, match=message):
        Holder.from_payload(payload)


def test_a_scalar_union_refuses_bool_unless_a_member():
    with pytest.raises(ValidationError,
                       match=r"^Blob\.args\[1\]: must be a string, an int "
                             r"or bytes .*got bool$"):
        Blob(data=b"", args=("a", True))
    for bad in ([1], 1.5, None, {"x": 1}):
        with pytest.raises(ValidationError, match=r"Blob\.args\[0\]"):
            Blob.from_payload({"data": {"base64": ""}, "args": [bad]})

    @payload_type
    class Flag:
        value: Union[bool, int]

    assert Flag.from_payload({"value": True}).value is True
    assert Flag.from_payload({"value": 3}).value == 3


@pytest.mark.parametrize("blob,message", [
    ({"data": {"base64": ""}, "args": [False]},
     r"^Holder\.blobs\[0\]\.args\[0\]: must be a string"),
    ({"data": {"base64": ""}, "label": ""},
     r"^Holder\.blobs\[0\]\.label: must be non-empty$"),
])
def test_nested_construction_errors_name_the_decode_path(blob, message):
    with pytest.raises(ValidationError, match=message):
        Holder.from_payload({"blobs": [blob]})
    with pytest.raises(ValidationError, match=r"^Blob\."):
        Blob.from_payload(blob)  # a top-level decode names the type
