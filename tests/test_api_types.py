"""JSON round-tripping of every repro.api request/response type.

Property-style: ``decode(encode(x)) == x`` over generated instances,
plus malformed-payload rejection (unknown keys, wrong types, bad nested
payloads) for each type, and the ``BenchmarkResult`` payload codec the
response envelope reuses.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.errors import ValidationError
from repro.api.types import (
    API_VERSION,
    BatchRequest,
    BenchmarkInfo,
    JobStatus,
    RunRequest,
    RunResponse,
    ToolInfo,
    ToolQuery,
)
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.graph.model import PropertyGraph


# -- generators --------------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)

run_requests = st.builds(
    RunRequest,
    benchmark=names,
    tool=names,
    profile=st.none() | names,
    config_path=st.none() | names,
    trials=st.none() | st.integers(min_value=1, max_value=50),
    filtergraphs=st.none() | st.booleans(),
    engine=st.sampled_from(("native", "asp")),
    seed=st.none() | st.integers(min_value=-(2**31), max_value=2**31),
    truncation_rate=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False),
    fg_pair_policy=st.sampled_from(("smallest", "largest")),
    bg_pair_policy=st.sampled_from(("smallest", "largest")),
    store_path=st.none() | names,
    resume=st.booleans(),
    cache=st.booleans(),
)

batch_requests = st.builds(
    BatchRequest,
    benchmarks=st.none() | st.tuples(names, names),
    tool=names,
    trials=st.none() | st.integers(min_value=1, max_value=50),
    engine=st.sampled_from(("native", "asp")),
    seed=st.none() | st.integers(min_value=0, max_value=100),
    resume=st.booleans(),
)


def make_graph(gid: str, node_count: int) -> PropertyGraph:
    graph = PropertyGraph(gid)
    for i in range(node_count):
        graph.add_node(f"n{i}", "Process", {"pid": str(i)})
    for i in range(node_count - 1):
        graph.add_edge(f"e{i}", f"n{i}", f"n{i+1}", "forked", {"t": str(i)})
    return graph


def make_result(benchmark: str = "open", nodes: int = 3) -> BenchmarkResult:
    return BenchmarkResult(
        benchmark=benchmark,
        tool="spade",
        classification=Classification.OK,
        target_graph=make_graph("target", nodes),
        foreground=make_graph("fg", nodes + 1),
        background=make_graph("bg", max(nodes - 1, 1)),
        timings=StageTimings(
            recording=0.5, transformation=0.25, generalization=0.125,
            comparison=0.0625, virtual_recording=12.0, solver_steps=42,
            solver_searches=7, matching_cache_hits=2, cost_cache_hits=9,
            store_hits=4, store_misses=1,
        ),
        trials=2,
        discarded_trials=1,
        note="DV",
    )


def roundtrip(value, cls):
    """encode -> real JSON wire trip -> decode; returns the rebuilt value."""
    wire = json.loads(json.dumps(value.to_payload()))
    return cls.from_payload(wire)


# -- round-trips -------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(request=run_requests)
    def test_run_request(self, request):
        assert roundtrip(request, RunRequest) == request

    @settings(max_examples=50, deadline=None)
    @given(request=batch_requests)
    def test_batch_request(self, request):
        assert roundtrip(request, BatchRequest) == request

    @settings(max_examples=20, deadline=None)
    @given(name=st.none() | names)
    def test_tool_query(self, name):
        query = ToolQuery(name=name)
        assert roundtrip(query, ToolQuery) == query

    def test_tool_info(self):
        info = ToolInfo(name="spade", trials=2, filtergraphs=False,
                        output_format="dot", description="SPADE")
        assert roundtrip(info, ToolInfo) == info

    def test_benchmark_info(self):
        info = BenchmarkInfo(name="open", group=1, group_name="Files",
                             description="open a file")
        assert roundtrip(info, BenchmarkInfo) == info

    def test_run_response(self):
        response = RunResponse(result=make_result())
        rebuilt = roundtrip(response, RunResponse)
        assert rebuilt == response
        assert rebuilt.api_version == API_VERSION

    @settings(max_examples=25, deadline=None)
    @given(
        state=st.sampled_from(("queued", "running", "done", "failed",
                               "cancelled")),
        kind=st.sampled_from(("run", "batch")),
        completed=st.integers(min_value=0, max_value=5),
        stage=st.text(alphabet="abc/:_", max_size=20),
        error=st.text(max_size=30),
    )
    def test_job_status(self, state, kind, completed, stage, error):
        status = JobStatus(
            job_id="job-0001-abcd", state=state, kind=kind,
            submitted_at=1.5, started_at=2.5, finished_at=None,
            total=5, completed=completed, stage=stage, error=error,
        )
        assert roundtrip(status, JobStatus) == status

    def test_job_status_with_results(self):
        response = RunResponse(result=make_result())
        status = JobStatus(
            job_id="job-1", state="done", kind="batch",
            total=2, completed=2,
            results=(response, RunResponse(result=make_result("dup", 2))),
        )
        rebuilt = roundtrip(status, JobStatus)
        assert rebuilt == status
        assert rebuilt.results[0].result.target_graph == \
            response.result.target_graph

    def test_benchmark_result_codec(self):
        result = make_result()
        rebuilt = BenchmarkResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert rebuilt == result
        # element iteration order is preserved exactly (solver relies on it)
        assert [n.id for n in rebuilt.target_graph.nodes()] == \
            [n.id for n in result.target_graph.nodes()]

    def test_failed_benchmark_result_codec(self):
        result = BenchmarkResult(
            benchmark="open", tool="spade",
            classification=Classification.FAILED,
            target_graph=PropertyGraph("empty"), foreground=None,
            background=None, timings=StageTimings(), trials=2,
            error="no consistent pair",
        )
        assert BenchmarkResult.from_payload(result.to_payload()) == result


# -- malformed payload rejection ---------------------------------------------


class TestRejection:
    def test_unknown_keys_rejected(self):
        payload = RunRequest(benchmark="open").to_payload()
        payload["bonus"] = 1
        with pytest.raises(ValidationError, match="unknown keys.*bonus"):
            RunRequest.from_payload(payload)

    def test_non_object_payload_rejected(self):
        for bad in ([1, 2], "open", 7, None):
            with pytest.raises(ValidationError):
                RunRequest.from_payload(bad)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValidationError):
            RunRequest.from_payload({"tool": "spade"})

    @pytest.mark.parametrize("field,value", [
        ("benchmark", ""),
        ("benchmark", 3),
        ("tool", None),
        ("trials", 0),
        ("trials", True),
        ("trials", "two"),
        ("engine", "prolog"),
        ("seed", 1.5),
        ("truncation_rate", -0.1),
        ("truncation_rate", 1.5),
        ("fg_pair_policy", "widest"),
        ("resume", "yes"),
        ("cache", None),
    ])
    def test_run_request_bad_field(self, field, value):
        payload = RunRequest(benchmark="open").to_payload()
        payload[field] = value
        with pytest.raises(ValidationError, match=field):
            RunRequest.from_payload(payload)

    @pytest.mark.parametrize("field,value", [
        ("benchmarks", ["open", 3]),
        ("benchmarks", "open"),
        ("max_workers", 0),
        ("max_workers", "four"),
        ("max_workers", 2),
        ("engine", ""),
    ])
    def test_batch_request_bad_field(self, field, value):
        payload = BatchRequest().to_payload()
        payload[field] = value
        # max_workers is not a field: every value is an unknown key
        match = "unknown keys.*max_workers" if field == "max_workers" else None
        with pytest.raises(ValidationError, match=match):
            BatchRequest.from_payload(payload)

    def test_tool_query_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            ToolQuery(name="")

    def test_run_response_bad_result_rejected(self):
        payload = RunResponse(result=make_result()).to_payload()
        payload["result"] = {"benchmark": "open"}  # truncated result
        with pytest.raises(ValidationError, match="result"):
            RunResponse.from_payload(payload)

    def test_run_response_missing_result_rejected(self):
        with pytest.raises(ValidationError, match="result"):
            RunResponse.from_payload({"api_version": API_VERSION})

    def test_run_response_wrong_version_rejected(self):
        payload = RunResponse(result=make_result()).to_payload()
        payload["api_version"] = "99"
        with pytest.raises(ValidationError, match="api_version"):
            RunResponse.from_payload(payload)

    @pytest.mark.parametrize("field,value", [
        ("state", "paused"),
        ("kind", "cron"),
        ("job_id", ""),
        ("total", -1),
        ("completed", "three"),
        ("submitted_at", None),
        ("results", [{"nope": 1}]),
    ])
    def test_job_status_bad_field(self, field, value):
        payload = JobStatus(job_id="j-1", state="queued").to_payload()
        payload[field] = value
        with pytest.raises(ValidationError):
            JobStatus.from_payload(payload)

    def test_malformed_graph_inside_result_rejected(self):
        payload = RunResponse(result=make_result()).to_payload()
        payload["result"]["target_graph"]["nodes"] = [["n0"]]  # arity
        with pytest.raises(ValidationError):
            RunResponse.from_payload(payload)

    def test_frozen_requests_are_immutable(self):
        request = RunRequest(benchmark="open")
        with pytest.raises((AttributeError, TypeError)):
            request.benchmark = "close"
