"""The embedded HTTP JSON service: routing, parity, errors, serve CLI."""

import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.api.http import make_server
from repro.api.types import API_VERSION, JobStatus, RunResponse
from repro.suite.registry import SUITE_REGISTRY

SRC = str(Path(__file__).resolve().parent.parent / "src")


def custom_spec_payload(name="http_touch"):
    return {
        "name": name,
        "description": "create then close a new file",
        "tags": ["custom", "http-demo"],
        "program": {
            "ops": [
                {"call": "creat", "args": ["made.txt", 420], "result": "fd",
                 "target": True},
                {"call": "close", "args": ["$fd"], "target": True},
            ],
        },
    }


@pytest.fixture()
def server():
    # a private builtin-only registry: tests mutate it freely without
    # leaking registrations into the shared default
    server = make_server(BenchmarkService(registry=SUITE_REGISTRY.builtin_copy()),
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()


def base_url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def http_get(server, path):
    with urllib.request.urlopen(base_url(server) + path, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def http_post(server, path, body):
    request = urllib.request.Request(
        base_url(server) + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def http_delete(server, path):
    request = urllib.request.Request(
        base_url(server) + path, method="DELETE"
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def http_error(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    error = excinfo.value
    return error.code, json.loads(error.read())


class TestCatalogRoutes:
    def test_tools(self, server):
        status, body = http_get(server, "/v1/tools")
        assert status == 200
        assert body["api_version"] == API_VERSION
        names = {t["name"] for t in body["tools"]}
        assert {"spade", "opus", "camflow"} <= names

    def test_tools_filter(self, server):
        status, body = http_get(server, "/v1/tools?name=camflow")
        assert status == 200
        (tool,) = body["tools"]
        assert tool["trials"] == 5 and tool["filtergraphs"] is True

    def test_benchmarks(self, server):
        status, body = http_get(server, "/v1/benchmarks")
        assert status == 200
        names = [b["name"] for b in body["benchmarks"]]
        assert "open" in names and names == sorted(names)

    def test_unknown_route_404(self, server):
        code, body = http_error(lambda: http_get(server, "/v1/nope"))
        assert code == 404
        assert "no route" in body["error"]["message"]


class TestHealth:
    def test_health_ok(self, server):
        status, body = http_get(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["api_version"] == API_VERSION
        assert body["jobs"]["total"] == 0
        assert set(body["jobs"]) == {
            "total", "queued", "running", "done", "failed", "cancelled"
        }

    def test_health_counts_jobs(self, server):
        payload = RunRequest(benchmark="open", tool="spade",
                             seed=5).to_payload()
        http_post(server, "/v1/runs", payload)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, body = http_get(server, "/v1/health")
            assert body["status"] == "ok"
            if body["jobs"]["done"] == 1:
                break
            time.sleep(0.05)
        assert body["jobs"]["total"] == 1


class TestBenchmarkAuthoring:
    def test_register_get_run_delete_lifecycle(self, server):
        status, body = http_post(
            server, "/v1/benchmarks", custom_spec_payload()
        )
        assert status == 201
        assert body["benchmark"]["name"] == "http_touch"
        assert body["benchmark"]["builtin"] is False
        assert "custom" in body["benchmark"]["tags"]
        digest = body["digest"]

        # catalog lists it
        _, catalog = http_get(server, "/v1/benchmarks")
        names = [b["name"] for b in catalog["benchmarks"]]
        assert "http_touch" in names

        # spec round-trips over GET
        status, detail = http_get(server, "/v1/benchmarks/http_touch")
        assert status == 200
        assert detail["builtin"] is False
        assert detail["digest"] == digest
        assert detail["spec"]["program"]["ops"][0]["call"] == "creat"

        # runnable by name, result identical to an inline-spec run
        by_name = RunRequest(benchmark="http_touch", tool="spade",
                             seed=9).to_payload()
        by_name["wait"] = True
        _, named_result = http_post(server, "/v1/runs", by_name)
        inline = RunRequest(benchmark="http_touch", tool="spade",
                            seed=9).to_payload()
        inline["benchmark"] = None
        inline["spec"] = custom_spec_payload()
        inline["wait"] = True
        _, inline_result = http_post(server, "/v1/runs", inline)
        for payload in (named_result, inline_result):
            for key in ("recording", "transformation", "generalization",
                        "comparison"):
                payload["result"]["timings"].pop(key)
        assert named_result == inline_result

        status, removed = http_delete(server, "/v1/benchmarks/http_touch")
        assert status == 200 and removed["removed"] == "http_touch"
        code, _ = http_error(
            lambda: http_get(server, "/v1/benchmarks/http_touch")
        )
        assert code == 404

    def test_builtin_spec_served(self, server):
        status, detail = http_get(server, "/v1/benchmarks/tee")
        assert status == 200
        assert detail["builtin"] is True
        calls = [op["call"] for op in detail["spec"]["program"]["ops"]]
        assert calls == ["pipe", "pipe", "write", "tee"]

    def test_builtin_delete_refused(self, server):
        code, body = http_error(
            lambda: http_delete(server, "/v1/benchmarks/open")
        )
        assert code == 400
        assert "builtin" in body["error"]["message"]

    def test_invalid_spec_error_carries_full_path(self, server):
        """Satellite regression: the HTTP envelope renders the full
        nested field path, exactly as the CLI does."""
        payload = custom_spec_payload("bad_spec")
        payload["program"]["ops"][1]["args"] = ["$nope"]
        code, body = http_error(
            lambda: http_post(server, "/v1/benchmarks", payload)
        )
        assert code == 400
        message = body["error"]["message"]
        assert "BenchmarkSpec.program.ops[1].args[0]" in message
        assert "$nope" in message

    def test_unknown_nested_key_full_path(self, server):
        payload = custom_spec_payload("bad_spec")
        payload["program"]["ops"][0]["flavour"] = "spicy"
        code, body = http_error(
            lambda: http_post(server, "/v1/benchmarks", payload)
        )
        assert code == 400
        assert "BenchmarkSpec.program.ops[0]" in body["error"]["message"]

    def test_inline_spec_validation_error_full_path(self, server):
        body = {"spec": custom_spec_payload("bad_inline"), "wait": True,
                "seed": 3}
        body["spec"]["program"]["ops"][0]["call"] = "frobnicate"
        code, payload = http_error(
            lambda: http_post(server, "/v1/runs", body)
        )
        assert code == 400
        assert ("BenchmarkSpec.program.ops[0].call"
                in payload["error"]["message"])


class TestRuns:
    def test_sync_run_matches_direct_service_call(self, server):
        payload = RunRequest(
            benchmark="open", tool="spade", seed=5
        ).to_payload()
        payload["wait"] = True
        status, body = http_post(server, "/v1/runs", payload)
        assert status == 200
        over_http = RunResponse.from_payload(body)
        direct = BenchmarkService().run(
            RunRequest(benchmark="open", tool="spade", seed=5)
        )
        a, b = over_http.result, direct.result
        assert a.classification is b.classification
        assert a.target_graph == b.target_graph
        assert a.foreground == b.foreground
        assert a.background == b.background
        assert a.timings.solver_row() == b.timings.solver_row()
        assert a.timings.store_row() == b.timings.store_row()

    def test_async_run_job_lifecycle(self, server):
        payload = RunRequest(benchmark="open", tool="opus", seed=5).to_payload()
        status, body = http_post(server, "/v1/runs", payload)
        assert status == 202
        job = JobStatus.from_payload(body)
        assert job.state in ("queued", "running")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, body = http_get(server, f"/v1/jobs/{job.job_id}")
            current = JobStatus.from_payload(body)
            if current.finished:
                break
            time.sleep(0.05)
        assert current.state == "done"
        assert current.result.result.benchmark == "open"

    def test_unknown_benchmark_404(self, server):
        code, body = http_error(lambda: http_post(
            server, "/v1/runs", {"benchmark": "nosuch", "wait": True}
        ))
        assert code == 404
        assert "unknown benchmark" in body["error"]["message"]

    def test_malformed_body_400(self, server):
        code, body = http_error(lambda: http_post(
            server, "/v1/runs", {"benchmark": "open", "trials": "zz"}
        ))
        assert code == 400
        assert "trials" in body["error"]["message"]

    def test_unknown_key_400(self, server):
        code, body = http_error(lambda: http_post(
            server, "/v1/runs", {"benchmark": "open", "bogus": 1}
        ))
        assert code == 400
        assert "unknown keys" in body["error"]["message"]

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            base_url(server) + "/v1/runs",
            data=b"not json at all",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_job_404(self, server):
        code, _ = http_error(lambda: http_get(server, "/v1/jobs/job-none"))
        assert code == 404

    @pytest.mark.parametrize("field", ["store_path", "config_path"])
    def test_server_side_paths_rejected(self, server, field):
        # remote clients must not steer server-side filesystem access
        body = {"benchmark": "open", "seed": 5, field: "/tmp/anywhere"}
        code, payload = http_error(
            lambda: http_post(server, "/v1/runs", body)
        )
        assert code == 400
        assert field in payload["error"]["message"]


class TestServeCommand:
    def test_serve_smoke_over_subprocess(self, tmp_path):
        """`provmark serve` on a free port: healthy and idle, runs a spec
        registered over HTTP, and answers POST /v1/runs with exactly the
        direct run's payload (minus wall-clock stage timings)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line
            base = line.split("serving on ")[1].split("/v1")[0]

            def call(path, body=None, expect=200):
                request = urllib.request.Request(
                    base + path,
                    data=None if body is None else json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                    method="GET" if body is None else "POST",
                )
                with urllib.request.urlopen(request, timeout=120) as resp:
                    assert resp.status == expect, (path, resp.status)
                    return json.loads(resp.read())

            health = call("/v1/health")
            assert health["status"] == "ok", health
            assert health["jobs"]["total"] == 0, health

            registered = call("/v1/benchmarks",
                              custom_spec_payload("ci_touch"), expect=201)
            assert registered["benchmark"]["name"] == "ci_touch"
            custom = call("/v1/runs", {"benchmark": "ci_touch", "seed": 5,
                                       "wait": True})
            assert custom["result"]["classification"] == "ok", custom

            body = RunRequest(benchmark="open", tool="spade",
                              seed=5).to_payload()
            body["wait"] = True
            over_http = call("/v1/runs", body)
            direct = BenchmarkService().run(
                RunRequest(benchmark="open", tool="spade", seed=5)
            ).to_payload()
            for payload in (over_http, direct):
                timings = payload["result"]["timings"]
                for stage in ("recording", "transformation",
                              "generalization", "comparison"):
                    timings.pop(stage)  # wall clock differs per run
            assert over_http == json.loads(json.dumps(direct))
        finally:
            proc.terminate()
            proc.wait(timeout=10)
