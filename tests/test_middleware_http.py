"""The middleware chain over live sockets: the full stack, end to end.

A real ``ApiHTTPServer`` is booted with the canonical five-layer chain
(metrics, access log, auth, rate limiting, idempotency) built by
``build_chain`` — the same path ``provmark serve --middleware`` takes —
and exercised with plain ``urllib``: auth rejections, quota exhaustion
with ``Retry-After``, byte-identical idempotent replays served from the
response cache (no job spooled), SSE streams ending in terminal events,
and 405/``Allow`` routing.  Unit-level chain semantics live in
tests/test_middleware.py; this file is about the wiring.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import BenchmarkService
from repro.api.http import make_server
from repro.exec import FleetJobManager
from repro.middleware import build_chain
from repro.suite.registry import SUITE_REGISTRY

TOKENS = {
    "read-token": {"client": "dash", "role": "read"},
    "submit-token": {"client": "ci", "role": "submit"},
    "admin-token": {"client": "ops", "role": "admin"},
    "throttled-token": {"client": "throttled", "role": "read"},
}


@pytest.fixture()
def server(tmp_path):
    chain = build_chain({
        "metrics": True,
        "access_log": {"path": str(tmp_path / "access.log")},
        "auth": {"tokens": TOKENS},
        # roomy defaults so only the deliberately-throttled client
        # ever hits the limiter in these tests
        "ratelimit": {
            "rate": 1000, "burst": 1000,
            "clients": {"throttled": {"rate": 0.5, "burst": 2}},
        },
        "idempotency": {"store": str(tmp_path / "response-cache")},
    })
    service = BenchmarkService(
        jobs=FleetJobManager(None, workers=1),
        registry=SUITE_REGISTRY.builtin_copy(),
    )
    server = make_server(service, port=0, chain=chain)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close(cancel=True)


def base_url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def request(server, method, path, body=None, token=None, headers=None,
            timeout=120):
    """One request; returns ``(status, headers-dict, raw-bytes)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    all_headers = {}
    if body is not None:
        all_headers["Content-Type"] = "application/json"
    if token is not None:
        all_headers["Authorization"] = f"Bearer {token}"
    all_headers.update(headers or {})
    req = urllib.request.Request(
        base_url(server) + path, data=data, headers=all_headers,
        method=method,
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read()


def http_error(call):
    """Run ``call``; return the HTTPError's (code, headers, envelope)."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    error = excinfo.value
    return error.code, dict(error.headers), json.loads(error.read())


def run_body(seed=None, benchmark="open", wait=False):
    body = {"benchmark": benchmark, "tool": "camflow"}
    if seed is not None:
        body["seed"] = seed
    if wait:
        body["wait"] = True
    return body


def get_metrics(server):
    _, _, raw = request(server, "GET", "/v1/metrics", token="read-token")
    return json.loads(raw)


def parse_sse(raw: bytes):
    events = []
    for frame in raw.decode().strip().split("\n\n"):
        lines = frame.splitlines()
        name = lines[0].split(": ", 1)[1]
        data = json.loads("\n".join(
            l.split(": ", 1)[1] for l in lines[1:] if l.startswith("data:")
        ))
        events.append((name, data))
    return events


class TestAuthOverHttp:
    def test_missing_token_is_401_with_challenge(self, server):
        code, headers, body = http_error(
            lambda: request(server, "GET", "/v1/tools")
        )
        assert code == 401
        assert headers["WWW-Authenticate"] == "Bearer"
        assert body["error"]["type"] == "UnauthorizedError"

    def test_unknown_token_is_401(self, server):
        code, _, body = http_error(
            lambda: request(server, "GET", "/v1/tools", token="who-dis")
        )
        assert code == 401
        assert "unknown bearer token" in body["error"]["message"]

    def test_read_role_cannot_submit(self, server):
        code, _, body = http_error(lambda: request(
            server, "POST", "/v1/runs", body=run_body(), token="read-token"
        ))
        assert code == 403
        assert body["error"]["type"] == "ForbiddenError"
        assert "requires role 'submit'" in body["error"]["message"]

    def test_health_needs_no_token(self, server):
        status, _, raw = request(server, "GET", "/v1/health")
        assert status == 200
        assert json.loads(raw)["status"] == "ok"

    def test_metrics_needs_a_token(self, server):
        code, _, _ = http_error(
            lambda: request(server, "GET", "/v1/metrics")
        )
        assert code == 401


class TestRateLimitOverHttp:
    def test_quota_exhaustion_is_429_with_retry_after(self, server):
        for _ in range(2):  # burst 2 for the throttled client
            status, _, _ = request(
                server, "GET", "/v1/tools", token="throttled-token"
            )
            assert status == 200
        code, headers, body = http_error(lambda: request(
            server, "GET", "/v1/tools", token="throttled-token"
        ))
        assert code == 429
        assert body["error"]["type"] == "RateLimitError"
        assert int(headers["Retry-After"]) >= 1
        # other clients are unaffected: buckets are per-identity
        status, _, _ = request(server, "GET", "/v1/tools", token="read-token")
        assert status == 200
        metrics = get_metrics(server)
        assert metrics["counters"]["ratelimit_throttled_total"][
            "throttled"] == 1


class TestIdempotencyOverHttp:
    def test_seeded_run_replays_byte_identical(self, server):
        body = run_body(seed=11, wait=True)
        status1, headers1, raw1 = request(
            server, "POST", "/v1/runs", body=body, token="submit-token"
        )
        status2, headers2, raw2 = request(
            server, "POST", "/v1/runs", body=body, token="submit-token"
        )
        assert status1 == status2 == 200
        assert raw1 == raw2  # byte-identical replay, the whole point
        assert "X-Idempotent-Replay" not in headers1
        assert headers2["X-Idempotent-Replay"] == "auto"

    def test_async_resubmit_served_from_cache_spools_no_job(self, server):
        body = run_body(seed=12, wait=True)
        request(server, "POST", "/v1/runs", body=body, token="submit-token")
        # same run requested async: answered complete, no job created
        status, headers, raw = request(
            server, "POST", "/v1/runs", body=run_body(seed=12),
            token="submit-token",
        )
        assert status == 200  # not 202: nothing was queued
        assert headers["X-Idempotent-Replay"] == "auto"
        assert json.loads(raw)["result"]["benchmark"] == "open"
        metrics = get_metrics(server)
        assert metrics["gauges"]["jobs"]["total"] == 0
        cache = metrics["gauges"]["response_cache"]
        assert cache["hits"] >= 1 and cache["writes"] == 1
        assert metrics["counters"]["idempotency_replay_total"]["auto"] == 1

    def test_idempotency_key_makes_submission_single_shot(self, server):
        body = run_body()  # unseeded: auto mode stays out of the way
        key = {"Idempotency-Key": "deploy-42"}
        status1, _, raw1 = request(
            server, "POST", "/v1/runs", body=body, token="submit-token",
            headers=key,
        )
        status2, headers2, raw2 = request(
            server, "POST", "/v1/runs", body=body, token="submit-token",
            headers=key,
        )
        assert status1 == status2 == 202
        assert headers2["X-Idempotent-Replay"] == "header"
        first, second = json.loads(raw1), json.loads(raw2)
        assert first["job_id"] == second["job_id"]  # submit-once

    def test_reused_key_with_different_body_is_409(self, server):
        key = {"Idempotency-Key": "deploy-43"}
        request(
            server, "POST", "/v1/runs", body=run_body(),
            token="submit-token", headers=key,
        )
        code, _, body = http_error(lambda: request(
            server, "POST", "/v1/runs", body=run_body(benchmark="read"),
            token="submit-token", headers=key,
        ))
        assert code == 409
        assert body["error"]["type"] == "ConflictError"


class TestCorrelationOverHttp:
    def test_job_records_carry_client_and_request_ids(self, server):
        status, headers, raw = request(
            server, "POST", "/v1/runs", body=run_body(),
            token="submit-token",
        )
        assert status == 202
        submitted = json.loads(raw)
        assert submitted["client_id"] == "ci"
        assert submitted["request_id"] == headers["X-Request-Id"]
        _, _, raw = request(
            server, "GET", f"/v1/jobs/{submitted['job_id']}",
            token="read-token",
        )
        polled = json.loads(raw)
        assert polled["client_id"] == "ci"
        assert polled["request_id"] == submitted["request_id"]

    def test_every_response_carries_a_request_id(self, server):
        _, ok_headers, _ = request(server, "GET", "/v1/health")
        assert ok_headers["X-Request-Id"].startswith("req-")
        _, err_headers, _ = http_error(
            lambda: request(server, "GET", "/v1/tools")
        )
        assert err_headers["X-Request-Id"].startswith("req-")


class TestSseOverHttp:
    def test_stream_follows_job_to_done(self, server):
        _, _, raw = request(
            server, "POST", "/v1/runs", body=run_body(seed=77),
            token="submit-token",
        )
        job_id = json.loads(raw)["job_id"]
        status, headers, raw = request(
            server, "GET", f"/v1/jobs/{job_id}/events?poll=0.05",
            token="read-token",
        )
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        events = parse_sse(raw)
        assert events[0][0] == "snapshot"
        name, payload = events[-1]
        assert name == "done"
        assert payload["state"] == "done"
        # the terminal frame carries the full run-response envelope
        assert payload["result"]["result"]["benchmark"] == "open"

    def test_cancelling_mid_stream_ends_with_cancelled_event(self, server):
        # one worker, occupied by a deliberately long run (trial count
        # scales wall-clock linearly): the target job stays queued long
        # enough to be cancelled while its stream is open
        request(server, "POST", "/v1/runs",
                body={**run_body(), "trials": 1500}, token="submit-token")
        _, _, raw = request(
            server, "POST", "/v1/runs", body=run_body(benchmark="read"),
            token="submit-token",
        )
        queued_id = json.loads(raw)["job_id"]

        collected = {}

        def read_stream():
            _, _, body = request(
                server, "GET", f"/v1/jobs/{queued_id}/events?poll=0.05",
                token="read-token",
            )
            collected["raw"] = body

        reader = threading.Thread(target=read_stream, daemon=True)
        reader.start()
        time.sleep(0.3)  # let the stream open on the still-queued job
        status, _, raw = request(
            server, "DELETE", f"/v1/jobs/{queued_id}", token="submit-token"
        )
        assert json.loads(raw)["state"] == "cancelled"
        reader.join(timeout=30)
        assert not reader.is_alive()
        events = parse_sse(collected["raw"])
        assert events[0][0] == "snapshot"
        assert events[-1][0] == "cancelled"
        assert events[-1][1]["state"] == "cancelled"

    def test_unknown_job_is_a_plain_404(self, server):
        code, _, body = http_error(lambda: request(
            server, "GET", "/v1/jobs/job-9999-nope/events",
            token="read-token",
        ))
        assert code == 404
        assert body["error"]["type"] == "NotFoundError"


class TestMethodRouting:
    def test_put_on_known_path_is_405_with_allow(self, server):
        code, headers, body = http_error(lambda: request(
            server, "PUT", "/v1/runs", body=run_body(),
            token="read-token",
        ))
        assert code == 405
        assert headers["Allow"] == "POST"
        assert body["error"]["type"] == "MethodNotAllowedError"

    def test_get_on_post_only_path_is_405(self, server):
        code, headers, _ = http_error(lambda: request(
            server, "GET", "/v1/runs", token="read-token"
        ))
        assert code == 405
        assert headers["Allow"] == "POST"

    def test_delete_on_get_only_path_is_405(self, server):
        code, headers, _ = http_error(lambda: request(
            server, "DELETE", "/v1/tools", token="submit-token"
        ))
        assert code == 405
        assert headers["Allow"] == "GET"


class TestObservabilityOverHttp:
    def test_metrics_render_covers_requests_and_gauges(self, server):
        request(server, "GET", "/v1/tools", token="read-token")
        http_error(lambda: request(server, "GET", "/v1/tools"))
        metrics = get_metrics(server)
        requests_total = metrics["counters"]["http_requests_total"]
        assert requests_total["GET /v1/tools 200"] == 1
        assert requests_total["GET /v1/tools 401"] == 1
        assert metrics["counters"]["http_errors_total"][
            "UnauthorizedError"] == 1
        assert "GET /v1/tools" in metrics["histograms"][
            "http_request_seconds"]
        assert "jobs" in metrics["gauges"]
        assert "response_cache" in metrics["gauges"]

    def test_access_log_lines_join_on_correlation_ids(self, server,
                                                      tmp_path):
        _, headers, _ = request(
            server, "GET", "/v1/tools", token="read-token"
        )
        http_error(lambda: request(server, "GET", "/v1/tools"))
        lines = [
            json.loads(line)
            for line in (tmp_path / "access.log").read_text().splitlines()
        ]
        by_id = {line["request_id"]: line for line in lines}
        logged = by_id[headers["X-Request-Id"]]
        assert logged["client_id"] == "dash"
        assert logged["status"] == 200 and logged["method"] == "GET"
        assert any(
            line["status"] == 401 and line["error"] == "UnauthorizedError"
            for line in lines
        )
