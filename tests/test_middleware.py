"""Unit tests for repro.middleware: chain semantics and every layer.

Everything here is socket-free — chains are dispatched against plain
callables, clocks and sleeps are injected, and the idempotency layer
runs over a tmp-path artifact store.  The live-HTTP behavior of the
same layers is covered in tests/test_middleware_http.py.
"""

import json

import pytest

from repro.api.errors import (
    ConflictError,
    ForbiddenError,
    NotFoundError,
    RateLimitError,
    UnauthorizedError,
    ValidationError,
    error_headers,
)
from repro.api.types import JobStatus
from repro.middleware import (
    AccessLogMiddleware,
    AuthMiddleware,
    IdempotencyMiddleware,
    Middleware,
    MiddlewareChain,
    MiddlewareError,
    MetricsMiddleware,
    MetricsRegistry,
    RateLimitMiddleware,
    RequestContext,
    Response,
    body_digest,
    build_chain,
    format_event,
    job_event_stream,
    required_role,
    route_label,
)
from repro.middleware.metrics import REPLAY_HEADER


def make_ctx(method="GET", path="/v1/tools", headers=None, body=None,
             raw=b"", **kwargs):
    return RequestContext(
        method=method,
        path=path,
        headers=RequestContext.normalize_headers(headers or {}),
        body=body,
        body_digest=body_digest(raw),
        **kwargs,
    )


def ok_handler(ctx):
    return Response(payload={"ok": True, "client": ctx.client_id})


class Recorder(Middleware):
    """Records hook invocations for chain-ordering assertions."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_request(self, ctx):
        self.log.append(f"{self.name}.request")
        return None

    def on_response(self, ctx, response):
        self.log.append(f"{self.name}.response")
        return None

    def on_error(self, ctx, error):
        self.log.append(f"{self.name}.error")


class TestRequestContext:
    def test_header_lookup_is_case_insensitive(self):
        ctx = make_ctx(headers={"Authorization": "Bearer x", "X-Thing": "1"})
        assert ctx.header("authorization") == "Bearer x"
        assert ctx.header("AUTHORIZATION") == "Bearer x"
        assert ctx.header("missing") is None
        assert ctx.header("missing", "d") == "d"

    def test_normalize_headers_accepts_pairs_and_mappings(self):
        as_map = RequestContext.normalize_headers({"A": "1"})
        as_pairs = RequestContext.normalize_headers([("A", "1")])
        assert as_map == as_pairs == (("a", "1"),)

    def test_replace_refines_without_mutating(self):
        ctx = make_ctx()
        refined = ctx.replace(client_id="ci", role="submit")
        assert ctx.client_id == "anonymous"
        assert refined.client_id == "ci" and refined.role == "submit"
        # the scratch dict is shared across refinements (one dispatch)
        refined.state["k"] = "v"
        assert ctx.state["k"] == "v"

    def test_body_digest(self):
        assert body_digest(b"") == ""
        assert body_digest(b"x") == body_digest(b"x") != body_digest(b"y")


class TestChainSemantics:
    def test_onion_ordering(self):
        log = []
        chain = MiddlewareChain([Recorder("a", log), Recorder("b", log)])
        response = chain.dispatch(make_ctx(), ok_handler)
        assert response.payload["ok"] is True
        assert log == ["a.request", "b.request", "b.response", "a.response"]

    def test_refinement_threads_new_context(self):
        class Refine(Middleware):
            name = "refine"

            def on_request(self, ctx):
                return ctx.replace(client_id="ci")

        chain = MiddlewareChain([Refine()])
        response = chain.dispatch(make_ctx(), ok_handler)
        assert response.payload["client"] == "ci"

    def test_short_circuit_skips_handler_and_inner_layers(self):
        log = []

        class Short(Middleware):
            name = "short"

            def on_request(self, ctx):
                return Response(status=299, payload={"cached": True})

        chain = MiddlewareChain(
            [Recorder("outer", log), Short(), Recorder("inner", log)]
        )
        calls = []

        def handler(ctx):
            calls.append(ctx)
            return Response()

        response = chain.dispatch(make_ctx(), handler)
        assert response.status == 299 and not calls
        # outer saw both sides; inner saw nothing
        assert log == ["outer.request", "outer.response"]

    def test_api_error_observed_then_reraised(self):
        log = []
        chain = MiddlewareChain([Recorder("a", log)])

        def handler(ctx):
            raise NotFoundError("nope")

        with pytest.raises(NotFoundError):
            chain.dispatch(make_ctx(), handler)
        assert log == ["a.request", "a.error"]

    def test_unexpected_error_reraised_unwrapped(self):
        log = []
        chain = MiddlewareChain([Recorder("a", log)])

        def handler(ctx):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            chain.dispatch(make_ctx(), handler)
        assert log == ["a.request", "a.error"]

    def test_error_hook_exceptions_are_swallowed(self):
        class Broken(Middleware):
            name = "broken"

            def on_error(self, ctx, error):
                raise RuntimeError("log pipe burst")

        chain = MiddlewareChain([Broken()])

        def handler(ctx):
            raise NotFoundError("real failure")

        with pytest.raises(NotFoundError):  # not the RuntimeError
            chain.dispatch(make_ctx(), handler)

    def test_bad_hook_return_is_a_contract_error(self):
        class Bad(Middleware):
            name = "bad"

            def on_request(self, ctx):
                return 42

        with pytest.raises(MiddlewareError):
            MiddlewareChain([Bad()]).dispatch(make_ctx(), ok_handler)

    def test_non_middleware_entry_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareChain([object()])

    def test_shared_registry(self):
        registry = MetricsRegistry()
        chain = MiddlewareChain([MetricsMiddleware()], metrics=registry)
        assert chain.metrics is registry
        assert chain.middlewares[0].metrics is registry


class TestAuth:
    TOKENS = {
        "tok-read": {"client": "dash", "role": "read"},
        "tok-submit": {"client": "ci", "role": "submit"},
        "tok-admin": {"client": "ops", "role": "admin"},
    }

    def chain(self, **kwargs):
        return MiddlewareChain([AuthMiddleware(self.TOKENS, **kwargs)])

    def dispatch(self, chain, method="GET", path="/v1/tools", token=None):
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        return chain.dispatch(
            make_ctx(method=method, path=path, headers=headers), ok_handler
        )

    def test_missing_token_is_401(self):
        with pytest.raises(UnauthorizedError) as excinfo:
            self.dispatch(self.chain())
        assert error_headers(excinfo.value)["WWW-Authenticate"] == "Bearer"

    def test_unknown_and_malformed_tokens_are_401(self):
        with pytest.raises(UnauthorizedError):
            self.dispatch(self.chain(), token="who-dis")
        with pytest.raises(UnauthorizedError):
            chain = self.chain()
            chain.dispatch(
                make_ctx(headers={"Authorization": "Basic dXNlcg=="}),
                ok_handler,
            )

    def test_role_resolution_refines_context(self):
        response = self.dispatch(self.chain(), token="tok-read")
        assert response.payload["client"] == "dash"

    def test_read_role_cannot_submit(self):
        with pytest.raises(ForbiddenError):
            self.dispatch(
                self.chain(), method="POST", path="/v1/runs",
                token="tok-read",
            )

    def test_submit_role_cannot_synthesize(self):
        with pytest.raises(ForbiddenError):
            self.dispatch(
                self.chain(), method="POST", path="/v1/synth",
                token="tok-submit",
            )

    def test_admin_covers_everything(self):
        for method, path in [
            ("GET", "/v1/tools"),
            ("POST", "/v1/runs"),
            ("POST", "/v1/synth"),
            ("DELETE", "/v1/benchmarks/custom"),
        ]:
            response = self.dispatch(
                self.chain(), method=method, path=path, token="tok-admin"
            )
            assert response.payload["client"] == "ops"

    def test_health_is_exempt(self):
        response = self.dispatch(self.chain(), path="/v1/health")
        assert response.payload["ok"] is True

    def test_allow_anonymous_grants_configured_role(self):
        chain = self.chain(allow_anonymous="read")
        assert self.dispatch(chain).payload["client"] == "anonymous"
        with pytest.raises(ForbiddenError):
            self.dispatch(chain, method="POST", path="/v1/runs")

    def test_required_role_table(self):
        assert required_role("GET", "/v1/health") is None
        assert required_role("GET", "/v1/jobs/j-1/events") == "read"
        assert required_role("POST", "/v1/runs") == "submit"
        assert required_role("DELETE", "/v1/jobs/j-1") == "submit"
        assert required_role("POST", "/v1/synth") == "admin"
        assert required_role("DELETE", "/v1/benchmarks/x") == "admin"

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            AuthMiddleware({"t": {"client": "c", "role": "deity"}})
        with pytest.raises(ValidationError):
            AuthMiddleware({"t": {"role": "read"}})
        with pytest.raises(ValidationError):
            AuthMiddleware(self.TOKENS, allow_anonymous="deity")


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRateLimit:
    def test_burst_then_throttle_with_retry_after(self):
        clock = FakeClock()
        chain = MiddlewareChain(
            [RateLimitMiddleware(rate=1.0, burst=2.0, clock=clock)]
        )
        ctx = make_ctx()
        chain.dispatch(ctx, ok_handler)
        chain.dispatch(ctx, ok_handler)
        with pytest.raises(RateLimitError) as excinfo:
            chain.dispatch(ctx, ok_handler)
        # empty bucket at 1 token/s: the next token is ~1s away
        assert 0.0 < excinfo.value.retry_after <= 1.0
        assert error_headers(excinfo.value)["Retry-After"] == "1"

    def test_bucket_refills_with_time(self):
        clock = FakeClock()
        limiter = RateLimitMiddleware(rate=2.0, burst=2.0, clock=clock)
        chain = MiddlewareChain([limiter])
        ctx = make_ctx()
        chain.dispatch(ctx, ok_handler)
        chain.dispatch(ctx, ok_handler)
        with pytest.raises(RateLimitError):
            chain.dispatch(ctx, ok_handler)
        clock.advance(0.6)  # 1.2 tokens back at rate=2
        chain.dispatch(ctx, ok_handler)
        assert limiter.tokens_remaining("anonymous") < 1.0

    def test_buckets_are_per_client(self):
        clock = FakeClock()
        chain = MiddlewareChain(
            [RateLimitMiddleware(rate=1.0, burst=1.0, clock=clock)]
        )
        chain.dispatch(make_ctx(client_id="a"), ok_handler)
        with pytest.raises(RateLimitError):
            chain.dispatch(make_ctx(client_id="a"), ok_handler)
        # client b still has its own full bucket
        chain.dispatch(make_ctx(client_id="b"), ok_handler)

    def test_per_client_quota_overrides(self):
        clock = FakeClock()
        chain = MiddlewareChain([RateLimitMiddleware(
            rate=1.0, burst=1.0,
            quotas={"vip": {"rate": 10.0, "burst": 3.0}}, clock=clock,
        )])
        for _ in range(3):
            chain.dispatch(make_ctx(client_id="vip"), ok_handler)
        with pytest.raises(RateLimitError) as excinfo:
            chain.dispatch(make_ctx(client_id="vip"), ok_handler)
        # vip refills at 10/s, so the suggested wait is a tenth of
        # the default client's
        assert excinfo.value.retry_after <= 0.1

    def test_health_and_metrics_exempt(self):
        clock = FakeClock()
        chain = MiddlewareChain(
            [RateLimitMiddleware(rate=1.0, burst=1.0, clock=clock)]
        )
        for _ in range(5):
            chain.dispatch(make_ctx(path="/v1/health"), ok_handler)
            chain.dispatch(make_ctx(path="/v1/metrics"), ok_handler)

    def test_quota_validation(self):
        with pytest.raises(ValidationError):
            RateLimitMiddleware(rate=0.0)
        with pytest.raises(ValidationError):
            RateLimitMiddleware(burst=0.5)


class TestIdempotency:
    def run_body(self, seed=7):
        return {"benchmark": "open", "tool": "camflow", "seed": seed}

    def chain(self, tmp_path):
        return MiddlewareChain([IdempotencyMiddleware(tmp_path / "cache")])

    def test_header_mode_replays_cached_response(self, tmp_path):
        chain = self.chain(tmp_path)
        calls = []

        def handler(ctx):
            calls.append(1)
            return Response(status=202, payload={"job_id": "job-1"})

        ctx = make_ctx(
            method="POST", path="/v1/runs",
            headers={"Idempotency-Key": "abc"},
            body=self.run_body(), raw=b"one",
        )
        first = chain.dispatch(ctx, handler)
        replay = chain.dispatch(make_ctx(
            method="POST", path="/v1/runs",
            headers={"Idempotency-Key": "abc"},
            body=self.run_body(), raw=b"one",
        ), handler)
        assert len(calls) == 1
        assert replay.status == 202
        assert replay.payload == first.payload
        assert replay.headers[REPLAY_HEADER] == "header"

    def test_header_mode_conflicting_body_is_409(self, tmp_path):
        chain = self.chain(tmp_path)
        base = dict(
            method="POST", path="/v1/runs",
            headers={"Idempotency-Key": "abc"},
        )
        chain.dispatch(
            make_ctx(**base, body=self.run_body(), raw=b"one"),
            lambda ctx: Response(payload={"x": 1}),
        )
        with pytest.raises(ConflictError):
            chain.dispatch(
                make_ctx(**base, body=self.run_body(9), raw=b"two"),
                ok_handler,
            )

    def test_header_keys_are_scoped_per_client(self, tmp_path):
        chain = self.chain(tmp_path)
        calls = []

        def handler(ctx):
            calls.append(ctx.client_id)
            return Response(payload={"for": ctx.client_id})

        for client in ("a", "b"):
            chain.dispatch(make_ctx(
                method="POST", path="/v1/runs", client_id=client,
                headers={"Idempotency-Key": "same"},
                body=self.run_body(), raw=b"one",
            ), handler)
        assert calls == ["a", "b"]  # no cross-client replay

    def test_auto_mode_caches_deterministic_runs(self, tmp_path):
        chain = self.chain(tmp_path)
        calls = []

        def handler(ctx):
            calls.append(1)
            return Response(payload={"result": {"n": len(calls)}})

        body = self.run_body()
        first = chain.dispatch(
            make_ctx(method="POST", path="/v1/runs", body=body), handler
        )
        # same request, different transport flag: still a replay
        replay = chain.dispatch(
            make_ctx(method="POST", path="/v1/runs",
                     body={**body, "wait": True}),
            handler,
        )
        assert len(calls) == 1
        assert replay.payload == first.payload
        assert replay.headers[REPLAY_HEADER] == "auto"

    def test_auto_mode_ignores_unseeded_and_other_paths(self, tmp_path):
        chain = self.chain(tmp_path)
        calls = []

        def handler(ctx):
            calls.append(1)
            return Response(payload={"n": len(calls)})

        unseeded = {"benchmark": "open", "tool": "camflow"}
        for _ in range(2):
            chain.dispatch(
                make_ctx(method="POST", path="/v1/runs", body=unseeded),
                handler,
            )
        chain.dispatch(
            make_ctx(method="POST", path="/v1/synth", body=self.run_body()),
            handler,
        )
        assert len(calls) == 3  # nothing was served from cache

    def test_errors_are_not_cached(self, tmp_path):
        chain = self.chain(tmp_path)
        attempts = []

        def handler(ctx):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValidationError("flaky")
            return Response(payload={"ok": True})

        body = self.run_body()
        with pytest.raises(ValidationError):
            chain.dispatch(
                make_ctx(method="POST", path="/v1/runs", body=body), handler
            )
        response = chain.dispatch(
            make_ctx(method="POST", path="/v1/runs", body=body), handler
        )
        assert response.payload == {"ok": True} and len(attempts) == 2

    def test_replay_metrics(self, tmp_path):
        chain = self.chain(tmp_path)
        body = self.run_body()
        for _ in range(3):
            chain.dispatch(
                make_ctx(method="POST", path="/v1/runs", body=body),
                lambda ctx: Response(payload={"r": 1}),
            )
        assert chain.metrics.counter_value(
            "idempotency_replay_total", "auto"
        ) == 2
        gauge = chain.metrics.render()["gauges"]["response_cache"]
        assert gauge["hits"] == 2 and gauge["writes"] == 1


class TestMetrics:
    def test_registry_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("c", "x")
        registry.inc("c", "x", by=2)
        registry.inc("c", "y")
        registry.observe("h", "route", 0.004)
        registry.observe("h", "route", 2.0)
        assert registry.counter_value("c", "x") == 3
        assert registry.counter_total("c") == 4
        rendered = registry.render()
        histogram = rendered["histograms"]["h"]["route"]
        assert histogram["count"] == 2
        assert histogram["min"] == 0.004 and histogram["max"] == 2.0
        assert histogram["buckets"]["0.005"] == 1
        assert histogram["buckets"]["2.5"] == 1

    def test_gauges_sample_at_render_and_isolate_failures(self):
        registry = MetricsRegistry()
        registry.gauge_fn("depth", lambda: 7)
        registry.gauge_fn("broken", lambda: 1 / 0)
        gauges = registry.render()["gauges"]
        assert gauges["depth"] == 7
        assert gauges["broken"].startswith("error: ZeroDivisionError")

    def test_route_label_bounds_cardinality(self):
        assert route_label("/v1/jobs/job-0001-abc") == "/v1/jobs/{id}"
        assert route_label("/v1/jobs/job-1/events") == "/v1/jobs/{id}/events"
        assert route_label("/v1/benchmarks/open") == "/v1/benchmarks/{name}"
        assert route_label("/v1/runs") == "/v1/runs"
        assert route_label("/") == "/"

    def test_middleware_records_requests_and_errors(self):
        clock = FakeClock()
        chain = MiddlewareChain([MetricsMiddleware(clock=clock)])
        chain.dispatch(make_ctx(path="/v1/tools"), ok_handler)

        def failing(ctx):
            raise NotFoundError("x")

        with pytest.raises(NotFoundError):
            chain.dispatch(make_ctx(path="/v1/jobs/job-9"), failing)
        counters = chain.metrics.render()["counters"]
        assert counters["http_requests_total"]["GET /v1/tools 200"] == 1
        assert counters["http_requests_total"]["GET /v1/jobs/{id} 404"] == 1
        assert counters["http_errors_total"]["NotFoundError"] == 1

    def test_pipeline_counters_harvested_from_run_payloads(self):
        chain = MiddlewareChain([MetricsMiddleware()])
        payload = {"result": {"timings": {
            "solver_steps": 11, "store_hits": 2, "store_misses": 1,
        }}}
        chain.dispatch(
            make_ctx(method="POST", path="/v1/runs"),
            lambda ctx: Response(payload=payload),
        )
        assert chain.metrics.counter_value("pipeline_solver_steps") == 11
        assert chain.metrics.counter_value("pipeline_store_hits") == 2

    def test_replays_not_double_counted(self):
        chain = MiddlewareChain([MetricsMiddleware()])
        payload = {"result": {"timings": {"solver_steps": 5}}}
        chain.dispatch(
            make_ctx(method="POST", path="/v1/runs"),
            lambda ctx: Response(
                payload=payload, headers={REPLAY_HEADER: "auto"}
            ),
        )
        assert chain.metrics.counter_value("pipeline_solver_steps") == 0


class TestAccessLog:
    def test_json_lines_carry_correlation_fields(self, tmp_path):
        log_file = tmp_path / "access.log"
        chain = MiddlewareChain([AccessLogMiddleware(path=log_file)])
        ctx = make_ctx(client_id="ci")
        chain.dispatch(ctx, ok_handler)

        def failing(c):
            raise NotFoundError("gone")

        with pytest.raises(NotFoundError):
            chain.dispatch(make_ctx(path="/v1/jobs/j"), failing)
        lines = [json.loads(l) for l in log_file.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["client_id"] == "ci"
        assert lines[0]["status"] == 200
        assert lines[0]["request_id"] == ctx.request_id
        assert lines[0]["duration_ms"] >= 0
        assert lines[1]["status"] == 404
        assert lines[1]["error"] == "NotFoundError"


class FakeJobService:
    """service.poll stub returning a scripted snapshot sequence."""

    def __init__(self, snapshots):
        self.snapshots = list(snapshots)

    def poll(self, job_id):
        if not self.snapshots:
            raise NotFoundError(f"unknown job {job_id!r}")
        return self.snapshots.pop(0) if len(self.snapshots) > 1 \
            else self.snapshots[0]


def job_snapshot(state="running", completed=0, stage=""):
    return JobStatus(
        job_id="job-0001-x", state=state, kind="run",
        submitted_at=1.0, total=1, completed=completed, stage=stage,
    )


def parse_events(chunks):
    text = b"".join(chunks).decode()
    events = []
    for frame in text.strip().split("\n\n"):
        lines = frame.splitlines()
        name = lines[0].split(": ", 1)[1]
        data = json.loads("\n".join(
            l.split(": ", 1)[1] for l in lines[1:] if l.startswith("data:")
        ))
        events.append((name, data))
    return events


class TestSse:
    def test_format_event_frames(self):
        frame = format_event("progress", {"a": 1})
        assert frame == b'event: progress\ndata: {"a": 1}\n\n'

    def test_stream_snapshot_progress_terminal(self):
        service = FakeJobService([
            job_snapshot("queued"),
            job_snapshot("running", stage="open/recording:start"),
            job_snapshot("running", completed=1, stage="open/comparison:done"),
            job_snapshot("done", completed=1),
        ])
        events = parse_events(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
        ))
        names = [name for name, _ in events]
        assert names == ["snapshot", "progress", "progress", "done"]
        assert events[0][1]["state"] == "queued"
        assert events[1][1]["stage"] == "open/recording:start"
        assert events[-1][1]["state"] == "done"

    def test_terminal_event_named_by_state_on_cancel(self):
        service = FakeJobService([
            job_snapshot("queued"), job_snapshot("cancelled"),
        ])
        events = parse_events(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
        ))
        assert [name for name, _ in events] == ["snapshot", "cancelled"]

    def test_heartbeat_when_nothing_changes(self):
        clock = FakeClock()

        def sleeping(seconds):
            clock.advance(seconds)

        snapshots = [job_snapshot("running")] * 8 + [job_snapshot("done")]
        service = FakeJobService(snapshots)
        events = parse_events(job_event_stream(
            service, "job-0001-x", poll_interval=5.0, heartbeat=10.0,
            clock=clock, sleep=sleeping,
        ))
        names = [name for name, _ in events]
        assert names[0] == "snapshot" and names[-1] == "done"
        assert "heartbeat" in names and "progress" not in names

    def test_max_duration_ends_with_timeout_frame(self):
        clock = FakeClock()

        def sleeping(seconds):
            clock.advance(seconds)

        service = FakeJobService([job_snapshot("running")] * 100)
        events = parse_events(job_event_stream(
            service, "job-0001-x", poll_interval=1.0, max_duration=3.0,
            clock=clock, sleep=sleeping,
        ))
        assert events[-1][0] == "timeout"

    def test_unknown_job_raises_before_streaming(self):
        with pytest.raises(NotFoundError):
            job_event_stream(FakeJobService([]), "job-nope")


class TestBuildChain:
    def test_canonical_order_and_sections(self, tmp_path):
        chain = build_chain({
            "metrics": True,
            "access_log": {"path": str(tmp_path / "a.log")},
            "auth": {"tokens": {"t": {"client": "c", "role": "read"}}},
            "ratelimit": {"rate": 5, "burst": 10},
            "idempotency": {"store": str(tmp_path / "cache")},
        })
        assert [mw.name for mw in chain.middlewares] == [
            "metrics", "access_log", "auth", "ratelimit", "idempotency",
        ]

    def test_metrics_default_on_and_sections_optional(self):
        assert [mw.name for mw in build_chain({}).middlewares] == ["metrics"]
        assert len(build_chain({"metrics": False})) == 0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            build_chain({"authz": {}})

    def test_bad_sections_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            build_chain({"auth": {"tokens": {}}})
        with pytest.raises(ValidationError):
            build_chain({"idempotency": {}})
        with pytest.raises(ValidationError):
            build_chain({"ratelimit": {"rate": -1}})

    def test_unknown_access_log_key_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"'access_log' has unknown key\(s\) \['pth'\]"):
            build_chain({"access_log": {"pth": "access.log"}})

    def test_unknown_auth_keys_rejected(self):
        tokens = {"t": {"client": "c", "role": "read"}}
        with pytest.raises(ValidationError,
                           match=r"'auth' has unknown key\(s\) \['allow_anonymos'\]"):
            build_chain({"auth": {"tokens": tokens, "allow_anonymos": "read"}})
        with pytest.raises(ValidationError) as excinfo:
            build_chain({"auth": {"tokens": {
                "s3cret": {"client": "c", "role": "read", "rol": "admin"}}}})
        message = str(excinfo.value)
        assert "auth.tokens[client='c']" in message and "'rol'" in message
        assert "s3cret" not in message  # a token is a secret

    def test_unknown_ratelimit_keys_rejected(self):
        cases = [
            ({"client": {"ci": {"rate": 50}}}, "ratelimit", "client"),
            ({"burts": 30}, "ratelimit", "burts"),
            ({"clients": {"ci": {"rte": 50}}}, "ratelimit.clients.ci", "rte"),
            ({"roles": {"read": {"rte": 5}}}, "ratelimit.roles.read", "rte"),
        ]
        for section, where, key in cases:
            with pytest.raises(ValidationError) as excinfo:
                build_chain({"ratelimit": section})
            assert f"'{where}' has unknown key(s) ['{key}']" in str(
                excinfo.value)
        with pytest.raises(ValidationError, match="ratelimit.clients"):
            build_chain({"ratelimit": {"clients": ["ci"]}})

    def test_unknown_idempotency_key_rejected(self, tmp_path):
        with pytest.raises(
            ValidationError,
            match=r"'idempotency' has unknown key\(s\) \['max_entires'\]",
        ):
            build_chain({"idempotency": {"store": str(tmp_path / "cache"),
                                         "max_entires": 5}})

    def test_serve_exits_2_on_a_typo_inside_a_section(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "middleware.json"
        config.write_text(json.dumps(
            {"ratelimit": {"rate": 5, "clients": {"ci": {"rte": 50}}}}))
        assert main(["serve", "--port", "0", "--middleware", str(config)]) == 2
        assert "ratelimit.clients.ci" in capsys.readouterr().err

    def test_relative_store_resolves_against_base_dir(self, tmp_path):
        chain = build_chain(
            {"metrics": False, "idempotency": {"store": "cache"}},
            base_dir=tmp_path,
        )
        (mw,) = chain.middlewares
        assert mw.store.root == tmp_path / "cache"


class TestRoleRateLimitQuotas:
    """Role-level (rate, burst) overrides: client > role > default."""

    def middleware(self, clock):
        return RateLimitMiddleware(
            rate=1.0, burst=2.0,
            quotas={"ci": {"rate": 10.0, "burst": 20.0}},
            roles={
                "admin": {"rate": 100.0, "burst": 200.0},
                "read": {"rate": 0.5, "burst": 1.0},
            },
            clock=clock,
        )

    def test_role_quota_applies_when_no_client_override(self):
        limiter = self.middleware(FakeClock())
        assert limiter.tokens_remaining("ops", role="admin") == 200.0
        assert limiter.tokens_remaining("dash", role="read") == 1.0
        assert limiter.tokens_remaining("stranger", role="submit") == 2.0

    def test_client_override_beats_role_quota(self):
        limiter = self.middleware(FakeClock())
        # ci has a client-specific quota even though its role is submit
        assert limiter.tokens_remaining("ci", role="submit") == 20.0

    def test_role_sized_buckets_are_still_per_client(self):
        clock = FakeClock()
        chain = MiddlewareChain([self.middleware(clock)])

        def spend(client, role, path="/v1/tools"):
            return chain.dispatch(
                make_ctx(path=path, client_id=client, role=role), ok_handler
            )

        spend("dash", "read")  # burst 1: dash's bucket is now empty
        with pytest.raises(RateLimitError):
            spend("dash", "read")
        # a different read-role client has its own (role-sized) bucket
        spend("dash2", "read")
        # and refill uses the role's rate: 2s at 0.5/s buys one token
        clock.advance(2.0)
        spend("dash", "read")

    def test_role_quota_validation(self):
        with pytest.raises(ValidationError):
            RateLimitMiddleware(roles={"read": {"rate": -1.0}})

    def test_build_chain_accepts_role_quotas(self, tmp_path):
        chain = build_chain({
            "metrics": False,
            "ratelimit": {
                "rate": 5, "burst": 10,
                "roles": {"admin": {"rate": 50, "burst": 100}},
            },
        })
        (mw,) = chain.middlewares
        assert mw.tokens_remaining("ops", role="admin") == 100.0


class TestAuthPriorityGate:
    """Admin-only scheduling classes are rejected at the auth edge."""

    def chain(self):
        return MiddlewareChain([AuthMiddleware(TestAuth.TOKENS)])

    def submit_ctx(self, token, priority):
        return make_ctx(
            method="POST", path="/v1/runs",
            headers={"Authorization": f"Bearer {token}"},
            body={"benchmark": "open", "tool": "spade", "priority": priority},
        )

    def test_submit_role_cannot_request_urgent(self):
        with pytest.raises(ForbiddenError) as info:
            self.chain().dispatch(
                self.submit_ctx("tok-submit", "urgent"), ok_handler
            )
        assert "urgent" in str(info.value)

    def test_admin_can_request_urgent(self):
        response = self.chain().dispatch(
            self.submit_ctx("tok-admin", "urgent"), ok_handler
        )
        assert response.payload["client"] == "ops"

    def test_non_admin_classes_pass_through(self):
        response = self.chain().dispatch(
            self.submit_ctx("tok-submit", "background"), ok_handler
        )
        assert response.payload["client"] == "ci"

    def test_unknown_priority_left_for_request_validation(self):
        # auth only guards the admin-only lane; a typoed class must still
        # become the request validator's 400, not a confusing 403
        response = self.chain().dispatch(
            self.submit_ctx("tok-submit", "warp"), ok_handler
        )
        assert response.payload["ok"] is True


class TestIdempotencyLru:
    def entry(self, key):
        return dict(
            method="POST", path="/v1/runs",
            headers={"Idempotency-Key": key},
        )

    def cached_keys(self, chain, handler, *keys):
        for key in keys:
            chain.dispatch(
                make_ctx(**self.entry(key), body={"seed": 1},
                         raw=key.encode()),
                handler,
            )

    def replayed(self, chain, key):
        response = chain.dispatch(
            make_ctx(**self.entry(key), body={"seed": 1}, raw=key.encode()),
            lambda ctx: Response(payload={"fresh": key}),
        )
        return REPLAY_HEADER in response.headers

    def test_eviction_drops_least_recently_used(self, tmp_path):
        import os

        mw = IdempotencyMiddleware(tmp_path / "cache", max_entries=2)
        chain = MiddlewareChain([mw])
        handler = lambda ctx: Response(payload={"ok": True})  # noqa: E731
        self.cached_keys(chain, handler, "a", "b")
        # age the entries apart, then touch "a" by replaying it
        stage = mw.store.root / "response"
        for i, path in enumerate(sorted(stage.iterdir())):
            os.utime(path, (100 + i, 100 + i))
        assert self.replayed(chain, "a")  # bumps a's mtime to now
        self.cached_keys(chain, handler, "c")  # over cap: evicts "b"
        assert self.replayed(chain, "a")
        assert self.replayed(chain, "c")
        assert not self.replayed(chain, "b")  # evicted, re-ran fresh

    def test_eviction_counter_in_response_cache_gauge(self, tmp_path):
        mw = IdempotencyMiddleware(tmp_path / "cache", max_entries=1)
        chain = MiddlewareChain([mw])
        handler = lambda ctx: Response(payload={"ok": True})  # noqa: E731
        self.cached_keys(chain, handler, "a", "b", "c")
        gauge = chain.metrics.render()["gauges"]["response_cache"]
        assert gauge["evicted"] == 2
        assert gauge["max_entries"] == 1

    def test_unbounded_cache_never_evicts(self, tmp_path):
        mw = IdempotencyMiddleware(tmp_path / "cache")
        chain = MiddlewareChain([mw])
        handler = lambda ctx: Response(payload={"ok": True})  # noqa: E731
        self.cached_keys(chain, handler, *(f"k{i}" for i in range(10)))
        gauge = chain.metrics.render()["gauges"]["response_cache"]
        assert gauge["evicted"] == 0
        assert gauge["max_entries"] is None
        assert all(self.replayed(chain, f"k{i}") for i in range(10))

    def test_max_entries_validation_and_config_key(self, tmp_path):
        with pytest.raises(ValidationError):
            IdempotencyMiddleware(tmp_path / "cache", max_entries=0)
        chain = build_chain({
            "metrics": False,
            "idempotency": {
                "store": str(tmp_path / "cache2"), "max_entries": 7,
            },
        })
        (mw,) = chain.middlewares
        assert mw.max_entries == 7


def parse_event_ids(chunks):
    """``(event_name, id_or_None)`` per frame, in order."""
    ids = []
    for frame in b"".join(chunks).decode().strip().split("\n\n"):
        name = event_id = None
        for line in frame.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("id: "):
                event_id = int(line[len("id: "):])
        ids.append((name, event_id))
    return ids


class TestSseResume:
    def test_frames_carry_completed_count_as_event_id(self):
        service = FakeJobService([
            job_snapshot("queued"),
            job_snapshot("running", completed=1, stage="open/x:done"),
            job_snapshot("running", completed=2, stage="close/x:done"),
            job_snapshot("done", completed=2),
        ])
        ids = parse_event_ids(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
        ))
        assert ids == [
            ("snapshot", 0), ("progress", 1), ("progress", 2), ("done", 2),
        ]

    def test_heartbeats_carry_no_id(self):
        clock = FakeClock()
        snapshots = [job_snapshot("running")] * 8 + [job_snapshot("done")]
        events = parse_event_ids(job_event_stream(
            FakeJobService(snapshots), "job-0001-x",
            poll_interval=5.0, heartbeat=10.0,
            clock=clock, sleep=lambda s: clock.advance(s),
        ))
        assert ("heartbeat", None) in events

    def test_resume_replays_missed_completions_before_snapshot(self):
        service = FakeJobService([
            job_snapshot("running", completed=5, stage="late/x:done"),
            job_snapshot("done", completed=6),
        ])
        stream = list(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
            last_event_id=2,
        ))
        ids = parse_event_ids(stream)
        assert ids == [
            ("progress", 3), ("progress", 4), ("progress", 5),
            ("snapshot", 5), ("done", 6),
        ]
        replays = parse_events(stream)[:3]
        assert [data["completed"] for _, data in replays] == [3, 4, 5]
        assert all(data["replayed"] for _, data in replays)

    def test_resume_at_current_position_replays_nothing(self):
        service = FakeJobService([
            job_snapshot("running", completed=3),
            job_snapshot("done", completed=3),
        ])
        ids = parse_event_ids(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
            last_event_id=3,
        ))
        assert ids == [("snapshot", 3), ("done", 3)]

    def test_negative_last_event_id_clamps_to_start(self):
        service = FakeJobService([
            job_snapshot("running", completed=1),
            job_snapshot("done", completed=1),
        ])
        ids = parse_event_ids(job_event_stream(
            service, "job-0001-x", poll_interval=0.0, sleep=lambda s: None,
            last_event_id=-5,
        ))
        assert ids[0] == ("progress", 1)
