"""Embedded HTTP JSON service over :class:`BenchmarkService`.

Pure stdlib (``http.server``) — no new dependencies.  Every request is
dispatched through a :class:`~repro.middleware.chain.MiddlewareChain`
(auth, rate limiting, idempotent response caching, metrics, access
logs — assembled by ``provmark serve --middleware config.json``, empty
by default) before it reaches a route handler.  Endpoints, all JSON,
all prefixed with the API version:

* ``GET /v1/health`` — liveness: ``{"status": "ok", "api_version",
  "jobs": {...}, "queue": {...}}`` with job counts by state plus queue
  depth, capacity, and the finished-record ``evicted`` counter (what CI
  polls instead of sleep-retrying); never requires auth;
* ``GET /v1/metrics`` — the middleware layer's
  :class:`~repro.middleware.metrics.MetricsRegistry`: request latency
  histograms and status counts, ``pipeline_*`` solver/store counters,
  idempotent-replay counts, and live gauges (job-queue depth,
  response-cache hit ratio);
* ``GET /v1/tools`` (optionally ``?name=<tool>``) — registered capture
  backends with their resolved profiles;
* ``GET /v1/benchmarks`` — the suite catalog (builtin and custom, with
  tags);
* ``POST /v1/benchmarks`` — body is a
  :class:`~repro.api.specs.BenchmarkSpec` payload; the spec is
  validated (strict decoding plus the semantic validator — the safety
  boundary for untrusted clients), compiled, and registered; answers
  ``201`` with the catalog row and the spec's content digest;
* ``GET /v1/benchmarks/<name>`` — the declarative spec of any
  registered benchmark (builtins are re-expressed as specs exactly);
* ``DELETE /v1/benchmarks/<name>`` — unregister a custom benchmark
  (builtin rows refuse with 400);
* ``POST /v1/runs`` — body is a :class:`~repro.api.types.RunRequest`
  payload naming a registered benchmark *or* carrying an inline
  ``"spec"``; by default the run is submitted as an async job (``202``
  with a :class:`~repro.api.types.JobStatus` envelope to poll), while
  ``"wait": true`` in the body blocks and answers ``200`` with the
  :class:`~repro.api.types.RunResponse` directly;
* ``POST /v1/synth`` — body is a :class:`~repro.api.types.SynthConfig`
  payload; coverage-guided benchmark synthesis runs as an async job
  (``202``; ``"wait": true`` blocks and answers ``200`` with the
  :class:`~repro.api.types.SynthReport`), registering surviving specs
  into the suite registry under the ``synth`` tag;
* ``GET /v1/jobs/<id>`` — job status, including the result envelope
  (or synthesis report) once the job is done;
* ``GET /v1/jobs/<id>/events`` — a ``text/event-stream`` (SSE) of the
  job's :class:`~repro.core.stages.ProgressEvent`-driven snapshots:
  ``snapshot``, ``progress`` and ``heartbeat`` events, ending with a
  terminal event named by the final state (``done``/``failed``/
  ``cancelled``); ``?poll=``, ``?heartbeat=`` and ``?max_seconds=``
  tune the cadence;
* ``DELETE /v1/jobs/<id>`` — request cancellation.

Request headers the middleware layer speaks: ``Authorization: Bearer
<token>`` (auth), ``Idempotency-Key`` (exact-retry response caching),
``Request-Timeout`` (seconds; bounds an SSE stream), ``Last-Event-ID``
(SSE resume — replays completions missed while disconnected).  Response headers:
``Retry-After`` on 429, ``Allow`` on 405, ``WWW-Authenticate`` on 401,
``X-Request-Id`` (the correlation id job records and access logs
carry), ``X-Idempotent-Replay`` on responses served from the response
cache.

A path that exists under other methods answers ``405`` with an
``Allow`` header; unknown paths answer ``404`` — both with the same
``{"error": {"status", "type", "message"}}`` envelope as every other
failure, carrying the exact one-line message ``provmark`` prints before
exiting 2.

Start it with ``provmark serve --port N [--middleware config.json]``
(``--port 0`` picks a free port and prints it), or embed it::

    from repro.api.http import make_server
    server = make_server(port=0)
    print(server.server_address)
    server.serve_forever()
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.api.errors import (
    ApiError,
    MethodNotAllowedError,
    NotFoundError,
    ValidationError,
    error_body,
    error_headers,
    render_error,
)
from repro.api.service import BenchmarkService
from repro.api.specs import BenchmarkSpec, spec_digest
from repro.api.types import (
    API_VERSION,
    JOB_STATES,
    ClusterNodeInfo,
    ClusterStatus,
    RunRequest,
    SynthConfig,
    ToolQuery,
)
from repro.middleware.chain import MiddlewareChain
from repro.middleware.context import RequestContext, Response, body_digest
from repro.middleware.metrics import register_service_gauges
from repro.middleware.sse import (
    DEFAULT_HEARTBEAT,
    DEFAULT_POLL_INTERVAL,
    SSE_MAX_STREAM_SECONDS,
    job_event_stream,
)

#: default TCP port of ``provmark serve``
DEFAULT_PORT = 8321

#: request bodies past this size are rejected (a RunRequest is tiny)
MAX_BODY_BYTES = 1 << 20


def _resolve_route(path: str) -> Optional[Tuple[Dict[str, str], Optional[str]]]:
    """``(method -> handler name, path argument)`` for a request path.

    Central for a reason: the 405 contract needs to know every method a
    path answers (the ``Allow`` header), which per-method route
    functions cannot see.  Returns ``None`` for unknown paths.
    """
    clean = path.rstrip("/") or "/"
    if clean == "/v1/health":
        return {"GET": "_get_health"}, None
    if clean == "/v1/metrics":
        return {"GET": "_get_metrics"}, None
    if clean == "/v1/cluster":
        return {"GET": "_get_cluster"}, None
    if clean == "/v1/tools":
        return {"GET": "_get_tools"}, None
    if clean == "/v1/benchmarks":
        return {"GET": "_get_benchmarks", "POST": "_post_benchmark"}, None
    if clean == "/v1/runs":
        return {"POST": "_post_run"}, None
    if clean == "/v1/synth":
        return {"POST": "_post_synth"}, None
    if clean.startswith("/v1/jobs/"):
        tail = clean[len("/v1/jobs/"):]
        if tail.endswith("/events"):
            job_id = tail[: -len("/events")]
            if job_id and "/" not in job_id:
                return {"GET": "_get_job_events"}, job_id
        elif tail and "/" not in tail:
            return {"GET": "_get_job", "DELETE": "_delete_job"}, tail
    if clean.startswith("/v1/benchmarks/"):
        name = clean[len("/v1/benchmarks/"):]
        if name and "/" not in name:
            return {"GET": "_get_benchmark", "DELETE": "_delete_benchmark"}, name
    return None


class ApiHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one service and one middleware chain."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: BenchmarkService,
        chain: Optional[MiddlewareChain] = None,
    ):
        super().__init__(address, ApiRequestHandler)
        self.service = service
        #: the interception chain every request dispatches through; the
        #: default empty chain still carries the shared MetricsRegistry,
        #: so /v1/metrics works with no middleware configured
        self.chain = chain if chain is not None else MiddlewareChain()
        register_service_gauges(self.chain.metrics, service)


class ApiRequestHandler(BaseHTTPRequestHandler):
    server_version = f"provmark-api/{API_VERSION}"

    @property
    def service(self) -> BenchmarkService:
        return self.server.service

    @property
    def chain(self) -> MiddlewareChain:
        return self.server.chain

    # -- dispatch -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # surfaced so the 405 contract covers methods no route uses at all
    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_PATCH(self) -> None:  # noqa: N802
        self._dispatch("PATCH")

    def _dispatch(self, method: str) -> None:
        ctx: Optional[RequestContext] = None
        try:
            ctx = self._build_context(method)
            response = self.chain.dispatch(ctx, self._route)
            self._respond(ctx, response)
        except ApiError as exc:
            headers = error_headers(exc)
            if ctx is not None:
                headers.setdefault("X-Request-Id", ctx.request_id)
            self._send_json(exc.http_status, error_body(exc), headers)
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 — never kill the server
            fallback = ApiError(
                f"internal error: {type(exc).__name__}: {render_error(exc)}"
            )
            self._send_json(fallback.http_status, error_body(fallback))

    def _build_context(self, method: str) -> RequestContext:
        """The frozen middleware-facing view of this request.

        The body is read (and digested) exactly once, here; handlers
        get it parsed via ``ctx.body``.  A transport-level violation
        (bad ``Content-Length``, oversized body) is a 400 regardless of
        path; a merely *unparsable* body is deferred so unknown paths
        still answer 404/405 (``_require_body`` re-raises it).
        """
        split = urlsplit(self.path)
        raw = b""
        parse_error: Optional[str] = None
        if method in ("POST", "PUT", "PATCH"):
            raw = self._read_body_bytes()
        body: Optional[Dict[str, object]] = None
        if raw:
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                parse_error = "request body is not valid JSON"
            else:
                if isinstance(decoded, dict):
                    body = decoded
                else:
                    parse_error = "request body must be a JSON object"
        deadline: Optional[float] = None
        timeout_header = self.headers.get("Request-Timeout")
        if timeout_header is not None:
            try:
                seconds = float(timeout_header)
            except ValueError:
                raise ValidationError(
                    "invalid Request-Timeout header (expected seconds)"
                ) from None
            if seconds > 0:
                deadline = time.monotonic() + seconds
        ctx = RequestContext(
            method=method,
            path=split.path,
            query=split.query,
            headers=RequestContext.normalize_headers(self.headers.items()),
            body=body,
            body_digest=body_digest(raw),
            remote_addr=self.client_address[0],
            deadline=deadline,
        )
        if parse_error is not None:
            ctx.state["body_error"] = parse_error
        return ctx

    def _read_body_bytes(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ValidationError("invalid Content-Length header") from None
        if length <= 0:
            return b""
        if length > MAX_BODY_BYTES:
            raise ValidationError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        return self.rfile.read(length)

    def _route(self, ctx: RequestContext) -> Response:
        """The terminal handler the middleware chain wraps."""
        resolved = _resolve_route(ctx.path)
        if resolved is None:
            raise NotFoundError(f"no route for {ctx.method} {ctx.path}")
        methods, arg = resolved
        handler_name = methods.get(ctx.method)
        if handler_name is None:
            raise MethodNotAllowedError(
                f"{ctx.method} is not allowed on {ctx.path}",
                allow=methods.keys(),
            )
        return getattr(self, handler_name)(ctx, arg)

    # -- GET routes ---------------------------------------------------------

    def _get_health(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        # one pass over the records counts the states and the sched stats
        counts, sched = self.service.jobs.census()
        states = {state: counts.get(state, 0) for state in JOB_STATES}
        return Response(payload={
            "status": "ok",
            "api_version": API_VERSION,
            "jobs": {"total": sum(counts.values()), **states},
            # queue depth, capacity, and the evicted counter that
            # explains why an old job id 404s (finished records are
            # retained only up to a cap)
            "queue": self.service.jobs.queue_stats(),
            # per-priority-class pending/running counts and queue-wait
            # quantiles, plus the monotonic aging-promotion count
            "sched": sched,
            # always-shaped fleet block: {"enabled": False, ...} on a
            # single-host plane, node/worker counts when clustered
            "cluster": self.service.jobs.cluster_summary(),
        })

    def _get_cluster(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        stats = self.service.jobs.cluster_stats()
        if stats is None:
            # single-host plane: same schema, everything zero
            payload = ClusterStatus(enabled=False).to_payload()
            payload["recent_events"] = []
            return Response(payload=payload)
        queue_stats = self.service.jobs.queue_stats()
        counters = stats.get("counters") or {}
        status = ClusterStatus(
            enabled=True,
            coordinator=str(stats.get("address") or ""),
            draining=bool(stats.get("draining")),
            nodes=tuple(
                ClusterNodeInfo(
                    node_id=str(n.get("node_id") or ""),
                    host=str(n.get("host") or ""),
                    workers=int(n.get("workers") or 0),
                    claims=int(n.get("claims") or 0),
                    last_seen_age=float(n.get("last_seen_age") or 0.0),
                )
                for n in stats.get("nodes") or ()
            ),
            remote_workers=int(stats.get("remote_workers") or 0),
            local_workers=int(queue_stats.get("workers") or 0),
            claims_total=int(counters.get("claims_total") or 0),
            completions_total=int(counters.get("completions_total") or 0),
            events_seq=int(stats.get("events_seq") or 0),
        )
        payload = status.to_payload()
        # the raw event tail rides alongside the typed snapshot (events
        # are already strict codecs; dashboards render them verbatim)
        payload["recent_events"] = list(stats.get("recent_events") or ())
        return Response(payload=payload)

    def _get_metrics(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        payload = self.chain.metrics.render()
        payload["api_version"] = API_VERSION
        return Response(payload=payload)

    def _get_tools(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        query = dict(parse_qsl(ctx.query))
        tool_query = ToolQuery(name=query.get("name"))
        return Response(payload={
            "api_version": API_VERSION,
            "tools": [t.to_payload() for t in self.service.tools(tool_query)],
        })

    def _get_benchmarks(
        self, ctx: RequestContext, arg: Optional[str]
    ) -> Response:
        return Response(payload={
            "api_version": API_VERSION,
            "benchmarks": [b.to_payload() for b in self.service.benchmarks()],
        })

    def _get_benchmark(self, ctx: RequestContext, name: str) -> Response:
        spec = self.service.benchmark_spec(name)
        info = self.service.benchmark_info(name)
        return Response(payload={
            "api_version": API_VERSION,
            "name": name,
            "builtin": info.builtin,
            "tags": list(info.tags),
            "digest": spec_digest(spec),
            "spec": spec.to_payload(),
        })

    def _get_job(self, ctx: RequestContext, job_id: str) -> Response:
        return Response(payload=self.service.poll(job_id).to_payload())

    def _get_job_events(self, ctx: RequestContext, job_id: str) -> Response:
        params = dict(parse_qsl(ctx.query))
        poll = self._float_param(params, "poll", DEFAULT_POLL_INTERVAL)
        heartbeat = self._float_param(params, "heartbeat", DEFAULT_HEARTBEAT)
        max_seconds = self._float_param(
            params, "max_seconds", SSE_MAX_STREAM_SECONDS
        )
        if ctx.deadline is not None:
            max_seconds = min(max_seconds, ctx.deadline - time.monotonic())
        # Resume: a reconnecting SSE client echoes the last `id:` it saw
        # (the completed count); malformed values mean a fresh stream.
        last_event_id = None
        raw_last = ctx.header("last-event-id")
        if raw_last is not None:
            try:
                last_event_id = int(raw_last.strip())
            except ValueError:
                last_event_id = None
        stream = job_event_stream(
            self.service,
            job_id,
            poll_interval=poll,
            heartbeat=heartbeat,
            max_duration=max_seconds,
            last_event_id=last_event_id,
        )
        return Response(
            stream=stream,
            content_type="text/event-stream",
            headers={"Cache-Control": "no-cache"},
        )

    @staticmethod
    def _float_param(
        params: Dict[str, str], name: str, default: float
    ) -> float:
        value = params.get(name)
        if value is None:
            return default
        try:
            parsed = float(value)
        except ValueError:
            raise ValidationError(
                f"query parameter {name!r} must be a number, got {value!r}"
            ) from None
        if parsed <= 0:
            raise ValidationError(
                f"query parameter {name!r} must be positive, got {value!r}"
            )
        return parsed

    # -- POST routes --------------------------------------------------------

    def _post_benchmark(
        self, ctx: RequestContext, arg: Optional[str]
    ) -> Response:
        spec = BenchmarkSpec.from_payload(self._require_body(ctx))
        info = self.service.register_benchmark(spec)
        return Response(status=201, payload={
            "api_version": API_VERSION,
            "benchmark": info.to_payload(),
            "digest": spec_digest(spec),
        })

    def _post_run(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        body = self._require_body(ctx)
        wait = body.pop("wait", False)
        if not isinstance(wait, bool):
            raise ValidationError("'wait' must be a boolean")
        request = RunRequest.from_payload(body)
        # Filesystem locations are operator-controlled: a remote client
        # must not steer server-side writes (store_path) or reads
        # (config_path).
        for field in ("store_path", "config_path"):
            if getattr(request, field) is not None:
                raise ValidationError(
                    f"{field!r} is not accepted over HTTP; server-side "
                    "paths are configured by the operator"
                )
        if wait:
            return Response(payload=self.service.run(request).to_payload())
        status = self.service.submit(
            request, client_id=ctx.client_id, request_id=ctx.request_id,
            role=ctx.role,
        )
        return Response(status=202, payload=status.to_payload())

    def _post_synth(self, ctx: RequestContext, arg: Optional[str]) -> Response:
        body = self._require_body(ctx)
        wait = body.pop("wait", False)
        if not isinstance(wait, bool):
            raise ValidationError("'wait' must be a boolean")
        config = SynthConfig.from_payload(body)
        # same rule as /v1/runs: server-side filesystem locations are
        # operator-controlled, not client-steered
        if config.store_path is not None:
            raise ValidationError(
                "'store_path' is not accepted over HTTP; server-side "
                "paths are configured by the operator"
            )
        if wait:
            report = self.service.synthesize(config)
            return Response(payload={
                "api_version": API_VERSION,
                "report": report.to_payload(),
            })
        status = self.service.submit(
            config, client_id=ctx.client_id, request_id=ctx.request_id,
            role=ctx.role,
        )
        return Response(status=202, payload=status.to_payload())

    # -- DELETE routes ------------------------------------------------------

    def _delete_job(self, ctx: RequestContext, job_id: str) -> Response:
        return Response(payload=self.service.cancel(job_id).to_payload())

    def _delete_benchmark(self, ctx: RequestContext, name: str) -> Response:
        return Response(payload={
            "api_version": API_VERSION,
            "removed": self.service.unregister_benchmark(name),
        })

    # -- plumbing -----------------------------------------------------------

    def _require_body(self, ctx: RequestContext) -> Dict[str, object]:
        """The request's JSON object body, as a mutable copy."""
        error = ctx.state.get("body_error")
        if error is not None:
            raise ValidationError(str(error))
        if ctx.body is None:
            raise ValidationError("request body must be a JSON object")
        return dict(ctx.body)

    def _respond(self, ctx: RequestContext, response: Response) -> None:
        headers = dict(response.headers)
        headers.setdefault("X-Request-Id", ctx.request_id)
        if response.streaming:
            self._send_stream(response, headers)
        else:
            self._send_json(response.status, response.payload or {}, headers)

    def _send_stream(self, response: Response, headers: Dict[str, str]) -> None:
        """Write a close-delimited streaming body, one flushed chunk per
        event (the server speaks HTTP/1.0, so no Content-Length needed)."""
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        for chunk in response.stream:
            self.wfile.write(chunk)
            self.wfile.flush()

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # sort_keys: responses replayed from the idempotency cache (a
        # store round-trip, which sorts nested keys) must be
        # byte-identical to the original response
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, format: str, *args: object) -> None:
        # Quiet by default; the access-log middleware is the structured
        # replacement, and the serve command prints its own one-liner.
        pass


def make_server(
    service: Optional[BenchmarkService] = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    chain: Optional[MiddlewareChain] = None,
) -> ApiHTTPServer:
    """Bind the API server (``port=0`` picks a free port).

    ``chain`` is the middleware composition every request dispatches
    through (see :func:`repro.middleware.build_chain`); omitted, an
    empty chain still provides the ``/v1/metrics`` registry and its
    service gauges.  The caller owns the lifecycle: ``serve_forever()``
    to run, ``server_close()`` (plus ``service.close()``) to stop.
    """
    return ApiHTTPServer((host, port), service or BenchmarkService(), chain)
