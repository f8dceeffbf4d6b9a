"""Error vocabulary shared by the service façade, the CLI, and HTTP.

Every user-facing failure of the typed API is an :class:`ApiError`
carrying both its HTTP status (for ``repro/api/http.py``) and its CLI
exit code (for ``provmark``), so the two entry surfaces render the same
condition the same way: the CLI prints ``provmark: <message>`` and exits
2, the HTTP service answers 400/404 with ``{"error": {...}}`` — one
message, produced in one place.
"""

from __future__ import annotations

from typing import Dict, Sequence


class ApiError(Exception):
    """Base class for typed-API failures (500 / exit 1 by default)."""

    http_status: int = 500
    exit_code: int = 1


class ValidationError(ApiError, ValueError):
    """A request (or payload being decoded) is malformed."""

    http_status = 400
    exit_code = 2


class NotFoundError(ApiError, LookupError):
    """A named tool, benchmark, profile, or job does not exist."""

    http_status = 404
    exit_code = 2


class UnauthorizedError(ApiError):
    """The request carries no (or an unknown) credential (HTTP 401).

    Rendered with a ``WWW-Authenticate: Bearer`` header: the middleware
    chain's auth layer accepts ``Authorization: Bearer <token>``.
    """

    http_status = 401
    exit_code = 4

    #: headers the HTTP layer attaches to the error response
    extra_headers = {"WWW-Authenticate": "Bearer"}


class ForbiddenError(ApiError):
    """An authenticated client's role does not cover this route (403)."""

    http_status = 403
    exit_code = 4


class ConflictError(ApiError):
    """A request contradicts earlier state it claims to repeat (409).

    The idempotency middleware raises this when an ``Idempotency-Key``
    is replayed with a *different* request body: the key promises an
    exact retry, so a mismatched digest is a client bug, not a replay.
    """

    http_status = 409
    exit_code = 2


class MethodNotAllowedError(ApiError):
    """The path exists but not under this HTTP method (405 + ``Allow``)."""

    http_status = 405
    exit_code = 2

    def __init__(self, message: str, allow: Sequence[str] = ()) -> None:
        super().__init__(message)
        #: the methods the path does answer (the ``Allow`` header)
        self.allow = tuple(sorted(set(allow)))

    @property
    def extra_headers(self) -> Dict[str, str]:
        return {"Allow": ", ".join(self.allow)} if self.allow else {}


class BackpressureError(ApiError):
    """The job queue is at capacity; retry after ``retry_after`` seconds.

    Rendered over HTTP as ``429`` with a ``Retry-After`` header — the
    bounded-queue backpressure contract of the execution plane.
    """

    http_status = 429
    exit_code = 3

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: suggested client wait, seconds (the ``Retry-After`` header,
        #: rounded up to a whole second on the wire)
        self.retry_after = max(0.0, float(retry_after))


class RateLimitError(BackpressureError):
    """A client exhausted its admission quota (429 + ``Retry-After``).

    Distinct from plain :class:`BackpressureError` so metrics and logs
    can tell per-client throttling (the middleware layer, in front of
    everything) from whole-queue saturation (the execution plane).
    """


class QuotaExceededError(BackpressureError):
    """A client is over its scheduler quota (429 + ``Retry-After``).

    Third face of the 429 family, raised by the admission controller:
    :class:`RateLimitError` throttles request *rate* at the middleware
    edge, :class:`BackpressureError` reports whole-queue saturation, and
    this one means *this client's* in-flight/queued job allowance is
    spent — others may still submit freely.  The distinct type name in
    the error envelope is the contract clients key retry logic on.
    """


class DeadlineError(ApiError):
    """A run overran its requested deadline (HTTP 504).

    Deadline misses are permanent: the budget was for the whole job, so
    the execution plane does not retry them.
    """

    http_status = 504
    exit_code = 3


class JobCancelled(Exception):
    """Raised inside a job's pipeline, at a stage boundary, when its
    cancellation was requested (not an :class:`ApiError`: the job ends
    ``cancelled``, it does not fail)."""


def render_error(error: BaseException) -> str:
    """One-line, traceback-free rendering shared by CLI and HTTP."""
    message = str(error).strip() or type(error).__name__
    return " ".join(message.split())


def error_body(error: ApiError) -> Dict[str, object]:
    """The JSON error envelope the HTTP service sends."""
    return {
        "error": {
            "status": error.http_status,
            "type": type(error).__name__,
            "message": render_error(error),
        }
    }


def error_headers(error: ApiError) -> Dict[str, str]:
    """The extra response headers an error carries onto the wire.

    ``retry_after`` becomes a whole-second ``Retry-After`` (rounded up:
    the header is delta-seconds); error classes may also declare an
    ``extra_headers`` mapping (``Allow`` on 405, ``WWW-Authenticate``
    on 401).
    """
    headers: Dict[str, str] = {}
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
    headers.update(getattr(error, "extra_headers", None) or {})
    return headers
