"""Assemble a middleware chain from a JSON config file.

``provmark serve --middleware config.json`` hands this module a config
like::

    {
      "metrics": true,
      "access_log": {"path": "access.log"},
      "auth": {
        "tokens": {
          "reader-token":  {"client": "dash",  "role": "read"},
          "ci-token":      {"client": "ci",    "role": "submit"},
          "op-token":      {"client": "ops",   "role": "admin"}
        },
        "allow_anonymous": null
      },
      "ratelimit": {
        "rate": 10, "burst": 20,
        "clients": {"ci": {"rate": 50, "burst": 100}},
        "roles": {"admin": {"rate": 100, "burst": 200},
                  "read": {"rate": 5, "burst": 10}}
      },
      "idempotency": {"store": "artifacts", "max_entries": 1024}
    }

and gets back a :class:`~repro.middleware.chain.MiddlewareChain` in the
canonical order — metrics outermost (so throttled and replayed requests
are still counted), then access log, auth (resolving ``client_id``),
rate limiting (keyed on that identity), and idempotency innermost (a
cache hit still flows through everything above it).  Sections are
independent: omit one and that layer is simply absent.  ``metrics``
defaults to on; everything else to off.  Unknown keys are rejected at
every level, naming the key path — a typoed section silently disabling
auth would be a security hole, and a typoed key inside one (an
unbounded ``max_entires`` cache, a ``client`` table that drops every
per-client limit) a silent fallback to defaults.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Union

from repro.api.errors import ValidationError
from repro.middleware.auth import AuthMiddleware
from repro.middleware.chain import Middleware, MiddlewareChain
from repro.middleware.idempotency import IdempotencyMiddleware
from repro.middleware.logs import AccessLogMiddleware
from repro.middleware.metrics import MetricsMiddleware
from repro.middleware.ratelimit import RateLimitMiddleware

#: recognized top-level config sections, in chain order
SECTIONS = ("metrics", "access_log", "auth", "ratelimit", "idempotency")


def load_config(path: Union[str, Path]) -> Mapping[str, object]:
    """Read and minimally validate a middleware config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read middleware config: {exc}") from exc
    try:
        config = json.loads(text)
    except ValueError as exc:
        raise ValidationError(
            f"middleware config {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(config, dict):
        raise ValidationError(
            f"middleware config {path} must be a JSON object, "
            f"got {type(config).__name__}"
        )
    return config


def build_chain(
    config: Mapping[str, object],
    base_dir: Optional[Union[str, Path]] = None,
) -> MiddlewareChain:
    """A chain from a parsed config (see the module example).

    Relative ``idempotency.store`` / ``access_log.path`` values resolve
    against ``base_dir`` (the config file's directory, typically).
    """
    unknown = sorted(set(config) - set(SECTIONS))
    if unknown:
        raise ValidationError(
            f"middleware config has unknown section(s) {unknown}; "
            f"expected a subset of {list(SECTIONS)}"
        )
    root = Path(base_dir) if base_dir is not None else Path(".")
    middlewares: List[Middleware] = []

    if config.get("metrics", True):
        middlewares.append(MetricsMiddleware())

    access = config.get("access_log", False)
    if access:
        _known_keys(access, ("path",), "access_log")
        if isinstance(access, Mapping) and access.get("path"):
            middlewares.append(
                AccessLogMiddleware(path=_resolve(root, str(access["path"])))
            )
        else:
            middlewares.append(AccessLogMiddleware())

    auth = config.get("auth")
    if auth is not None:
        if not isinstance(auth, Mapping):
            raise ValidationError("middleware config: 'auth' must be an object")
        _known_keys(auth, ("tokens", "allow_anonymous"), "auth")
        tokens = auth.get("tokens")
        if not isinstance(tokens, Mapping) or not tokens:
            raise ValidationError(
                "middleware config: 'auth.tokens' must be a non-empty "
                "object mapping tokens to {client, role}"
            )
        for entry in tokens.values():
            # named by client: the token itself is a secret
            client = entry.get("client") if isinstance(entry, Mapping) else ""
            _known_keys(
                entry, ("client", "role"), f"auth.tokens[client={client!r}]"
            )
        allow_anonymous = auth.get("allow_anonymous")
        middlewares.append(
            AuthMiddleware(tokens, allow_anonymous=allow_anonymous)
        )

    ratelimit = config.get("ratelimit")
    if ratelimit is not None:
        if not isinstance(ratelimit, Mapping):
            raise ValidationError(
                "middleware config: 'ratelimit' must be an object"
            )
        _known_keys(ratelimit, ("rate", "burst", "clients", "roles"), "ratelimit")
        for table in ("clients", "roles"):
            entries = ratelimit.get(table) or {}
            if not isinstance(entries, Mapping):
                raise ValidationError(
                    f"middleware config: 'ratelimit.{table}' must be an "
                    f"object mapping names to {{rate, burst}}"
                )
            for name, entry in entries.items():
                _known_keys(entry, ("rate", "burst"), f"ratelimit.{table}.{name}")
        middlewares.append(
            RateLimitMiddleware(
                rate=_number(ratelimit, "rate", 10.0, "ratelimit.rate"),
                burst=_number(ratelimit, "burst", 20.0, "ratelimit.burst"),
                quotas=ratelimit.get("clients"),
                roles=ratelimit.get("roles"),
            )
        )

    idempotency = config.get("idempotency")
    if idempotency is not None:
        if not isinstance(idempotency, Mapping) or not idempotency.get("store"):
            raise ValidationError(
                "middleware config: 'idempotency' needs a 'store' directory"
            )
        _known_keys(idempotency, ("store", "max_entries"), "idempotency")
        max_entries = idempotency.get("max_entries")
        if max_entries is not None and (
            not isinstance(max_entries, int) or isinstance(max_entries, bool)
        ):
            raise ValidationError(
                f"middleware config: 'idempotency.max_entries' must be an "
                f"integer, got {max_entries!r}"
            )
        middlewares.append(
            IdempotencyMiddleware(
                _resolve(root, str(idempotency["store"])),
                max_entries=max_entries,
            )
        )

    return MiddlewareChain(middlewares)


def _known_keys(section: object, known: Iterable[str], where: str) -> None:
    """Refuse a key ``section`` does not read (non-objects are left to
    the section's own checks)."""
    if not isinstance(section, Mapping):
        return
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValidationError(
            f"middleware config: '{where}' has unknown key(s) {unknown}; "
            f"expected a subset of {sorted(known)}"
        )


def _number(
    section: Mapping[str, object], key: str, default: float, where: str
) -> float:
    """A numeric config field, or a uniform ValidationError — a typoed
    ``{"rate": "fast"}`` must exit 2 like any bad config, not traceback."""
    value = section.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(
            f"middleware config: '{where}' must be a number, got {value!r}"
        )
    return float(value)


def _resolve(root: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else root / path
