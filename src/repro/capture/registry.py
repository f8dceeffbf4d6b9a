"""Capture-backend plugin registry.

All tool knowledge lives here as a single registry of
:class:`Backend` entries.  Each entry pairs the capture class with its
:class:`BackendProfile` (default trial count and graph filtering, the
paper's config.ini knobs), so the pipeline, the CLI tool choices, and
the profile loader all read one source of truth.

New capture systems plug in without touching the driver::

    from repro.capture.registry import BackendProfile, register_tool

    register_tool("dtrace", DTraceCapture,
                  BackendProfile(trials=3, description="DTrace probes"))

after which ``ProvMark(tool="dtrace")``, ``provmark run --tool dtrace``
and ``provmark list --tools`` all work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Type

from repro.capture.base import CaptureSystem
from repro.capture.camflow import CamFlowCapture
from repro.capture.opus import OpusCapture
from repro.capture.spade import SpadeCapture
from repro.capture.spade_camflow import SpadeCamFlowCapture


class UnknownToolError(ValueError):
    """Raised for tool names with no registered capture backend."""


@dataclass(frozen=True)
class BackendProfile:
    """Per-tool pipeline defaults (ProvMark's config.ini profile)."""

    trials: int = 2
    filtergraphs: bool = False
    description: str = ""


@dataclass(frozen=True)
class Backend:
    """One registered capture backend: name, class, and defaults."""

    name: str
    cls: Type[CaptureSystem]
    profile: BackendProfile

    def make(self, config: Optional[object] = None) -> CaptureSystem:
        if config is None:
            return self.cls()
        return self.cls(config)  # type: ignore[call-arg]


_REGISTRY: Dict[str, Backend] = {}


def register_tool(
    name: str,
    cls: Type[CaptureSystem],
    profile: Optional[BackendProfile] = None,
    replace: bool = False,
) -> Backend:
    """Register a capture backend under ``name``.

    ``replace`` must be passed to overwrite an existing registration;
    accidental double-registration is an error.
    """
    if not name:
        raise ValueError("tool name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"tool {name!r} is already registered; pass replace=True "
            "to override it"
        )
    backend = Backend(name=name, cls=cls, profile=profile or BackendProfile())
    _REGISTRY[name] = backend
    return backend


def unregister_tool(name: str) -> None:
    """Remove a registration (primarily for tests of plugin backends)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Backend:
    """Look a backend up by name.

    This is the single place unknown-tool errors are produced, so every
    caller — ``make_capture``, config resolution, the CLI — reports the
    same message listing the registered tools.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownToolError(
            f"unknown tool {name!r}; registered tools: {sorted(_REGISTRY)}"
        ) from None


def tool_profile(name: str) -> BackendProfile:
    return get_backend(name).profile


def registered_tools() -> Tuple[str, ...]:
    """Registered tool names, sorted (the CLI's ``--tool`` choices)."""
    return tuple(sorted(_REGISTRY))


def iter_backends() -> Iterator[Backend]:
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


def make_capture(name: str, config: Optional[object] = None) -> CaptureSystem:
    """Instantiate a registered capture system by name."""
    return get_backend(name).make(config)


def _register_builtins() -> None:
    register_tool("spade", SpadeCapture, BackendProfile(
        trials=2, filtergraphs=False,
        description="SPADE over Linux Audit (DOT output)",
    ))
    register_tool("opus", OpusCapture, BackendProfile(
        trials=2, filtergraphs=False,
        description="OPUS userspace interposition (Neo4j store)",
    ))
    # CamFlow defaults mirror the paper's appendix A.4/A.6: graph
    # filtering on, more trials to survive recording-restart jitter.
    register_tool("camflow", CamFlowCapture, BackendProfile(
        trials=5, filtergraphs=True,
        description="CamFlow LSM hooks (PROV-JSON output)",
    ))
    register_tool("spade-camflow", SpadeCamFlowCapture, BackendProfile(
        trials=2, filtergraphs=False,
        description="SPADE vocabulary over the CamFlow reporter",
    ))


_register_builtins()
