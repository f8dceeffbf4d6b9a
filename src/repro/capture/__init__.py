"""Simulated provenance capture systems (paper Figure 2).

Tool lookup goes through the plugin registry in
:mod:`repro.capture.registry`: ``registered_tools()`` lists the tools,
``get_backend(name)`` returns one's capture class and profile, and
``register_tool`` adds a plugin backend.
"""

from repro.capture.base import CaptureSystem, RawOutput, RecordingCost
from repro.capture.camflow import CamFlowCapture, CamFlowConfig, RECORDED_HOOKS
from repro.capture.opus import OpusCapture, OpusConfig, WRAPPED_FUNCTIONS
from repro.capture.registry import (
    Backend,
    BackendProfile,
    UnknownToolError,
    get_backend,
    iter_backends,
    make_capture,
    register_tool,
    registered_tools,
    unregister_tool,
)
from repro.capture.spade import (
    BASE_RENDER_SET,
    NO_SIMPLIFY_EXTRA,
    SpadeCapture,
    SpadeConfig,
)
from repro.capture.spade_camflow import SpadeCamFlowCapture, SpadeCamFlowConfig


__all__ = [
    "BASE_RENDER_SET",
    "Backend",
    "BackendProfile",
    "CamFlowCapture",
    "CamFlowConfig",
    "CaptureSystem",
    "NO_SIMPLIFY_EXTRA",
    "OpusCapture",
    "OpusConfig",
    "RECORDED_HOOKS",
    "RawOutput",
    "RecordingCost",
    "SpadeCamFlowCapture",
    "SpadeCamFlowConfig",
    "SpadeCapture",
    "SpadeConfig",
    "UnknownToolError",
    "WRAPPED_FUNCTIONS",
    "get_backend",
    "iter_backends",
    "make_capture",
    "register_tool",
    "registered_tools",
    "unregister_tool",
]
