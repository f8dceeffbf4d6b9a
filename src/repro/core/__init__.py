"""The four ProvMark subsystems and the pipeline driver."""

from repro.core.compare import ComparisonError, ComparisonOutcome, compare
from repro.core.generalize import (
    GeneralizationError,
    GeneralizationOutcome,
    filter_incomplete,
    generalize_trials,
)
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.recording import RecordedTrial, Recorder, RecordingSession
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.core.transform import TransformError, supported_formats, transform

__all__ = [
    "BenchmarkResult",
    "Classification",
    "ComparisonError",
    "ComparisonOutcome",
    "GeneralizationError",
    "GeneralizationOutcome",
    "PipelineConfig",
    "ProvMark",
    "RecordedTrial",
    "Recorder",
    "RecordingSession",
    "StageTimings",
    "TransformError",
    "compare",
    "filter_incomplete",
    "generalize_trials",
    "supported_formats",
    "transform",
]
