"""Result types for benchmark runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.codec import fields_to_payload
from repro.graph.model import PropertyGraph
from repro.storage.artifacts import graph_from_payload, graph_to_payload


class Classification(enum.Enum):
    """Outcome of one benchmark (Table 2 cell)."""

    OK = "ok"          # target activity produced graph structure
    EMPTY = "empty"    # fg and bg generalized to similar graphs
    FAILED = "failed"  # no consistent trial pair / embedding failed

    def __str__(self) -> str:
        return self.value


@dataclass
class StageTimings:
    """Seconds per ProvMark subsystem, wall-clock and virtual.

    The ``virtual_*`` fields are what the paper's tools would have spent
    (§5.1): recording from each tool's per-trial waits, and processing
    (Figures 5-10) from counts each stage already has, priced by the
    cost table in :mod:`repro.core.stages`.  Unlike the wall clocks they
    are deterministic, and equal whether a stage ran or was restored.

    The ``solver_*`` and cache counters aggregate the native engine's
    per-thread :class:`~repro.solver.native.SolverStats` deltas over the
    generalization and comparison stages, making the matching-engine
    optimizations observable per benchmark run.  ``store_hits`` and
    ``store_misses`` count pipeline stage outputs served from / absent in
    the persistent artifact store for *this* run (always 0 when no store
    is configured).
    """

    recording: float = 0.0
    transformation: float = 0.0
    generalization: float = 0.0
    comparison: float = 0.0
    #: virtual recording seconds the real tools would have taken (§5.1)
    virtual_recording: float = 0.0
    #: virtual processing seconds, per stage (§5.1, Figures 5-10)
    virtual_transformation: float = 0.0
    virtual_generalization: float = 0.0
    virtual_comparison: float = 0.0
    #: backtracking steps spent in the matching engine
    solver_steps: int = 0
    #: number of matching searches launched
    solver_searches: int = 0
    #: generalizations that reused a search: warm-started from a
    #: classing matching, or whose pair search proved the similarity
    matching_cache_hits: int = 0
    #: property-mismatch costs served from the per-search pair cache
    cost_cache_hits: int = 0
    #: independent sub-problems solved by the decomposed exact matcher
    decomposed_components: int = 0
    #: largest single decomposed component searched (high-water mark)
    component_steps_max: int = 0
    #: pipeline stage outputs served from the artifact store this run
    store_hits: int = 0
    #: pipeline stage outputs recomputed (and persisted) this run
    store_misses: int = 0

    @property
    def processing(self) -> float:
        return self.transformation + self.generalization + self.comparison

    @property
    def virtual_processing(self) -> float:
        return (
            self.virtual_transformation
            + self.virtual_generalization
            + self.virtual_comparison
        )

    def solver_row(self) -> Dict[str, int]:
        return {
            "solver_steps": self.solver_steps,
            "solver_searches": self.solver_searches,
            "matching_cache_hits": self.matching_cache_hits,
            "cost_cache_hits": self.cost_cache_hits,
            "decomposed_components": self.decomposed_components,
            "component_steps_max": self.component_steps_max,
        }

    def store_row(self) -> Dict[str, int]:
        return {
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }

    #: every field, JSON-ready (the payload codec's derived encoder)
    to_payload = fields_to_payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "StageTimings":
        return cls(**{k: payload[k] for k in cls().to_payload() if k in payload})


@dataclass
class BenchmarkResult:
    """Everything ProvMark produces for one (tool, benchmark) pair."""

    benchmark: str
    tool: str
    classification: Classification
    target_graph: PropertyGraph
    foreground: Optional[PropertyGraph]
    background: Optional[PropertyGraph]
    timings: StageTimings
    trials: int
    discarded_trials: int = 0
    note: str = ""
    error: str = ""

    @property
    def is_empty(self) -> bool:
        return self.classification is Classification.EMPTY

    @property
    def is_ok(self) -> bool:
        return self.classification is Classification.OK

    def summary(self) -> str:
        if self.classification is Classification.OK:
            return (
                f"{self.benchmark}/{self.tool}: ok "
                f"({self.target_graph.node_count} nodes, "
                f"{self.target_graph.edge_count} edges)"
            )
        detail = f" ({self.note})" if self.note else ""
        return f"{self.benchmark}/{self.tool}: {self.classification}{detail}"

    # -- persistence (the artifact store's ``result`` stage) ---------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "tool": self.tool,
            "classification": self.classification.value,
            "target_graph": graph_to_payload(self.target_graph),
            "foreground": (
                graph_to_payload(self.foreground)
                if self.foreground is not None else None
            ),
            "background": (
                graph_to_payload(self.background)
                if self.background is not None else None
            ),
            "timings": self.timings.to_payload(),
            "trials": self.trials,
            "discarded_trials": self.discarded_trials,
            "note": self.note,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "BenchmarkResult":
        return cls(
            benchmark=str(payload["benchmark"]),
            tool=str(payload["tool"]),
            classification=Classification(payload["classification"]),
            target_graph=graph_from_payload(payload["target_graph"]),
            foreground=(
                graph_from_payload(payload["foreground"])
                if payload.get("foreground") is not None else None
            ),
            background=(
                graph_from_payload(payload["background"])
                if payload.get("background") is not None else None
            ),
            timings=StageTimings.from_payload(payload["timings"]),
            trials=int(payload["trials"]),
            discarded_trials=int(payload.get("discarded_trials", 0)),
            note=str(payload.get("note", "")),
            error=str(payload.get("error", "")),
        )
