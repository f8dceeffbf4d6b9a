"""Staged pipeline kernel (paper Figure 3 as composable stages).

The four ProvMark subsystems — recording, transformation,
generalization, comparison — are :class:`Stage` objects with declared
inputs and outputs, operating on a shared :class:`RunContext`.  A
:class:`Pipeline` wires them together, owns per-stage wall-clock timing,
and transparently checks each stage against the persistent
:class:`~repro.storage.artifacts.ArtifactStore` when one is configured:
a stage whose section is stored is *restored* instead of recomputed,
with hit/miss counters recorded in
:class:`~repro.core.result.StageTimings`.

Recording, transformation and generalization handle the foreground and
the background program separately (paper §3.2–3.4).  The run's store
file, keyed by (benchmark, tool, resolved config, seed), holds its
foreground's generalization beside its comparison and final result.
Only a background has a file of its own, keyed by (variant, tool,
resolved config, seed): what that variant's trials execute, not the
benchmark's name, so benchmarks that share a background — the 44 Table
2 benchmarks have five — record, transform and generalize it once per
store.  A run reads each file at most once, keeps its sections on the
:class:`RunContext`, and :meth:`RunContext.publish` writes each file
that gained a section once, at the end of the run: a cold run creates
its run file, plus its background's file when no earlier run stored it.

Recording and transformation keep no section: they are seeded and
deterministic, and a variant's stored generalization section stands in
for both.  It carries their virtual seconds, so a later run skips both
stages for that variant; a foreground's stored generalization failure,
which ends the run before the background is generalized, carries the
background's seconds too.  A run stopped before generalization (a
deadline, a cancellation, an error) thus stores nothing of its own, and
its retry records again, with the same trial seeds.

Restored stages are exact replays: graph payloads preserve element
insertion order, and each solver-using stage stores the solver-counter
delta it produced, so a warm run reports the identical
``solver_steps``/``cache`` counters a cold run does.  The virtual
processing clock is priced from those same graphs and counters, so it
too reads the same on every path.  Expected stage
failures (no consistent trial pair, unembeddable background) raise
:class:`StageFailure` and are cached too, so a deterministic failure is
also served from the store on re-runs.

:class:`~repro.core.pipeline.ProvMark` is a thin driver over
:func:`default_pipeline`; new stages (or replacement engines for one
stage) compose without touching the driver.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.capture.base import CaptureSystem
from repro.core.compare import ComparisonError, ComparisonOutcome, compare
from repro.core.generalize import (
    GeneralizationError,
    GeneralizationOutcome,
    generalize_trials,
)
from repro.core.recording import Recorder, RecordingSession, TraceMemo
from repro.core.result import StageTimings
from repro.core.transform import transform
from repro.graph.model import PropertyGraph
from repro.solver.native import SolverStats, solver_stats
from repro.storage.artifacts import PAYLOAD_ERRORS, ArtifactError, ArtifactStore
from repro.suite.program import Program

#: the run file's section holding the assembled BenchmarkResult
#: (consulted by ``provmark batch --resume``)
RESULT_STAGE = "result"

#: the program variants, named as per-variant payloads key them
FOREGROUND, BACKGROUND = "fg", "bg"

#: The store files a run reads and writes, by what their key covers: its
#: background variant's (that variant's generalization section) and the
#: run's (the foreground's generalization, the comparison and the result).
VARIANT_FILE, RUN_FILE = "variant", "run"

#: Recording and transformation keep no section: a variant's kept
#: generalization section covers them, carrying their virtual seconds
#: (see :meth:`RunContext.seconds`).
COVERING_STAGE = "generalization"
COVERED_STAGES: Tuple[str, ...] = ("recording", "transformation")

#: The per-variant stages by name, each with the order it handles the
#: variants in: recording runs the background first (the order its
#: trial seeds are drawn in), the later stages the foreground first.
#: The pipeline recognises these stages by name alone, so a wrapper
#: that copies a stage's name and forwards ``run``/``restore`` takes
#: the same path.
VARIANT_ORDER: Dict[str, Tuple[str, ...]] = {
    "recording": (BACKGROUND, FOREGROUND),
    "transformation": (FOREGROUND, BACKGROUND),
    "generalization": (FOREGROUND, BACKGROUND),
}


#: The virtual processing clock (paper §5.1, Figures 5-10), in seconds.
#: Transformation pays a start-up per trial graph it builds, by output
#: format, plus ``ROW_SECONDS`` per node and edge; generalization and
#: comparison pay ``STEP_SECONDS`` per solver step.  Only a ``neo4j``
#: output starts anything: Neo4j's JVM and database, which OPUS and
#: SPADE's ``spn`` profile pay.  The row and step terms round up the wall
#: time per row transformed and per solver step of a Table 2 sweep on a
#: 2-vCPU x86 VM (8.9 and 27.5 µs); the start-up makes each §5.1 claim
#: ``provmark figures`` checks hold with room to spare.
STARTUP_SECONDS: Dict[str, float] = {
    "dot": 0.0, "provjson": 0.0, "neo4j": 2.5e-3,
}
ROW_SECONDS = 1e-5
STEP_SECONDS = 3e-5


class PipelineDefinitionError(Exception):
    """A pipeline's stages do not chain (missing input products)."""


@dataclass(frozen=True)
class ProgressEvent:
    """One stage-boundary notification emitted by :meth:`Pipeline.run`.

    ``status`` is ``"started"`` before a stage executes, ``"finished"``
    after it completes (computed or restored from the artifact store),
    and ``"failed"`` when it raised :class:`StageFailure`.  ``elapsed``
    is the stage's wall clock so far (0.0 for ``"started"``).
    """

    benchmark: str
    stage: str
    status: str
    elapsed: float = 0.0


#: callback signature for stage-boundary progress notifications
ProgressCallback = Callable[[ProgressEvent], None]


class StageFailure(Exception):
    """An expected, result-producing stage failure (paper's FAILED cell).

    Carries an optional cacheable ``payload`` so deterministic failures
    are served from the artifact store on re-runs just like successes.
    """

    def __init__(
        self, message: str, payload: Optional[Dict[str, object]] = None
    ) -> None:
        super().__init__(message)
        self.payload = payload


class DeadlineExceeded(Exception):
    """A run overran its deadline (checked at stage boundaries).

    Deliberately *not* a :class:`StageFailure`: a deadline miss is a
    property of this run's wall clock, not of the benchmark, so it is
    never cached in the artifact store and never classified as a result.
    """


@dataclass
class RunContext:
    """Everything one benchmark run reads and produces.

    The resolved configuration scalars are flattened in (rather than a
    ``PipelineConfig`` reference) so the kernel has no dependency on the
    driver layer and the cache key is explicit about what it covers.
    """

    program: Program
    capture: CaptureSystem
    tool: str
    trials: int
    filtergraphs: bool
    engine: str
    seed: Optional[int]
    truncation_rate: float
    fg_pair_policy: str
    bg_pair_policy: str
    timings: StageTimings = field(default_factory=StageTimings)
    store: Optional[ArtifactStore] = None
    #: read stage artifacts (False: recompute everything, refresh store)
    use_cache: bool = True
    #: stage-boundary observer (job progress, cancellation); exceptions
    #: it raises propagate out of :meth:`Pipeline.run` unchanged
    progress: Optional[ProgressCallback] = None
    #: absolute ``time.perf_counter()`` instant after which the run must
    #: stop; checked before each stage starts (never mid-stage), raising
    #: :class:`DeadlineExceeded`.  Excluded from :meth:`key_material` —
    #: a deadline bounds wall clock, it cannot change results.
    deadline_at: Optional[float] = None
    #: kernel traces shared with other runs (by every driver of one
    #: ``BenchmarkService``); like the deadline, excluded from
    #: :meth:`key_material`: a replayed trace equals a fresh one
    traces: Optional[TraceMemo] = None
    #: the variants a per-variant stage's ``run`` computes, in the
    #: stage's order; the pipeline sets it before each call
    variants: Tuple[str, ...] = ()
    # -- stage products ----------------------------------------------------
    session: Optional[RecordingSession] = None
    fg_graphs: Optional[List[PropertyGraph]] = None
    bg_graphs: Optional[List[PropertyGraph]] = None
    fg_outcome: Optional[GeneralizationOutcome] = None
    bg_outcome: Optional[GeneralizationOutcome] = None
    comparison: Optional[ComparisonOutcome] = None
    #: set by Pipeline.run when a stage raised StageFailure
    failure: Optional[str] = None
    #: each variant's virtual seconds, as a generalization section carries
    #: them (see :meth:`seconds`): its trials' recording seconds, in trial
    #: order, and its transformation seconds
    recording_seconds: Dict[str, List[float]] = field(default_factory=dict)
    transformation_seconds: Dict[str, float] = field(default_factory=dict)
    #: memoized key_material() results, by variant (invariant for the run)
    _key_material: Dict[Optional[str], Dict[str, object]] = field(
        default_factory=dict, repr=False
    )
    #: the store file sections of each key read or computed so far (the
    #: background, or None for the run), by stage, and the keys that
    #: gained a section this run (see :meth:`publish`)
    _sections: Dict[Optional[str], Dict[str, object]] = field(
        default_factory=dict, repr=False
    )
    _gained: Set[Optional[str]] = field(default_factory=set, repr=False)
    #: per variant, whether its stored generalization section covers its
    #: recording and transformation (see :meth:`covered`)
    _covering: Dict[str, bool] = field(default_factory=dict, repr=False)

    def key_material(
        self, variant: Optional[str] = None
    ) -> Dict[str, object]:
        """What a store file's key hashes over: the run's or one variant's.

        Both cover the capture backend (class + config repr + output
        format) and every resolved pipeline knob that can change a
        stage's output.  The run's identity (``variant=None``, keying
        the run file: the foreground's generalization, comparison and
        the final result) adds the benchmark program by content as well
        as name — a custom ``Program`` with the same name keys
        differently — and both pair policies.  A variant's identity
        (``"fg"``/``"bg"``; the background's keys its file, holding its
        generalization) adds only :meth:`Program.variant`, which is
        everything that variant's trials execute, and that variant's
        pair policy, so benchmarks that share a background share its
        file.  Parallelism
        and store settings are deliberately excluded: they cannot change
        results.  The keys rely on seeded determinism — drivers must not
        offer the store to a run without a seed.
        """
        material = self._key_material.get(variant)
        if material is not None:
            return material
        capture_cls = type(self.capture)
        material = {
            "tool": self.tool,
            "capture": {
                "class": f"{capture_cls.__module__}.{capture_cls.__qualname__}",
                "config": repr(getattr(self.capture, "config", None)),
                "output_format": self.capture.output_format,
            },
            "trials": self.trials,
            "filtergraphs": self.filtergraphs,
            "engine": self.engine,
            "seed": self.seed,
            "truncation_rate": self.truncation_rate,
        }
        if variant is None:
            material["program"] = {
                "name": self.program.name,
                # frozen dataclass repr: deterministic, content-based
                "fingerprint": repr(self.program),
            }
            material["fg_pair_policy"] = self.fg_pair_policy
            material["bg_pair_policy"] = self.bg_pair_policy
        else:
            foreground = variant == FOREGROUND
            material["variant"] = repr(self.program.variant(foreground))
            material["pair_policy"] = (
                self.fg_pair_policy if foreground else self.bg_pair_policy
            )
        self._key_material[variant] = material
        return material

    # -- virtual seconds -----------------------------------------------------

    def price_recording(self, variant: str, seconds: List[float]) -> None:
        """Set ``variant``'s trial recording seconds; the virtual
        recording clock sums every trial's, foreground first, as
        :attr:`RecordingSession.virtual_seconds` does."""
        self.recording_seconds[variant] = seconds
        self.timings.virtual_recording = sum(
            self.recording_seconds.get(FOREGROUND, [])
            + self.recording_seconds.get(BACKGROUND, [])
        )

    def price_transformation(self, variant: str, seconds: float) -> None:
        """Set ``variant``'s transformation seconds; the virtual clock
        adds the foreground's, then the background's."""
        self.transformation_seconds[variant] = seconds
        self.timings.virtual_transformation = sum(
            self.transformation_seconds.get(name, 0.0)
            for name in (FOREGROUND, BACKGROUND)
        )

    def seconds(self, variant: str) -> Dict[str, object]:
        """``variant``'s recording and transformation virtual seconds,
        under the keys a covering generalization section carries them."""
        return {
            "virtual_recording": self.recording_seconds[variant],
            "virtual_transformation": self.transformation_seconds[variant],
        }

    # -- store sections ----------------------------------------------------

    def stored(self, unit: Optional[str], stage: str) -> Optional[object]:
        """The stored ``stage`` section of ``unit`` (a variant, or None
        for the run), or None.

        The foreground's sections live in the run's file.  A file is
        read on first use, at most once per run, and not at all without
        a store or with ``use_cache`` off.
        """
        if self.store is None or not self.use_cache:
            return None
        key = _file_key(unit)
        sections = self._sections.get(key)
        if sections is None:
            kind = RUN_FILE if key is None else VARIANT_FILE
            payload = self.store.load(kind, self.key_material(key))
            if payload is not None and not isinstance(payload, dict):
                self.store.stats.invalid += 1
                payload = None
            sections = self._sections[key] = dict(payload or {})
        return sections.get(stage)

    def reject(self, unit: Optional[str], stage: str) -> None:
        """Drop a stored section its reader could not decode; it counts
        invalid, and the recomputed section replaces it on disk."""
        del self._sections[_file_key(unit)][stage]
        self.store.stats.invalid += 1

    def keep(self, unit: Optional[str], stage: str, payload: object) -> None:
        """Hold a computed section of ``unit``'s file for :meth:`publish`.

        Without a store there is nothing to keep, and the stages build
        no section to offer (see :meth:`Stage.run`).
        """
        if self.store is not None:
            key = _file_key(unit)
            self._sections.setdefault(key, {})[stage] = payload
            self._gained.add(key)

    def covered(self, variant: str) -> bool:
        """True when a stored generalization section stands in for
        ``variant``'s recording and transformation, whose virtual
        seconds are then priced from it.

        That section is the variant's own, or, for the background, a
        stored foreground failure (which ends the run before the
        background is generalized, and carries its seconds under its
        name), read first.  Decided on first use.  A section without
        well-formed seconds is rejected, and recomputed with them.
        """
        covering = self._covering.get(variant)
        if covering is None:
            covering = self._covering[variant] = self._price_covered(variant)
        return covering

    def _price_covered(self, variant: str) -> bool:
        owner, section = FOREGROUND, self.stored(FOREGROUND, COVERING_STAGE)
        if variant == BACKGROUND:
            if isinstance(section, dict) and BACKGROUND in section:
                section = section[BACKGROUND]
            else:
                owner = BACKGROUND
                section = self.stored(BACKGROUND, COVERING_STAGE)
        if section is None:
            return False
        try:
            recording = [float(s) for s in section["virtual_recording"]]
            transformation = float(section["virtual_transformation"])
            if len(recording) != self.trials:
                raise ValueError("not one recording time per trial")
        except PAYLOAD_ERRORS:
            self.reject(owner, COVERING_STAGE)
            return False
        self.price_recording(variant, recording)
        self.price_transformation(variant, transformation)
        return True

    def uncover(self, variant: str) -> bool:
        """Stop ``variant``'s generalization section standing in for its
        earlier stages (its reader rejected it); True when it did."""
        covering = self._covering.get(variant, False)
        self._covering[variant] = False
        return covering

    def publish(self, quiet: bool = False) -> None:
        """Write each file that gained a section, once, with every
        section it holds; a file only restored is not rewritten.

        ``quiet`` skips a file whose write fails, for a run that is
        already failing: that error is the one to report.
        """
        for key, sections in self._sections.items():
            if key not in self._gained:
                continue
            try:
                self.store.save(
                    RUN_FILE if key is None else VARIANT_FILE,
                    self.key_material(key), sections,
                    sections=tuple(sections),
                )
            except OSError:
                if not quiet:
                    raise
        self._gained.clear()


def _file_key(unit: Optional[str]) -> Optional[str]:
    """The key of the store file holding ``unit``'s sections: the
    background's own, or the run's (None) for the foreground and run."""
    return BACKGROUND if unit == BACKGROUND else None


def _solver_delta_payload(before: SolverStats) -> Dict[str, int]:
    delta = solver_stats().delta(before)
    return {
        "solver_steps": delta.steps,
        "solver_searches": delta.searches,
        "matching_cache_hits": delta.matching_cache_hits,
        "cost_cache_hits": delta.cost_cache_hits,
        "decomposed_components": delta.decomposed_components,
        "component_steps_max": delta.component_steps_max,
    }


def _apply_solver_counters(
    timings: StageTimings, counters: Mapping[str, int], stage: str
) -> None:
    """Add one solver delta to the run's counters and to ``stage``'s
    virtual seconds."""
    steps = int(counters.get("solver_steps", 0))
    timings.solver_steps += steps
    virtual = f"virtual_{stage}"
    setattr(timings, virtual, getattr(timings, virtual) + STEP_SECONDS * steps)
    timings.solver_searches += int(counters.get("solver_searches", 0))
    timings.matching_cache_hits += int(counters.get("matching_cache_hits", 0))
    timings.cost_cache_hits += int(counters.get("cost_cache_hits", 0))
    timings.decomposed_components += int(
        counters.get("decomposed_components", 0)
    )
    # High-water mark, not an accumulator (see SolverStats.delta).
    timings.component_steps_max = max(
        timings.component_steps_max, int(counters.get("component_steps_max", 0))
    )


class Stage(abc.ABC):
    """One pipeline subsystem with declared inputs/outputs.

    ``inputs``/``outputs`` name :class:`RunContext` product fields; the
    :class:`Pipeline` constructor validates that every stage's inputs
    are produced by an earlier stage.  ``timing_field`` names the
    :class:`StageTimings` attribute that accumulates this stage's wall
    clock (whether computed or restored).

    A stage named in :data:`VARIANT_ORDER` is *per-variant*: its
    payloads map variant names (``"fg"``/``"bg"``) to that variant's
    own payload, and the pipeline stores each as that variant's section
    for the stage.
    ``run`` computes just the variants in ``ctx.variants``, in order,
    and returns their payloads; a :class:`StageFailure` it raises
    carries the payloads of the variants computed before it plus the
    failed one's.  ``restore`` receives one variant's payload, as
    ``{variant: payload}``.
    """

    name: str = "stage"
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    timing_field: str = ""

    @abc.abstractmethod
    def run(self, ctx: RunContext) -> Optional[Dict[str, object]]:
        """Compute this stage's outputs onto ``ctx``.

        Returns the JSON payload to persist, or ``None`` for a stage
        that keeps no section.  Expected failures raise
        :class:`StageFailure` with their own cacheable payload.  A run
        without a store (``ctx.store`` None) keeps no section, so the
        builtin stages build none: they return no payload for a variant
        (or the run), success or failure.
        """

    def restore(self, ctx: RunContext, payload: Mapping[str, object]) -> None:
        """Rebuild this stage's outputs on ``ctx`` from a stored payload.

        Raises :class:`StageFailure` when the payload records a cached
        failure, and one of
        :data:`~repro.storage.artifacts.PAYLOAD_ERRORS` when it cannot
        be decoded; it decodes fully before touching ``ctx``.  A stage
        that keeps no section rejects every payload.
        """
        raise ArtifactError(f"stage {self.name!r} keeps no store section")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class RecordingStage(Stage):
    """Stage 1 — run fg/bg trials under the capture tool (paper §3.2).

    Keeps no section.  The trial seeds are drawn up front, so a variant
    recorded alone gets the trials a recording of both would.
    """

    name = "recording"
    outputs = ("session",)
    timing_field = "recording"

    def run(self, ctx: RunContext) -> None:
        recorder = Recorder(
            ctx.capture,
            trials=ctx.trials,
            seed=ctx.seed,
            truncation_rate=ctx.truncation_rate,
            traces=ctx.traces,
        )
        if ctx.session is None:
            ctx.session = RecordingSession(ctx.program, ctx.capture.name)
        for variant in ctx.variants:
            trials = recorder.record_variant(
                ctx.program, foreground=variant == FOREGROUND
            )
            if variant == FOREGROUND:
                ctx.session.foreground_trials = trials
            else:
                ctx.session.background_trials = trials
            ctx.price_recording(variant, [t.virtual_seconds for t in trials])


class TransformationStage(Stage):
    """Stage 2 — native outputs to Datalog property graphs (paper §3.3).

    Keeps no section; its virtual seconds come from the graphs.
    """

    name = "transformation"
    inputs = ("session",)
    outputs = ("fg_graphs", "bg_graphs")
    timing_field = "transformation"

    def run(self, ctx: RunContext) -> None:
        startup = STARTUP_SECONDS[ctx.capture.output_format]
        for variant in ctx.variants:
            trials = (
                ctx.session.foreground_trials if variant == FOREGROUND
                else ctx.session.background_trials
            )
            graphs = [
                transform(
                    trial.raw, ctx.capture.output_format, gid=f"{variant}{i}"
                )
                for i, trial in enumerate(trials)
            ]
            setattr(ctx, f"{variant}_graphs", graphs)
            ctx.price_transformation(variant, sum(
                startup + ROW_SECONDS * (graph.node_count + graph.edge_count)
                for graph in graphs
            ))


class GeneralizationStage(Stage):
    """Stage 3 — similarity classes to one graph per variant (paper §3.4).

    Each variant's payload carries the solver-counter delta of its own
    generalization, so a run's counters add up to a full computation's.
    """

    name = "generalization"
    inputs = ("fg_graphs", "bg_graphs")
    outputs = ("fg_outcome", "bg_outcome")
    timing_field = "generalization"

    def run(self, ctx: RunContext) -> Dict[str, object]:
        payloads: Dict[str, object] = {}
        for variant in ctx.variants:
            before = solver_stats().snapshot()
            try:
                outcome = generalize_trials(
                    getattr(ctx, f"{variant}_graphs"),
                    filtergraphs=ctx.filtergraphs,
                    engine=ctx.engine,
                    pair_policy=(
                        ctx.fg_pair_policy if variant == FOREGROUND
                        else ctx.bg_pair_policy
                    ),
                )
            except GeneralizationError as error:
                counters = _solver_delta_payload(before)
                _apply_solver_counters(ctx.timings, counters, "generalization")
                if ctx.store is not None:
                    payloads[variant] = {
                        "failed": str(error), "solver": counters,
                    }
                raise self._failed(ctx, str(error), payloads) from error
            counters = _solver_delta_payload(before)
            _apply_solver_counters(ctx.timings, counters, "generalization")
            setattr(ctx, f"{variant}_outcome", outcome)
            if ctx.store is not None:
                payloads[variant] = {
                    "outcome": outcome.to_payload(), "solver": counters,
                }
        return payloads

    def restore(self, ctx: RunContext, payload: Mapping[str, object]) -> None:
        [(variant, stored)] = payload.items()
        # Decode fully before touching ctx, so a rejected payload leaves
        # the timings/counters untouched for the recompute fallback.
        if "failed" in stored:
            _apply_solver_counters(
                ctx.timings, stored.get("solver", {}), "generalization"
            )
            raise self._failed(ctx, str(stored["failed"]))
        outcome = GeneralizationOutcome.from_payload(stored["outcome"])
        _apply_solver_counters(
            ctx.timings, stored.get("solver", {}), "generalization"
        )
        setattr(ctx, f"{variant}_outcome", outcome)

    @staticmethod
    def _failed(
        ctx: RunContext, message: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> StageFailure:
        # A failed stage leaves neither outcome behind, whichever variant
        # failed: a FAILED result carries no generalized graph.
        ctx.fg_outcome = ctx.bg_outcome = None
        return StageFailure(message, payload)


class ComparisonStage(Stage):
    """Stage 4 — subtract background from foreground (paper §3.5)."""

    name = "comparison"
    inputs = ("fg_outcome", "bg_outcome")
    outputs = ("comparison",)
    timing_field = "comparison"

    def run(self, ctx: RunContext) -> Optional[Dict[str, object]]:
        before = solver_stats().snapshot()
        try:
            outcome = compare(
                ctx.fg_outcome.graph, ctx.bg_outcome.graph, engine=ctx.engine
            )
        except ComparisonError as error:
            counters = _solver_delta_payload(before)
            _apply_solver_counters(ctx.timings, counters, "comparison")
            payload = None
            if ctx.store is not None:
                payload = {"failed": str(error), "solver": counters}
            raise StageFailure(str(error), payload) from error
        counters = _solver_delta_payload(before)
        _apply_solver_counters(ctx.timings, counters, "comparison")
        ctx.comparison = outcome
        if ctx.store is None:
            return None
        return {"outcome": outcome.to_payload(), "solver": counters}

    def restore(self, ctx: RunContext, payload: Mapping[str, object]) -> None:
        if "failed" in payload:
            _apply_solver_counters(
                ctx.timings, payload.get("solver", {}), "comparison"
            )
            raise StageFailure(str(payload["failed"]))
        comparison = ComparisonOutcome.from_payload(payload["outcome"])
        _apply_solver_counters(
            ctx.timings, payload.get("solver", {}), "comparison"
        )
        ctx.comparison = comparison


class Pipeline:
    """An ordered stage composition over a shared :class:`RunContext`."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages: Tuple[Stage, ...] = tuple(stages)
        produced: set = set()
        for stage in self.stages:
            missing = [name for name in stage.inputs if name not in produced]
            if missing:
                raise PipelineDefinitionError(
                    f"stage {stage.name!r} needs {missing} but earlier "
                    f"stages only produce {sorted(produced)}"
                )
            produced.update(stage.outputs)
        by_name = {stage.name: stage for stage in self.stages}
        #: the stages a stored generalization section stands in for, by
        #: name, when the pipeline has them and generalization
        self._covered: Dict[str, Stage] = (
            {name: by_name[name] for name in COVERED_STAGES}
            if by_name.keys() >= {COVERING_STAGE, *COVERED_STAGES} else {}
        )

    def run(self, ctx: RunContext) -> RunContext:
        """Run every stage in order; stop at the first failed stage.

        Per-stage wall clock (computed or restored) lands in the stage's
        ``timing_field``; a :class:`StageFailure` sets ``ctx.failure``
        and short-circuits the remaining stages, mirroring the paper's
        FAILED classification path.  With ``ctx.progress`` set, a
        :class:`ProgressEvent` is emitted at every stage boundary
        (started / finished / failed); callback exceptions propagate,
        which is how job cancellation aborts a run between stages.
        With a store, each stage entered counts one store hit when none
        of its units was computed, one miss otherwise (a later stage may
        compute an earlier one's unit: see :meth:`_compute`).
        """
        computed: Dict[str, bool] = {}
        for stage in self.stages:
            if (
                ctx.deadline_at is not None
                and time.perf_counter() > ctx.deadline_at
            ):
                raise DeadlineExceeded(
                    f"benchmark {ctx.program.name!r} overran its deadline "
                    f"before stage {stage.name!r}"
                )
            self._emit(ctx, stage, "started", 0.0)
            started = time.perf_counter()
            try:
                self._run_stage(stage, ctx, computed)
            except StageFailure as failure:
                ctx.failure = str(failure)
                elapsed = self._credit_time(ctx, stage, started)
                self._emit(ctx, stage, "failed", elapsed)
                break
            elapsed = self._credit_time(ctx, stage, started)
            self._emit(ctx, stage, "finished", elapsed)
        if ctx.store is not None:
            misses = sum(computed.values())
            ctx.timings.store_misses += misses
            ctx.timings.store_hits += len(computed) - misses
        return ctx

    @staticmethod
    def _emit(
        ctx: RunContext, stage: Stage, status: str, elapsed: float
    ) -> None:
        if ctx.progress is not None:
            ctx.progress(ProgressEvent(
                benchmark=ctx.program.name, stage=stage.name,
                status=status, elapsed=elapsed,
            ))

    @staticmethod
    def _credit_time(ctx: RunContext, stage: Stage, started: float) -> float:
        elapsed = time.perf_counter() - started
        current = getattr(ctx.timings, stage.timing_field)
        setattr(ctx.timings, stage.timing_field, current + elapsed)
        return elapsed

    def _run_stage(
        self, stage: Stage, ctx: RunContext, computed: Dict[str, bool]
    ) -> None:
        """Restore or compute one stage, unit by unit.

        The units of a per-variant stage are its variants, in
        :data:`VARIANT_ORDER`; any other stage is one unit, the run.
        Recording and transformation keep no section: they compute each
        variant no stored generalization section covers
        (:meth:`RunContext.covered`).  ``computed[stage.name]`` records
        whether any unit was computed.
        """
        units: Tuple[Optional[str], ...] = (
            VARIANT_ORDER.get(stage.name) or (None,)
        )
        computed[stage.name] = False
        if stage.name not in self._covered:
            self._restore_or_compute(stage, ctx, units, computed)
            return
        pending = [unit for unit in units if not ctx.covered(unit)]
        if pending:
            self._compute(stage, ctx, pending, computed)

    def _restore_or_compute(
        self, stage: Stage, ctx: RunContext,
        units: Sequence[Optional[str]], computed: Dict[str, bool],
    ) -> None:
        """Restore each unit from its store file's section for the stage
        when it holds one ``restore`` accepts; compute the units missing
        before it first, together in one ``run`` call.  A stored failure
        thus surfaces only once every earlier unit is restored or
        computed, as in a full computation."""
        pending: List[Optional[str]] = []
        for unit in units:
            payload = ctx.stored(unit, stage.name)
            if payload is None:
                pending.append(unit)
                continue
            if pending:
                self._compute(stage, ctx, pending, computed)
                pending = []
            try:
                stage.restore(
                    ctx, payload if unit is None else {unit: payload}
                )
            except PAYLOAD_ERRORS:
                ctx.reject(unit, stage.name)
                pending.append(unit)
        if pending:
            self._compute(stage, ctx, pending, computed)

    def _compute(
        self, stage: Stage, ctx: RunContext, units: List[Optional[str]],
        computed: Dict[str, bool],
    ) -> None:
        """Run ``stage`` for ``units``; keep what it computed, failures
        included, as each unit's section for the stage.

        A variant generalized here whose earlier stages its rejected
        generalization section covered gets them computed first.  A kept
        generalization section carries the variant's recording and
        transformation virtual seconds, and a foreground's failure the
        background's too: the run ends before the background is
        generalized.
        """
        computed[stage.name] = True
        per_variant = units[0] is not None
        covering = stage.name == COVERING_STAGE and bool(self._covered)
        if covering:
            for unit in units:
                if ctx.uncover(unit):
                    for earlier in self._covered.values():
                        self._compute(earlier, ctx, [unit], computed)
        if per_variant:
            ctx.variants = tuple(units)

        def keep(
            payload: Optional[Dict[str, object]], failed: bool = False
        ) -> None:
            if payload is None:
                return
            for unit, section in (
                payload.items() if per_variant else [(None, payload)]
            ):
                if covering:
                    section = dict(section, **ctx.seconds(unit))
                    # the foreground is generalized first, so a failure
                    # payload holding it alone is its own failure
                    if failed and list(payload) == [FOREGROUND]:
                        section[BACKGROUND] = ctx.seconds(BACKGROUND)
                ctx.keep(unit, stage.name, section)

        try:
            payload = stage.run(ctx)
        except StageFailure as failure:
            keep(failure.payload, failed=True)
            raise
        keep(payload)


def default_pipeline() -> Pipeline:
    """The paper's Figure 3 pipeline as a stage composition."""
    return Pipeline([
        RecordingStage(),
        TransformationStage(),
        GeneralizationStage(),
        ComparisonStage(),
    ])
