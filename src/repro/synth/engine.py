"""The synthesis engine: generate, mutate, evaluate, curate.

One :func:`run_synthesis` call is a deterministic function of its
arguments (notably ``seed``):

1. **Candidate production.** ``count`` candidates are produced; each is
   either freshly generated (:class:`~repro.synth.generator.SpecGenerator`)
   or derived by a mutation operator from a seed pool holding the
   builtin suite's specs plus every candidate produced so far.  All
   randomness flows through the generator's single seeded
   ``random.Random``; mutants that fail the oracle (semantic validator
   + dry run) fall back to fresh generation, so exactly ``count``
   candidates always emerge.
2. **Evaluation.** Every candidate runs through the staged pipeline
   under every requested tool, serially and in candidate order, and
   artifact-store-backed when a store is configured, so re-running a
   sweep is warm.
3. **Curation.** In candidate order: a candidate whose run FAILED under
   any tool is dropped; one whose per-tool target-graph fingerprints
   (:func:`repro.graph.stats.graph_fingerprint`) match an earlier
   candidate is a *duplicate*; one contributing no coverage key the
   model (seeded from the existing suite) has not seen is *no gain*;
   the rest survive, and their keys extend the model.

The service layer (:meth:`repro.api.BenchmarkService.synthesize`)
registers survivors and persists their specs; this module performs no
registration itself.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.specs import BenchmarkSpec, compile_spec
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.result import BenchmarkResult, Classification
from repro.core.stages import ProgressCallback
from repro.graph.stats import graph_fingerprint
from repro.suite.registry import SUITE_REGISTRY, SuiteRegistry
from repro.synth.coverage import CoverageModel, motif_keys, spec_keys
from repro.synth.generator import SpecGenerator, dry_run
from repro.synth.mutate import mutate_spec

#: attempts at deriving a valid mutant before falling back to fresh
#: generation for that candidate slot
MUTATION_ATTEMPTS = 4


@dataclass(frozen=True)
class CoverageCounts:
    """Coverage-model sizes per family at one point in time."""

    syscalls: int
    arg_shapes: int
    motifs: int


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's journey through the curation loop."""

    spec: BenchmarkSpec
    #: "generated" or "mutated:<operator><-<seed benchmark>"
    origin: str
    #: "kept" | "duplicate" | "no_gain" | "failed"
    verdict: str
    #: combined per-tool target-graph fingerprint ("" when failed)
    fingerprint: str
    #: number of new coverage keys this candidate contributed
    gain: int


@dataclass
class SynthRun:
    """Everything one synthesis run produced (pre-registration)."""

    survivors: List[BenchmarkSpec]
    outcomes: List[CandidateOutcome]
    generated: int
    mutated: int
    duplicates: int
    no_gain: int
    failed: int
    baseline: CoverageCounts
    final: CoverageCounts
    new_syscalls: List[str]
    results: Dict[str, List[BenchmarkResult]] = field(default_factory=dict)


DriverFactory = Callable[[str], ProvMark]


def _default_driver_factory(
    seed: int,
    trials: Optional[int],
    engine: str,
    store_path: Optional[str],
) -> DriverFactory:
    def factory(tool: str) -> ProvMark:
        return ProvMark(config=PipelineConfig(
            tool=tool,
            trials=trials,
            engine=engine,
            seed=seed,
            store_path=store_path,
            # synthesized programs are content-addressed like any other:
            # a re-run of the same synthesis against the same store
            # resumes completed candidate runs instead of recomputing
            resume=store_path is not None,
        ))
    return factory


def _baseline_specs(registry: SuiteRegistry) -> List[BenchmarkSpec]:
    """The registry's spec view, name order (deterministic seeding)."""
    snapshot = registry.snapshot()
    return [registry.spec(name) for name in sorted(snapshot)]


def _produce_candidates(
    generator: SpecGenerator,
    count: int,
    mutation_rate: float,
    seed_pool: List[BenchmarkSpec],
    tags: Tuple[str, ...],
) -> List[Tuple[BenchmarkSpec, str]]:
    rng = generator.rng
    candidates: List[Tuple[BenchmarkSpec, str]] = []
    for _ in range(count):
        produced: Optional[Tuple[BenchmarkSpec, str]] = None
        if seed_pool and rng.random() < mutation_rate:
            produced = _try_mutation(generator, rng, seed_pool, tags)
        if produced is None:
            produced = (generator.generate(), "generated")
        candidates.append(produced)
        seed_pool.append(produced[0])
    return candidates


def _try_mutation(
    generator: SpecGenerator,
    rng: random.Random,
    seed_pool: List[BenchmarkSpec],
    tags: Tuple[str, ...],
) -> Optional[Tuple[BenchmarkSpec, str]]:
    for _ in range(MUTATION_ATTEMPTS):
        seed_spec = rng.choice(seed_pool)
        derived = mutate_spec(seed_spec, rng, generator.next_name())
        if derived is None:
            continue
        operator, mutant = derived
        mutant = dataclasses.replace(mutant, tags=tags)
        try:
            mutant.validate()
        except Exception:
            continue
        if not dry_run(mutant):
            continue
        generator.claim_name()
        return mutant, f"mutated:{operator}<-{seed_spec.name}"
    return None


def _evaluate(
    programs: Sequence,
    tools: Sequence[str],
    driver_factory: DriverFactory,
    progress: Optional[ProgressCallback],
) -> Dict[str, List[BenchmarkResult]]:
    results: Dict[str, List[BenchmarkResult]] = {}
    for tool in tools:
        driver = driver_factory(tool)
        # stage-boundary observation (and job cancellation), as in
        # BenchmarkService.run_batch
        driver.progress = progress
        results[tool] = [
            driver.run_benchmark(program) for program in programs
        ]
    return results


def run_synthesis(
    *,
    seed: int,
    count: int,
    tools: Sequence[str] = ("spade", "opus", "camflow"),
    max_ops: int = 6,
    mutation_rate: float = 0.4,
    name_prefix: str = "synth",
    tags: Tuple[str, ...] = ("synth",),
    trials: Optional[int] = None,
    engine: str = "native",
    store_path: Optional[str] = None,
    registry: Optional[SuiteRegistry] = None,
    driver_factory: Optional[DriverFactory] = None,
    progress: Optional[ProgressCallback] = None,
) -> SynthRun:
    """One full generate → mutate → evaluate → curate pass."""
    registry = registry if registry is not None else SUITE_REGISTRY
    if driver_factory is None:
        driver_factory = _default_driver_factory(
            seed, trials, engine, store_path
        )
    generator = SpecGenerator(
        seed, max_ops=max_ops, name_prefix=name_prefix, tags=tags
    )
    baseline_pool = _baseline_specs(registry)
    candidates = _produce_candidates(
        generator, count, mutation_rate, list(baseline_pool), tags
    )
    programs = [compile_spec(spec) for spec, _ in candidates]
    results = _evaluate(programs, tools, driver_factory, progress)

    model = CoverageModel.from_specs(baseline_pool)
    baseline = CoverageCounts(model.syscalls, model.arg_shapes, model.motifs)
    base_syscalls = set(model.covered_syscalls())

    run = SynthRun(
        survivors=[], outcomes=[],
        generated=sum(1 for _, o in candidates if o == "generated"),
        mutated=sum(1 for _, o in candidates if o != "generated"),
        duplicates=0, no_gain=0, failed=0,
        baseline=baseline, final=baseline, new_syscalls=[],
        results=results,
    )
    seen_fingerprints: Set[str] = set()
    for index, (spec, origin) in enumerate(candidates):
        candidate_results = [results[tool][index] for tool in tools]
        verdict, fingerprint, gain = _curate(
            spec, tools, candidate_results, model, seen_fingerprints
        )
        if verdict == "kept":
            run.survivors.append(spec)
        elif verdict == "duplicate":
            run.duplicates += 1
        elif verdict == "no_gain":
            run.no_gain += 1
        else:
            run.failed += 1
        run.outcomes.append(CandidateOutcome(
            spec=spec, origin=origin, verdict=verdict,
            fingerprint=fingerprint, gain=gain,
        ))
    run.final = CoverageCounts(model.syscalls, model.arg_shapes, model.motifs)
    run.new_syscalls = sorted(set(model.covered_syscalls()) - base_syscalls)
    return run


def _curate(
    spec: BenchmarkSpec,
    tools: Sequence[str],
    candidate_results: Sequence[BenchmarkResult],
    model: CoverageModel,
    seen_fingerprints: Set[str],
) -> Tuple[str, str, int]:
    """Keep/drop one candidate; updates model and fingerprint set."""
    if any(
        result.classification is Classification.FAILED
        for result in candidate_results
    ):
        return "failed", "", 0
    fingerprint = "+".join(
        f"{tool}:{graph_fingerprint(result.target_graph)[:16]}"
        for tool, result in zip(tools, candidate_results)
    )
    if fingerprint in seen_fingerprints:
        return "duplicate", fingerprint, 0
    seen_fingerprints.add(fingerprint)
    keys = spec_keys(spec)
    for tool, result in zip(tools, candidate_results):
        keys |= motif_keys(tool, result.target_graph)
    gain = model.gain(keys)
    if not gain:
        return "no_gain", fingerprint, 0
    model.observe(keys)
    return "kept", fingerprint, len(gain)
