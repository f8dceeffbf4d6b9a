"""Generator, templates, mutation operators, and the coverage model."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.specs import BenchmarkSpec, compile_spec, spec_digest
from repro.kernel.introspect import ArgKind, syscall_signatures
from repro.suite.registry import SUITE_REGISTRY
from repro.synth.coverage import CoverageModel, motif_keys, spec_keys
from repro.synth import generator as generator_module
from repro.synth.generator import SpecGenerator, dry_run
from repro.synth.mutate import MUTATION_OPERATORS, mutate_spec
from repro.synth.templates import TEMPLATE_CALLS, TEMPLATES


class TestIntrospection:
    def test_signatures_cover_every_kernel_syscall(self):
        signatures = syscall_signatures()
        assert "open" in signatures and "fork" in signatures
        open_sig = signatures["open"]
        assert open_sig.params[0].name == "path"
        assert open_sig.params[0].kind is ArgKind.PATH
        assert open_sig.params[0].required
        assert open_sig.required == 1 and open_sig.maximum == 3

    def test_every_template_emits_known_syscalls(self):
        """The template table can never drift from the kernel surface."""
        signatures = syscall_signatures()
        assert {t.call for t in TEMPLATES} == set(TEMPLATE_CALLS)
        for template_name, calls in TEMPLATE_CALLS.items():
            for call in calls:
                assert call in signatures, (
                    f"template {template_name!r} emits unknown "
                    f"syscall {call!r}"
                )

    def test_classification_marks_unknown_params_opaque(self):
        signatures = syscall_signatures()
        argv = [p for p in signatures["execve"].params if p.name == "argv"]
        assert argv and argv[0].kind is ArgKind.ARGV


class TestGenerator:
    def test_generated_specs_pass_validator_and_compile(self):
        generator = SpecGenerator(seed=11)
        for spec in generator.generate_many(25):
            spec.validate()
            program = compile_spec(spec)
            assert program.target_ops(), spec.name
            assert dry_run(spec)

    def test_few_dry_runs_per_valid_spec(self, monkeypatch):
        """Generation stays cheap next to evaluation: each valid spec
        costs at most two attempts, each at most one dry run."""
        calls = {"attempt": 0, "dry_run": 0}
        real_attempt = SpecGenerator._attempt
        real_dry_run = generator_module.dry_run

        def attempt(self):
            calls["attempt"] += 1
            return real_attempt(self)

        def counted_dry_run(spec):
            calls["dry_run"] += 1
            return real_dry_run(spec)

        monkeypatch.setattr(SpecGenerator, "_attempt", attempt)
        monkeypatch.setattr(generator_module, "dry_run", counted_dry_run)
        SpecGenerator(seed=2019).generate_many(60)
        assert calls["attempt"] <= 120
        assert calls["dry_run"] <= calls["attempt"]

    def test_names_are_sequential_and_deterministic(self):
        generator = SpecGenerator(seed=3, name_prefix="gen")
        specs = generator.generate_many(3)
        assert [s.name for s in specs] == [
            "gen_s3_000", "gen_s3_001", "gen_s3_002"
        ]

    @settings(
        deadline=None, max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_seed_yields_valid_byte_identical_specs(self, seed):
        """Property: every spec validates+compiles, and the same seed
        reproduces the exact payload bytes."""
        first = SpecGenerator(seed=seed).generate_many(3)
        second = SpecGenerator(seed=seed).generate_many(3)
        for spec_a, spec_b in zip(first, second):
            spec_a.validate()
            compile_spec(spec_a)
            blob_a = json.dumps(spec_a.to_payload(), sort_keys=True)
            blob_b = json.dumps(spec_b.to_payload(), sort_keys=True)
            assert blob_a == blob_b
            assert spec_digest(spec_a) == spec_digest(spec_b)

    def test_round_trip_through_json(self):
        spec = SpecGenerator(seed=5).generate()
        rebuilt = BenchmarkSpec.from_payload(
            json.loads(json.dumps(spec.to_payload()))
        )
        assert rebuilt == spec


class TestMutation:
    def _builtin_spec(self, name: str) -> BenchmarkSpec:
        return SUITE_REGISTRY.spec(name)

    def test_mutants_of_builtins_pass_the_oracle_or_are_refused(self):
        rng = random.Random(1)
        oracle_checked = 0
        for name in ("open", "close", "rename", "tee", "kill"):
            seed_spec = self._builtin_spec(name)
            for _ in range(10):
                derived = mutate_spec(seed_spec, rng, f"mut_{name}")
                if derived is None:
                    continue
                operator, mutant = derived
                assert mutant.name == f"mut_{name}"
                assert operator in dict(MUTATION_OPERATORS)
                # engine contract: validator + dry run decide, not trust
                try:
                    mutant.validate()
                except Exception:
                    continue
                if dry_run(mutant):
                    oracle_checked += 1
        assert oracle_checked > 0

    def test_mutation_never_mutates_the_builtin_registry_row(self):
        """Regression: builtin rows are immutable; mutation must build
        new specs, never edit the registry's entry in place."""
        before_program = SUITE_REGISTRY.get("open")
        before_spec = SUITE_REGISTRY.spec("open")
        before_blob = json.dumps(before_spec.to_payload(), sort_keys=True)
        rng = random.Random(7)
        for _ in range(25):
            derived = mutate_spec(SUITE_REGISTRY.spec("open"), rng, "mut_x")
            if derived is not None:
                _, mutant = derived
                assert mutant is not before_spec
        assert SUITE_REGISTRY.get("open") is before_program
        after_blob = json.dumps(
            SUITE_REGISTRY.spec("open").to_payload(), sort_keys=True
        )
        assert after_blob == before_blob
        assert SUITE_REGISTRY.is_builtin("open")

    def test_operators_are_deterministic(self):
        seed_spec = self._builtin_spec("tee")
        one = mutate_spec(seed_spec, random.Random(9), "m")
        two = mutate_spec(seed_spec, random.Random(9), "m")
        assert (one is None) == (two is None)
        if one is not None:
            assert one[0] == two[0]
            assert one[1] == two[1]


class TestCoverageModel:
    def test_spec_keys_track_syscalls_and_shapes(self):
        spec = self._spec_with_ops()
        keys = spec_keys(spec)
        assert ("syscall", "open") in keys
        assert any(k[0] == "shape" and k[1] == "open" for k in keys)

    def _spec_with_ops(self) -> BenchmarkSpec:
        return SUITE_REGISTRY.spec("open")

    def test_failure_shapes_are_distinct(self):
        ok = spec_keys(SUITE_REGISTRY.spec("open"))
        fail = spec_keys(SUITE_REGISTRY.spec("open_fail"))
        open_shapes_ok = {k for k in ok if k[:2] == ("shape", "open")}
        open_shapes_fail = {k for k in fail if k[:2] == ("shape", "open")}
        assert open_shapes_ok != open_shapes_fail
        assert any(k[-1] == "!" for k in open_shapes_fail)

    def test_gain_and_observe(self, tiny_graph):
        model = CoverageModel.from_specs([SUITE_REGISTRY.spec("open")])
        assert model.syscalls == 1
        keys = motif_keys("spade", tiny_graph)
        gained = model.gain(keys)
        assert gained == keys
        model.observe(keys)
        assert not model.gain(keys)
        assert model.motifs == len(keys)

    def test_model_seeded_from_full_registry(self):
        specs = [
            SUITE_REGISTRY.spec(name) for name in SUITE_REGISTRY.names()
        ]
        model = CoverageModel.from_specs(specs)
        assert model.syscalls >= 40
        assert model.arg_shapes >= model.syscalls
        assert model.motifs == 0  # static seeding observes no graphs

    def test_unknown_seed_benchmark_raises(self):
        with pytest.raises(KeyError):
            SUITE_REGISTRY.spec("nosuch")
