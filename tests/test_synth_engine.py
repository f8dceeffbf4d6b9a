"""The synthesis engine end to end: curation, service, jobs, HTTP, CLI."""

from __future__ import annotations

import json

import pytest

from repro.api.errors import NotFoundError, ValidationError
from repro.api.http import make_server
from repro.api.service import BenchmarkService
from repro.api.specs import load_persisted_specs, spec_digest
from repro.api.types import (
    RunRequest,
    SynthConfig,
    SynthCoverage,
    SynthReport,
)
from repro.storage.artifacts import ArtifactStore
from repro.suite.registry import SUITE_REGISTRY
from repro.synth.engine import run_synthesis

SMALL = dict(seed=5, count=6, tools=("spade",))


def _service() -> BenchmarkService:
    """A service over a private registry (no shared-state leakage)."""
    return BenchmarkService(registry=SUITE_REGISTRY.builtin_copy())


class TestEngine:
    def test_full_run_is_deterministic(self):
        registry_a = SUITE_REGISTRY.builtin_copy()
        registry_b = SUITE_REGISTRY.builtin_copy()
        run_a = run_synthesis(registry=registry_a, **SMALL)
        run_b = run_synthesis(registry=registry_b, **SMALL)
        assert [spec_digest(s) for s in run_a.survivors] == \
            [spec_digest(s) for s in run_b.survivors]
        assert run_a.baseline == run_b.baseline
        assert run_a.final == run_b.final
        assert run_a.new_syscalls == run_b.new_syscalls
        assert [o.verdict for o in run_a.outcomes] == \
            [o.verdict for o in run_b.outcomes]

    def test_every_candidate_gets_a_verdict(self):
        run = run_synthesis(registry=SUITE_REGISTRY.builtin_copy(), **SMALL)
        assert len(run.outcomes) == SMALL["count"]
        assert run.generated + run.mutated == SMALL["count"]
        kept = [o for o in run.outcomes if o.verdict == "kept"]
        assert len(kept) == len(run.survivors)
        assert (len(kept) + run.duplicates + run.no_gain + run.failed
                == SMALL["count"])
        for outcome in run.outcomes:
            assert outcome.verdict in (
                "kept", "duplicate", "no_gain", "failed"
            )
            if outcome.verdict == "kept":
                assert outcome.gain > 0
                assert outcome.fingerprint

    def test_a_larger_run_keeps_candidates(self):
        run = run_synthesis(
            seed=2019, count=24, tools=("spade",),
            registry=SUITE_REGISTRY.builtin_copy(),
        )
        assert run.survivors

    def test_coverage_grows_monotonically(self):
        run = run_synthesis(registry=SUITE_REGISTRY.builtin_copy(), **SMALL)
        assert run.final.syscalls >= run.baseline.syscalls
        assert run.final.arg_shapes >= run.baseline.arg_shapes
        assert run.baseline.motifs == 0
        if run.survivors:
            assert run.final.motifs > 0

    def test_duplicate_candidates_are_deduplicated(self):
        """Re-running over a registry already holding the survivors
        still dedups by fingerprint: identical target graphs collapse."""
        registry = SUITE_REGISTRY.builtin_copy()
        first = run_synthesis(registry=registry, **SMALL)
        assert first.duplicates + first.no_gain + len(first.survivors) > 0
        fingerprints = [
            o.fingerprint for o in first.outcomes if o.fingerprint
        ]
        assert len(set(fingerprints)) + first.duplicates == len(fingerprints)

    def test_store_backed_run_is_warm_on_second_pass(self, tmp_path):
        store_path = str(tmp_path / "synthstore")
        registry = SUITE_REGISTRY.builtin_copy()
        cold = run_synthesis(
            registry=registry, store_path=store_path, **SMALL
        )
        warm = run_synthesis(
            registry=SUITE_REGISTRY.builtin_copy(),
            store_path=store_path, **SMALL,
        )
        assert [spec_digest(s) for s in cold.survivors] == \
            [spec_digest(s) for s in warm.survivors]
        assert warm.final == cold.final
        # warm runs restore final results from the store
        assert all(
            result.timings.store_hits > 0
            for results in warm.results.values() for result in results
        )


class TestServiceSynthesize:
    def test_survivors_are_registered_with_synth_tag(self):
        service = _service()
        report = service.synthesize(SynthConfig(**SMALL))
        assert report.kept
        for name, digest in zip(report.kept, report.digests):
            info = service.benchmark_info(name)
            assert "synth" in info.tags
            assert not info.builtin
            # the registry's spec view round-trips to the report's digest
            assert spec_digest(service.benchmark_spec(name)) == digest
            # registered benchmarks are runnable by name
            result = service.run(
                RunRequest(benchmark=name, tool="spade", seed=5)
            ).result
            assert result.benchmark == name
            assert result.classification.value in ("ok", "empty"), name

    def test_report_is_deterministic_and_round_trips(self):
        report_a = _service().synthesize(SynthConfig(**SMALL))
        report_b = _service().synthesize(SynthConfig(**SMALL))
        assert report_a.to_payload() == report_b.to_payload()
        rebuilt = SynthReport.from_payload(
            json.loads(json.dumps(report_a.to_payload()))
        )
        assert rebuilt == report_a

    def test_registration_is_atomic_under_cap_overflow(self, monkeypatch):
        """Regression: a mid-loop registry-cap failure rolls back every
        survivor registered so far (no half-adopted state)."""
        from repro.suite.registry import SuiteRegistry

        service = _service()
        before = set(service._registry.names())
        monkeypatch.setattr(SuiteRegistry, "MAX_CUSTOM", 1)
        with pytest.raises(ValidationError):
            service.synthesize(SynthConfig(**SMALL))
        assert set(service._registry.names()) == before

    def test_register_false_leaves_registry_untouched(self):
        service = _service()
        before = set(service._registry.names())
        report = service.synthesize(SynthConfig(register=False, **SMALL))
        assert not report.registered
        assert set(service._registry.names()) == before

    def test_persists_specs_into_store(self, tmp_path):
        store_path = str(tmp_path / "store")
        service = _service()
        report = service.synthesize(
            SynthConfig(store_path=store_path, **SMALL)
        )
        assert report.persisted == len(report.kept)
        persisted = load_persisted_specs(ArtifactStore(store_path))
        assert sorted(s.name for s in persisted) == sorted(report.kept)
        # a fresh service resolves persisted synth benchmarks by name
        fresh = _service()
        assert fresh.load_spec_store(store_path) == len(report.kept)
        response = fresh.run(RunRequest(
            benchmark=report.kept[0], tool="spade", seed=5,
        ))
        assert response.result.classification.value in ("ok", "empty")

    def test_extra_tags_are_added_alongside_synth(self):
        service = _service()
        report = service.synthesize(
            SynthConfig(tags=("fuzzy",), **SMALL)
        )
        info = service.benchmark_info(report.kept[0])
        assert "synth" in info.tags and "fuzzy" in info.tags

    def test_unknown_tool_is_not_found(self):
        with pytest.raises(NotFoundError):
            _service().synthesize(SynthConfig(seed=1, count=2,
                                              tools=("nosuch",)))

    def test_wrong_type_is_validation_error(self):
        with pytest.raises(ValidationError):
            _service().synthesize("not a config")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(count=0)
        with pytest.raises(ValidationError):
            SynthConfig(count=10_000)
        with pytest.raises(ValidationError):
            SynthConfig(tools=())
        with pytest.raises(ValidationError):
            SynthConfig(mutation_rate=1.5)
        with pytest.raises(ValidationError):
            SynthConfig(max_ops=1)
        rebuilt = SynthConfig.from_payload(SynthConfig(**SMALL).to_payload())
        assert rebuilt == SynthConfig(**SMALL)


class TestSynthJobs:
    def test_submitted_synth_job_completes_with_report(self):
        with _service() as service:
            job = service.submit(SynthConfig(**SMALL))
            assert job.kind == "synth"
            assert job.total == SMALL["count"]
            while not service.poll(job.job_id).finished:
                pass
            final = service.poll(job.job_id)
        assert final.state == "done"
        assert final.report is not None
        assert final.completed == SMALL["count"]
        assert final.report.kept
        payload = final.to_payload()
        assert payload["report"]["kept"] == list(final.report.kept)

    def test_submit_rejects_unknown_tool_synchronously(self):
        with _service() as service:
            with pytest.raises(NotFoundError):
                service.submit(SynthConfig(seed=1, count=2,
                                           tools=("nosuch",)))


class TestSynthHTTP:
    @pytest.fixture
    def server(self):
        service = _service()
        server = make_server(service, port=0)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        service.close(cancel=True)

    def _post(self, server, path, body):
        import urllib.request

        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_wait_true_returns_the_report(self, server):
        status, body = self._post(
            server, "/v1/synth",
            {"seed": 5, "count": 4, "tools": ["spade"], "wait": True},
        )
        assert status == 200
        report = SynthReport.from_payload(body["report"])
        assert report.requested == 4
        # survivors are immediately listed by the catalog
        assert isinstance(report.coverage, SynthCoverage)

    def test_async_submit_returns_job(self, server):
        status, body = self._post(
            server, "/v1/synth", {"seed": 5, "count": 3, "tools": ["spade"]},
        )
        assert status == 202
        assert body["kind"] == "synth"

    def test_store_path_is_rejected_over_http(self, server):
        status, body = self._post(
            server, "/v1/synth",
            {"seed": 1, "count": 2, "store_path": "/tmp/x"},
        )
        assert status == 400
        assert "store_path" in body["error"]["message"]

    def test_malformed_config_is_400(self, server):
        status, body = self._post(
            server, "/v1/synth", {"seed": 1, "count": 2, "bogus": True},
        )
        assert status == 400
        assert "unknown keys" in body["error"]["message"]
