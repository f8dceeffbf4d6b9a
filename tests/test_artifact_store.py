"""Persistent artifact store tests: keys, corruption, reuse, resume."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ProvMark
from repro.capture.camflow import CamFlowCapture, CamFlowConfig
from repro.core.pipeline import PipelineConfig
from repro.core.result import BenchmarkResult, Classification, StageTimings
from repro.graph.model import PropertyGraph
from repro.storage.artifacts import (
    ArtifactError,
    ArtifactStore,
    canonical_key,
    graph_from_payload,
    graph_to_payload,
)

MATERIAL = {
    "program": {"name": "open", "fingerprint": "Program(...)"},
    "tool": "spade",
    "trials": 2,
    "seed": 5,
    "stage": "recording",
}


def spade_config(store: Path, **kwargs) -> PipelineConfig:
    return PipelineConfig(tool="spade", seed=5, store_path=str(store), **kwargs)


def results_identical(a: BenchmarkResult, b: BenchmarkResult) -> bool:
    """Identity over everything deterministic (not wall clock / store IO)."""
    return (
        a.classification is b.classification
        and a.target_graph == b.target_graph
        and a.foreground == b.foreground
        and a.background == b.background
        and a.note == b.note
        and a.error == b.error
        and a.trials == b.trials
        and a.discarded_trials == b.discarded_trials
        and a.timings.solver_row() == b.timings.solver_row()
        and a.timings.virtual_recording == b.timings.virtual_recording
    )


class TestKeys:
    def test_key_is_order_independent(self):
        shuffled = dict(reversed(list(MATERIAL.items())))
        assert canonical_key(MATERIAL) == canonical_key(shuffled)

    def test_key_distinguishes_values(self):
        other = dict(MATERIAL, seed=6)
        assert canonical_key(MATERIAL) != canonical_key(other)

    def test_key_stable_across_processes(self):
        """sha256 over canonical JSON, never hash(): survives hash seeds."""
        import os

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import json,sys;"
            "from repro.storage.artifacts import canonical_key;"
            "print(canonical_key(json.loads(sys.argv[1])))"
        )
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(MATERIAL)],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == canonical_key(MATERIAL)

    def test_unserializable_material_rejected(self):
        with pytest.raises(ArtifactError):
            canonical_key({"bad": object()})


class TestGraphPayload:
    def test_roundtrip_exact(self, tiny_graph):
        clone = graph_from_payload(graph_to_payload(tiny_graph))
        assert clone == tiny_graph
        assert clone.gid == tiny_graph.gid
        assert list(clone.node_ids()) == list(tiny_graph.node_ids())
        assert list(clone.edge_ids()) == list(tiny_graph.edge_ids())

    def test_roundtrip_through_json_text(self, tiny_graph):
        text = json.dumps(graph_to_payload(tiny_graph))
        assert graph_from_payload(json.loads(text)) == tiny_graph

    def test_malformed_payload_raises(self):
        with pytest.raises(ArtifactError):
            graph_from_payload({"gid": "g"})


class TestStoreIO:
    def test_save_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("recording", MATERIAL, {"x": 1})
        assert store.load("recording", MATERIAL) == {"x": 1}
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_absent_artifact_is_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("recording", MATERIAL) is None
        assert store.stats.misses == 1

    def test_truncated_artifact_recovers(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save("recording", MATERIAL, {"x": 1})
        path.write_text(path.read_text()[: 10])  # simulate a torn write
        assert store.load("recording", MATERIAL) is None
        assert store.stats.invalid == 1
        assert not path.exists()  # bad artifact discarded
        store.save("recording", MATERIAL, {"x": 2})  # recompute path works
        assert store.load("recording", MATERIAL) == {"x": 2}

    def test_version_mismatch_is_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save("recording", MATERIAL, {"x": 1})
        wrapper = json.loads(path.read_text())
        wrapper["version"] = -1
        path.write_text(json.dumps(wrapper))
        assert store.load("recording", MATERIAL) is None

    def test_stage_mismatch_is_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save("recording", MATERIAL, {"x": 1})
        target = store.path_for("generalization", MATERIAL)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
        assert store.load("generalization", MATERIAL) is None

    def test_clear_removes_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("recording", MATERIAL, {"x": 1})
        store.save("comparison", MATERIAL, {"y": 2})
        assert store.artifact_count() == 2
        assert store.clear() == 2
        assert store.artifact_count() == 0

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("recording", MATERIAL, {"x": 1})
        orphan = tmp_path / "recording" / ".deadbeef.123.tmp"
        orphan.write_text("half a write")
        store.clear()
        assert not orphan.exists()

    def test_stale_tmp_swept_on_open(self, tmp_path):
        import os
        import time

        stage_dir = tmp_path / "recording"
        stage_dir.mkdir(parents=True)
        stale = stage_dir / ".dead.1.tmp"
        stale.write_text("orphan of a killed run")
        old = time.time() - ArtifactStore.STALE_TMP_SECONDS - 10
        os.utime(stale, (old, old))
        fresh = stage_dir / ".live.2.tmp"
        fresh.write_text("in-flight write of a concurrent worker")
        ArtifactStore(tmp_path)
        assert not stale.exists()
        assert fresh.exists()  # recent temp files are left alone


class TestWarmRuns:
    def test_warm_run_identical_with_hits_per_stage(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(cold, warm)
        assert cold.timings.store_misses == 4 and cold.timings.store_hits == 0
        assert warm.timings.store_hits == 4 and warm.timings.store_misses == 0

    def test_store_matches_storeless_run(self, tmp_path):
        plain = ProvMark(tool="spade", seed=5).run_benchmark("open")
        stored = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(plain, stored)
        assert results_identical(plain, warm)

    def test_byte_identical_serialized_results(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("rename")
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("rename")
        scrub = lambda r: dict(r.to_payload(), timings=None)
        assert (
            json.dumps(scrub(cold), sort_keys=True).encode()
            == json.dumps(scrub(warm), sort_keys=True).encode()
        )

    def test_no_cache_recomputes_but_refreshes(self, tmp_path):
        ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        forced = ProvMark(
            config=spade_config(tmp_path, cache=False)
        ).run_benchmark("open")
        assert forced.timings.store_hits == 0
        assert forced.timings.store_misses == 4
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert warm.timings.store_hits == 4  # refreshed artifacts still there

    def test_corrupted_stage_artifact_recomputed(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "generalization").glob("*.json"):
            path.write_text("{ truncated")
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(cold, warm)
        assert warm.timings.store_hits == 3
        assert warm.timings.store_misses == 1

    def test_deterministic_failure_served_from_store(self, tmp_path):
        def run():
            capture = CamFlowCapture(CamFlowConfig(structural_jitter=1.0))
            config = PipelineConfig(
                tool="camflow", seed=8, trials=2, store_path=str(tmp_path)
            )
            return ProvMark(capture=capture, config=config).run_benchmark("open")

        cold, warm = run(), run()
        assert cold.classification is Classification.FAILED
        assert results_identical(cold, warm)
        assert warm.timings.store_hits == 3  # short-circuits at generalization
        assert warm.timings.store_misses == 0

    def test_different_seed_does_not_hit(self, tmp_path):
        ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        other = PipelineConfig(tool="spade", seed=6, store_path=str(tmp_path))
        result = ProvMark(config=other).run_benchmark("open")
        assert result.timings.store_hits == 0

    def test_unseeded_runs_bypass_the_store(self, tmp_path):
        """No seed = nondeterministic trials: caching them would freeze
        randomness that users expect to vary per run."""
        config = PipelineConfig(tool="spade", store_path=str(tmp_path))
        provmark = ProvMark(config=config)
        assert provmark.artifact_store() is None
        result = provmark.run_benchmark("open")
        assert result.timings.store_hits == 0
        assert result.timings.store_misses == 0
        assert not any(tmp_path.rglob("*.json"))

    def test_decodable_but_malformed_artifact_recomputed(self, tmp_path):
        """Valid JSON wrapper, payload the codecs reject (e.g. written
        by another code version): recompute, don't crash."""
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "transformation").glob("*.json"):
            wrapper = json.loads(path.read_text())
            wrapper["payload"] = {"fg": [{"gid": "x"}], "bg": []}
            path.write_text(json.dumps(wrapper))
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(cold, warm)
        assert warm.timings.store_hits == 3
        assert warm.timings.store_misses == 1

    def test_wrong_payload_type_recomputed_not_crash(self, tmp_path):
        """Payload fields of the wrong JSON type (string where a dict is
        expected) must read as corruption, not raise AttributeError."""
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "generalization").glob("*.json"):
            wrapper = json.loads(path.read_text())
            wrapper["payload"]["solver"] = "garbage"
            path.write_text(json.dumps(wrapper))
        warm = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(cold, warm)
        assert warm.timings.store_misses == 1

    def test_invalid_payload_not_counted_as_store_hit(self, tmp_path):
        provmark = ProvMark(config=spade_config(tmp_path))
        provmark.run_benchmark("open")
        for path in (tmp_path / "transformation").glob("*.json"):
            wrapper = json.loads(path.read_text())
            wrapper["payload"] = {"fg": "nope", "bg": []}
            path.write_text(json.dumps(wrapper))
        warm = ProvMark(config=spade_config(tmp_path))
        warm.run_benchmark("open")
        stats = warm.artifact_store().stats
        assert stats.invalid == 2  # both variants' transformation artifacts
        # the genuinely served artifacts only: recording and
        # generalization per variant, and comparison
        assert stats.hits == 5

    def test_short_recording_recomputed_not_cached_as_failure(self, tmp_path):
        """A stored recording with too few trials must read as a miss:
        restored, it would fail generalization ("need at least two trial
        graphs") and that failure would be stored for every later run."""
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "recording").glob("*.json"):
            wrapper = json.loads(path.read_text())
            if wrapper["payload"][0]["foreground"]:
                wrapper["payload"] = wrapper["payload"][:1]
                path.write_text(json.dumps(wrapper))
        for stage in ("transformation", "generalization", "comparison",
                      "result"):
            for path in (tmp_path / stage).glob("*.json"):
                path.unlink()
        provmark = ProvMark(config=spade_config(tmp_path))
        warm = provmark.run_benchmark("open")
        assert results_identical(cold, warm)
        assert provmark.artifact_store().stats.invalid == 1
        resumed = ProvMark(
            config=spade_config(tmp_path, resume=True)
        ).run_benchmark("open")
        assert resumed.classification is Classification.OK
        again = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        assert results_identical(cold, again)
        assert again.timings.store_hits == 4

    def test_malformed_result_artifact_under_resume(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "result").glob("*.json"):
            wrapper = json.loads(path.read_text())
            wrapper["payload"]["target_graph"] = {"gid": "broken"}
            path.write_text(json.dumps(wrapper))
        resumed = ProvMark(
            config=spade_config(tmp_path, resume=True)
        ).run_benchmark("open")
        assert results_identical(cold, resumed)


class TestResume:
    def test_resume_replays_completed_benchmark(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        resumed = ProvMark(
            config=spade_config(tmp_path, resume=True)
        ).run_benchmark("open")
        assert results_identical(cold, resumed)
        # exact float equality of the stored wall clocks proves the
        # benchmark was replayed from the result artifact, not re-run
        assert resumed.timings.recording == cold.timings.recording
        assert resumed.timings.generalization == cold.timings.generalization
        assert resumed.timings.store_hits == 4

    def test_killed_sweep_resumes_only_remaining(self, tmp_path):
        config = spade_config(tmp_path)
        # "killed" sweep: only the first benchmark completed
        first = ProvMark(config=config).run_benchmark("open")
        resumed_config = spade_config(tmp_path, resume=True)
        provmark = ProvMark(config=resumed_config)
        results = [provmark.run_benchmark(name) for name in ("open", "rename")]
        assert [r.benchmark for r in results] == ["open", "rename"]
        assert results[0].timings.recording == first.timings.recording  # replayed
        assert results[0].timings.store_hits == 4
        assert results[1].timings.store_misses == 4  # actually ran
        fresh = ProvMark(tool="spade", seed=5).run_benchmark("rename")
        assert results_identical(results[1], fresh)

    def test_resume_without_artifact_runs_normally(self, tmp_path):
        result = ProvMark(
            config=spade_config(tmp_path, resume=True)
        ).run_benchmark("open")
        assert result.classification is Classification.OK
        assert result.timings.store_misses == 4

    def test_resume_ignores_corrupt_result_artifact(self, tmp_path):
        cold = ProvMark(config=spade_config(tmp_path)).run_benchmark("open")
        for path in (tmp_path / "result").glob("*.json"):
            path.write_text('{"version": 1, "stage": "result", "payload": {}}')
        resumed = ProvMark(
            config=spade_config(tmp_path, resume=True)
        ).run_benchmark("open")
        assert results_identical(cold, resumed)
        assert resumed.timings.store_hits == 4  # stage artifacts still good

    def test_parallel_batch_shares_store(self, tmp_path):
        """A two-worker fleet fills the plane store; a warm serial run
        over that store is served from it, stage for stage."""
        from repro.api import BenchmarkService, RunRequest
        from repro.exec import FleetJobManager

        names = ["open", "rename", "creat"]
        with FleetJobManager(tmp_path / "plane", workers=2) as manager:
            service = BenchmarkService(jobs=manager)
            jobs = [
                service.submit(RunRequest(benchmark=name, tool="spade", seed=5))
                for name in names
            ]
            deadline = time.monotonic() + 120
            while any(
                manager.poll(job.job_id).state in ("queued", "running")
                for job in jobs
            ):
                assert time.monotonic() < deadline, "fleet jobs still running"
                time.sleep(0.05)
            statuses = [manager.poll(job.job_id) for job in jobs]
        assert [status.state for status in statuses] == ["done"] * 3
        cold = [status.result.result for status in statuses]
        warm = ProvMark(config=spade_config(Path(manager.store_path)))
        for name, a in zip(names, cold):
            b = warm.run_benchmark(name)
            assert results_identical(a, b)
            assert b.timings.store_hits == 4


class TestResultPayload:
    def test_result_roundtrip(self):
        result = ProvMark(tool="spade", seed=5).run_benchmark("open")
        clone = BenchmarkResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert results_identical(result, clone)
        assert clone.timings.to_payload() == result.timings.to_payload()

    def test_timings_roundtrip(self):
        timings = StageTimings(
            recording=1.5, transformation=0.25, generalization=2.0,
            comparison=0.5, virtual_recording=80.0, solver_steps=7,
            solver_searches=3, matching_cache_hits=2, cost_cache_hits=9,
            store_hits=4, store_misses=1,
        )
        assert StageTimings.from_payload(timings.to_payload()) == timings

    def test_failure_result_roundtrip(self):
        timings = StageTimings()
        result = BenchmarkResult(
            benchmark="open", tool="spade",
            classification=Classification.FAILED,
            target_graph=PropertyGraph("empty"),
            foreground=None, background=None,
            timings=timings, trials=2, error="boom",
        )
        clone = BenchmarkResult.from_payload(result.to_payload())
        assert clone.error == "boom"
        assert clone.foreground is None and clone.background is None
