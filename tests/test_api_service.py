"""BenchmarkService façade: parity with the ProvMark driver, catalogs,
async jobs, progress events, and a warning-free construction path."""

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.api import (
    BatchRequest,
    BenchmarkService,
    NotFoundError,
    RunRequest,
    ToolQuery,
    ValidationError,
)
from repro.core.pipeline import PipelineConfig, ProvMark
from repro.core.stages import ProgressEvent
from repro.suite import TABLE2_ORDER


def identical(a, b) -> bool:
    """Result identity over everything deterministic (not wall clock)."""
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
        and a.timings.store_row() == b.timings.store_row()
    )


def wait_for(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.poll(job_id)
        if status.finished:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestRunParity:
    @pytest.mark.parametrize("tool", ["spade", "opus", "camflow"])
    def test_run_matches_legacy_driver(self, tool):
        service = BenchmarkService()
        response = service.run(RunRequest(benchmark="open", tool=tool, seed=7))
        direct = ProvMark(tool=tool, seed=7).run_benchmark("open")
        assert identical(response.result, direct)

    def test_run_with_profile(self):
        service = BenchmarkService()
        response = service.run(
            RunRequest(benchmark="open", profile="cam", seed=7, trials=3)
        )
        direct = ProvMark(
            config=PipelineConfig(
                tool="camflow", trials=3, filtergraphs=True, seed=7
            ),
        )
        assert identical(
            response.result, direct.run_benchmark("open")
        )

    def test_run_with_store_roundtrip(self, tmp_path):
        store = str(tmp_path / "store")
        service = BenchmarkService()
        request = RunRequest(
            benchmark="open", tool="spade", seed=7, store_path=store
        )
        cold = service.run(request).result
        warm = service.run(request).result
        assert cold.timings.store_misses > 0
        assert warm.timings.store_misses == 0
        assert warm.timings.store_hits > 0
        assert cold.target_graph == warm.target_graph

    def test_batch_matches_legacy_run_many(self):
        names = ("open", "dup", "close")
        service = BenchmarkService()
        responses = service.run_batch(
            BatchRequest(benchmarks=names, tool="spade", seed=7)
        )
        driver = ProvMark(tool="spade", seed=7)
        direct = [driver.run_benchmark(name) for name in names]
        assert [r.result.benchmark for r in responses] == list(names)
        for response, expected in zip(responses, direct):
            assert identical(response.result, expected)

    def test_batch_default_suite_is_table2_order(self):
        service = BenchmarkService()
        assert service.resolve_batch_names(BatchRequest()) == list(TABLE2_ORDER)


class TestCatalogs:
    def test_tools_catalog(self):
        service = BenchmarkService()
        infos = {info.name: info for info in service.tools()}
        assert set(infos) >= {"spade", "opus", "camflow", "spade-camflow"}
        assert infos["camflow"].trials == 5
        assert infos["camflow"].filtergraphs is True
        assert infos["spade"].output_format == "dot"

    def test_tools_filtered(self):
        service = BenchmarkService()
        (info,) = service.tools(ToolQuery(name="opus"))
        assert info.name == "opus"

    def test_tools_unknown_name(self):
        with pytest.raises(NotFoundError, match="unknown tool"):
            BenchmarkService().tools(ToolQuery(name="dtrace"))

    def test_benchmarks_catalog(self):
        service = BenchmarkService()
        names = [info.name for info in service.benchmarks()]
        assert names == sorted(names)
        assert "open" in names and "pipe" in names


class TestErrors:
    def test_unknown_benchmark(self):
        with pytest.raises(NotFoundError, match="unknown benchmark"):
            BenchmarkService().run(RunRequest(benchmark="nosuch"))

    def test_unknown_tool(self):
        with pytest.raises(NotFoundError, match="unknown tool"):
            BenchmarkService().run(
                RunRequest(benchmark="open", tool="dtrace")
            )

    def test_unknown_profile(self):
        with pytest.raises(NotFoundError, match="unknown profile"):
            BenchmarkService().run(
                RunRequest(benchmark="open", profile="zzz")
            )

    def test_batch_with_unknown_name_fails_fast(self):
        with pytest.raises(NotFoundError, match="nosuch"):
            BenchmarkService().run_batch(
                BatchRequest(benchmarks=("open", "nosuch"))
            )

    def test_run_rejects_wrong_request_type(self):
        with pytest.raises(ValidationError):
            BenchmarkService().run(BatchRequest())

    def test_submit_validates_names_synchronously(self):
        service = BenchmarkService()
        with pytest.raises(NotFoundError):
            service.submit(RunRequest(benchmark="nosuch"))
        with pytest.raises(NotFoundError):
            service.submit(BatchRequest(benchmarks=("open",), tool="dtrace"))
        service.close()


class TestJobs:
    def test_submit_poll_run_job(self):
        with BenchmarkService() as service:
            request = RunRequest(benchmark="open", tool="spade", seed=7)
            job = service.submit(request)
            assert job.kind == "run" and job.total == 1
            status = wait_for(service, job.job_id)
            assert status.state == "done"
            assert status.completed == 1
            assert status.result is not None
            direct = service.run(request)
            assert identical(status.result.result, direct.result)
            assert status.started_at is not None
            assert status.finished_at >= status.started_at

    def test_batch_job_progress(self):
        with BenchmarkService() as service:
            job = service.submit(BatchRequest(
                benchmarks=("open", "dup"), tool="spade", seed=7
            ))
            assert job.total == 2
            status = wait_for(service, job.job_id)
            assert status.state == "done"
            assert status.completed == 2
            assert len(status.results) == 2
            # the final stage boundary observed was the last benchmark's
            assert status.stage.startswith("dup/")

    def test_poll_unknown_job(self):
        with pytest.raises(NotFoundError, match="unknown job"):
            BenchmarkService().poll("job-zzz")

    def test_cancel_running_job_stops_at_stage_boundary(self):
        with BenchmarkService() as service:
            # a long batch: cancel after the first completed benchmark
            job = service.submit(BatchRequest(
                benchmarks=tuple(TABLE2_ORDER), tool="camflow", seed=7
            ))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = service.poll(job.job_id)
                if status.state == "running" and status.stage:
                    break
                time.sleep(0.01)
            cancelled = service.cancel(job.job_id)
            assert cancelled.state in ("running", "cancelled")
            status = wait_for(service, job.job_id)
            assert status.state == "cancelled"
            assert status.completed < len(TABLE2_ORDER)

    def test_finished_jobs_evicted_past_retention_cap(self):
        from repro.exec import FleetJobManager

        class SmallManager(FleetJobManager):
            MAX_FINISHED_JOBS = 3

        manager = SmallManager(None, workers=4)
        with BenchmarkService(jobs=manager) as service:
            request = RunRequest(benchmark="open", tool="spade", seed=7)
            ids = []
            for _ in range(6):
                job = service.submit(request)
                wait_for(service, job.job_id)
                ids.append(job.job_id)
            # the oldest records are gone, the newest are pollable
            with pytest.raises(NotFoundError):
                service.poll(ids[0])
            assert service.poll(ids[-1]).state == "done"
            assert len(manager.jobs()) <= 4  # cap + the in-flight slot
        manager.shutdown()

    def test_driver_pool_is_shared_across_threads(self):
        # HTTP handler threads are short-lived: drivers must be reused
        # across threads, not rebuilt per thread
        import threading
        service = BenchmarkService()
        request = RunRequest(benchmark="open", tool="spade", seed=7)
        service.run(request)  # populate the pool

        seen = []
        orig = BenchmarkService._driver

        def spying_driver(req):
            seen.append(req)
            return orig(req)

        try:
            BenchmarkService._driver = staticmethod(spying_driver)
            thread = threading.Thread(target=lambda: service.run(request))
            thread.start()
            thread.join()
        finally:
            BenchmarkService._driver = staticmethod(orig)
        assert seen == []  # no rebuild: pooled driver was leased

    def test_close_keeps_jobs_pollable_and_refuses_new_work(self):
        service = BenchmarkService()
        request = RunRequest(benchmark="open", tool="spade", seed=7)
        job = service.submit(request)
        wait_for(service, job.job_id)
        service.close()
        # completed jobs survive close; new submissions are refused
        assert service.poll(job.job_id).state == "done"
        with pytest.raises(ValidationError, match="shut down"):
            service.submit(request)

    def test_close_with_cancel_stops_inflight_jobs(self):
        service = BenchmarkService()
        job = service.submit(BatchRequest(
            benchmarks=tuple(TABLE2_ORDER), tool="camflow", seed=7
        ))
        started = time.monotonic()
        service.close(cancel=True)
        assert time.monotonic() - started < 30  # not a full-suite wait
        status = service.poll(job.job_id)
        assert status.state == "cancelled"

    def test_unknown_job_error_does_not_leak_ids(self):
        with BenchmarkService() as service:
            job = service.submit(RunRequest(benchmark="open", seed=7))
            with pytest.raises(NotFoundError) as excinfo:
                service.poll("job-absent")
            assert job.job_id not in str(excinfo.value)
            wait_for(service, job.job_id)

    def test_cancel_queued_job(self):
        # a manager with one worker: the second job queues behind the first
        with BenchmarkService() as service:
            first = service.submit(BatchRequest(
                benchmarks=("open", "dup", "close"), tool="spade", seed=7
            ))
            jobs = [
                service.submit(RunRequest(benchmark="open", seed=7))
                for _ in range(8)
            ]
            cancelled = service.cancel(jobs[-1].job_id)
            # either it was still queued (cancelled instantly) or it
            # slipped into a worker; both resolve to a terminal state
            status = wait_for(service, jobs[-1].job_id)
            assert status.state in ("cancelled", "done")
            wait_for(service, first.job_id)


class TestInProcessJobs:
    """The manager a service builds on its first job: in memory, on
    thread slots, and absent until then."""

    def test_an_in_process_drain_touches_no_disk(self, monkeypatch):
        from repro.exec import queue as queue_module
        from repro.sched import policy as policy_module
        from repro.storage import artifacts

        def refuse(path, text):
            raise AssertionError(f"an in-process job wrote {path}")

        # the spool's records, the fair-share ledger and the store
        for module in (queue_module, policy_module, artifacts):
            monkeypatch.setattr(module, "write_text_atomic", refuse)
        with BenchmarkService() as service:
            jobs = [
                service.submit(RunRequest(
                    benchmark="open", tool="spade", seed=100 + i))
                for i in range(20)
            ]
            states = [wait_for(service, job.job_id).state for job in jobs]
        assert states == ["done"] * 20

    def test_leaving_the_service_runs_every_queued_job(self):
        # the block ends with more jobs queued than there are slots; the
        # exit drains the in-memory queue dry instead of stranding them
        with BenchmarkService() as service:
            jobs = [
                service.submit(RunRequest(
                    benchmark="open", tool="spade", seed=200 + i))
                for i in range(3 * BenchmarkService.JOB_SLOTS)
            ]
        states = [service.poll(job.job_id).state for job in jobs]
        assert states == ["done"] * len(jobs)

    def test_the_synchronous_path_loads_no_execution_plane(self):
        # the lazily built manager must cost suite_cold and scale_tail
        # nothing: no repro.exec module, no multiprocessing
        code = (
            "import sys\n"
            "from repro.api import BenchmarkService, RunRequest\n"
            "BenchmarkService().run(RunRequest(\n"
            "    benchmark='open', tool='spade', seed=5))\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'multiprocessing'\n"
            "             or name.startswith('repro.exec')))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_closed_service_refuses_jobs_it_never_started(self):
        service = BenchmarkService()
        service.close()
        with pytest.raises(ValidationError, match="shut down"):
            service.submit(RunRequest(benchmark="open", seed=7))


class TestProgressEvents:
    def test_stage_boundaries_are_emitted(self):
        events = []
        service = BenchmarkService()
        service.run(
            RunRequest(benchmark="open", tool="spade", seed=7),
            progress=events.append,
        )
        assert all(isinstance(e, ProgressEvent) for e in events)
        stages = [e.stage for e in events if e.status == "started"]
        assert stages == [
            "recording", "transformation", "generalization", "comparison"
        ]
        finished = [e for e in events if e.status == "finished"]
        assert len(finished) == 4
        assert all(e.benchmark == "open" for e in events)
        assert all(e.elapsed >= 0.0 for e in finished)


class TestDeprecationShims:
    """Neither the façade nor a directly built driver warns."""

    def test_facade_and_internal_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            BenchmarkService().run(
                RunRequest(benchmark="open", tool="spade", seed=1)
            )
            ProvMark(tool="spade", seed=1).run_benchmark("open")
