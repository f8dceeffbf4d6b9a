"""JobManager under churn: many threads submitting, polling, cancelling.

Invariants the stress run enforces:

* a job observed in a terminal state (done/failed/cancelled) never
  reports a different state afterwards — terminal states are never
  lost or rewritten;
* every submitted job reaches a terminal state (nothing wedges);
* the finished-record retention cap (``MAX_FINISHED_JOBS`` = 256) holds
  at eviction points even when jobs finish and are cancelled
  concurrently with submissions;
* a poll may 404 only because an already-finished record was evicted —
  in-flight jobs are never evicted.
"""

import random
import threading
import time

from repro.api.errors import NotFoundError
from repro.api.jobs import JobManager
from repro.core.stages import ProgressEvent

TERMINAL = ("done", "failed", "cancelled")


class TinyRunService:
    """Stands in for BenchmarkService: a few progress beats, then done.

    Calling ``progress`` gives the manager its usual cancellation
    points; returning ``None`` is a valid "no result envelope" for the
    JobStatus snapshot.
    """

    def run(self, request, progress=None):
        for _ in range(3):
            if progress is not None:
                progress(ProgressEvent(
                    benchmark="stub", stage="stage", status="finished"
                ))
            time.sleep(0.0002)
        return None


class StubRequest:
    """A request the stub service never reads."""


def test_concurrent_submit_poll_cancel_churn():
    manager = JobManager(max_workers=8)
    service = TinyRunService()
    jobs_per_submitter, submitters = 75, 8  # 600 jobs >> the 256 cap
    submitted = []
    submitted_lock = threading.Lock()
    terminal_seen = {}
    violations = []
    stop_polling = threading.Event()

    def submitter(seed):
        rng = random.Random(seed)
        for _ in range(jobs_per_submitter):
            status = manager.submit(service, StubRequest(), "run", 1)
            with submitted_lock:
                submitted.append(status.job_id)
            if rng.random() < 0.25:
                manager.cancel(status.job_id)

    def poller(seed):
        rng = random.Random(seed)
        while not stop_polling.is_set():
            with submitted_lock:
                job_id = rng.choice(submitted) if submitted else None
            if job_id is None:
                time.sleep(0.001)
                continue
            try:
                status = manager.poll(job_id)
            except NotFoundError:
                # only finished records are evicted; reaching here after
                # the record was dropped is the allowed outcome
                continue
            if status.state in TERMINAL:
                first = terminal_seen.setdefault(job_id, status.state)
                if first != status.state:
                    violations.append((job_id, first, status.state))
            time.sleep(0.0005)

    submitter_threads = [
        threading.Thread(target=submitter, args=(seed,))
        for seed in range(submitters)
    ]
    poller_threads = [
        threading.Thread(target=poller, args=(100 + seed,))
        for seed in range(4)
    ]
    for thread in submitter_threads + poller_threads:
        thread.start()
    for thread in submitter_threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "submitter wedged"

    # every job must reach a terminal state
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        snapshot = manager.jobs()
        if all(job.state in TERMINAL for job in snapshot):
            break
        time.sleep(0.01)
    else:
        raise AssertionError("jobs did not all reach a terminal state")

    stop_polling.set()
    for thread in poller_threads:
        thread.join(timeout=10)
        assert not thread.is_alive(), "poller wedged"

    assert not violations, f"terminal states changed: {violations[:5]}"

    # one more submit runs the eviction pass with everything quiesced:
    # retained finished records must respect the cap
    final = manager.submit(service, StubRequest(), "run", 1)
    finished = [
        job for job in manager.jobs()
        if job.state in TERMINAL and job.job_id != final.job_id
    ]
    assert len(finished) <= JobManager.MAX_FINISHED_JOBS

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if manager.poll(final.job_id).state in TERMINAL:
            break
        time.sleep(0.01)
    manager.shutdown(wait=True)

    # a terminal poll after shutdown still answers (records retained)
    assert manager.poll(final.job_id).state in TERMINAL
