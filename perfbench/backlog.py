"""The ``service_backlog`` workload: open-loop HTTP bursts.

The server runs in this process: :func:`repro.api.http.make_server` with
a metrics + access-log + auth middleware chain over a
:class:`~repro.exec.FleetJobManager` with no local workers and a cluster
coordinator.  One ``provmark agent --workers 2`` subprocess executes the
jobs.  There is no idempotency layer (its automatic mode would answer a
repeated seeded body without spooling a job) and no rate limit (a burst
would be refused).

N async ``POST /v1/runs`` requests go out in ``BURSTS`` bursts, one after
the other.  All requests of a burst are due at its t0 and are sent back
to back by one client thread; a second thread polls ``GET /v1/jobs/<id>``
oldest-first, so it sees each job finish before the spool evicts it
(the manager keeps at most ``MAX_FINISHED_JOBS`` finished records).  A
job the poller never sees finish counts as lost.  A job's latency runs
from its burst's t0 to its ``finished_at``; a burst's times are scaled
to the reference host speed by the mean of kernel samples taken before,
during and after it (``calibrate.py``).

Jobs cycle through the 132 seeded Table 2 cells in an order drawn from
the benchmark seed.  Set-up runs every cell once into the agent's
artifact store, so each job reads one stored result, and keeps the
direct results as the oracle: each job's result must equal the direct
run of its cell.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import BenchmarkService, RunRequest
from repro.api.http import make_server
from repro.core.result import BenchmarkResult
from repro.exec import FleetJobManager
from repro.middleware import build_chain

from calibrate import Pace
from spans import Tracer
from workloads import Measurement, pipeline_seeds, result_digest, table2_cells

TOKEN = "bench-submit-token"
CLUSTER_TOKEN = "bench-cluster-token"
TERMINAL = ("done", "failed", "cancelled")


class ServiceBacklog:
    """Open-loop burst: HTTP -> middleware -> sched -> spool -> agent."""

    #: jobs per second of ``--seconds`` (a fixed input size for a given
    #: run length: 375 jobs at 15 s, past the spool's 256-record finished
    #: cap, so eviction happens in the fourth and fifth bursts)
    JOBS_PER_SECOND = 25
    #: bursts the jobs are sent in, one after the other
    BURSTS = 5
    #: seconds the poller waits for a burst's last job before counting
    #: the rest as lost
    DRAIN_TIMEOUT = 120.0
    #: seconds between polls of a job that has not finished yet (latency
    #: is taken from the job's ``finished_at``, not from the poll)
    POLL_INTERVAL = 0.1

    def __init__(
        self, seed: int, scratch: Path, src: Path,
        cells: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.src = src
        self.cells = list(cells) if cells is not None else table2_cells()
        self.pipeline_seed = pipeline_seeds(seed, 1)[0]
        self.expected: Dict[Tuple[str, str], str] = {}
        self._generation = 0
        self.manager: Optional[FleetJobManager] = None
        self.server = None
        self._serving: Optional[threading.Thread] = None
        self.agent: Optional[subprocess.Popen] = None
        self._current_post: List[Optional[int]] = [None]

    # -- lifecycle ---------------------------------------------------------

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Plane, coordinator, HTTP server, warmed agent store, agent;
        with a tracer, the request path's calls record spans."""
        self.teardown()
        self._generation += 1
        root = self.scratch / f"service-{self._generation}"
        agent_plane = root / "agent"
        self.manager = FleetJobManager(
            root / "plane", workers=0, cluster_port=0,
            cluster_token=CLUSTER_TOKEN,
        )
        chain = build_chain({
            "metrics": True,
            "access_log": {"path": str(root / "access.log")},
            "auth": {"tokens": {TOKEN: {"client": "bench", "role": "submit"}}},
        })
        self.server = make_server(
            BenchmarkService(jobs=self.manager), port=0, chain=chain
        )
        self._serving = threading.Thread(
            target=self.server.serve_forever, name="bench-http", daemon=True
        )
        self._serving.start()
        self._warm_store(agent_plane / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        self.agent = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "agent",
                "--coordinator", self.manager.coordinator.address,
                "--workers", "2", "--plane", str(agent_plane),
                "--token", CLUSTER_TOKEN,
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60.0
        while self.manager.coordinator.remote_workers() < 2:
            if self.agent.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("cluster agent did not join the fleet")
            time.sleep(0.01)
        if tracer is not None:
            self._instrument(tracer)

    def _warm_store(self, store: Path) -> None:
        """Run every cell once into the agent store; keep the oracle."""
        direct = BenchmarkService()
        try:
            for name, tool in self.cells:
                result = direct.run(RunRequest(
                    benchmark=name, tool=tool, seed=self.pipeline_seed,
                    store_path=str(store),
                )).result
                self.expected[(name, tool)] = result_digest(result)
        finally:
            direct.close()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._serving.join(timeout=10.0)
            self.server = None
        if self.agent is not None:
            self._stop_agent()
        if self.manager is not None:
            self.manager.shutdown(wait=False)
            self.manager = None
        shutil.rmtree(
            self.scratch / f"service-{self._generation}", ignore_errors=True
        )

    def _stop_agent(self) -> None:
        """SIGTERM (the agent drains its workers), then SIGKILL the group."""
        agent, self.agent = self.agent, None
        if agent.poll() is None:
            agent.send_signal(signal.SIGTERM)
            try:
                agent.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(agent.pid, signal.SIGKILL)  # workers left behind
        except OSError:
            pass
        agent.wait()

    def _instrument(self, tracer: Tracer) -> None:
        """Wrap submit, admission, spool and claim/complete calls."""
        manager = self.manager
        current = self._current_post

        def note_status(record, status) -> None:
            record["run"] = status.job_id

        def note_job(record, job) -> None:
            record["empty"] = job is None
            if job is not None:
                record["run"] = str(job["job_id"])

        def note_records(record, records) -> None:
            record["records"] = len(records)

        tracer.wrap(
            manager, "submit", "exec.submit",
            parent_of=lambda: current[0], on_result=note_status,
        )
        tracer.wrap(manager.admission, "admit", "sched.admit")
        tracer.wrap(
            manager.queue, "submit", "exec.queue_submit", on_result=note_job
        )
        tracer.wrap(
            manager.queue, "records", "exec.records", on_result=note_records
        )
        coordinator_queue = manager.coordinator.queue
        tracer.wrap(
            coordinator_queue, "claim", "cluster.claim", on_result=note_job
        )
        tracer.wrap(
            coordinator_queue, "complete", "cluster.complete",
            on_result=note_job,
        )

    # -- measurement -------------------------------------------------------

    def job_order(self, count: int) -> List[Tuple[str, str]]:
        """``count`` jobs cycling through the cells in a seeded order."""
        order = list(self.cells)
        random.Random(f"job-order/{self.seed}").shuffle(order)
        return [order[i % len(order)] for i in range(count)]

    def _call(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """(status, JSON body) of one request; a transport error is 0."""
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
                headers={
                    "Authorization": f"Bearer {TOKEN}",
                    "Content-Type": "application/json",
                },
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            conn.close()

    def measure(self, seconds: float, tracer: Tracer) -> Measurement:
        m = Measurement()
        jobs = self.job_order(max(1, int(seconds * self.JOBS_PER_SECOND)))
        m.attempted = len(jobs)
        size = -(-len(jobs) // self.BURSTS)
        timeline: Dict[str, list] = {"waits": [], "runs": [], "events": []}
        pace = Pace()
        for first in range(0, len(jobs), size):
            burst = jobs[first:first + size]
            with pace.beside() as mark:
                t0_wall, statuses = self._burst(m, tracer, burst, first)
            self._score(
                m, burst, statuses, t0_wall, pace.factor_since(mark), timeline
            )
        m.pace_ms = pace.samples_ms
        depth = peak = 0
        for _stamp, step in sorted(timeline["events"]):
            depth += step
            peak = max(peak, depth)
        m.counts["peak_pending"] = peak
        m.counts["queue_wait_ms"] = _mean(timeline["waits"])
        m.counts["run_ms"] = _mean(timeline["runs"])
        stats = self.manager.queue_stats()
        m.counts["evicted"] = stats["evicted"]
        m.counts.update(
            (f"cluster.{key}", value) for key, value in
            self.manager.coordinator.stats()["counters"].items()
        )
        return m

    def _burst(
        self,
        m: Measurement,
        tracer: Tracer,
        jobs: List[Tuple[str, str]],
        first: int,
    ) -> Tuple[float, List[Optional[dict]]]:
        """Send one burst, all due now; (t0, each job's last status)."""
        job_ids: List[Optional[str]] = [None] * len(jobs)
        sent = threading.Semaphore(0)
        statuses: List[Optional[dict]] = [None] * len(jobs)
        t0_wall = time.time()
        t0 = time.perf_counter()

        def client() -> None:
            for index, (name, tool) in enumerate(jobs):
                body = {"benchmark": name, "tool": tool,
                        "seed": self.pipeline_seed}
                try:
                    run = str(first + index)
                    with tracer.span("api.post", run=run) as span:
                        self._current_post[0] = span.get("id")
                        started = time.perf_counter()
                        code, payload = self._call(
                            "POST", "/v1/runs", body
                        )
                        m.submit_ms.append(
                            1e3 * (time.perf_counter() - started)
                        )
                    self._current_post[0] = None
                    if code == 202:
                        job_ids[index] = span["run"] = str(payload["job_id"])
                    else:
                        statuses[index] = {"state": f"refused:{code}"}
                finally:
                    sent.release()  # the poller waits for every job
            m.counts["generator_lag_ms"] = max(
                m.counts.get("generator_lag_ms", 0.0), 1e3 * (started - t0)
            )

        def poller() -> None:
            deadline = time.monotonic() + self.DRAIN_TIMEOUT
            for index in range(len(jobs)):
                sent.acquire()
                job_id = job_ids[index]
                while job_id is not None and time.monotonic() < deadline:
                    code, payload = self._call("GET", f"/v1/jobs/{job_id}")
                    if code == 404 or payload.get("state") in TERMINAL:
                        statuses[index] = (
                            payload if code == 200 else {"state": "lost"}
                        )
                        break
                    time.sleep(self.POLL_INTERVAL)

        threads = [
            threading.Thread(target=client, name="bench-client"),
            threading.Thread(target=poller, name="bench-poller"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return t0_wall, statuses

    def _score(
        self,
        m: Measurement,
        jobs: List[Tuple[str, str]],
        statuses: List[Optional[dict]],
        t0_wall: float,
        scale: float,
        timeline: Dict[str, list],
    ) -> None:
        """Oracle, latencies and throughput of one burst; job latencies
        and the drain time are multiplied by ``scale``.  Queue waits, run
        times and submit/start events go to ``timeline``."""
        finished: List[float] = []
        for (name, tool), status in zip(jobs, statuses):
            state = (status or {}).get("state", "lost")
            if state != "done":
                m.note_failure(f"{name}/{tool}: job {state}")
                continue
            result = BenchmarkResult.from_payload(status["result"]["result"])
            # stage seconds are the stored run's; the store counters are
            # this job's (every stage served from the agent's store)
            m.rows.append({
                "run": status["job_id"],
                "store_hits": result.timings.store_hits,
                "store_misses": result.timings.store_misses,
            })
            if result_digest(result) != self.expected[(name, tool)]:
                m.note_failure(
                    f"{name}/{tool}: job result differs from the direct run",
                    wrong=True,
                )
            submitted = float(status["submitted_at"])
            started = float(status["started_at"])
            done = float(status["finished_at"])
            finished.append(done)
            timeline["waits"].append(1e3 * (started - submitted))
            timeline["runs"].append(1e3 * (done - started))
            timeline["events"] += [(submitted, 1), (started, -1)]
            m.latencies_ms.append(1e3 * (done - t0_wall) * scale)
        m.completed += len(finished)
        if finished:
            m.wall_s += (max(finished) - t0_wall) * scale


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
