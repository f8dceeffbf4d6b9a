"""Mixed-priority load against an autoscaling fleet, in one transcript.

``provmark serve`` runs one worker, autoscaling to four, with a seeded
``stage_latency`` plan that makes a background flood genuinely
saturating.  An interactive submit must then jump the flood (strict
priority), the backlog must force at least one autoscale-up event onto
``/v1/metrics``, and SIGTERM must still drain cleanly.  The subprocess
timeouts are the hang guards.

A latency spec fires at its ``at``-th matching boundary in each worker
process, so the plan's first spec slows only each worker's first job;
one ``comparison`` spec per job a worker can run (up to the nine
submitted) slows every job.  Without them a worker past its first job
drained the flood at a few milliseconds a job while the interactive one
waited out a fresh worker's latency, and ``behind >= 3`` failed in about
one run in three after the other smoke tests (it reads 7 or 8 with them).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_interactive_jumps_a_background_flood_on_an_autoscaling_fleet(
    tmp_path,
):
    work = str(tmp_path)
    sched_path = os.path.join(work, "scheduler.json")
    with open(sched_path, "w") as handle:
        json.dump({
            "aging_wait": 30,
            "autoscale": {"backlog_per_worker": 1.0,
                          "scale_up_cooldown": 0.1,
                          "idle_grace": 60.0},
        }, handle)
    faults_path = os.path.join(work, "faults.json")
    with open(faults_path, "w") as handle:
        json.dump({"seed": 7, "specs": [
            {"kind": "stage_latency", "latency": 0.2, "times": 100},
        ] + [
            {"kind": "stage_latency", "stage": "comparison", "at": job,
             "latency": 0.2, "times": 100}
            for job in range(1, 10)
        ]}, handle)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--workers-min", "1", "--workers-max", "4",
         "--queue", os.path.join(work, "plane"), "--capacity", "64",
         "--scheduler", sched_path, "--faults", faults_path],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        base = line.split("serving on ")[1].split("/v1")[0]

        def call(method, path, body=None):
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            request = urllib.request.Request(
                base + path, data=data, headers=headers, method=method)
            with urllib.request.urlopen(request, timeout=120) as resp:
                return json.loads(resp.read())

        deadline = time.monotonic() + 60
        while True:
            try:
                health = call("GET", "/v1/health")
                break
            except (urllib.error.URLError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)
        assert health["status"] == "ok"
        assert "classes" in health["sched"], health

        # the flood: eight background runs against one slowed worker
        flood = [
            call("POST", "/v1/runs",
                 {"benchmark": name, "tool": "spade", "seed": 40 + i,
                  "priority": "background"})["job_id"]
            for i, name in enumerate(
                ["open", "read", "write", "close", "creat", "chmod",
                 "rename", "unlink"])
        ]
        # an interactive user shows up behind it
        status = call("POST", "/v1/runs",
                      {"benchmark": "open", "tool": "spade", "seed": 999})
        assert status["priority"] == "interactive", status
        job_id = status["job_id"]

        deadline = time.monotonic() + 180
        while True:
            done = call("GET", f"/v1/jobs/{job_id}")
            if done["state"] in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, done
            time.sleep(0.1)
        assert done["state"] == "done", done
        assert done["queue_wait"] is not None and done["queue_wait"] >= 0

        # interactive-first: when it finished, most of the earlier-
        # submitted flood was still waiting behind it
        behind = sum(
            1 for jid in flood
            if call("GET", f"/v1/jobs/{jid}")["state"] != "done"
        )
        assert behind >= 3, f"only {behind} background jobs still queued"
        for jid in flood:
            while call("GET", f"/v1/jobs/{jid}")["state"] not in (
                "done", "failed", "cancelled"
            ):
                assert time.monotonic() < deadline
                time.sleep(0.1)

        metrics = call("GET", "/v1/metrics")
        auto = metrics["gauges"]["jobs"]["queue"]["autoscale"]
        assert auto["scale_up_total"] >= 1, auto
        assert auto["max_workers"] == 4, auto
        classes = metrics["gauges"]["sched"]["classes"]
        assert classes["interactive"]["waited"] >= 1, classes
        assert (classes["interactive"]["wait_p50"]
                < classes["background"]["wait_p50"]), classes
        assert metrics["gauges"]["sched_promotions_total"] >= 0

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=90)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out, out
    finally:
        # the server and the worker processes it forked share a session
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
