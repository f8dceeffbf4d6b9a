"""A multi-host fleet under dropped connections, in one transcript.

A coordinator-only ``provmark serve`` and two localhost agents work a
seeded set of runs while the coordinator drops connections mid-reply.
The results must come back byte-identical to direct single-host runs,
``/v1/metrics`` must render the fleet, and SIGTERM must drain the agents
and then the coordinator cleanly.  The subprocess timeouts are the hang
guards.
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

from repro.api import BenchmarkService, RunRequest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_two_agents_serve_byte_identical_runs_under_conn_drop(tmp_path):
    work = str(tmp_path)
    plane = os.path.join(work, "plane")
    faults_path = os.path.join(work, "faults.json")
    with open(faults_path, "w") as handle:
        # each spec fires once, on its at-th matching op in the one
        # coordinator process: exactly three drops in all
        json.dump({"seed": 7, "specs": [
            {"kind": "conn_drop", "op": "complete", "times": 1},
            {"kind": "conn_drop", "op": "claim", "at": 3, "times": 1},
            {"kind": "conn_drop", "op": "update_progress", "at": 2},
        ]}, handle)
    env = dict(os.environ, PYTHONPATH=SRC)

    procs = []
    try:
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "0", "--cluster", "0", "--queue", plane,
             "--faults", faults_path],
            env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        procs.append(serve)
        line = serve.stdout.readline()
        assert "serving on http://" in line, line
        base = line.split("serving on ")[1].split("/v1")[0]
        line = serve.stdout.readline()
        assert "cluster coordinator on " in line, line
        address = line.split("cluster coordinator on ")[1].split(" ")[0]

        agents = []
        for n in ("one", "two"):
            agent = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "agent",
                 "--coordinator", address, "--workers", "1",
                 "--plane", plane, "--node-id", f"agent-{n}",
                 "--poll", "0.05"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, start_new_session=True,
            )
            procs.append(agent)
            agents.append(agent)

        def call(method, path, body=None):
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            request = urllib.request.Request(
                base + path, data=data, headers=headers, method=method)
            with urllib.request.urlopen(request, timeout=120) as resp:
                return json.loads(resp.read())

        deadline = time.monotonic() + 90
        while True:
            try:
                fleet = call("GET", "/v1/cluster")
                if fleet["remote_workers"] == 2:
                    break
            except (urllib.error.URLError, OSError):
                pass
            assert time.monotonic() < deadline, "agents never joined"
            time.sleep(0.2)
        # registration order is a race between the two agents
        assert sorted(n["node_id"] for n in fleet["nodes"]) == [
            "agent-one", "agent-two"], fleet

        # a seeded set of runs, worked fleet-wide under conn_drop
        names = ["open", "read", "write", "close", "creat",
                 "chmod", "rename", "unlink", "dup", "pipe"]
        jobs = {
            name: call("POST", "/v1/runs",
                       {"benchmark": name, "tool": "spade",
                        "seed": 2019})["job_id"]
            for name in names
        }
        results = {}
        deadline = time.monotonic() + 240
        for name, job_id in jobs.items():
            while True:
                status = call("GET", f"/v1/jobs/{job_id}")
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                assert time.monotonic() < deadline, (name, status)
                time.sleep(0.1)
            assert status["state"] == "done", (name, status)
            results[name] = status["result"]

        # byte-identical to direct single-host runs, minus wall clock
        service = BenchmarkService()
        for name in names:
            direct = service.run(RunRequest(
                benchmark=name, tool="spade", seed=2019)).to_payload()
            fleet_result = results[name]
            direct["result"].pop("timings")
            fleet_result["result"].pop("timings")
            assert fleet_result == direct, f"{name} diverged"

        metrics = call("GET", "/v1/metrics")
        assert metrics["gauges"]["cluster_nodes"] == 2, metrics
        assert metrics["gauges"]["cluster_claims_total"] >= len(names)
        counters = metrics["gauges"]["cluster"]["counters"]
        # a renamed or misspelled op would fire nothing: count exactly
        assert counters["conn_drops_total"] == 3, counters

        # fleet-wide SIGTERM order: agents drain and leave, then the
        # coordinator-only serve drains cleanly
        for agent in agents:
            agent.send_signal(signal.SIGTERM)
        for agent in agents:
            out, _ = agent.communicate(timeout=90)
            assert agent.returncode == 0, out
        serve.send_signal(signal.SIGTERM)
        out, _ = serve.communicate(timeout=90)
        assert serve.returncode == 0, out
        assert "drained cleanly" in out, out
    finally:
        # each server and agent leads a session holding its workers
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
