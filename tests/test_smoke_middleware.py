"""The full middleware chain over a live fleet plane, in one transcript.

``provmark serve`` runs with ``--workers`` and a seeded
``stage_latency`` fault plan behind auth, rate limiting, idempotency and
an access log.  The transcript rejects an untokened request, replays a
seeded run byte for byte from the response cache, follows a slowed job
over SSE to its terminal event, and checks that ``/v1/metrics`` renders
what happened.  The subprocess timeouts are the hang guards.
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


def test_full_chain_over_the_fleet_plane(tmp_path):
    work = str(tmp_path)
    config_path = os.path.join(work, "middleware.json")
    with open(config_path, "w") as handle:
        json.dump({
            "access_log": {"path": os.path.join(work, "access.log")},
            "auth": {"tokens": {
                "reader": {"client": "dash", "role": "read"},
                "runner": {"client": "ci", "role": "submit"},
            }},
            "ratelimit": {"rate": 100, "burst": 200},
            "idempotency": {"store": os.path.join(work, "cache")},
        }, handle)
    faults_path = os.path.join(work, "faults.json")
    with open(faults_path, "w") as handle:
        json.dump({"seed": 7, "specs": [
            {"kind": "stage_latency", "latency": 0.2, "times": 8},
        ]}, handle)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--queue", os.path.join(work, "plane"),
         "--capacity", "16", "--middleware", config_path,
         "--faults", faults_path],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        base = line.split("serving on ")[1].split("/v1")[0]

        def call(method, path, body=None, token=None):
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            if token:
                headers["Authorization"] = f"Bearer {token}"
            request = urllib.request.Request(
                base + path, data=data, headers=headers, method=method)
            with urllib.request.urlopen(request, timeout=120) as resp:
                return resp.status, dict(resp.headers), resp.read()

        # readiness: /v1/health needs no token, ever
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _, raw = call("GET", "/v1/health")
                break
            except (urllib.error.URLError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)
        assert json.loads(raw)["status"] == "ok"

        # auth: no token -> 401 + challenge
        try:
            call("GET", "/v1/tools")
            raise AssertionError("untokened request passed auth")
        except urllib.error.HTTPError as error:
            assert error.code == 401, error.code
            assert error.headers["WWW-Authenticate"] == "Bearer"

        # idempotent replay: same seeded run, byte-identical bytes
        body = {"benchmark": "open", "tool": "spade", "seed": 5,
                "wait": True}
        _, first_headers, first = call("POST", "/v1/runs", body, "runner")
        _, replay_headers, replay = call("POST", "/v1/runs", body, "runner")
        assert first == replay, "replay is not byte-identical"
        assert "X-Idempotent-Replay" not in first_headers
        assert replay_headers["X-Idempotent-Replay"] == "auto"

        # SSE under load: two async jobs chew through stage_latency on
        # the worker fleet while one is streamed to its terminal
        _, _, raw = call("POST", "/v1/runs",
                         {"benchmark": "read", "tool": "spade"}, "runner")
        call("POST", "/v1/runs",
             {"benchmark": "write", "tool": "spade"}, "runner")
        job_id = json.loads(raw)["job_id"]
        status, headers, raw = call(
            "GET", f"/v1/jobs/{job_id}/events?poll=0.1", token="reader")
        assert headers["Content-Type"] == "text/event-stream", headers
        frames = [f.splitlines() for f in
                  raw.decode().strip().split("\n\n")]
        names = [f[0].split(": ", 1)[1] for f in frames]
        assert names[0] == "snapshot" and names[-1] == "done", names

        # /v1/metrics renders everything the transcript did
        _, _, raw = call("GET", "/v1/metrics", token="reader")
        metrics = json.loads(raw)
        assert metrics["counters"]["http_requests_total"], metrics
        assert metrics["counters"]["idempotency_replay_total"]["auto"] == 1
        assert metrics["gauges"]["response_cache"]["hits"] >= 1
        assert metrics["counters"]["auth_denied_total"]["anonymous"] == 1
        with open(os.path.join(work, "access.log")) as handle:
            lines = [json.loads(entry) for entry in handle]
        assert any(entry["client_id"] == "ci" for entry in lines), lines

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=90)
        assert proc.returncode == 0, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
