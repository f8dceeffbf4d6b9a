"""Façade and HTTP dispatch overhead vs direct pipeline calls (PR 3).

The typed API must be a zero-cost abstraction on the hot path: per-run
overhead of ``BenchmarkService.run(RunRequest)`` over driving the
pipeline driver directly must stay under 5% warm (request validation +
envelope construction only).  The HTTP round trip (``POST /v1/runs``
with ``wait=true`` against the embedded server) is measured alongside —
it adds serialization and a socket, so it is reported, not bounded.

Warm means a populated artifact store: every stage restores instead of
recomputing, which makes the pipeline as fast as it ever gets and the
measured ratio the *worst case* for dispatch overhead.  The HTTP
service rejects client-supplied ``store_path`` by design, so its leg is
measured storeless against a storeless direct baseline.  Results land
in ``benchmarks/output/BENCH_PR3.json``.
"""

import json
import shutil
import statistics
import tempfile
import threading
import time
import urllib.request

from repro.api import BenchmarkService, RunRequest
from repro.api.http import make_server
from repro.core.pipeline import PipelineConfig, ProvMark

from conftest import emit, record_bench

BENCHMARK = "open"
SEED = 5
REPEATS = 40
OVERHEAD_BUDGET = 0.05  # façade must stay within 5% of direct, warm


def measure(fn, repeats=REPEATS):
    """Median seconds per call after one warmup call."""
    fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_facade_and_http_overhead():
    store = tempfile.mkdtemp(prefix="provmark-api-bench-")
    try:
        request = RunRequest(
            benchmark=BENCHMARK, tool="spade", seed=SEED, store_path=store
        )
        config = PipelineConfig(tool="spade", seed=SEED, store_path=store)
        driver = ProvMark(config=config)
        service = BenchmarkService()

        driver.run_benchmark(BENCHMARK)  # populate the store once

        direct = measure(lambda: driver.run_benchmark(BENCHMARK))
        facade = measure(lambda: service.run(request))

        # HTTP leg: clients cannot pass store_path, so compare a
        # storeless POST against a storeless direct run.
        nostore_config = PipelineConfig(tool="spade", seed=SEED)
        nostore_driver = ProvMark(config=nostore_config)
        direct_nostore = measure(
            lambda: nostore_driver.run_benchmark(BENCHMARK)
        )
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        body = RunRequest(
            benchmark=BENCHMARK, tool="spade", seed=SEED
        ).to_payload()
        body["wait"] = True
        blob = json.dumps(body).encode("utf-8")

        def over_http():
            http_request = urllib.request.Request(
                f"http://{host}:{port}/v1/runs", data=blob,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(http_request, timeout=60) as resp:
                resp.read()

        http = measure(over_http)
        server.shutdown()
        server.server_close()
        service.close()

        facade_overhead = facade / direct - 1.0
        http_overhead = http / direct_nostore - 1.0
        lines = [
            f"direct pipeline (warm store) : {direct * 1e3:9.3f} ms/run",
            f"BenchmarkService.run         : {facade * 1e3:9.3f} ms/run "
            f"({facade_overhead:+.1%})",
            f"direct pipeline (no store)   : {direct_nostore * 1e3:9.3f} ms/run",
            f"POST /v1/runs (wait=true)    : {http * 1e3:9.3f} ms/run "
            f"({http_overhead:+.1%} vs storeless direct)",
            f"façade budget                : <{OVERHEAD_BUDGET:.0%}",
        ]
        emit("api_overhead", lines)
        record_bench("api_overhead", {
            "benchmark": BENCHMARK,
            "repeats": REPEATS,
            "direct_warm_s": direct,
            "facade_s": facade,
            "direct_nostore_s": direct_nostore,
            "http_s": http,
            "facade_overhead": facade_overhead,
            "http_overhead": http_overhead,
            "facade_budget": OVERHEAD_BUDGET,
        })
        assert facade_overhead < OVERHEAD_BUDGET, (
            f"façade dispatch costs {facade_overhead:.1%} over direct "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
