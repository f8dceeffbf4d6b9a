"""Deterministic ceilings on what a run builds only to throw away.

A ``scale_tail`` pass spends a tenth of its time in the cyclic garbage
collector, and a gen0 collection runs once per ``gc.get_threshold()[0]``
container objects allocated and not yet freed.  So these tests count
allocations, not time:

* a storeless seed-5 scale-major pass (scale32 and scale128 under
  spade, opus and camflow through one ``BenchmarkService``) builds no
  store section: 0 calls to ``RecordedTrial.to_payload``,
  ``graph_to_payload``, ``GeneralizationOutcome.to_payload`` and
  ``ComparisonOutcome.to_payload`` (36, 54, 12 and 6 when every stage
  built its section whether or not the run had a store to keep it in;
  the 54 graphs are 36 trials, 12 generalized and 6 comparison
  targets);
* ``CamFlowCapture.record`` builds no ``PropertyGraph`` (one per trial
  when the capture built a graph to render as PROV-JSON);
* a warm seed-5 scale-major pass in a fresh interpreter allocates few
  enough containers: gen0 collections times the gen0 threshold, read
  through ``gc.callbacks`` with the interpreter's own thresholds, stays
  under :data:`GEN0_ALLOCATION_CEILING`.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from repro.api import BenchmarkService, RunRequest
from repro.capture.camflow import CamFlowCapture
from repro.core.compare import ComparisonOutcome
from repro.core.generalize import GeneralizationOutcome
from repro.core.recording import RecordedTrial
from repro.graph.model import PropertyGraph
from repro.storage import artifacts
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import get_benchmark

SEED = 5
TOOLS = ("spade", "opus", "camflow")

#: gen0 collections x gen0 threshold over a warm scale-major pass.
#: Readings with a section built per stage, a graph per CamFlow trial
#: and two adjacency lists per node: 131k (CPython 3.10), 128k (3.11),
#: 132k (3.12), 98k (3.13, threshold 2000).  Without them: 98k, 94k,
#: 92k and 72k.  The ceiling is the highest of these plus 5%.
GEN0_ALLOCATION_CEILING = 103_000


def scale_major_pass(service: BenchmarkService) -> None:
    """``scale_tail``'s order: each scale row under each tool."""
    for scale in ("scale32", "scale128"):
        for tool in TOOLS:
            result = service.run(
                RunRequest(benchmark=scale, tool=tool, seed=SEED)
            ).result
            assert result.classification.value == "ok"


def test_a_storeless_pass_builds_no_store_section(monkeypatch):
    calls = {}

    def counting(name, real):
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for cls in (RecordedTrial, GeneralizationOutcome, ComparisonOutcome):
        monkeypatch.setattr(
            cls, "to_payload",
            counting(f"{cls.__name__}.to_payload", cls.to_payload),
        )
    # every module that imported the codec by name calls its own binding
    real = artifacts.graph_to_payload
    counted = counting("graph_to_payload", real)
    for module in list(sys.modules.values()):
        if getattr(module, "graph_to_payload", None) is real:
            monkeypatch.setattr(module, "graph_to_payload", counted)
    with BenchmarkService() as service:
        scale_major_pass(service)
    assert calls == {
        "RecordedTrial.to_payload": 0,
        "GeneralizationOutcome.to_payload": 0,
        "ComparisonOutcome.to_payload": 0,
        "graph_to_payload": 0,
    }


def test_camflow_capture_builds_no_graph(monkeypatch):
    built = []
    real = PropertyGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    trace = ProgramExecutor(get_benchmark("scale32"), seed=SEED).run(True).trace
    monkeypatch.setattr(PropertyGraph, "__init__", counted)
    text = CamFlowCapture().record(trace, random.Random(SEED))
    assert '"activity"' in text
    assert built == []


GEN0_PROBE = """
import gc
from repro.api import BenchmarkService, RunRequest

collections = [0]

def count(phase, info):
    if phase == "start" and info["generation"] == 0:
        collections[0] += 1

def scale_major_pass(service):
    for scale in ("scale32", "scale128"):
        for tool in ("spade", "opus", "camflow"):
            service.run(RunRequest(benchmark=scale, tool=tool, seed=5))

with BenchmarkService() as service:
    scale_major_pass(service)
    gc.callbacks.append(count)
    scale_major_pass(service)
    gc.callbacks.remove(count)
print(collections[0] * gc.get_threshold()[0])
"""


def test_a_warm_scale_major_pass_allocates_under_its_ceiling():
    # The probe imports only what a service user imports (this module
    # imports more, which shifts the reading by a few collections), so
    # it spells out its own copy of scale_major_pass.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", GEN0_PROBE], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    allocations = int(done.stdout.split()[-1])
    assert 0 < allocations <= GEN0_ALLOCATION_CEILING
