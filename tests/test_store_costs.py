"""Deterministic cost ceilings for the artifact store's file I/O.

The pipeline keeps one store file per key: a run's file holds its
foreground's generalization, comparison and result sections, and a
background's file that background's generalization.  Recording and
transformation keep no section: a generalization section stands in for
them.  A new file costs a create (a temp file renamed into place), far
more kernel time than the bytes it holds, so these tests count file
creations and bytes (calls to ``write_text_atomic``), store reads
(``ArtifactStore.load`` calls), and the trials encoded:

* a cold three-tool Table 2 sweep at seed 5 through one
  ``BenchmarkService`` creates at most 147 files: 132 run files and 15
  background files, one per tool for each of the 5 shared backgrounds
  (a file per variant made 279, a file per stage and key 705).  It
  writes at most 1.4 MB (4.49 MB when each variant's file held its
  recording and transformation) and encodes no trial (441
  ``RecordedTrial.to_payload`` calls did);
* a warm pass over the same store creates no file: a result that
  differs from the stored one only in wall clocks and store counters
  keeps the stored one (each run file was rewritten, 132 in all,
  before).  It reads 2 files per run (and once decoded 792 trials and
  792 transformed graphs);
* a warm, non-resume ``open``/spade run reads at most 2 files (the
  background's and the run's; a file per variant read 3, a file per
  stage and variant 7);
* a stored result whose counters differ from a fresh one (say, written
  by an older solver) is rewritten once, then kept.
"""

from __future__ import annotations

import json

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.core.pipeline import ProvMark
from repro.core.recording import RecordedTrial
from repro.storage import artifacts
from repro.storage.artifacts import ArtifactStore
from repro.suite.registry import TABLE2_ORDER
from tests.conftest import stage_files

TOOLS = ("spade", "opus", "camflow")


@pytest.fixture
def created(monkeypatch):
    """The path and byte size of every store file created from now on."""
    real = artifacts.write_text_atomic
    files = []

    def counting(path, text):
        files.append((path, len(text.encode())))
        return real(path, text)

    monkeypatch.setattr(artifacts, "write_text_atomic", counting)
    return files


@pytest.fixture
def reads(monkeypatch):
    """The kind of every store file read from now on."""
    real = ArtifactStore.load
    kinds = []

    def counting(store, stage, material):
        kinds.append(stage)
        return real(store, stage, material)

    monkeypatch.setattr(ArtifactStore, "load", counting)
    return kinds


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the trial encoder, from now on."""
    counts = {}

    def count(owner, name):
        real = getattr(owner, name)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(RecordedTrial, "to_payload")
    return counts


def test_table2_sweep_creates_one_file_per_key(
    tmp_path, created, reads, calls
):
    store = str(tmp_path / "store")
    requests = [
        RunRequest(benchmark=name, tool=tool, seed=5, store_path=store)
        for tool in TOOLS for name in TABLE2_ORDER
    ]
    with BenchmarkService() as service:
        for request in requests:
            service.run(request)
        # a file per variant: 279; a file per stage and key: 705
        assert len(created) <= 147
        assert sum(size for _, size in created) <= 1_400_000  # was 4.49 MB
        assert len(list((tmp_path / "store" / "variant").iterdir())) == 15
        assert len(list((tmp_path / "store" / "run").iterdir())) == 132
        # no recording section built: was 441 trials encoded
        assert calls["to_payload"] == 0
        created.clear()
        reads.clear()
        for request in requests:
            assert service.run(request).result.timings.store_row() == {
                "store_hits": 4, "store_misses": 0,
            }
        # the stored results stand: was 132, every run file rewritten
        assert created == []
        assert len(reads) <= 2 * len(requests)  # a file per variant: 3


def test_warm_run_reads_each_key_once(tmp_path, reads):
    ProvMark(tool="spade", seed=5, store_path=str(tmp_path)).run_benchmark(
        "open"
    )
    reads.clear()
    warm = ProvMark(tool="spade", seed=5, store_path=str(tmp_path))
    assert warm.run_benchmark("open").timings.store_hits == 4
    # a file per variant: 3; one read per stage and variant: 7
    assert len(reads) <= 2
    assert sorted(reads) == ["run", "variant"]


def test_a_stale_result_is_rewritten_once(tmp_path, created):
    def run():
        provmark = ProvMark(tool="spade", seed=5, store_path=str(tmp_path))
        return provmark.run_benchmark("open")

    cold = run()
    [(path, wrapper)] = stage_files(tmp_path, "result")
    wrapper["payload"]["result"]["timings"]["solver_searches"] += 1
    path.write_text(json.dumps(wrapper))
    created.clear()
    warm = run()
    assert warm.timings.solver_row() == cold.timings.solver_row()
    assert [path.parent.name for path, _ in created] == ["run"]
    created.clear()
    run()
    assert created == []
