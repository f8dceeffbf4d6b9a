"""Deterministic cost ceilings for the artifact store's file I/O.

The pipeline keeps one store file per key: a variant file holds that
variant's recording, transformation and generalization sections, a run
file the run's comparison and result.  A new file costs a create (a
temp file renamed into place), far more kernel time than the bytes it
holds, so these tests count file creations (calls to
``write_text_atomic``) and store reads (``ArtifactStore.load`` calls):

* a cold three-tool Table 2 sweep at seed 5 through one
  ``BenchmarkService`` creates at most 279 files: 147 variant files
  (44 foregrounds and 5 shared backgrounds per tool) and 132 run files
  (one file per stage and key created 705);
* a warm pass over the same store creates at most 132, the run files
  whose refreshed result is the one new section;
* a warm, non-resume ``open``/spade run reads at most 3 files (both
  variants' and the run's; one read per stage and variant made 7).
"""

from __future__ import annotations

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.core.pipeline import ProvMark
from repro.storage import artifacts
from repro.storage.artifacts import ArtifactStore
from repro.suite.registry import TABLE2_ORDER

TOOLS = ("spade", "opus", "camflow")


@pytest.fixture
def created(monkeypatch):
    """The path of every store file created from now on."""
    real = artifacts.write_text_atomic
    paths = []

    def counting(path, text):
        paths.append(path)
        return real(path, text)

    monkeypatch.setattr(artifacts, "write_text_atomic", counting)
    return paths


@pytest.fixture
def reads(monkeypatch):
    """The stage of every store read from now on."""
    real = ArtifactStore.load
    stages = []

    def counting(store, stage, material):
        stages.append(stage)
        return real(store, stage, material)

    monkeypatch.setattr(ArtifactStore, "load", counting)
    return stages


def test_table2_sweep_creates_one_file_per_key(tmp_path, created):
    store = str(tmp_path / "store")
    requests = [
        RunRequest(benchmark=name, tool=tool, seed=5, store_path=store)
        for tool in TOOLS for name in TABLE2_ORDER
    ]
    with BenchmarkService() as service:
        for request in requests:
            service.run(request)
        assert len(created) <= 279  # one file per stage and key: 705
        assert len(list((tmp_path / "store" / "variant").iterdir())) == 147
        assert len(list((tmp_path / "store" / "run").iterdir())) == 132
        created.clear()
        for request in requests:
            assert service.run(request).result.timings.store_row() == {
                "store_hits": 4, "store_misses": 0,
            }
        # only the run files, for their refreshed results
        assert len(created) <= 132
        assert {path.parent.name for path in created} == {"run"}


def test_warm_run_reads_each_key_once(tmp_path, reads):
    ProvMark(tool="spade", seed=5, store_path=str(tmp_path)).run_benchmark(
        "open"
    )
    reads.clear()
    warm = ProvMark(tool="spade", seed=5, store_path=str(tmp_path))
    assert warm.run_benchmark("open").timings.store_hits == 4
    assert len(reads) <= 3  # one read per stage and variant: 7
    assert sorted(reads) == ["run", "variant", "variant"]
