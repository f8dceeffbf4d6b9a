"""Deterministic cost ceilings for the recording stage.

Recording a trial boots a fresh simulated kernel, runs the program's
syscalls and hands the trace to a capture tool.  These tests count the
calls that used to dominate that work, so a regression fails on any
runner without a wall clock:

* ``stat.filemode``: object snapshots read their mode string from a memo
  keyed by (kind, mode), not one render per snapshot;
* ``SubjectInfo`` builds: a syscall reuses the interned snapshot of an
  unchanged process identity;
* ``FileSystem.resolve`` during boot: the fixed tree is built on parent
  inodes, with no path walks;
* ``json.encoder._make_iterencode``: CamFlow's PROV-JSON goes through
  json's C encoder, not the pure-Python one;
* ``ProgramExecutor.run`` per store-backed Table 2 sweep: a background
  shared by many benchmarks is recorded once per store, not once per
  benchmark.
"""

from __future__ import annotations

import json.encoder
import random
import stat

import pytest

from repro.capture.camflow import CamFlowCapture
from repro.core.pipeline import ProvMark
from repro.kernel import BENCH_UID, Kernel, machine
from repro.kernel.fs import FileSystem
from repro.kernel.trace import (
    AuditEvent,
    LibcEvent,
    LsmEvent,
    ObjectInfo,
    SubjectInfo,
)
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import TABLE2_ORDER, get_benchmark

SEED = 5


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def foreground_trace(name):
    return ProgramExecutor(get_benchmark(name), seed=SEED).run(True).trace


class TestKernelCeilings:
    def test_mode_strings_are_memoized(self, monkeypatch):
        calls = count_calls(monkeypatch, stat, "filemode")
        foreground_trace("scale128")
        assert len(calls) <= 16  # one render per (kind, mode); was 772

    def test_subject_snapshots_are_interned(self, monkeypatch):
        calls = count_calls(monkeypatch, machine, "SubjectInfo")
        trace = foreground_trace("scale128")
        assert len(trace.audit) > 256
        assert len(calls) <= 16  # one per process identity; was 524

    def test_boot_walks_no_paths(self, monkeypatch):
        calls = count_calls(monkeypatch, FileSystem, "resolve")
        kernel = Kernel(seed=SEED)
        assert len(calls) == 0  # was 23
        assert kernel.fs.resolve("/home/bench").uid == BENCH_UID


class TestCaptureCeilings:
    def test_camflow_provjson_uses_the_c_encoder(self, monkeypatch):
        trace = foreground_trace("scale32")
        calls = count_calls(monkeypatch, json.encoder, "_make_iterencode")
        document = CamFlowCapture().record(trace, random.Random(SEED))
        assert json.loads(document)["activity"]
        assert len(calls) == 0  # was 1: the pure-Python encoder


class TestStoreCeilings:
    def test_a_sweep_records_each_background_once(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, ProgramExecutor, "run")
        provmark = ProvMark(tool="spade", seed=SEED, store_path=str(tmp_path))
        for name in TABLE2_ORDER:
            provmark.run_benchmark(name)
        # 44 foregrounds and 5 distinct backgrounds, 2 trials each; was
        # 176, every benchmark recording its own background
        assert len(TABLE2_ORDER) == 44
        assert len(calls) == (44 + 5) * 2


class TestSnapshotsAreImmutable:
    def test_assigning_a_field_raises(self):
        trace = foreground_trace("creat")
        creat = next(e for e in trace.audit if e.syscall == "creat")
        for snapshot, cls, field_name in (
            (creat.subject, SubjectInfo, "uid"),
            (creat.objects[0], ObjectInfo, "path"),
            (creat, AuditEvent, "retval"),
            (trace.libc[-1], LibcEvent, "retval"),
            (trace.lsm[-1], LsmEvent, "hook"),
        ):
            assert type(snapshot) is cls
            with pytest.raises(AttributeError):
                setattr(snapshot, field_name, None)
