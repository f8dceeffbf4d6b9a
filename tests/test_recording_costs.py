"""Deterministic cost ceilings for the recording stage.

Recording a trial boots a fresh simulated kernel, runs the program's
syscalls and hands the trace to a capture tool.  These tests count the
calls that used to dominate that work, so a regression fails on any
runner without a wall clock:

* ``stat.filemode``: object snapshots read their mode string from a memo
  keyed by (kind, mode), not one render per snapshot;
* ``SubjectInfo`` builds: a syscall reuses the interned snapshot of an
  unchanged process identity;
* ``FileSystem.walk`` during boot: the fixed tree is built on parent
  inodes, with no path walks;
* ``json.encoder._make_iterencode``: CamFlow's PROV-JSON goes through
  json's C encoder, not the pure-Python one;
* ``ProgramExecutor.run`` per store-backed Table 2 sweep: a background
  shared by many benchmarks is recorded once per store, not once per
  benchmark, and each variant's kernel runs once, its other trials
  reseeding that run (``reseed`` counts beside the runs);
* ``ProgramExecutor.run`` per scale-major pass and per
  benchmark-major Table 2 sweep through one ``BenchmarkService``: a
  variant that several tools record at several trial seeds runs once,
  through the service's trace memo;
* events rewritten per stream over a warm scale-major pass: a reseeded
  trace rewrites a stream only when a capture first reads it, so a
  CamFlow trial rewrites no ``audit`` or ``libc`` event;
* ``random.Random.randrange`` per boot: the boot tree is a template
  whose numbers are drawn through the same ``getrandbits`` loop;
* path walks and ``KernelError`` raises per ``creat`` of a missing
  file: one walk finds the parent and the missing name together.
"""

from __future__ import annotations

import json.encoder
import random
import stat
import uuid

import pytest

from repro.api import BenchmarkService, RunRequest
from repro.capture.camflow import CamFlowCapture
from repro.core.pipeline import ProvMark
from repro.kernel import BENCH_UID, Kernel, KernelError, machine
from repro.kernel.fs import FileSystem
from repro.kernel.trace import (
    AuditEvent,
    LibcEvent,
    LsmEvent,
    ObjectInfo,
    SubjectInfo,
    Trace,
)
from repro.suite import executor
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
        calls = count_calls(monkeypatch, FileSystem, "walk")
        kernel = Kernel(seed=SEED)
        assert len(calls) == 0  # was 23
        assert kernel.fs.resolve("/home/bench").uid == BENCH_UID

    def test_boot_calls_no_randrange_and_keeps_its_draws(self, monkeypatch):
        # the draws a boot made one randrange at a time: the clock's
        # epoch, the id bases, the boot and machine ids, a tick and an
        # inode number for the root, per boot-tree entry a tick, an inode
        # number and a tick for its parent, and per process (init, the
        # shell) a pid and a tick
        reference = random.Random(SEED)
        epoch = reference.randrange(1_500_000_000, 1_900_000_000)
        reference.randrange(1_000, 30_000)
        ino_base = reference.randrange(100_000, 900_000)
        reference.randrange(10_000, 500_000)
        boot_id = str(uuid.UUID(int=reference.getrandbits(128)))
        machine_id = f"machine-{reference.randrange(10**8):08d}"
        root_ctime = epoch * 10**9 + reference.randrange(1_000, 90_000)
        root_ino = ino_base + reference.randrange(1, 16)
        for _ in machine.BOOT_TREE.parents[1:]:
            reference.randrange(1_000, 90_000)
            reference.randrange(1, 16)
            reference.randrange(1_000, 90_000)
        for _ in range(2):
            reference.randrange(1, 4)
            reference.randrange(1_000, 90_000)
        calls = count_calls(monkeypatch, random.Random, "randrange")
        kernel = Kernel(seed=SEED)
        assert len(calls) == 0  # was 74
        assert kernel.rng.getstate() == reference.getstate()
        assert (kernel.trace.boot_id, kernel.trace.machine_id) == (
            boot_id, machine_id)
        root = kernel.fs.inode(kernel.fs.root_ino)
        assert (root.ino, root.ctime_ns) == (root_ino, root_ctime)

    def test_creat_of_a_missing_file_walks_its_path_once(self, monkeypatch):
        kernel = Kernel(seed=SEED)
        process = kernel.process(kernel.sys_fork(kernel.shell))
        walks = count_calls(monkeypatch, FileSystem, "walk")
        raises = count_calls(monkeypatch, KernelError, "__init__")
        assert kernel.sys_creat(process, "/tmp/new.txt") >= 0
        assert len(walks) == 1  # was 2: resolve, then lookup_parent
        assert len(raises) == 0  # was 1: resolve's ENOENT
        assert kernel.trace.audit[-1].success


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
        reseeds = count_calls(monkeypatch, executor, "reseed")
        provmark = ProvMark(tool="spade", seed=SEED, store_path=str(tmp_path))
        for name in TABLE2_ORDER:
            provmark.run_benchmark(name)
        # 44 foregrounds and 5 distinct backgrounds, each run once and
        # reseeded for its second trial; was (44 + 5) * 2 runs, and 176
        # before that, every benchmark recording its own background
        assert len(TABLE2_ORDER) == 44
        assert len(calls) == 44 + 5
        assert len(reseeds) == 44 + 5


def scale_major_pass(service):
    for scale in ("scale32", "scale128"):
        for tool in ("spade", "opus", "camflow"):
            service.run(RunRequest(benchmark=scale, tool=tool, seed=SEED))


class TestTraceSharing:
    def test_a_scale_major_pass_runs_each_shared_trial_once(self, monkeypatch):
        calls = count_calls(monkeypatch, ProgramExecutor, "run")
        reseeds = count_calls(monkeypatch, executor, "reseed")
        service = BenchmarkService()
        scale_major_pass(service)
        # scale32's foreground and background (scale128's too) and
        # scale128's foreground; was <= 22, SPADE running its 2 + 2
        # trials, OPUS replaying them and CamFlow running 3 + 5 per scale
        assert len(calls) <= 3
        # CamFlow's 5 foregrounds and last 3 backgrounds per scale, and
        # SPADE's second foreground (the first is the template's own)
        assert len(reseeds) <= 19
        del calls[:], reseeds[:]
        scale_major_pass(service)
        # a warm pass runs no kernel at all
        assert len(calls) == 0
        assert len(reseeds) <= 18

    def test_a_benchmark_major_table2_sweep_shares_its_trials(
        self, monkeypatch
    ):
        calls = count_calls(monkeypatch, ProgramExecutor, "run")
        reseeds = count_calls(monkeypatch, executor, "reseed")
        service = BenchmarkService()
        for name in TABLE2_ORDER:
            for tool in ("spade", "opus", "camflow"):
                service.run(RunRequest(benchmark=name, tool=tool, seed=SEED))
        # 44 foregrounds and 5 distinct backgrounds, once each; was
        # <= 482, every (variant, trial seed) that no tool had run yet
        # (333 distinct), and 44 x 18 = 792 before that
        assert len(calls) <= 49
        assert len(reseeds) <= 417


def count_rewrites(monkeypatch):
    """Events a reseeded trace writes, per stream, from here on."""
    rewritten = {"audit": 0, "libc": 0, "lsm": 0}
    real = Trace._write

    def counting(trace, name):
        events = real(trace, name)
        rewritten[name] += len(events)
        return events

    monkeypatch.setattr(Trace, "_write", counting)
    return rewritten


class TestLazyStreams:
    def test_a_warm_scale_major_pass_rewrites_only_streams_it_reads(
        self, monkeypatch
    ):
        service = BenchmarkService()
        try:
            scale_major_pass(service)
            rewritten = count_rewrites(monkeypatch)
            scale_major_pass(service)
        finally:
            service.close()
        # SPADE's and OPUS's second foreground and CamFlow's reseeded
        # trials; was 2028 audit, 2028 libc and 3966 lsm events, every
        # reseed rewriting all three streams
        assert rewritten["audit"] <= 332
        assert rewritten["libc"] <= 332
        assert rewritten["lsm"] <= 3312

    def test_a_camflow_trial_rewrites_no_audit_or_libc_event(
        self, monkeypatch
    ):
        rewritten = count_rewrites(monkeypatch)
        service = BenchmarkService()
        try:
            for scale in ("scale32", "scale128"):
                service.run(
                    RunRequest(benchmark=scale, tool="camflow", seed=SEED)
                )
        finally:
            service.close()
        # was 1370 audit and 1370 libc events, rewritten beside the lsm
        # streams CamFlow reads
        assert rewritten["audit"] == rewritten["libc"] == 0
        assert rewritten["lsm"] == 2665


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
