"""Byte-identity pins for recordings beyond Table 2.

The pins of ``test_recording_pins.py`` cover the paper's Table 2 and
``scale32``.  These cover the rest of what a recording may run: every
extended-suite builtin (local sockets and multi-syscall sequences,
``repro.suite.extended``) and ten synthesized specs, each under SPADE,
OPUS and CamFlow at seed 5, hashed with the same recipe: every trial's
seed, raw capture output (CamFlow's PROV-JSON by content) and virtual
recording time.  The specs are spelled out as payloads, not drawn from
``SpecGenerator``, so a change to the generator cannot move a pin.  They
fork, clone and vfork children, kill them, read their own pid, and make
pipes and socket pairs: the fields a trial seed moves.  A pin may only
change together with a deliberate, documented change to what a capture
tool records.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.specs import BenchmarkSpec, compile_spec
from repro.capture.registry import make_capture, tool_profile
from repro.core.recording import Recorder
from repro.suite.extended import EXTENDED_BENCHMARKS
from repro.suite.program import Program
from repro.suite.registry import get_benchmark

SEED = 5
TOOLS = ("spade", "opus", "camflow")

SPECS = (
    {
        "name": "synth_s31_003",
        "program": {"ops": [
            {"call": "fork", "result": "child0"},
            {"call": "kill", "args": ["$child0", "SIGKILL"]},
            {"call": "open", "args": ["s0.txt", "O_RDONLY"], "result": "fd0", "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
        ], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_005",
        "program": {"ops": [
            {"call": "fork", "result": "child0", "target": True},
            {"call": "getpid", "target": True},
        ], "setup": [], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_007",
        "program": {"ops": [
            {"call": "clone", "args": ["CLONE_VM|SIGCHLD"], "result": "child0"},
            {"call": "creat", "args": ["new0.txt", 416], "result": "fd0"},
            {"call": "fchmodat", "args": ["s0.txt", 384]},
            {"call": "renameat", "args": ["s1.txt", "moved0.txt"]},
            {"call": "pipe", "result": "p0"},
            {"call": "truncate", "args": ["new0.txt", 64]},
            {"call": "close", "args": ["$fd0"]},
            {"call": "setreuid", "args": [1000, 1000], "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
            {"kind": "file", "path": "s1.txt"},
        ], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_008",
        "program": {"ops": [
            {"call": "mknod", "args": ["fifo0", "S_IFIFO"]},
            {"call": "openat", "args": ["s0.txt", "O_RDONLY"], "result": "fd0"},
            {"call": "close", "args": ["$fd0"]},
            {"call": "creat", "args": ["new0.txt", 493], "result": "fd1"},
            {"call": "pipe2", "args": ["O_CLOEXEC"], "result": "p0"},
            {"call": "access", "args": ["s0.txt", 4]},
            {"call": "vfork", "result": "child0", "target": True},
            {"call": "fork", "result": "child1", "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
        ], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_013",
        "program": {"ops": [
            {"call": "socketpair", "result": "sk0"},
            {"call": "clone", "args": ["CLONE_VM|SIGCHLD"], "result": "child0"},
            {"call": "symlinkat", "args": ["s0.txt", "soft0.txt"], "target": True},
            {"call": "send", "args": ["$sk0_a", {"base64": "cGF5bG9hZA=="}], "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
        ], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_019",
        "program": {"ops": [
            {"call": "mkdir", "args": ["d0", 493]},
            {"call": "rmdir", "args": ["d0"]},
            {"call": "pipe2", "args": ["O_CLOEXEC"], "result": "p0"},
            {"call": "pipe", "result": "p1", "target": True},
            {"call": "pipe2", "args": ["O_CLOEXEC"], "result": "p2", "target": True},
        ], "setup": [], "run_as_uid": 1000, "run_as_gid": 1000},
    },
    {
        "name": "synth_s31_027",
        "program": {"ops": [
            {"call": "pipe", "result": "p0"},
            {"call": "creat", "args": ["new0.txt", 416], "result": "fd0"},
            {"call": "renameat", "args": ["new0.txt", "moved0.txt"]},
            {"call": "mknod", "args": ["fifo0", "S_IFIFO"]},
            {"call": "dup", "args": ["$fd0"], "result": "fd1"},
            {"call": "fchmodat", "args": ["moved0.txt", 416], "target": True},
            {"call": "write", "args": ["$p0_w", {"base64": "aGVsbG8="}], "target": True},
        ], "setup": [], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_041",
        "program": {"ops": [
            {"call": "open", "args": ["s0.txt", "O_RDWR"], "result": "fd0"},
            {"call": "access", "args": ["s1.txt", 4]},
            {"call": "fchownat", "args": ["s1.txt", 1000, 1000]},
            {"call": "access", "args": ["s0.txt", 4]},
            {"call": "fchown", "args": ["$fd0", 1000, 1000]},
            {"call": "socketpair", "result": "sk0"},
            {"call": "dup3", "args": ["$fd0", 10], "result": "fd1"},
            {"call": "fork", "result": "child0", "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
            {"kind": "file", "path": "s1.txt"},
        ], "run_as_uid": 0, "run_as_gid": 0},
    },
    {
        "name": "synth_s31_074",
        "program": {"ops": [
            {"call": "stat", "args": ["s0.txt"]},
            {"call": "unlink", "args": ["s0.txt"]},
            {"call": "rename", "args": ["s1.txt", "moved0.txt"]},
            {"call": "open", "args": ["moved0.txt", "O_RDONLY"], "result": "fd0"},
            {"call": "fork", "result": "child0"},
            {"call": "kill", "args": ["$child0", "SIGKILL"]},
            {"call": "access", "args": ["moved0.txt", 4]},
            {"call": "pipe", "result": "p0", "target": True},
        ], "setup": [
            {"kind": "file", "path": "s0.txt"},
            {"kind": "file", "path": "s1.txt"},
        ], "run_as_uid": 1000, "run_as_gid": 1000},
    },
    {
        "name": "synth_s31_077",
        "program": {"ops": [
            {"call": "socketpair", "result": "sk0"},
            {"call": "mknod", "args": ["fifo0", "S_IFIFO"]},
            {"call": "fork", "result": "child0"},
            {"call": "umask", "args": [18]},
            {"call": "clone", "args": ["CLONE_VM|SIGCHLD"], "result": "child1"},
            {"call": "kill", "args": ["$child0", "SIGKILL"]},
            {"call": "send", "args": ["$sk0_a", {"base64": "eHl6enl4eXp6eXh5enp5"}],
             "target": True},
        ], "setup": [], "run_as_uid": 0, "run_as_gid": 0},
    },
)


def programs():
    """Every pinned program by name: the extended builtins, then the
    specs."""
    pinned = {name: get_benchmark(name) for name in EXTENDED_BENCHMARKS}
    for payload in SPECS:
        pinned[payload["name"]] = compile_spec(BenchmarkSpec.from_payload(payload))
    return pinned


def recording_digest(tool: str, program: Program) -> str:
    """sha256 prefix of one program's recording-stage payload."""
    capture = make_capture(tool)
    recorder = Recorder(capture, trials=tool_profile(tool).trials, seed=SEED)
    payload = recorder.record(program).to_payload()
    if capture.output_format == "provjson":
        for trial in payload["foreground"] + payload["background"]:
            raw = trial["raw"]
            raw["text"] = json.dumps(json.loads(raw["text"]), sort_keys=True)
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


PINS = {
    "spade": {
        "socketpair": "39bd75284d7d7a5b",
        "send": "39bd75284d7d7a5b",
        "recv": "39bd75284d7d7a5b",
        "seq_copy": "c20b52cf8bcf9d2f",
        "seq_lockdown": "e007aaf619d0c205",
        "synth_s31_003": "7185093432dbaece",
        "synth_s31_005": "95f6707786053bfe",
        "synth_s31_007": "834a7e1e48091aaa",
        "synth_s31_008": "676df3dd7db61eee",
        "synth_s31_013": "7c238e87283ea753",
        "synth_s31_019": "713e36c41d1109a2",
        "synth_s31_027": "29d8ca2cf8549520",
        "synth_s31_041": "a095d63bd6f91799",
        "synth_s31_074": "6cc4689968fdcb4b",
        "synth_s31_077": "b8b198ba01b479e1",
    },
    "opus": {
        "socketpair": "ec50d1f433c291e4",
        "send": "ec50d1f433c291e4",
        "recv": "ec50d1f433c291e4",
        "seq_copy": "59cfc8720ffb36ef",
        "seq_lockdown": "acef36905e8161bc",
        "synth_s31_003": "12688ac086273d70",
        "synth_s31_005": "7f26e06dc78f85a2",
        "synth_s31_007": "1a03fd8ee03ad7ae",
        "synth_s31_008": "2220c40f2bfe1e5c",
        "synth_s31_013": "a3e31bf150e6ec2a",
        "synth_s31_019": "3546db0a30417b23",
        "synth_s31_027": "4c8fb1d52c6982b5",
        "synth_s31_041": "cafa43c97e5b6a94",
        "synth_s31_074": "fe1579e8f51c0b3b",
        "synth_s31_077": "e8f410e47a3d96b5",
    },
    "camflow": {
        "socketpair": "807d1b8d80235ffd",
        "send": "91ad54efda9ff038",
        "recv": "ad18babb98df8d72",
        "seq_copy": "934f17e92749b9a8",
        "seq_lockdown": "dba2df82ba1f1b81",
        "synth_s31_003": "d58558bbae9e5a76",
        "synth_s31_005": "4aac2a84e147b02a",
        "synth_s31_007": "26331d5f926de9e3",
        "synth_s31_008": "4c24c9a6f0029b6f",
        "synth_s31_013": "7a94fc99e99f2fdd",
        "synth_s31_019": "a90bee354e422a7e",
        "synth_s31_027": "72c996785294b8c1",
        "synth_s31_041": "5c507c39f0be1ba8",
        "synth_s31_074": "5b9c3629c6916323",
        "synth_s31_077": "ce77fd8ccf00cb68",
    },
}


@pytest.mark.parametrize("tool", TOOLS)
def test_recording_is_byte_identical(tool):
    digests = {
        name: recording_digest(tool, program)
        for name, program in programs().items()
    }
    assert digests == PINS[tool]
