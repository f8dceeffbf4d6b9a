"""Byte pins for CamFlow's PROV-JSON output.

``tests/test_recording_pins.py`` pins what CamFlow records by content:
it re-serializes each document before hashing.  These pins cover the
exact text the capture ships, so a change to the document's layout
(key order, separators, escapes, which groups appear) fails here even
when the content is the same.

Each pin hashes the text of one benchmark (Table 2, scale8/32/128 or
one of the three programs whose permission checks fail), both
variants, at trial seeds 5 and 7: one kernel trace per variant and
seed, recorded under each configuration with a fresh
``random.Random(seed ^ 0x5EED)``, as the recorder seeds a tool.  The
three configurations are the default, ``structural_jitter=0.5`` and
``record_failed=True``.  Every pinned document also survives a parse
and re-export unchanged, which ties ``graph_to_provjson`` to the
capture's own writer.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.capture.camflow import CamFlowCapture, CamFlowConfig
from repro.graph.provjson import graph_to_provjson, provjson_to_graph
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import TABLE2_ORDER, get_benchmark

#: Table 2, the scale rows, and the programs whose permission checks
#: fail (the only ones ``record_failed`` changes)
BENCHMARKS = TABLE2_ORDER + (
    "scale8", "scale32", "scale128", "open_fail", "rename_fail", "chmod_fail",
)
SEEDS = (5, 7)
CONFIGS = {
    "default": CamFlowConfig(),
    "jitter": CamFlowConfig(structural_jitter=0.5),
    "failed": CamFlowConfig(record_failed=True),
}

#: benchmark -> sha256 prefix per configuration (default, jitter, failed)
PINS = {
    "close": ("9af96118b80af3c5", "339f94b254ba33da", "9af96118b80af3c5"),
    "creat": ("0bd162f9672ef818", "eb76e62e5040a5e8", "0bd162f9672ef818"),
    "dup": ("9af96118b80af3c5", "339f94b254ba33da", "9af96118b80af3c5"),
    "dup2": ("9af96118b80af3c5", "339f94b254ba33da", "9af96118b80af3c5"),
    "dup3": ("9af96118b80af3c5", "339f94b254ba33da", "9af96118b80af3c5"),
    "link": ("1c0ebcdf3e50411d", "d7337e35e042a5c5", "1c0ebcdf3e50411d"),
    "linkat": ("1c0ebcdf3e50411d", "d7337e35e042a5c5", "1c0ebcdf3e50411d"),
    "symlink": ("562cc567e7f7e2c1", "53f187b23046b78e", "562cc567e7f7e2c1"),
    "symlinkat": ("562cc567e7f7e2c1", "53f187b23046b78e", "562cc567e7f7e2c1"),
    "mknod": ("0d002e596311fc99", "a7789dcdc332ad5d", "0d002e596311fc99"),
    "mknodat": ("0d002e596311fc99", "a7789dcdc332ad5d", "0d002e596311fc99"),
    "open": ("c15923ea5ec4186e", "5d8119e712dc6e1e", "c15923ea5ec4186e"),
    "openat": ("c15923ea5ec4186e", "5d8119e712dc6e1e", "c15923ea5ec4186e"),
    "read": ("8cb9b7ef244d0289", "8ebfb35ca5a6e087", "8cb9b7ef244d0289"),
    "pread": ("8cb9b7ef244d0289", "8ebfb35ca5a6e087", "8cb9b7ef244d0289"),
    "rename": ("7d34ddd581d7f166", "4b83ce68251e30a2", "7d34ddd581d7f166"),
    "renameat": ("7d34ddd581d7f166", "4b83ce68251e30a2", "7d34ddd581d7f166"),
    "truncate": ("35783a20ba2b4164", "2a3a4266edc3bac5", "35783a20ba2b4164"),
    "ftruncate": ("f0f0d9e92a4ec9f1", "78899927574e4330", "f0f0d9e92a4ec9f1"),
    "unlink": ("03dc1f0beb89286d", "862629390bd2efea", "03dc1f0beb89286d"),
    "unlinkat": ("03dc1f0beb89286d", "862629390bd2efea", "03dc1f0beb89286d"),
    "write": ("149e24543a98a676", "7b03bb23c6786b01", "149e24543a98a676"),
    "pwrite": ("149e24543a98a676", "7b03bb23c6786b01", "149e24543a98a676"),
    "clone": ("397b32d36145c033", "aef5fcca7d34797a", "397b32d36145c033"),
    "execve": ("6b4c46549239f4be", "2c51af47c92dc583", "6b4c46549239f4be"),
    "exit": ("0d002e596311fc99", "a7789dcdc332ad5d", "0d002e596311fc99"),
    "fork": ("397b32d36145c033", "aef5fcca7d34797a", "397b32d36145c033"),
    "kill": ("61a77186dfe40dee", "be0b862e4a0ba9d0", "61a77186dfe40dee"),
    "vfork": ("397b32d36145c033", "aef5fcca7d34797a", "397b32d36145c033"),
    "chmod": ("b3c7cd4a48debec2", "1453b1fe4c7c7b82", "b3c7cd4a48debec2"),
    "fchmod": ("ab8b0a2e23272321", "a6d267fde21166cb", "ab8b0a2e23272321"),
    "fchmodat": ("b3c7cd4a48debec2", "1453b1fe4c7c7b82", "b3c7cd4a48debec2"),
    "chown": ("b3c7cd4a48debec2", "1453b1fe4c7c7b82", "b3c7cd4a48debec2"),
    "fchown": ("ab8b0a2e23272321", "a6d267fde21166cb", "ab8b0a2e23272321"),
    "fchownat": ("b3c7cd4a48debec2", "1453b1fe4c7c7b82", "b3c7cd4a48debec2"),
    "setgid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "setregid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "setresgid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "setuid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "setreuid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "setresuid": ("076a60d8f37a7e7f", "fb3d7eccc0f3ff50", "076a60d8f37a7e7f"),
    "pipe": ("0d002e596311fc99", "a7789dcdc332ad5d", "0d002e596311fc99"),
    "pipe2": ("0d002e596311fc99", "a7789dcdc332ad5d", "0d002e596311fc99"),
    "tee": ("63b1067f922b53e1", "edf9d09f1b091308", "63b1067f922b53e1"),
    "scale8": ("52be21c683389805", "fc2df86b20ada115", "52be21c683389805"),
    "scale32": ("ceb555f19f885852", "f8e00c0e7284eda2", "ceb555f19f885852"),
    "scale128": ("a055a3cb36f2a0b4", "6eb04263977e9b6c", "a055a3cb36f2a0b4"),
    "open_fail": ("38a7c5506bce4997", "0b34b604105769de", "c67e69db8e3c7184"),
    "rename_fail": ("4c5c7fa3292acee8", "7a3755859301a275", "409ab67c9cddd146"),
    "chmod_fail": ("38a7c5506bce4997", "0b34b604105769de", "be05521ff8c2587d"),
}


def traces(name: str):
    """One kernel trace per (seed, variant) of a benchmark."""
    program = get_benchmark(name)
    return [
        (seed, ProgramExecutor(program, seed=seed).run(foreground).trace)
        for seed in SEEDS for foreground in (True, False)
    ]


def digest(texts) -> str:
    blob = "".join(text + "\n" for text in texts).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_camflow_text_is_pinned(name):
    digests = []
    recorded = traces(name)
    for config in CONFIGS.values():
        capture = CamFlowCapture(config)
        texts = [
            capture.record(trace, random.Random(seed ^ 0x5EED))
            for seed, trace in recorded
        ]
        for text in texts:
            assert graph_to_provjson(provjson_to_graph(text)) == text
        digests.append(digest(texts))
    assert tuple(digests) == PINS[name]


def test_the_configurations_differ():
    """The jitter and record_failed pins cover output of their own."""
    default, jitter, failed = zip(*PINS.values())
    assert default != jitter
    assert default != failed
