"""Byte pins for the SPADE-with-CamFlow capture's DOT output.

The capture writes SPADE's DOT dialect from CamFlow's LSM hook stream.
These pins cover the exact text it ships, so a change to the order of
its statements, their attributes or their escapes fails here.

Each pin hashes the text of one benchmark (Table 2, scale8/32/128 or
one of the three programs whose permission checks fail), both
variants, at trial seeds 5 and 7: one kernel trace per variant and
seed, recorded under each configuration with a fresh
``random.Random(seed ^ 0x5EED)``, as the recorder seeds a tool.  The
two configurations are the default and ``record_failed=True``.  Every
pinned document also survives a parse and re-export unchanged, which
ties ``graph_to_dot`` to the capture's own writer.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.capture.spade_camflow import SpadeCamFlowCapture, SpadeCamFlowConfig
from repro.graph.dot import dot_to_graph, graph_to_dot
from repro.suite.executor import ProgramExecutor
from repro.suite.registry import TABLE2_ORDER, get_benchmark

#: Table 2, the scale rows, and the programs whose permission checks
#: fail (the only ones ``record_failed`` changes)
BENCHMARKS = TABLE2_ORDER + (
    "scale8", "scale32", "scale128", "open_fail", "rename_fail", "chmod_fail",
)
SEEDS = (5, 7)
CONFIGS = {
    "default": SpadeCamFlowConfig(),
    "failed": SpadeCamFlowConfig(record_failed=True),
}

#: benchmark -> sha256 prefix per configuration (default, failed)
PINS = {
    "close": ("cc543ef3359011da", "cc543ef3359011da"),
    "creat": ("553aa18f4372894a", "553aa18f4372894a"),
    "dup": ("cc543ef3359011da", "cc543ef3359011da"),
    "dup2": ("cc543ef3359011da", "cc543ef3359011da"),
    "dup3": ("cc543ef3359011da", "cc543ef3359011da"),
    "link": ("18e2bcd302a41a4a", "18e2bcd302a41a4a"),
    "linkat": ("18e2bcd302a41a4a", "18e2bcd302a41a4a"),
    "symlink": ("ca935bdf348aba6b", "ca935bdf348aba6b"),
    "symlinkat": ("ca935bdf348aba6b", "ca935bdf348aba6b"),
    "mknod": ("25374deb64539c26", "25374deb64539c26"),
    "mknodat": ("25374deb64539c26", "25374deb64539c26"),
    "open": ("4189727995a58c6a", "4189727995a58c6a"),
    "openat": ("4189727995a58c6a", "4189727995a58c6a"),
    "read": ("ba1328df6ce28001", "ba1328df6ce28001"),
    "pread": ("ba1328df6ce28001", "ba1328df6ce28001"),
    "rename": ("dc8a16e53fb95289", "dc8a16e53fb95289"),
    "renameat": ("dc8a16e53fb95289", "dc8a16e53fb95289"),
    "truncate": ("1436720e1259efa6", "1436720e1259efa6"),
    "ftruncate": ("c3eb70fae44babeb", "c3eb70fae44babeb"),
    "unlink": ("5bba85e47588d1e9", "5bba85e47588d1e9"),
    "unlinkat": ("5bba85e47588d1e9", "5bba85e47588d1e9"),
    "write": ("93a9dac532d6ba3e", "93a9dac532d6ba3e"),
    "pwrite": ("93a9dac532d6ba3e", "93a9dac532d6ba3e"),
    "clone": ("6a440b98ec818692", "6a440b98ec818692"),
    "execve": ("64501298ddbc018e", "64501298ddbc018e"),
    "exit": ("25374deb64539c26", "25374deb64539c26"),
    "fork": ("6a440b98ec818692", "6a440b98ec818692"),
    "kill": ("f87627cbc48d4c91", "f87627cbc48d4c91"),
    "vfork": ("6a440b98ec818692", "6a440b98ec818692"),
    "chmod": ("1ed010c86c2dc227", "1ed010c86c2dc227"),
    "fchmod": ("ff660b628aa7851b", "ff660b628aa7851b"),
    "fchmodat": ("1ed010c86c2dc227", "1ed010c86c2dc227"),
    "chown": ("1ed010c86c2dc227", "1ed010c86c2dc227"),
    "fchown": ("ff660b628aa7851b", "ff660b628aa7851b"),
    "fchownat": ("1ed010c86c2dc227", "1ed010c86c2dc227"),
    "setgid": ("fae4b049709a82e8", "fae4b049709a82e8"),
    "setregid": ("fae4b049709a82e8", "fae4b049709a82e8"),
    "setresgid": ("fae4b049709a82e8", "fae4b049709a82e8"),
    "setuid": ("3c4f060881e40bdd", "3c4f060881e40bdd"),
    "setreuid": ("3c4f060881e40bdd", "3c4f060881e40bdd"),
    "setresuid": ("3c4f060881e40bdd", "3c4f060881e40bdd"),
    "pipe": ("25374deb64539c26", "25374deb64539c26"),
    "pipe2": ("25374deb64539c26", "25374deb64539c26"),
    "tee": ("2465d501d8ea8ac6", "2465d501d8ea8ac6"),
    "scale8": ("5f3357c4b0c92ba2", "5f3357c4b0c92ba2"),
    "scale32": ("5691a25fbaaae999", "5691a25fbaaae999"),
    "scale128": ("2929648bd3109f19", "2929648bd3109f19"),
    "open_fail": ("191be6d3d67fd6ff", "191be6d3d67fd6ff"),
    "rename_fail": ("8bc71d9244bdc4e3", "8bc71d9244bdc4e3"),
    "chmod_fail": ("191be6d3d67fd6ff", "de9e55490308ba54"),
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
def test_spade_camflow_text_is_pinned(name):
    digests = []
    recorded = traces(name)
    for config in CONFIGS.values():
        capture = SpadeCamFlowCapture(config)
        texts = [
            capture.record(trace, random.Random(seed ^ 0x5EED))
            for seed, trace in recorded
        ]
        for text in texts:
            assert graph_to_dot(
                dot_to_graph(text), name="spade_camflow"
            ) == text
        digests.append(digest(texts))
    assert tuple(digests) == PINS[name]


def test_record_failed_covers_output_of_its_own():
    default, failed = zip(*PINS.values())
    assert default != failed
