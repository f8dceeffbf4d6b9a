"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper.  The
regenerated rows are printed (run with ``-s`` to see them) and collected
into ``benchmarks/output/`` so EXPERIMENTS.md can reference them.

Benchmarks can additionally call :func:`record_bench` with structured
payloads (per-stage timings, solver step counts, cache/store hits);
everything recorded during a session is consolidated into a per-PR file
(``benchmarks/output/BENCH_PR10.json`` currently; earlier snapshots stay
in ``BENCH_PR1.json`` through ``BENCH_PR7.json``) at session end, so
successive PRs leave a performance trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable

OUTPUT_DIR = Path(__file__).resolve().parent / "output"
CONSOLIDATED_NAME = "BENCH_PR10.json"

_recorded: Dict[str, object] = {}


def emit(name: str, lines: Iterable[str]) -> None:
    """Print regenerated rows and persist them under benchmarks/output/."""
    body = "\n".join(lines)
    print(f"\n=== {name} ===\n{body}")
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(body + "\n")


def record_bench(name: str, payload: object) -> None:
    """Queue a structured payload for the consolidated BENCH file."""
    _recorded[name] = payload


def timings_payload(timings) -> Dict[str, object]:
    """A JSON-ready view of one run's StageTimings: every stage (recording
    included), the solver and store counters, and the processing total."""
    payload: Dict[str, object] = timings.to_payload()
    payload["processing"] = timings.processing
    return payload


def pytest_sessionfinish(session, exitstatus) -> None:
    if not _recorded:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / CONSOLIDATED_NAME
    existing: Dict[str, object] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(_recorded)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    print(f"\nconsolidated benchmark record: {path}")
