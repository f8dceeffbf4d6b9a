"""Ceilings on what a trace memo holds.

A ``BenchmarkService``'s trace memo holds one template per recorded
variant (its kernel trace and the draws that made it) and a few whole
traces.  Everything it holds is live data that the cyclic garbage
collector walks on each full pass, so the templates are bounded by a
constant number of held events, and each template's draw log is kept in
arrays, which the collector does not track.  These tests count what a
memo holds after realistic sweeps, so a regression fails on any runner:

* GC-tracked objects reachable from the memo after a warm seed-5
  scale-major pass;
* the memo's held events, against its bound, through a benchmark-major
  Table 2 sweep and two scale-major passes.
"""

from __future__ import annotations

import gc
import types

from repro.api import BenchmarkService, RunRequest
from repro.core.recording import TraceMemo
from repro.suite.registry import TABLE2_ORDER

SEED = 5
TOOLS = ("spade", "opus", "camflow")
#: GC-tracked objects a service's memo holds after a warm scale-major
#: pass (4,945 now; 6,367 when a reseed wrote every stream)
TRACKED = 5500


def scale_major_pass(service):
    for scale in ("scale32", "scale128"):
        for tool in TOOLS:
            service.run(RunRequest(benchmark=scale, tool=tool, seed=SEED))


def tracked_objects(root):
    """GC-tracked objects reachable from ``root``, classes, modules and
    functions left out."""
    gc.collect()  # untracks the tuples that hold no container
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


def test_a_warm_scale_major_pass_holds_few_tracked_objects():
    service = BenchmarkService()
    try:
        scale_major_pass(service)
        scale_major_pass(service)
        memo = service._traces
        # 3 templates (scale32's foreground and shared background,
        # scale128's foreground), 4 whole traces and their program
        # variants
        assert len(memo._templates) == 3
        assert tracked_objects(memo) <= TRACKED
    finally:
        service.close()


def test_held_events_stay_within_the_bound():
    service = BenchmarkService()
    memo = service._traces
    try:
        for name in TABLE2_ORDER:
            for tool in TOOLS:
                service.run(RunRequest(benchmark=name, tool=tool, seed=SEED))
                assert memo.held_events <= TraceMemo.EVENTS
        # every Table 2 variant fits: 44 foregrounds, 5 backgrounds
        assert len(memo._templates) == 49
        for _ in range(2):
            scale_major_pass(service)
            assert memo.held_events <= TraceMemo.EVENTS
        assert memo.held_events == sum(
            template.trace.event_count
            for template in memo._templates.values()
        )
    finally:
        service.close()
