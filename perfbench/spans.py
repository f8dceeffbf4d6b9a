"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call across a layer boundary: ``name``, ``start``
and ``end`` on one monotonic clock (``time.perf_counter``), the ``parent``
span that caused it, and the ``run`` (pipeline run or job id) it belongs
to.  Spans opened on one thread nest implicitly; a span caused by work on
another thread (an HTTP handler serving the client's POST) names its
parent explicitly.  Spans stay in memory until the benchmark ends.

The recorder never reaches into ``src/``: :meth:`Tracer.wrap` replaces a
public method on one object (or class, or module) with a timing wrapper
and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """Spans and counts recorded at the layer boundaries of one run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        #: call counts of hot functions (see :meth:`count_calls`)
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, run: str = "", parent: Optional[int] = None
    ) -> Iterator[Dict[str, object]]:
        """Time the enclosed block as one span (yields its record)."""
        stack = self._stack()
        outer = stack[-1] if stack else None
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent if parent is not None else (
                outer["id"] if outer is not None else None
            ),
            "run": run or (outer["run"] if outer is not None else ""),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        parent_of: Optional[Callable[[], Optional[int]]] = None,
        on_result: Optional[Callable[[Dict[str, object], object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``parent_of`` supplies the parent span id for calls made on a
        thread other than the caller's; ``on_result`` annotates the span
        from the call's return value (e.g. how many records it read).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            parent = parent_of() if parent_of is not None else None
            with tracer.span(name, parent=parent) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        self.replace(owner, attr, traced)

    def count_calls(self, owner: object, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` under ``counts[name]`` (no span:
        for hot functions called ~1e6 times per run)."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.replace(owner, attr, counted)

    def replace(self, owner: object, attr: str, wrapper: object) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`restore`."""
        original = getattr(owner, attr)
        if attr in vars(owner):
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (set-up's)."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover (s)."""
        children: Dict[int, List[Dict[str, object]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            start, end = span["start"], span["end"]
            covered = 0.0
            cursor = start
            for child in sorted(children[span["id"]], key=lambda c: c["start"]):
                lo = max(child["start"], cursor)
                hi = min(child["end"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span["id"]] = (end - start) - covered
        return result

    def layer_ms(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, mean self time and mean wall (ms)."""
        own = self.self_times()
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            row = totals[span["name"]]
            row[0] += 1
            row[1] += own[span["id"]]
            row[2] += span["end"] - span["start"]
        return {
            name: {
                "calls": int(calls),
                "self_ms": 1e3 * self_s / calls,
                "wall_ms": 1e3 * wall_s / calls,
            }
            for name, (calls, self_s, wall_s) in totals.items()
        }


class NullTracer(Tracer):
    """The untraced run's recorder: spans cost one no-op block."""

    enabled = False

    @contextmanager
    def span(
        self, name: str, run: str = "", parent: Optional[int] = None
    ) -> Iterator[Dict[str, object]]:
        yield {}
