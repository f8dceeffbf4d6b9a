"""Host-speed calibration: a fixed reference kernel timed between passes.

The speed of a shared VM drifts by 10-30% over tens of seconds.  On an
otherwise idle 2-vCPU x86 VM, the 15-second medians of one fixed loop
spread by 0.16 (interquartile range over median).  That is more than a
change to the program can be held to.  So every timed interval of the
benchmark is bracketed by timings of the same reference kernel, and its
wall time is scaled by ``REFERENCE_MS`` over the mean of the two
bracketing timings: the benchmark reports times at one fixed host speed.
On that VM, scaling cut the 15-second spread of a scale32 + open sweep
from 0.155 to 0.06.

The kernel is the same pure-Python dict work for every commit, runs with
the garbage collector paused (so a large live heap in the program does
not slow it) and with no switch to other threads of the process (a
server's threads would otherwise take turns with it), and reports the
fastest of a few repeats.  The raw kernel
timings are written to the run's output file, so unscaled times can be
recovered.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List

#: the kernel's time (ms) on the host the figures are scaled to
REFERENCE_MS = 3.5
#: kernel repeats per sample; a sample is their fastest
REPEATS = 3
#: seconds of measured work between samples, where the work allows
INTERVAL_S = 0.3


def _kernel() -> int:
    table = {}
    for i in range(20000):
        key = i % 977
        table[key] = table.get(key, 0) + i * 3
    return len(table)


def sample() -> float:
    """The kernel's fastest of ``REPEATS`` timings (ms), gc paused and
    other threads held off."""
    enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    gc.disable()
    sys.setswitchinterval(1.0)
    try:
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        sys.setswitchinterval(interval)
        if enabled:
            gc.enable()
    return 1e3 * best


class Pace:
    """Kernel samples taken between the timed intervals of one run."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = [sample()]
        self._sampled_at = time.perf_counter()

    def due(self) -> bool:
        """Whether ``INTERVAL_S`` has passed since the last sample."""
        return time.perf_counter() - self._sampled_at >= INTERVAL_S

    def _take(self) -> None:
        self.samples_ms.append(sample())
        self._sampled_at = time.perf_counter()

    def factor(self) -> float:
        """Sample again; the scale for the interval since the last sample
        (``REFERENCE_MS`` over the mean of its two bracketing samples)."""
        return self.factor_since(len(self.samples_ms) - 1)

    def factor_since(self, mark: int) -> float:
        """Sample again; the scale for the interval since sample ``mark``
        (``REFERENCE_MS`` over the mean of the samples from there on)."""
        self._take()
        return REFERENCE_MS / statistics.mean(self.samples_ms[mark:])

    @contextmanager
    def beside(self) -> Iterator[int]:
        """Sample every ``INTERVAL_S`` on a thread of its own while the
        block runs, for work that cannot stop for samples (a burst of
        jobs, a set-up); yields the index of the last sample before it,
        for :meth:`factor_since`."""
        mark = len(self.samples_ms) - 1
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(INTERVAL_S):
                self._take()

        thread = threading.Thread(target=loop, name="bench-pace", daemon=True)
        thread.start()
        try:
            yield mark
        finally:
            stop.set()
            thread.join()
