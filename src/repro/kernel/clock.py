"""Virtual time and volatile identifier allocation.

Every run of the simulated machine draws a fresh seed, so pids, inode
numbers, boot ids, and timestamps differ across runs exactly like the
transient data ProvMark's generalization stage must abstract away
(paper §1, §3.4).  Within a run everything is deterministic.

Each draw is ``randrange(low, high)``'s own arithmetic, spelled out:
``low`` plus a ``getrandbits(k)`` rejection loop below ``high - low``,
with ``k`` that width's bit length.  CPython's ``randrange`` runs that
loop (3.10 through 3.13), so the stream of numbers is the one
``randrange`` draws, at a third of its cost: a trial draws about a
thousand of them.

Reseeding rests on one invariant: no kernel decision reads a drawn
value, unless a pid reaches a syscall other than as a PID-kind
``$variable`` (:func:`repro.suite.executor.reseedable` tells such
programs apart).  A run at another seed then makes the same draws in
the same order and differs only in the values drawn, which land in:
event times; a subject's ``pid``, ``ppid`` and ``task_id``; an object's
``ino``, ``pid``, ``task_id`` and ``pipe_id``, and the ``pipe:[id]`` and
``socket:[id]`` paths of pipe and socket descriptors; the results of
``fork``, ``vfork``, ``clone`` and ``getpid``; PID-kind syscall
arguments; and the trace's ``boot_id`` and ``machine_id``.  A machine
given a :class:`DrawLog` logs its draws, :meth:`DrawLog.replay` makes
them again from another seed, and :func:`repro.kernel.trace.reseed`
writes the new values into a copy of the trace, each stream of it when
something first reads that stream.
"""

from __future__ import annotations

import random
import uuid
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: a tick advances the clock by a draw from [TICK_MIN_NS, TICK_MAX_NS)
TICK_MIN_NS, TICK_MAX_NS = 1_000, 90_000
_TICK_SPAN = TICK_MAX_NS - TICK_MIN_NS
_TICK_BITS = _TICK_SPAN.bit_length()


def draw_below(getrandbits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` for ``n`` > 0, from the same bits."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class VirtualClock:
    """Monotonic nanosecond clock with a randomized epoch per boot."""

    def __init__(self, rng: random.Random) -> None:
        self._getrandbits = rng.getrandbits
        self._now_ns = (
            1_500_000_000 + draw_below(self._getrandbits, 400_000_000)
        ) * 1_000_000_000

    def tick(self) -> int:
        """Advance time by a small pseudo-random amount and return it."""
        # draw_below inlined: a syscall ticks three or four times
        getrandbits = self._getrandbits
        r = getrandbits(_TICK_BITS)
        while r >= _TICK_SPAN:
            r = getrandbits(_TICK_BITS)
        self._now_ns += TICK_MIN_NS + r
        return self._now_ns


class IdAllocator:
    """Allocates run-volatile identifiers: pids, inode numbers, object ids."""

    def __init__(self, rng: random.Random) -> None:
        self._getrandbits = getrandbits = rng.getrandbits
        self._next_pid = 1_000 + draw_below(getrandbits, 29_000)
        self._next_ino = 100_000 + draw_below(getrandbits, 800_000)
        self._next_object_id = 10_000 + draw_below(getrandbits, 490_000)
        self.boot_id = str(uuid.UUID(int=getrandbits(128)))
        self.machine_id = f"machine-{draw_below(getrandbits, 10**8):08d}"

    def pid(self) -> int:
        self._next_pid += 1 + draw_below(self._getrandbits, 3)
        return self._next_pid

    def ino(self) -> int:
        self._next_ino += 1 + draw_below(self._getrandbits, 15)
        return self._next_ino

    def object_id(self) -> int:
        self._next_object_id += 1
        return self._next_object_id


def make_rng(seed: Optional[int]) -> random.Random:
    """Seeded RNG for a boot; ``None`` draws entropy (non-reproducible)."""
    if seed is None:
        return random.Random()
    return random.Random(seed)


#: the kinds of draw a :class:`DrawLog` tells apart, in the order of
#: ``DrawLog.values``
TICK, PID, INO, OBJECT_ID = range(4)


class DrawLog:
    """Every draw of one machine's clock and id allocator, in order.

    Kept in arrays, not lists of tuples: a trace memo holds a log per
    variant, and the cyclic garbage collector never walks an array.
    """

    __slots__ = ("kinds", "values")

    def __init__(self) -> None:
        #: the kind of each draw (``TICK`` ...), in draw order
        self.kinds = bytearray()
        #: per kind, the values drawn, in draw order
        self.values = (array("q"), array("q"), array("q"), array("q"))

    def allocators(
        self, rng: random.Random
    ) -> Tuple[VirtualClock, IdAllocator]:
        """A clock and an id allocator on ``rng`` that log here, built
        in the order a machine builds its own."""
        return _LoggedClock(rng, self), _LoggedIds(rng, self)

    def replay(
        self, seed: int
    ) -> Tuple[IdAllocator, List[Dict[int, int]], random.Random]:
        """The logged draws made again by a machine booted with
        ``seed``: its id allocator (for the boot and machine ids), per
        kind a map from each logged value to the one drawn in its
        place, and its RNG, left where that machine's would be."""
        rng = make_rng(seed)
        clock, ids = VirtualClock(rng), IdAllocator(rng)
        drawn: Tuple[List[int], ...] = ([], [], [], [])
        draw = (clock.tick, ids.pid, ids.ino, ids.object_id)
        keep = [values.append for values in drawn]
        for kind in self.kinds:
            keep[kind](draw[kind]())
        return ids, [
            dict(zip(logged, new)) for logged, new in zip(self.values, drawn)
        ], rng


class _LoggedClock(VirtualClock):
    def __init__(self, rng: random.Random, log: DrawLog) -> None:
        super().__init__(rng)
        self._kinds = log.kinds
        self._ticks = log.values[TICK]

    def tick(self) -> int:
        now = VirtualClock.tick(self)
        self._kinds.append(TICK)
        self._ticks.append(now)
        return now


class _LoggedIds(IdAllocator):
    def __init__(self, rng: random.Random, log: DrawLog) -> None:
        super().__init__(rng)
        self._kinds = log.kinds
        self._values = log.values

    def pid(self) -> int:
        value = IdAllocator.pid(self)
        self._kinds.append(PID)
        self._values[PID].append(value)
        return value

    def ino(self) -> int:
        value = IdAllocator.ino(self)
        self._kinds.append(INO)
        self._values[INO].append(value)
        return value

    def object_id(self) -> int:
        value = IdAllocator.object_id(self)
        self._kinds.append(OBJECT_ID)
        self._values[OBJECT_ID].append(value)
        return value
