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
"""

from __future__ import annotations

import random
import uuid
from typing import Callable, Optional

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
