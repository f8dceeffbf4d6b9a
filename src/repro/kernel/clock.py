"""Virtual time and volatile identifier allocation.

Every run of the simulated machine draws a fresh seed, so pids, inode
numbers, boot ids, and timestamps differ across runs exactly like the
transient data ProvMark's generalization stage must abstract away
(paper §1, §3.4).  Within a run everything is deterministic.
"""

from __future__ import annotations

import random
import uuid
from typing import Optional


class VirtualClock:
    """Monotonic nanosecond clock with a randomized epoch per boot."""

    def __init__(self, rng: random.Random) -> None:
        self._now_ns = rng.randrange(1_500_000_000, 1_900_000_000) * 1_000_000_000
        self._rng = rng

    def tick(self, min_ns: int = 1_000, max_ns: int = 90_000) -> int:
        """Advance time by a small pseudo-random amount and return it."""
        self._now_ns += self._rng.randrange(min_ns, max_ns)
        return self._now_ns


class IdAllocator:
    """Allocates run-volatile identifiers: pids, inode numbers, object ids."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._next_pid = rng.randrange(1_000, 30_000)
        self._next_ino = rng.randrange(100_000, 900_000)
        self._next_object_id = rng.randrange(10_000, 500_000)
        self.boot_id = str(uuid.UUID(int=rng.getrandbits(128)))
        self.machine_id = f"machine-{rng.randrange(10**8):08d}"

    def pid(self) -> int:
        self._next_pid += self._rng.randrange(1, 4)
        return self._next_pid

    def ino(self) -> int:
        self._next_ino += self._rng.randrange(1, 16)
        return self._next_ino

    def object_id(self) -> int:
        self._next_object_id += 1
        return self._next_object_id


def make_rng(seed: Optional[int]) -> random.Random:
    """Seeded RNG for a boot; ``None`` draws entropy (non-reproducible)."""
    if seed is None:
        return random.Random()
    return random.Random(seed)
