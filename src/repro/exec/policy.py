"""Retry, backoff, lease, and deadline policy for the execution plane.

One payload type (:func:`repro.codec.payload_type`) carries every
fault-tolerance knob a fleet needs.  Its JSON codec and field type
checks are derived from the fields, so the supervisor can hand the exact
policy to every worker process it spawns and a malformed policy fails
with a :class:`~repro.api.errors.ValidationError` (a ``ValueError``).
``__post_init__`` holds the value rules.

Backoff is capped exponential with deterministic jitter: the delay for
attempt *n* is ``base * 2**(n-1)`` capped at ``backoff_cap``, stretched
by up to ``backoff_jitter`` of itself.  The jitter fraction comes from a
:class:`random.Random` keyed on ``(seed, job_id, attempt)`` — the same
job retries on the same schedule every run, which keeps chaos tests
reproducible while still decorrelating distinct jobs' retry storms.
"""

from __future__ import annotations

import random
import zlib

from repro.api.errors import ValidationError
from repro.codec import payload_type


@payload_type
class RetryPolicy:
    """Fault-tolerance knobs for one execution plane."""

    #: total tries a job gets (first run + retries) before failing
    #: permanently with its root-cause error preserved
    max_attempts: int = 3
    #: first-retry delay, seconds
    backoff_base: float = 0.25
    #: largest delay the exponential curve may reach, seconds
    backoff_cap: float = 30.0
    #: jitter as a fraction of the computed delay (0 = none)
    backoff_jitter: float = 0.25
    #: a lease whose heartbeat is older than this is declared lost
    lease_ttl: float = 5.0
    #: how often live workers refresh their lease
    heartbeat_interval: float = 1.0
    #: jitter RNG seed (deterministic retry schedules per seed)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValidationError("backoff_base/backoff_cap must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValidationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.lease_ttl <= 0:
            raise ValidationError(f"lease_ttl must be > 0, got {self.lease_ttl}")
        if self.heartbeat_interval <= 0:
            raise ValidationError(
                f"heartbeat_interval must be > 0, "
                f"got {self.heartbeat_interval}"
            )
        if self.heartbeat_interval >= self.lease_ttl:
            raise ValidationError(
                "heartbeat_interval must be < lease_ttl or every live "
                "worker looks lost"
            )

    def backoff(self, job_id: str, attempt: int) -> float:
        """Delay before retry ``attempt`` of ``job_id`` (deterministic).

        ``attempt`` is the attempt number that just *failed* (1-based),
        so the first retry waits roughly ``backoff_base`` seconds.
        """
        if attempt < 1:
            return 0.0
        delay = min(
            self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1))
        )
        if self.backoff_jitter > 0:
            material = f"{self.seed}:{job_id}:{attempt}".encode()
            fraction = random.Random(zlib.crc32(material)).random()
            delay *= 1.0 + self.backoff_jitter * fraction
        return delay
