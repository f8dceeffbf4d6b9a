"""Capture-system interface.

A capture system is a black box that observes one vantage point of the
kernel trace and produces provenance output in its own native format
(paper Figure 2).  ProvMark's recording stage drives these objects; the
transformation stage understands their ``output_format``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Union

from repro.kernel.trace import Trace
from repro.storage.neo4jsim import Neo4jSim

#: Native outputs: DOT text (SPADE), a Neo4jSim store (OPUS), or
#: PROV-JSON text (CamFlow).
RawOutput = Union[str, Neo4jSim]


@dataclass(frozen=True)
class RecordingCost:
    """Virtual per-trial recording time (paper §5.1).

    The simulator runs in microseconds; these figures report what the real
    systems cost per trial (SPADE ≈ 20 s, OPUS ≈ 28 s, CamFlow ≈ 10 s,
    dominated by start/stop/flush waits) as
    :attr:`~repro.core.result.StageTimings.virtual_recording`.
    """

    seconds: float


class CaptureSystem(abc.ABC):
    """Base class for the three simulated provenance recorders."""

    #: short identifier, e.g. ``"spade"``
    name: str = "base"
    #: one of ``"dot"``, ``"neo4j"``, ``"provjson"``
    output_format: str = "none"
    #: virtual seconds one recording trial costs (paper §5.1)
    recording_seconds: float = 0.0

    @abc.abstractmethod
    def record(self, trace: Trace, rng: random.Random) -> RawOutput:
        """Consume one recording window and emit native provenance output.

        ``rng`` drives run-to-run volatility internal to the tool itself
        (e.g. CamFlow's occasional structural variation, paper §3.2); the
        kernel's own volatility already lives in ``trace``.
        """

    def recording_cost(self, rng: random.Random) -> RecordingCost:
        """Virtual recording time for one trial, with small jitter."""
        jitter = 1.0 + rng.uniform(-0.1, 0.1)
        return RecordingCost(seconds=self.recording_seconds * jitter)
