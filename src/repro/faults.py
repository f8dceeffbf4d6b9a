"""Seeded, deterministic fault injection for the execution plane.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rows describing
*when* to break *what*: kill the worker process at a stage boundary,
tear an artifact-store write in half, inject latency into a stage, or
silently stop heartbeating so the supervisor declares the worker lost.
Chaos tests wire a plan through
:class:`~repro.exec.supervisor.Supervisor` into every worker process and
then assert the recovery paths — lease requeue, capped backoff, the
store's corruption-tolerant reads — produce results byte-identical to a
fault-free run.

Determinism has two layers:

* **Occurrence counting.** Each spec names its firing site (kind, stage,
  benchmark, worker index) and fires on the ``at``-th matching event in
  a process.  Counters are plain integers — no clocks, no randomness —
  so the same plan against the same workload fires at the same point
  every time.
* **Seeded probability.** A spec with ``probability < 1`` flips a coin
  from a :class:`random.Random` keyed on ``(plan seed, worker, spec
  index)``; the same seed yields the same fault schedule.  There is no
  module-level RNG (the repo-wide unseeded-randomness guard applies
  here too).

Cross-process budgets: retried jobs land in *fresh* worker processes
whose occurrence counters start over, so a naively per-process fault
would re-fire on every retry and no job could ever survive
``max_attempts``.  ``times`` bounds the total firings fleet-wide: when
the plan is bound to a coordination directory (the supervisor binds it
to the spool), each firing must claim an ``O_EXCL`` token file, so a
``times=1`` kill happens exactly once no matter how many workers replay
the same occurrence point.

A :class:`FaultSpec` is a payload type (:func:`repro.codec.payload_type`):
its JSON codec and field type checks are derived from its fields, so a
malformed spec — an unknown key, or a mistyped ``worker`` slot that
could never match — is a :class:`FaultError`, and ``__post_init__``
holds only the value rules.  Beyond that codec the layer is stdlib only;
the hooks it implements are called from the worker's stage-boundary
progress callback and from
:meth:`repro.storage.artifacts.ArtifactStore.save` via the module's
``DEFAULT_FAULT_GATE`` seam.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.codec import payload_type

#: the fault kinds the execution plane knows how to inject
FAULT_KINDS = (
    "worker_kill",     # os._exit at a stage boundary (no cleanup, no excuses)
    "torn_write",      # artifact store publishes a truncated file, then fails
    "stage_latency",   # sleep at a stage boundary (deadline/lease pressure)
    "heartbeat_loss",  # worker keeps running but stops heartbeating
    "conn_drop",       # coordinator drops the connection before responding
    "partition",       # client loses all connectivity for `latency` seconds
)

#: exit code of a fault-killed worker (mirrors SIGKILL's 128+9)
KILLED_EXIT_CODE = 137


class FaultError(Exception):
    """A malformed fault spec or plan payload."""


@payload_type(error=FaultError)
class FaultSpec:
    """One injectable fault, addressed by site and occurrence.

    ``stage``/``benchmark`` filter stage-boundary kinds (empty matches
    any); ``status`` picks the boundary edge (``started``/``finished``).
    ``worker`` restricts the fault to one worker slot index (``None``
    matches every worker).  The fault arms on the ``at``-th matching
    occurrence within a process and fires at most ``times`` times across
    the whole fleet (see :meth:`FaultPlan.bind`).
    """

    kind: str
    stage: str = ""
    benchmark: str = ""
    status: str = "started"
    worker: Optional[int] = None
    at: int = 1
    times: int = 1
    probability: float = 1.0
    #: seconds slept by ``stage_latency``; window of a ``partition``
    latency: float = 0.0
    #: bytes kept by ``torn_write`` (-1 = half the payload)
    keep_bytes: int = -1
    #: wire op filter for ``conn_drop``/``partition`` (empty matches any;
    #: else a key of :data:`repro.cluster.protocol.OPS`)
    op: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{list(FAULT_KINDS)}"
            )
        if self.status not in ("started", "finished", "failed"):
            raise FaultError(
                f"fault status must be a stage-boundary status, "
                f"got {self.status!r}"
            )
        if self.at < 1:
            raise FaultError(f"fault 'at' must be >= 1, got {self.at}")
        if self.times < 1:
            raise FaultError(f"fault 'times' must be >= 1, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.latency < 0:
            raise FaultError(f"fault latency must be >= 0, got {self.latency}")
        if self.op:
            # looked up here, not at import: repro.cluster imports
            # repro.exec, which imports this module
            from repro.cluster.protocol import OPS

            if self.op not in OPS:
                raise FaultError(
                    f"unknown wire op {self.op!r}; expected one of "
                    f"{sorted(OPS)}"
                )


class FaultPlan:
    """An armed set of fault specs, counting occurrences as they stream by.

    The plan is the *gate object* for every injection seam:

    * ``on_stage(benchmark, stage, status)`` — called from the worker's
      stage-boundary progress hook; fires ``stage_latency`` (sleep) and
      ``worker_kill`` (``os._exit``).
    * ``on_store_write(stage, path, blob)`` — called by
      :meth:`ArtifactStore.save` just before the atomic rename; a firing
      ``torn_write`` publishes a truncated payload under the *final*
      name (simulating a crash on a non-atomic filesystem) and raises
      ``OSError`` so the writer sees the failure.
    * ``on_attempt_start()`` / ``heartbeat_suppressed()`` — arm and
      query ``heartbeat_loss``; the worker's heartbeat thread checks the
      latter before each beat.

    A plan instance is process-local mutable state; build one per worker
    with :meth:`bind` (which fixes the worker index and the fleet-wide
    token directory).
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        worker: Optional[int] = None,
        token_dir: Optional[str] = None,
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.worker = worker
        self.token_dir = token_dir
        self._counts: Dict[int, int] = {}
        self._local_fired: Dict[int, int] = {}
        self._heartbeat_lost = False
        #: what fired, for test assertions: (kind, site, occurrence)
        self.fired: List[Tuple[str, str, int]] = []
        self._rngs: Dict[int, random.Random] = {}

    # -- construction --------------------------------------------------------

    def bind(self, worker: int, token_dir: Optional[str]) -> "FaultPlan":
        """A fresh per-process plan fixed to one worker slot index."""
        return FaultPlan(
            self.specs, seed=self.seed, worker=worker, token_dir=token_dir
        )

    def to_payload(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [spec.to_payload() for spec in self.specs],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise FaultError(
                f"fault plan payload must be an object, "
                f"got {type(payload).__name__}"
            )
        specs = payload.get("specs", ())
        if not isinstance(specs, (list, tuple)):
            raise FaultError("fault plan 'specs' must be an array")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultError("fault plan 'seed' must be an int")
        return cls([FaultSpec.from_payload(s) for s in specs], seed=seed)

    # -- injection hooks -----------------------------------------------------

    def on_stage(self, benchmark: str, stage: str, status: str) -> None:
        """Stage-boundary hook: may sleep, may never return (kill)."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in ("worker_kill", "stage_latency"):
                continue
            if not self._site_matches(spec, benchmark, stage, status):
                continue
            if not self._arm(index, spec):
                continue
            site = f"{benchmark}/{stage}:{status}"
            if spec.kind == "stage_latency":
                self.fired.append(("stage_latency", site, spec.at))
                time.sleep(spec.latency)
            else:
                # No cleanup, no atexit, no flushing: this is the crash
                # the supervisor exists to survive.
                os._exit(KILLED_EXIT_CODE)

    def on_store_write(self, stage: str, path: object, blob: str) -> None:
        """Artifact-store hook: a firing spec tears the write.

        Publishes ``keep_bytes`` (default: half) of ``blob`` under the
        final ``path`` — no temp file, no rename, exactly the partial
        state a mid-write crash leaves on a non-atomic filesystem — and
        raises ``OSError`` so the caller's write fails after the
        corruption is already on disk.
        """
        for index, spec in enumerate(self.specs):
            if spec.kind != "torn_write":
                continue
            if spec.stage and spec.stage != stage:
                continue
            if spec.worker is not None and spec.worker != self.worker:
                continue
            if not self._arm(index, spec):
                continue
            keep = spec.keep_bytes if spec.keep_bytes >= 0 else len(blob) // 2
            target = Path(str(path))
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(blob[:keep])
            self.fired.append(("torn_write", f"{stage}:{target.name}", spec.at))
            raise OSError(
                f"injected torn write: published {keep}/{len(blob)} bytes "
                f"of stage {stage!r} artifact"
            )

    def on_attempt_start(self) -> None:
        """Arm ``heartbeat_loss`` at job-attempt starts."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "heartbeat_loss":
                continue
            if spec.worker is not None and spec.worker != self.worker:
                continue
            if not self._arm(index, spec):
                continue
            self.fired.append(("heartbeat_loss", "attempt", spec.at))
            self._heartbeat_lost = True

    def heartbeat_suppressed(self) -> bool:
        """True once a ``heartbeat_loss`` fault has fired in this process."""
        return self._heartbeat_lost

    def on_cluster_op(self, op: str) -> bool:
        """Coordinator-side hook: True when a ``conn_drop`` fires on this
        wire op — the server then closes the connection *after* doing the
        work but before the response leaves, the exact window where the
        client's retry must rely on idempotency."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "conn_drop":
                continue
            if spec.op and spec.op != op:
                continue
            if not self._arm(index, spec):
                continue
            self.fired.append(("conn_drop", op, spec.at))
            return True
        return False

    def partition_seconds(self, op: str) -> float:
        """Client-side hook: a firing ``partition`` returns its window in
        seconds (``latency``); the remote queue then refuses to connect
        for that long, feeding real backoff/retry machinery."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "partition":
                continue
            if spec.op and spec.op != op:
                continue
            if spec.worker is not None and spec.worker != self.worker:
                continue
            if not self._arm(index, spec):
                continue
            self.fired.append(("partition", op, spec.at))
            return max(0.0, spec.latency)
        return 0.0

    # -- internals -----------------------------------------------------------

    def _site_matches(
        self, spec: FaultSpec, benchmark: str, stage: str, status: str
    ) -> bool:
        if spec.worker is not None and spec.worker != self.worker:
            return False
        if spec.stage and spec.stage != stage:
            return False
        if spec.benchmark and spec.benchmark != benchmark:
            return False
        return spec.status == status

    def _arm(self, index: int, spec: FaultSpec) -> bool:
        """Count one matching occurrence; True when the fault fires now."""
        count = self._counts.get(index, 0) + 1
        self._counts[index] = count
        if count != spec.at:
            return False
        if spec.probability < 1.0:
            if self._rng(index).random() >= spec.probability:
                return False
        return self._claim_token(index, spec)

    def _rng(self, index: int) -> random.Random:
        rng = self._rngs.get(index)
        if rng is None:
            material = f"{self.seed}:{self.worker}:{index}".encode()
            rng = random.Random(zlib.crc32(material))
            self._rngs[index] = rng
        return rng

    def _claim_token(self, index: int, spec: FaultSpec) -> bool:
        """Consume one of the spec's fleet-wide ``times`` firing tokens.

        Without a token directory the budget is process-local.  With one
        (the supervisor binds plans to the spool), ``O_EXCL`` file
        creation arbitrates between processes — including a retried
        worker replaying the exact occurrence that killed its
        predecessor, which is the case the budget exists for.
        """
        if self.token_dir is None:
            fired = self._local_fired.get(index, 0)
            if fired >= spec.times:
                return False
            self._local_fired[index] = fired + 1
            return True
        token_root = Path(self.token_dir)
        token_root.mkdir(parents=True, exist_ok=True)
        for shot in range(spec.times):
            token = token_root / f"fault-{index}-{shot}.fired"
            try:
                fd = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False


#: Process-wide fault gate adopted by newly created
#: :class:`~repro.storage.artifacts.ArtifactStore` instances (see the
#: ``DEFAULT_FAULT_GATE`` seam there).  The worker entry point installs
#: its bound plan here so every store the worker builds — however deep
#: in the driver stack — routes writes through the plan.  Always None in
#: production processes.
def install_store_gate(plan: Optional[FaultPlan]) -> None:
    """Point the artifact-store write seam at ``plan`` (None clears it)."""
    from repro.storage import artifacts

    artifacts.DEFAULT_FAULT_GATE = plan
