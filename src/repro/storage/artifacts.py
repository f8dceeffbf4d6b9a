"""Content-addressed persistent store for pipeline stage artifacts.

The pipeline's generalized graphs, comparison targets and final
benchmark results are serialized to JSON payloads and persisted here,
addressed by a stable key over what produced them.  The pipeline keeps
one file per key, each holding one section per stage: a *run* file per
run (benchmark, tool, resolved config, seed) holds its foreground's
generalization, its comparison and its final result, and a *variant*
file per background (its binary, tool, resolved config and seed) holds
that background's generalization.  Recording and transformation are
seeded and keep no section: a generalization section carries their
virtual seconds, so a run stopped before generalization stores nothing
and its retry records again.  A run reads each of its keys once and
writes each key that gained a section once, so a cold run creates one
file, plus one for a background that no earlier run stored.  Later runs
with the same key reuse the stored sections instead of recomputing the
stages, which makes repeated sweeps near-free, lets benchmarks that
share a background share its variant file, and makes ``provmark batch``
resumable.

Design points:

* **Stable keys.** Keys are SHA-256 digests of canonical JSON (sorted
  keys, no whitespace), never Python ``hash()`` — identical across
  processes, interpreter restarts, and ``PYTHONHASHSEED`` values.
* **Atomic writes.** Payloads are written to a unique temporary file and
  ``os.replace``d into place, so concurrent writers (a fleet's worker
  processes) and killed runs can never publish a half-written artifact
  under the final name.  Concurrent writers of one key race whole
  files: the last one wins, and each holds correct sections.
* **Corruption tolerance.** A truncated, unparsable, undecodable or
  mismatched artifact is treated as a miss: it is counted, best-effort
  deleted, and the stages recompute.  The store never raises on bad
  cache contents, and a section that parses but that its reader
  rejects (one raising :data:`PAYLOAD_ERRORS`) is counted invalid and
  recomputed, and the file republished without it.

The payload codecs for the graph/raw-output value types live here too, so
every stage serializes through one vocabulary.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Dict, Mapping, Optional, Sequence, Union

from repro.graph.model import PropertyGraph
from repro.storage.neo4jsim import Neo4jSim

#: bump when payload formats change incompatibly; old artifacts then
#: read as misses instead of deserializing garbage (4: recording and
#: transformation keep no section)
STORE_VERSION = 4

#: Process-wide fault-injection gate adopted by new stores (see
#: ``ArtifactStore.__init__``).  Worker processes under chaos testing
#: install their bound :class:`repro.faults.FaultPlan` here via
#: :func:`repro.faults.install_store_gate`; in production it stays None
#: and the write path is untouched.
DEFAULT_FAULT_GATE = None


class ArtifactError(Exception):
    """Raised for unusable store roots or malformed payload values."""


#: what a payload reader raises for a stored payload it cannot decode
#: (e.g. one written by another code version, or cut short)
PAYLOAD_ERRORS = (
    ArtifactError, AttributeError, IndexError, KeyError, TypeError, ValueError,
)


def canonical_key(material: Mapping[str, object]) -> str:
    """SHA-256 over canonical JSON — the artifact's content address.

    ``material`` must be JSON-serializable.  Canonicalization (sorted
    keys, compact separators) makes the digest independent of dict
    insertion order and process identity.
    """
    try:
        blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"unserializable key material: {exc}") from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_text_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` all at once: write a unique temp file
    beside it, then ``os.replace`` it into place (the temp file is
    removed if either step fails), so readers never see a torn file."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Per-store-instance counters (one run's view of the cache)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: corrupt/partial artifacts discarded, and sections of a read file
    #: their reader rejected, all recomputed
    invalid: int = 0

    def as_row(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
        }


class ArtifactStore:
    """An on-disk artifact store rooted at a directory.

    Layout: ``root/<stage>/<digest>.json`` where ``digest`` is
    :func:`canonical_key` of the key material, and ``stage`` names
    what the file holds (the pipeline's ``variant`` and ``run`` files,
    the ``spec`` and ``response`` stages).  Each file wraps its payload
    with the store version and the stage name so a version bump or a
    mis-filed artifact invalidates cleanly; a stage of user data (the
    specs) names the versions it still reads when it enumerates.
    """

    #: temp files older than this on store open are orphans of killed
    #: runs (an in-flight write lives milliseconds) and are swept
    STALE_TMP_SECONDS = 3600.0

    def __init__(
        self, root: Union[str, Path], fault_gate: Optional[object] = None
    ) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ArtifactError(f"cannot create store root {root}: {exc}") from exc
        self.stats = StoreStats()
        #: fault-injection hook consulted by save() (chaos tests only);
        #: falls back to the module seam so stores built deep inside the
        #: driver stack are covered without plumbing
        self.fault_gate = (
            fault_gate if fault_gate is not None else DEFAULT_FAULT_GATE
        )
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by killed runs.

        Only files past :data:`STALE_TMP_SECONDS` are touched so a
        concurrent writer's in-flight temp file is never yanked away.
        """
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for path in self.root.rglob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    def path_for(self, stage: str, material: Mapping[str, object]) -> Path:
        return self.root / stage / f"{canonical_key(material)}.json"

    @staticmethod
    def _read(path: Path, stage: str, versions: Container[int]) -> object:
        """The payload of the ``stage`` artifact at ``path``.

        Raises :class:`OSError` when the file cannot be read, and
        :class:`ValueError` or :class:`KeyError` when it is not a
        ``stage`` artifact written under one of ``versions``.
        """
        wrapper = json.loads(path.read_text())
        if not isinstance(wrapper, dict):
            raise ValueError("artifact wrapper must be an object")
        if wrapper.get("version") not in versions:
            raise ValueError("store version mismatch")
        if wrapper.get("stage") != stage:
            raise ValueError("stage mismatch")
        return wrapper["payload"]

    def load(
        self, stage: str, material: Mapping[str, object]
    ) -> Optional[object]:
        """Return the stored payload, or ``None`` on miss/corruption."""
        path = self.path_for(stage, material)
        try:
            payload = self._read(path, stage, (STORE_VERSION,))
        except OSError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError):
            # Truncated write, undecodable bytes, garbage, or a format
            # from another life: drop it and recompute.
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def save(
        self, stage: str, material: Mapping[str, object], payload: object,
        sections: Sequence[str] = (),
    ) -> Path:
        """Atomically persist ``payload`` under the stage/material key.

        ``sections`` names the stage sections a grouped payload carries;
        the fault gate is consulted once per section, under its name
        (once, under ``stage``, when there are none).
        """
        path = self.path_for(stage, material)
        path.parent.mkdir(parents=True, exist_ok=True)
        wrapper = {
            "version": STORE_VERSION,
            "stage": stage,
            "key": dict(material),
            "payload": payload,
        }
        try:
            blob = json.dumps(wrapper, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"unserializable payload for stage {stage!r}: {exc}"
            ) from exc
        if self.fault_gate is not None:
            # may publish a torn artifact under the final name and raise
            # (the injected mid-write crash the load() path must survive)
            for name in sections or (stage,):
                self.fault_gate.on_store_write(name, path, blob)
        write_text_atomic(path, blob)
        self.stats.writes += 1
        return path

    def iter_stage(
        self, stage: str, skip_digests: Container[str] = (), *,
        versions: Container[int],
    ):
        """Yield ``(path, payload)`` for every readable stage artifact.

        Used by consumers that enumerate a whole stage (the ``spec``
        stage holding persisted benchmark definitions).  Corrupt or
        mis-filed artifacts, and those written under a store version
        not in ``versions``, are skipped and counted invalid — not
        deleted, since another process may be mid-write.  Paths are
        yielded in sorted order so enumeration is deterministic.
        ``skip_digests`` drops artifacts by filename stem (their
        content digest) *before* reading them, so callers that track
        what they have already consumed pay only a directory listing
        on re-enumeration.
        """
        stage_dir = self.root / stage
        if not stage_dir.is_dir():
            return
        for path in sorted(stage_dir.glob("*.json")):
            if path.stem in skip_digests:
                continue
            try:
                payload = self._read(path, stage, versions)
            except (OSError, ValueError, KeyError):
                self.stats.invalid += 1
                continue
            yield path, payload

    def clear(self) -> int:
        """Delete every artifact (and temp file); returns artifacts removed."""
        removed = 0
        for path in sorted(self.root.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.rglob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def artifact_count(self) -> int:
        return sum(1 for _ in self.root.rglob("*.json"))

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r}, stats={self.stats})"


# -- payload codecs for shared value types ---------------------------------


def graph_to_payload(graph: PropertyGraph) -> Dict[str, object]:
    """Exact, order-preserving JSON form of a property graph.

    Nodes and edges are listed in insertion order, so a graph rebuilt by
    :func:`graph_from_payload` is byte-identical to the original under
    ``PropertyGraph.__eq__`` *and* iterates in the same order (which the
    matching engine's deterministic search relies on).
    """
    return {
        "gid": graph.gid,
        "nodes": [[n.id, n.label, dict(n.props)] for n in graph.nodes()],
        "edges": [
            [e.id, e.src, e.tgt, e.label, dict(e.props)]
            for e in graph.edges()
        ],
    }


def graph_from_payload(payload: Mapping[str, object]) -> PropertyGraph:
    try:
        graph = PropertyGraph(str(payload["gid"]))
        for node_id, label, props in payload["nodes"]:
            graph.add_node(node_id, label, props)
        for edge_id, src, tgt, label, props in payload["edges"]:
            graph.add_edge(edge_id, src, tgt, label, props)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed graph payload: {exc}") from exc
    return graph


def raw_to_payload(raw: Union[str, Neo4jSim]) -> Dict[str, object]:
    """Serialize a capture system's native output (text or Neo4j store)."""
    if isinstance(raw, Neo4jSim):
        return {"kind": "neo4j", "log": raw.dump_log()}
    if isinstance(raw, str):
        return {"kind": "text", "text": raw}
    raise ArtifactError(f"unsupported raw output type {type(raw).__name__}")

