"""Simulated SPADEv2 with the Linux Audit reporter.

SPADE runs in user space and assembles an OPM-style graph (Process /
Artifact / Agent vertices; Used / WasGeneratedBy / WasTriggeredBy /
WasDerivedFrom / WasControlledBy edges) from audit records.  Key behaviours
reproduced from the paper:

* default audit rules report **successful** calls only (§3.1, Alice);
* a fixed syscall set is rendered; ``dup``/``mknod``/``chown``/pipes are
  not (Table 2 notes NR / SC);
* with ``simplify`` enabled (default), ``setresuid``/``setresgid`` are not
  explicitly audited, but changes to process credentials observed on later
  records are rendered as a process update (note SC);
* with ``simplify`` disabled they are audited explicitly — and the
  benchmarked SPADE version had a bug where one property of the emitted
  edge was initialized to a random value, surfacing as a disconnected
  subgraph (§3.1, Bob); ``simplify_bug_fixed`` models the upstream fix;
* the ``IORuns`` filter should coalesce runs of reads/writes but matched
  the wrong property name in the benchmarked version, so it had no effect
  (§3.1, Bob); ``ioruns_bug_fixed`` models the fix;
* ``vfork`` children appear as disconnected process vertices because Linux
  Audit reports the parent's vfork after the child already ran (§4.2,
  note DV);
* optional artifact ``versioning`` (off in the baseline configuration).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.capture.base import CaptureSystem, RawOutput
from repro.storage.neo4jsim import Neo4jSim
from repro.graph.dot import graph_to_dot
from repro.graph.model import PropertyGraph
from repro.kernel.trace import AuditEvent, ObjectInfo, Trace

#: Syscalls rendered by the baseline configuration (simplify on).
BASE_RENDER_SET = frozenset({
    "open", "openat", "creat", "close",
    "read", "pread", "write", "pwrite",
    "link", "linkat", "symlink", "symlinkat",
    "rename", "renameat", "truncate", "ftruncate",
    "unlink", "unlinkat",
    "fork", "vfork", "clone", "execve",
    "chmod", "fchmod", "fchmodat",
    "setuid", "setreuid", "setgid", "setregid",
})

#: Extra syscalls audited when ``simplify`` is disabled (paper §3.1, Bob).
NO_SIMPLIFY_EXTRA = frozenset({"setresuid", "setresgid"})

_USED = "Used"
_WGB = "WasGeneratedBy"
_WTB = "WasTriggeredBy"
_WDF = "WasDerivedFrom"
_WCB = "WasControlledBy"


@dataclass
class SpadeConfig:
    """Knobs mirroring the real SPADE configuration surface."""

    simplify: bool = True
    simplify_bug_fixed: bool = False
    ioruns_filter: bool = False
    ioruns_bug_fixed: bool = False
    versioning: bool = False
    audit_success_only: bool = True
    #: "dot" (Graphviz storage, the paper's ``spg`` profile) or "neo4j"
    #: (the ``spn`` profile).
    storage: str = "dot"


class SpadeCapture(CaptureSystem):
    """SPADE + Linux Audit reporter + Graphviz or Neo4j storage."""

    name = "spade"
    output_format = "dot"
    recording_seconds = 20.0

    def __init__(self, config: Optional[SpadeConfig] = None) -> None:
        self.config = config or SpadeConfig()
        if self.config.storage not in ("dot", "neo4j"):
            raise ValueError(f"unknown SPADE storage {self.config.storage!r}")
        self.output_format = self.config.storage

    # -- public API ---------------------------------------------------------

    def record(self, trace: Trace, rng: random.Random) -> RawOutput:
        builder = _SpadeGraphBuilder(self.config, rng, self.render_set())
        for event in trace.audit:
            builder.feed(event)
        graph = builder.graph
        if self.config.ioruns_filter:
            graph = _apply_ioruns_filter(graph, self.config.ioruns_bug_fixed)
        if self.config.storage == "neo4j":
            return _graph_to_store(graph)
        return graph_to_dot(graph, name="spade")

    def render_set(self) -> frozenset:
        if self.config.simplify:
            return BASE_RENDER_SET
        return BASE_RENDER_SET | NO_SIMPLIFY_EXTRA


class _SpadeGraphBuilder:
    """Streams audit events into an OPM property graph."""

    def __init__(
        self, config: SpadeConfig, rng: random.Random, render_set: frozenset
    ) -> None:
        self.config = config
        self.rng = rng
        #: syscalls this configuration renders (``SpadeCapture.render_set``)
        self.render_set = render_set
        self.graph = PropertyGraph("spade")
        self._seq = 0
        #: pid -> current process vertex id
        self._process_vertex: Dict[int, str] = {}
        #: pid -> creds snapshot used for change detection (note SC)
        self._last_creds: Dict[int, Tuple[str, ...]] = {}
        #: (ino or path) -> artifact vertex id
        self._artifact_vertex: Dict[str, str] = {}
        #: uid -> agent vertex id
        self._agent_vertex: Dict[str, str] = {}

    # -- id allocation (volatile across runs, like SPADE's hashes) ------------

    def _vertex_id(self) -> str:
        self._seq += 1
        return f"v{self.rng.randrange(16**8):08x}{self._seq}"

    def _edge_id(self) -> str:
        self._seq += 1
        return f"e{self.rng.randrange(16**8):08x}{self._seq}"

    # -- vertex management -------------------------------------------------------

    def _ensure_process(self, event: AuditEvent, pid: Optional[int] = None) -> str:
        subject = event.subject
        key = pid if pid is not None else subject.pid
        existing = self._process_vertex.get(key)
        if existing is not None:
            return existing
        props = {
            "pid": str(key),
            "ppid": str(subject.ppid) if key == subject.pid else str(subject.pid),
            "name": subject.comm,
            "exe": subject.exe,
            "uid": str(subject.uid),
            "euid": str(subject.euid),
            "gid": str(subject.gid),
            "source": "syscall",
            "start time": str(event.time_ns),
        }
        vertex = self.graph.add_node(self._vertex_id(), "Process", props)
        self._process_vertex[key] = vertex.id
        if key == subject.pid:
            self._last_creds[key] = self._creds_key(event)
        return vertex.id

    def _creds_key(self, event: AuditEvent) -> Tuple[str, ...]:
        subject = event.subject
        return (
            str(subject.uid), str(subject.euid), str(subject.gid),
            str(subject.egid), str(subject.suid), str(subject.sgid),
        )

    def _artifact_key(self, obj: ObjectInfo) -> str:
        if obj.kind == "pipe":
            return f"pipe:{obj.pipe_id}"
        if obj.ino is not None:
            return f"ino:{obj.ino}"
        return f"path:{obj.path}"

    def _ensure_artifact(self, obj: ObjectInfo, event: AuditEvent) -> str:
        key = self._artifact_key(obj)
        existing = self._artifact_vertex.get(key)
        if existing is not None:
            return existing
        props = {
            "subtype": obj.kind,
            "path": obj.path or "",
            "ino": str(obj.ino) if obj.ino is not None else "",
            "version": str(obj.version or 0),
            "time": str(event.time_ns),
        }
        vertex = self.graph.add_node(self._vertex_id(), "Artifact", props)
        self._artifact_vertex[key] = vertex.id
        return vertex.id

    def _new_artifact_version(self, obj: ObjectInfo, event: AuditEvent) -> str:
        """With versioning on, a write creates a fresh artifact vertex
        derived from the previous one."""
        key = self._artifact_key(obj)
        previous = self._artifact_vertex.get(key)
        if previous is None or not self.config.versioning:
            return self._ensure_artifact(obj, event)
        props = dict(self.graph.node(previous).props)
        props["version"] = str(int(props.get("version") or 0) + 1)
        vertex = self.graph.add_node(self._vertex_id(), "Artifact", props)
        self.graph.add_edge(
            self._edge_id(), vertex.id, previous, _WDF,
            {"operation": "update", "time": str(event.time_ns)},
        )
        self._artifact_vertex[key] = vertex.id
        return vertex.id

    def _ensure_agent(self, event: AuditEvent) -> str:
        uid = str(event.subject.euid)
        existing = self._agent_vertex.get(uid)
        if existing is not None:
            return existing
        vertex = self.graph.add_node(
            self._vertex_id(), "Agent",
            {"uid": uid, "gid": str(event.subject.egid), "source": "syscall"},
        )
        self._agent_vertex[uid] = vertex.id
        return vertex.id

    def _edge(
        self, src: str, tgt: str, label: str, event: AuditEvent, operation: str,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        props = {
            "operation": operation,
            "time": str(event.time_ns),
            "pid": str(event.subject.pid),
        }
        if extra:
            props.update(extra)
        self.graph.add_edge(self._edge_id(), src, tgt, label, props)

    # -- event dispatch ------------------------------------------------------------

    def feed(self, event: AuditEvent) -> None:
        if self.config.audit_success_only and not event.success:
            return
        process = self._ensure_process(event)
        self._detect_cred_change(event, process)
        process = self._process_vertex[event.subject.pid]
        if event.syscall not in self.render_set:
            return
        handler = getattr(self, f"_on_{event.syscall}", None)
        if handler is not None:
            handler(event, process)

    def _detect_cred_change(self, event: AuditEvent, process: str) -> None:
        """Note SC: render observed credential changes as process updates."""
        pid = event.subject.pid
        current = self._creds_key(event)
        last = self._last_creds.get(pid)
        self._last_creds[pid] = current
        if last is None or last == current:
            return
        if event.syscall.startswith("set") and event.syscall in self.render_set:
            # The explicit handler renders this change itself.
            return
        old_vertex = self._process_vertex[pid]
        props = dict(self.graph.node(old_vertex).props)
        props.update({
            "uid": str(event.subject.uid),
            "euid": str(event.subject.euid),
            "gid": str(event.subject.gid),
        })
        new_vertex = self.graph.add_node(self._vertex_id(), "Process", props)
        self._process_vertex[pid] = new_vertex.id
        self._edge(new_vertex.id, old_vertex, _WTB, event, "update")

    # -- per-syscall rendering -------------------------------------------------------

    def _object(self, event: AuditEvent, role: str) -> Optional[ObjectInfo]:
        for obj in event.objects:
            if obj.role == role:
                return obj
        return None

    def _on_open(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "path")
        if obj is None:
            return
        artifact = self._ensure_artifact(obj, event)
        self._edge(process, artifact, _USED, event, "open")

    _on_openat = _on_open

    def _on_creat(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "path")
        if obj is None:
            return
        artifact = self._ensure_artifact(obj, event)
        self._edge(artifact, process, _WGB, event, "creat")

    def _on_close(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "fd")
        if obj is None:
            return
        artifact = self._ensure_artifact(obj, event)
        self._edge(process, artifact, _USED, event, "close")

    def _on_read(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "fd")
        if obj is None or obj.kind == "pipe":
            return
        artifact = self._ensure_artifact(obj, event)
        self._edge(process, artifact, _USED, event, event.syscall,
                   {"size": "64"})

    _on_pread = _on_read

    def _on_write(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "fd")
        if obj is None or obj.kind == "pipe":
            return
        artifact = self._new_artifact_version(obj, event)
        self._edge(artifact, process, _WGB, event, event.syscall,
                   {"size": "5"})

    _on_pwrite = _on_write

    def _on_link(self, event: AuditEvent, process: str) -> None:
        old_obj = self._object(event, "oldpath")
        new_obj = self._object(event, "newpath") or self._object(event, "linkpath")
        if old_obj is None or new_obj is None:
            return
        old_artifact = self._ensure_artifact(old_obj, event)
        # A hard link shares the inode; key the new name by path.
        new_key_obj = ObjectInfo(
            kind=new_obj.kind, role=new_obj.role, ino=None, path=new_obj.path,
            version=new_obj.version,
        )
        new_artifact = self._ensure_artifact(new_key_obj, event)
        self._edge(new_artifact, old_artifact, _WDF, event, event.syscall)
        self._edge(new_artifact, process, _WGB, event, event.syscall)
        self._edge(process, old_artifact, _USED, event, event.syscall)

    _on_linkat = _on_link

    def _on_symlink(self, event: AuditEvent, process: str) -> None:
        link_obj = self._object(event, "linkpath")
        if link_obj is None:
            return
        artifact = self._ensure_artifact(link_obj, event)
        self._edge(artifact, process, _WGB, event, event.syscall)

    _on_symlinkat = _on_symlink

    def _on_rename(self, event: AuditEvent, process: str) -> None:
        old_obj = self._object(event, "oldpath")
        new_obj = self._object(event, "newpath")
        if old_obj is None or new_obj is None:
            return
        old_key_obj = ObjectInfo(
            kind=old_obj.kind, role=old_obj.role, ino=None, path=old_obj.path,
            version=old_obj.version,
        )
        new_key_obj = ObjectInfo(
            kind=new_obj.kind, role=new_obj.role, ino=None, path=new_obj.path,
            version=new_obj.version,
        )
        old_artifact = self._ensure_artifact(old_key_obj, event)
        new_artifact = self._ensure_artifact(new_key_obj, event)
        self._edge(new_artifact, old_artifact, _WDF, event, event.syscall)
        self._edge(new_artifact, process, _WGB, event, event.syscall)
        self._edge(process, old_artifact, _USED, event, event.syscall)

    _on_renameat = _on_rename

    def _on_truncate(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "path") or self._object(event, "fd")
        if obj is None:
            return
        artifact = self._new_artifact_version(obj, event)
        self._edge(artifact, process, _WGB, event, event.syscall)

    _on_ftruncate = _on_truncate

    def _on_unlink(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "path")
        if obj is None:
            return
        artifact = self._ensure_artifact(obj, event)
        self._edge(artifact, process, _WGB, event, event.syscall)

    _on_unlinkat = _on_unlink

    def _on_fork(self, event: AuditEvent, process: str) -> None:
        child_obj = self._object(event, "child")
        if child_obj is None or child_obj.pid is None:
            return
        if child_obj.pid in self._process_vertex:
            # The child was already seen executing (vfork ordering): SPADE
            # keeps the existing, disconnected vertex (paper §4.2, note DV).
            return
        child = self._ensure_process(event, pid=child_obj.pid)
        self._edge(child, process, _WTB, event, event.syscall)

    _on_vfork = _on_fork
    _on_clone = _on_fork

    def _on_execve(self, event: AuditEvent, process: str) -> None:
        exe_obj = self._object(event, "exe")
        old_exe_obj = self._object(event, "old_exe")
        pid = event.subject.pid
        old_vertex = self._process_vertex[pid]
        props = dict(self.graph.node(old_vertex).props)
        props.update({
            "name": event.subject.comm,
            "exe": event.subject.exe,
            "commandline": " ".join(event.args),
        })
        new_vertex = self.graph.add_node(self._vertex_id(), "Process", props)
        self._process_vertex[pid] = new_vertex.id
        self._edge(new_vertex.id, old_vertex, _WTB, event, "execve")
        if exe_obj is not None:
            exe_artifact = self._ensure_artifact(exe_obj, event)
            self._edge(new_vertex.id, exe_artifact, _USED, event, "load")
        if old_exe_obj is not None:
            old_artifact = self._ensure_artifact(old_exe_obj, event)
            self._edge(process, old_artifact, _USED, event, "load")
        agent = self._ensure_agent(event)
        self._edge(new_vertex.id, agent, _WCB, event, "execve")

    def _on_chmod(self, event: AuditEvent, process: str) -> None:
        obj = self._object(event, "path") or self._object(event, "fd")
        if obj is None:
            return
        artifact = self._new_artifact_version(obj, event)
        self._edge(artifact, process, _WGB, event, event.syscall,
                   {"mode": obj.mode or ""})

    _on_fchmod = _on_chmod
    _on_fchmodat = _on_chmod

    def _cred_syscall(self, event: AuditEvent, process: str) -> None:
        """Explicitly audited credential calls (setuid family)."""
        pid = event.subject.pid
        old_vertex = self._process_vertex[pid]
        props = dict(self.graph.node(old_vertex).props)
        props.update({
            "uid": str(event.subject.uid),
            "euid": str(event.subject.euid),
            "gid": str(event.subject.gid),
        })
        new_vertex = self.graph.add_node(self._vertex_id(), "Process", props)
        self._process_vertex[pid] = new_vertex.id
        self._edge(new_vertex.id, old_vertex, _WTB, event, event.syscall)

    _on_setuid = _cred_syscall
    _on_setreuid = _cred_syscall
    _on_setgid = _cred_syscall
    _on_setregid = _cred_syscall

    def _cred_syscall_nosimplify(self, event: AuditEvent, process: str) -> None:
        """setres[ug]id with simplify disabled.

        The benchmarked SPADE had a bug here: one property of the emitted
        edge — the vertex hash it pointed at — was initialized from
        uninitialized memory, so the edge dangles at a vertex that does not
        exist, surfacing as a disconnected subgraph in the benchmark
        (paper §3.1, Bob).  ``simplify_bug_fixed`` renders the intended
        structure instead.
        """
        pid = event.subject.pid
        old_vertex = self._process_vertex[pid]
        props = dict(self.graph.node(old_vertex).props)
        props.update({
            "uid": str(event.subject.uid),
            "euid": str(event.subject.euid),
            "gid": str(event.subject.gid),
        })
        new_vertex = self.graph.add_node(self._vertex_id(), "Process", props)
        self._process_vertex[pid] = new_vertex.id
        if self.config.simplify_bug_fixed:
            self._edge(new_vertex.id, old_vertex, _WTB, event, event.syscall)
        else:
            bogus = self.graph.add_node(
                f"v{self.rng.randrange(16**12):012x}", "Process",
                {"source": "uninitialized"},
            )
            self._edge(new_vertex.id, bogus.id, _WTB, event, event.syscall)

    _on_setresuid = _cred_syscall_nosimplify
    _on_setresgid = _cred_syscall_nosimplify


def _apply_ioruns_filter(graph: PropertyGraph, bug_fixed: bool) -> PropertyGraph:
    """SPADE's IORuns filter: coalesce runs of identical read/write edges.

    The benchmarked version matched on a property name the Audit reporter
    no longer generated, so it never coalesced anything (paper §3.1, Bob).
    We model it as the filter matching the stale key ``"opname"`` versus
    the actual key ``"operation"`` once fixed.
    """
    match_key = "operation" if bug_fixed else "opname"
    out = PropertyGraph(graph.gid)
    for node in graph.nodes():
        out.add_node(node.id, node.label, node.props)
    seen_runs: Dict[Tuple[str, str, str, str], str] = {}
    for edge in graph.edges():
        operation = edge.props.get(match_key, "")
        if operation in ("read", "pread", "write", "pwrite"):
            run_key = (edge.src, edge.tgt, edge.label, operation)
            existing = seen_runs.get(run_key)
            if existing is not None:
                count = int(out.edge(existing).props.get("count", "1")) + 1
                out.set_prop(existing, "count", str(count))
                continue
            new_edge = out.add_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
            seen_runs[run_key] = new_edge.id
        else:
            out.add_edge(edge.id, edge.src, edge.tgt, edge.label, edge.props)
    return out


def _graph_to_store(graph: PropertyGraph) -> Neo4jSim:
    """SPADE's Neo4j storage (the ``spn`` profile): vertices and edges go
    into the database keyed by sequential internal ids."""
    store = Neo4jSim()
    index = {}
    next_id = 1
    for node in graph.nodes():
        index[node.id] = next_id
        props = dict(node.props)
        props["hash"] = node.id
        store.create_node(next_id, node.label, props)
        next_id += 1
    for edge in graph.edges():
        props = dict(edge.props)
        props["hash"] = edge.id
        store.create_relationship(
            next_id, index[edge.src], index[edge.tgt], edge.label, props
        )
        next_id += 1
    return store
