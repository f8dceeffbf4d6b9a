"""SPADE with CamFlow as its reporter (paper §2/§3.3).

The paper notes that "CamFlow can also be used (instead of Linux Audit)
to report provenance to SPADE, though we have not yet experimented with
this configuration".  This module implements that configuration: SPADE's
OPM-style graph and Graphviz storage, fed from the *LSM hook stream*
instead of the audit stream.

The consequence the combination predicts: coverage follows CamFlow's
recorded-hook set (sockets and `tee` appear; `dup` and `mknod` stay
invisible; failed permission checks stay unrecorded by default), while
the output vocabulary stays SPADE's (Process/Artifact vertices,
Used/WasGeneratedBy/WasTriggeredBy edges) — so existing SPADE queries
keep working over CamFlow-grade coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.capture.base import CaptureSystem, RawOutput
from repro.capture.camflow import RECORDED_HOOKS
from repro.graph.dot import dot_document, dot_edge, dot_node
from repro.kernel.trace import LsmEvent, ObjectInfo, Trace


@dataclass
class SpadeCamFlowConfig:
    """Configuration surface of the combined deployment."""

    record_failed: bool = False


class SpadeCamFlowCapture(CaptureSystem):
    """SPADE storage + vocabulary over the CamFlow reporter."""

    name = "spade-camflow"
    output_format = "dot"
    #: CamFlow's kernel-side collection is cheap; SPADE's storage adds a
    #: little on top of CamFlow's 10 s figure.
    recording_seconds = 12.0

    def __init__(self, config: Optional[SpadeCamFlowConfig] = None) -> None:
        self.config = config or SpadeCamFlowConfig()

    def record(self, trace: Trace, rng: random.Random) -> RawOutput:
        builder = _OpmFromLsmBuilder(rng)
        for event in trace.lsm:
            if not event.success and not self.config.record_failed:
                continue
            if event.hook not in RECORDED_HOOKS:
                continue
            builder.feed(event)
        return builder.dot()


#: hook -> (edge label, direction) in SPADE's OPM vocabulary.
#: direction "used": process -> artifact; "generated": artifact -> process.
_HOOK_EDGES = {
    "file_open": ("Used", "used", "open"),
    "mmap_file": ("Used", "used", "mmap"),
    "inode_create": ("WasGeneratedBy", "generated", "create"),
    "inode_link": ("WasGeneratedBy", "generated", "link"),
    "inode_rename": ("WasGeneratedBy", "generated", "rename"),
    "inode_unlink": ("Used", "used", "unlink"),
    "inode_setattr": ("WasGeneratedBy", "generated", "setattr"),
    "path_truncate": ("WasGeneratedBy", "generated", "truncate"),
    "file_splice_pipe_to_pipe": ("Used", "used", "tee"),
    "socket_create": ("WasGeneratedBy", "generated", "socketpair"),
    "socket_sendmsg": ("WasGeneratedBy", "generated", "send"),
    "socket_recvmsg": ("Used", "used", "recv"),
}


class _OpmFromLsmBuilder:
    """Renders LSM hook events into SPADE's Process/Artifact vocabulary,
    as the DOT statements SPADE's Graphviz storage writes."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._seq = 0
        self._process_vertex: Dict[int, str] = {}
        self._artifact_vertex: Dict[str, str] = {}
        #: each vertex's and edge's statement, by id
        self._nodes: Dict[str, str] = {}
        self._edges: Dict[str, str] = {}

    def _next_id(self, prefix: str) -> str:
        self._seq += 1
        return f"{prefix}{self.rng.randrange(16**8):08x}{self._seq}"

    def _add_node(self, label: str, props: Mapping[str, str]) -> str:
        node_id = self._next_id("v")
        self._nodes[node_id] = dot_node(node_id, label, props)
        return node_id

    def _add_edge(
        self, src: str, tgt: str, label: str, props: Mapping[str, str]
    ) -> None:
        edge_id = self._next_id("e")
        self._edges[edge_id] = dot_edge(edge_id, src, tgt, label, props)

    def dot(self) -> str:
        """The document: vertices, then edges, each sorted by id (the
        order ``graph_to_dot`` writes)."""
        return dot_document("spade_camflow", [
            *(self._nodes[node_id] for node_id in sorted(self._nodes)),
            *(self._edges[edge_id] for edge_id in sorted(self._edges)),
        ])

    def _ensure_process(self, event: LsmEvent) -> str:
        task_id = event.subject.task_id
        existing = self._process_vertex.get(task_id)
        if existing is not None:
            return existing
        vertex = self._add_node("Process", {
            "pid": str(event.subject.pid),
            "name": event.subject.comm,
            "uid": str(event.subject.uid),
            "source": "camflow",
            "start time": str(event.time_ns),
        })
        self._process_vertex[task_id] = vertex
        return vertex

    def _artifact_key(self, obj: ObjectInfo) -> str:
        if obj.kind in ("pipe", "socket"):
            return f"{obj.kind}:{obj.pipe_id}"
        return f"ino:{obj.ino}"

    def _ensure_artifact(self, obj: ObjectInfo, event: LsmEvent) -> str:
        key = self._artifact_key(obj)
        existing = self._artifact_vertex.get(key)
        if existing is not None:
            return existing
        vertex = self._add_node("Artifact", {
            "subtype": obj.kind,
            "path": obj.path or "",
            "ino": str(obj.ino or obj.pipe_id or 0),
            "source": "camflow",
            "time": str(event.time_ns),
        })
        self._artifact_vertex[key] = vertex
        return vertex

    def feed(self, event: LsmEvent) -> None:
        process = self._ensure_process(event)
        if event.hook in ("task_alloc",):
            child = next(
                (o for o in event.objects if o.role == "child"), None
            )
            if child is not None and child.task_id is not None:
                child_vertex = self._add_node("Process", {
                    "pid": str(child.pid),
                    "source": "camflow",
                    "start time": str(event.time_ns),
                })
                self._process_vertex[child.task_id] = child_vertex
                self._add_edge(
                    child_vertex, process, "WasTriggeredBy",
                    {"operation": "fork"},
                )
            return
        if event.hook in (
            "task_fix_setuid", "task_fix_setgid", "bprm_committed_creds",
        ):
            new_vertex = self._add_node("Process", {
                "pid": str(event.subject.pid),
                "name": event.subject.comm,
                "source": "camflow",
            })
            self._add_edge(
                new_vertex, process, "WasTriggeredBy",
                {"operation": event.hook},
            )
            self._process_vertex[event.subject.task_id] = new_vertex
            task_obj = next(
                (o for o in event.objects if o.role == "task"), None
            )
            if task_obj is not None and task_obj.task_id is not None:
                self._process_vertex[task_obj.task_id] = new_vertex
            return
        if event.hook == "file_permission":
            obj = next((o for o in event.objects if o.fd is not None), None)
            if obj is None:
                return
            artifact = self._ensure_artifact(obj, event)
            mask = dict(event.details).get("mask", "r")
            if mask == "w":
                self._add_edge(
                    artifact, process, "WasGeneratedBy",
                    {"operation": "write"},
                )
            else:
                self._add_edge(
                    process, artifact, "Used", {"operation": "read"}
                )
            return
        mapping = _HOOK_EDGES.get(event.hook)
        if mapping is None:
            if event.hook == "bprm_creds_for_exec":
                obj = next((o for o in event.objects if o.role == "exe"), None)
                if obj is not None:
                    artifact = self._ensure_artifact(obj, event)
                    self._add_edge(
                        process, artifact, "Used", {"operation": "load"}
                    )
            return
        label, direction, operation = mapping
        target_obj = next(
            (o for o in event.objects if o.kind != "process"), None
        )
        if target_obj is None:
            return
        artifact = self._ensure_artifact(target_obj, event)
        if direction == "used":
            self._add_edge(process, artifact, label, {"operation": operation})
        else:
            self._add_edge(artifact, process, label, {"operation": operation})
