"""Simulated CamFlow 0.4.5: whole-system provenance from LSM hooks.

CamFlow generates the provenance graph inside the kernel from Linux
Security Module hooks and ships it to user space as W3C PROV-JSON.
Behaviours reproduced from the paper:

* coverage is defined by the *recorded hook set*: ``dup`` and pipe
  creation fire no recorded hook (note NR), ``symlink``/``mknod`` hooks
  were not recorded by 0.4.5 (note NR), ``task_kill`` is not recorded,
  and nothing fires for ``close`` inside the recording window (the
  kernel frees the structures later — note LP);
* failed permission checks are visible to LSM but **not recorded** by
  the default configuration (§3.1, Alice);
* entities are versioned: writes and attribute changes produce a new
  inode version linked by ``wasDerivedFrom``; cred changes and execve
  produce a new task version linked by ``wasInformedBy``;
* a rename appears as a new path entity attached to the file object —
  the old path does not appear (§4.1);
* recording restarts occasionally produce small structural variation
  (§3.2); ``structural_jitter`` reproduces this, and ProvMark's
  similarity-class selection plus the ``filtergraphs`` option (paper
  appendix A.4) deal with it.

As CamFlow's kernel module streams records to user space, the capture
writes each hook's records straight into the PROV-JSON document it
ships: a node or relation becomes its body in the document as its hook
fires, built once in the layout :func:`repro.graph.provjson.node_body`
and :func:`~repro.graph.provjson.edge_body` give it.  No property graph
is built on the way; transformation parses the text.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.capture.base import CaptureSystem, RawOutput
from repro.graph.provjson import RELATION_KEYS, ProvDocument, document_text
from repro.kernel.trace import LsmEvent, ObjectInfo, Trace

#: LSM hooks recorded by the default CamFlow 0.4.5 configuration.
RECORDED_HOOKS = frozenset({
    "inode_create", "inode_link", "inode_rename", "inode_unlink",
    "inode_setattr", "path_truncate",
    "file_open", "file_permission", "mmap_file",
    "task_alloc", "task_fix_setuid", "task_fix_setgid",
    "bprm_creds_for_exec", "bprm_committed_creds",
    "file_splice_pipe_to_pipe",
    "socket_create", "socket_sendmsg", "socket_recvmsg",
})
#: hooks whose denials ``record_failed`` renders
_DENIABLE_HOOKS = RECORDED_HOOKS | {"inode_permission"}
#: an object kind's entity label, ``inode`` for any other kind
_ENTITY_LABELS = {"pipe": "pipe", "socket": "socket"}


@dataclass
class CamFlowConfig:
    """Default CamFlow configuration surface."""

    record_failed: bool = False  # permission denials visible but unrecorded
    track_provmark: bool = False  # §3.2: ProvMark excludes its own activity
    structural_jitter: float = 0.0  # probability of a spurious extra node
    whole_system: bool = True


class CamFlowCapture(CaptureSystem):
    """CamFlow LSM capture with PROV-JSON output."""

    name = "camflow"
    output_format = "provjson"
    recording_seconds = 10.0

    def __init__(self, config: Optional[CamFlowConfig] = None) -> None:
        self.config = config or CamFlowConfig()

    def record(self, trace: Trace, rng: random.Random) -> RawOutput:
        builder = _CamFlowBuilder(self.config, rng, trace.boot_id, trace.machine_id)
        for event in trace.lsm:
            builder.feed(event)
        if self.config.structural_jitter and rng.random() < self.config.structural_jitter:
            builder.add_jitter_artifact()
        return document_text(builder.doc)


class _CamFlowBuilder:
    """Streams LSM hook events into a PROV-JSON document."""

    def __init__(
        self, config: CamFlowConfig, rng: random.Random,
        boot_id: str, machine_id: str,
    ) -> None:
        self.config = config
        self.rng = rng
        #: the properties every node carries
        self._ids = {"cf:boot_id": boot_id, "cf:machine_id": machine_id}
        #: the document shipped: group -> element id -> PROV-JSON body
        self.doc: ProvDocument = defaultdict(dict)
        self._next = rng.randrange(10**6, 9 * 10**6)
        #: task_id -> current activity node
        self._task_node: Dict[int, str] = {}
        #: inode number or pipe id -> current entity node
        self._entity_node: Dict[str, str] = {}
        #: (entity key) -> version counter
        self._entity_version: Dict[str, int] = {}
        #: path string -> path entity node
        self._path_node: Dict[Tuple[str, str], str] = {}

    def _identifier(self, kind: str) -> str:
        self._next += 1
        return f"cf:{kind}:{self._next}"

    # -- node management -----------------------------------------------------
    #
    # Each body is built once, in its final layout: a node's under its
    # PROV kind with its label as ``prov:type``, a relation's with its
    # endpoints under the relation's keys (``RELATION_KEYS``).

    def _add_node(self, kind: str, label: str, body: Dict[str, str]) -> str:
        """Write a new node's body; its id is drawn under its label."""
        node_id = self._identifier(label)
        body["prov:type"] = label
        self.doc[kind][node_id] = body
        return node_id

    def _add_edge(
        self, src: str, tgt: str, relation: str, body: Dict[str, str]
    ) -> None:
        """Write a new relation's body."""
        src_key, tgt_key = RELATION_KEYS[relation]
        body[src_key] = src
        body[tgt_key] = tgt
        self.doc[relation][self._identifier("rel")] = body

    def _add_task(self, event: LsmEvent, pid: int) -> str:
        return self._add_node("activity", "task", {
            **self._ids,
            "cf:pid": str(pid),
            "cf:uid": str(event.subject.uid),
            "cf:gid": str(event.subject.gid),
            "cf:utime": str(event.time_ns),
            "cf:name": event.subject.comm,
        })

    def _ensure_task(self, event: LsmEvent) -> str:
        task_id = event.subject.task_id
        existing = self._task_node.get(task_id)
        if existing is not None:
            return existing
        self._task_node[task_id] = node = self._add_task(event, event.subject.pid)
        return node

    def _new_task_version(self, event: LsmEvent, relation: str) -> str:
        task_id = event.subject.task_id
        old = self._task_node.get(task_id)
        node = self._task_node[task_id] = self._add_task(event, event.subject.pid)
        if old is not None:
            self._add_edge(node, old, relation, {"cf:type": "version_activity"})
        return node

    def _entity_key(self, obj: ObjectInfo) -> str:
        if obj.kind == "pipe":
            return f"pipe:{obj.pipe_id}"
        return f"ino:{obj.ino}"

    def _ensure_entity(self, obj: ObjectInfo, event: LsmEvent) -> str:
        key = self._entity_key(obj)
        existing = self._entity_node.get(key)
        if existing is not None:
            return existing
        label = _ENTITY_LABELS.get(obj.kind, "inode")
        node = self._entity_node[key] = self._add_node("entity", label, {
            **self._ids,
            "cf:ino": str(obj.ino or obj.pipe_id or 0),
            "cf:mode": obj.mode or "",
            "cf:uid": str(obj.uid if obj.uid is not None else ""),
            "cf:version": "0",
            "cf:subtype": obj.kind,
        })
        self._entity_version[key] = 0
        return node

    def _new_entity_version(self, obj: ObjectInfo, event: LsmEvent) -> str:
        key = self._entity_key(obj)
        old = self._entity_node.get(key)
        if old is None:
            return self._ensure_entity(obj, event)
        version = self._entity_version.get(key, 0) + 1
        self._entity_version[key] = version
        # the new version's body is a copy of the old one's, but for
        # its version
        entities = self.doc["entity"]
        body = dict(entities[old])
        body["cf:version"] = str(version)
        node = self._entity_node[key] = self._identifier(body["prov:type"])
        entities[node] = body
        self._add_edge(node, old, "wasDerivedFrom", {"cf:type": "version_entity"})
        return node

    def _ensure_path(self, obj: ObjectInfo, entity: str) -> Optional[str]:
        if not obj.path:
            return None
        key = (entity, obj.path)
        existing = self._path_node.get(key)
        if existing is not None:
            return existing
        node = self._path_node[key] = self._add_node("entity", "path", {
            **self._ids, "cf:pathname": obj.path,
        })
        self._add_edge(entity, node, "wasDerivedFrom", {"cf:type": "named"})
        return node

    def _used(self, task: str, entity: str, hook: str, event: LsmEvent) -> None:
        self._add_edge(task, entity, "used", {
            "cf:type": hook, "cf:jiffies": str(event.time_ns // 10_000_000),
        })

    def _generated(self, entity: str, task: str, hook: str, event: LsmEvent) -> None:
        self._add_edge(entity, task, "wasGeneratedBy", {
            "cf:type": hook, "cf:jiffies": str(event.time_ns // 10_000_000),
        })

    # -- event dispatch ----------------------------------------------------------

    def feed(self, event: LsmEvent) -> None:
        if not event.success:
            # Permission denials are visible to LSM but unrecorded by the
            # default configuration (§3.1, Alice).
            if self.config.record_failed and event.hook in _DENIABLE_HOOKS:
                self._render_denial(event)
            return
        handler = _HOOK_HANDLERS.get(event.hook)
        if handler is not None:
            handler(self, event)

    def _render_denial(self, event: LsmEvent) -> None:
        """A denied check: task --used(denied)--> object entity."""
        task = self._ensure_task(event)
        obj = next(iter(event.objects), None)
        if obj is None or obj.kind == "process":
            return
        entity = self._ensure_entity(obj, event)
        self._add_edge(task, entity, "used", {
            "cf:type": f"{event.hook}_denied", "cf:permission": "denied",
        })

    def _object(self, event: LsmEvent, *roles: str) -> Optional[ObjectInfo]:
        for role in roles:
            for obj in event.objects:
                if obj.role == role:
                    return obj
        return None

    # -- per-hook rendering ---------------------------------------------------------

    def _on_file_open(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "path", "fd")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._ensure_path(obj, entity)
        self._used(task, entity, "open", event)

    def _on_file_permission(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "fd", "pipe_in", "pipe_out")
        if obj is None:
            return
        mask = dict(event.details).get("mask", "r")
        if mask == "r":
            entity = self._ensure_entity(obj, event)
            self._used(task, entity, "read", event)
        else:
            new_entity = self._new_entity_version(obj, event)
            self._generated(new_entity, task, "write", event)

    def _on_mmap_file(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "fd")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._used(task, entity, "mmap_read_exec", event)

    def _on_inode_create(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "path")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._ensure_path(obj, entity)
        self._generated(entity, task, "create", event)

    def _on_inode_link(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "oldpath")
        new_obj = self._object(event, "newpath")
        if obj is None or new_obj is None:
            return
        entity = self._ensure_entity(obj, event)
        path = self._ensure_path(new_obj, entity)
        if path is not None:
            self._generated(path, task, "link", event)

    def _on_inode_rename(self, event: LsmEvent) -> None:
        # A rename adds a new path to the file object; the old path does
        # not appear in the result (paper §4.1).
        task = self._ensure_task(event)
        new_obj = self._object(event, "newpath")
        if new_obj is None:
            return
        entity = self._ensure_entity(new_obj, event)
        path = self._ensure_path(new_obj, entity)
        if path is not None:
            self._generated(path, task, "rename", event)

    def _on_inode_unlink(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "path")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._used(task, entity, "unlink", event)

    def _on_inode_setattr(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "path", "fd")
        if obj is None:
            return
        entity = self._new_entity_version(obj, event)
        self._generated(entity, task, "setattr", event)

    def _on_path_truncate(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "path", "fd")
        if obj is None:
            return
        entity = self._new_entity_version(obj, event)
        self._generated(entity, task, "truncate", event)

    def _on_task_alloc(self, event: LsmEvent) -> None:
        parent = self._ensure_task(event)
        obj = self._object(event, "child")
        if obj is None or obj.task_id is None:
            return
        child = self._task_node[obj.task_id] = self._add_task(event, obj.pid)
        self._add_edge(child, parent, "wasInformedBy", {"cf:type": "clone"})

    def _on_task_fix_setuid(self, event: LsmEvent) -> None:
        self._new_task_version(event, "wasInformedBy")

    _on_task_fix_setgid = _on_task_fix_setuid

    def _on_bprm_creds_for_exec(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "exe")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._ensure_path(obj, entity)
        self._used(task, entity, "exec", event)

    def _on_bprm_committed_creds(self, event: LsmEvent) -> None:
        node = self._new_task_version(event, "wasInformedBy")
        # Subsequent hooks carry the post-exec task identity; alias it to
        # the new version so the graph stays connected.
        task_obj = self._object(event, "task")
        if task_obj is not None and task_obj.task_id is not None:
            self._task_node[task_obj.task_id] = node

    def _on_file_splice_pipe_to_pipe(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        in_obj = self._object(event, "pipe_in")
        out_obj = self._object(event, "pipe_out")
        if in_obj is None or out_obj is None:
            return
        in_entity = self._ensure_entity(in_obj, event)
        out_entity = self._new_entity_version(out_obj, event)
        self._used(task, in_entity, "splice_read", event)
        self._generated(out_entity, task, "splice_write", event)

    def _on_socket_create(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "end_a")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._generated(entity, task, "socket_create", event)

    def _on_socket_sendmsg(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "fd")
        if obj is None:
            return
        entity = self._new_entity_version(obj, event)
        self._generated(entity, task, "send_packet", event)

    def _on_socket_recvmsg(self, event: LsmEvent) -> None:
        task = self._ensure_task(event)
        obj = self._object(event, "fd")
        if obj is None:
            return
        entity = self._ensure_entity(obj, event)
        self._used(task, entity, "receive_packet", event)

    # -- recording-restart jitter ------------------------------------------------------

    def add_jitter_artifact(self) -> None:
        """A spurious machine node occasionally left over by a recording
        restart (§3.2) — what the ``filtergraphs`` option removes.  It
        is linked to the first task (tasks are the only activities)."""
        node = self._add_node("agent", "machine", {
            **self._ids, "cf:restart": "true",
        })
        first_task = next(iter(self.doc.get("activity", ())), None)
        if first_task is not None:
            self._add_edge(
                first_task, node, "wasAssociatedWith", {"cf:type": "machine"}
            )


#: recorded hook -> the builder method that renders it, looked up once
#: for the class rather than by name per event
_HOOK_HANDLERS: Dict[str, Callable[[_CamFlowBuilder, LsmEvent], None]] = {
    hook: getattr(_CamFlowBuilder, f"_on_{hook}") for hook in RECORDED_HOOKS
}
