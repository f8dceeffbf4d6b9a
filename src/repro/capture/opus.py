"""Simulated OPUS: observational provenance in user space.

OPUS intercepts C-library calls and builds a Provenance Versioning Model
(PVM) graph stored in Neo4j.  Behaviours reproduced from the paper:

* it observes the *libc* stream, so it sees **failed** calls too and
  renders the same structure with a ``retval`` of ``-1`` (§3.1, Alice);
* it is blind to anything that does not go through an intercepted
  library function: ``clone``, ``mknodat``, ``fchmod``, ``fchown``,
  ``setres[ug]id``, ``tee`` are not wrapped (Table 2, note NR), and
  reads/writes are not recorded in the default configuration;
* process nodes carry the environment, which makes OPUS graphs much
  larger than SPADE's or CamFlow's (§5.1) — we render one ``Env`` node
  per variable, re-captured for each ``fork``/``vfork`` child (which is
  why the paper's fork graphs are large for OPUS);
* after ``execve`` the interposition layer re-initializes, so the new
  image's startup activity is missed and the execve graph stays small
  (§4.2);
* everything lands in :class:`~repro.storage.neo4jsim.Neo4jSim`, whose
  JVM and database start-up dominates ProvMark's OPUS timings (Figures 6
  and 9) on the virtual processing clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.capture.base import CaptureSystem, RawOutput
from repro.kernel.trace import LibcEvent, Trace
from repro.storage.neo4jsim import Neo4jSim

#: libc functions wrapped by the default OPUS interposition set.
WRAPPED_FUNCTIONS = frozenset({
    "open", "openat", "creat", "close",
    "dup", "dup2", "dup3",
    "link", "linkat", "symlink", "symlinkat", "mknod",
    "rename", "renameat", "truncate", "ftruncate",
    "unlink", "unlinkat",
    "fork", "vfork", "execve",
    "chmod", "fchmodat", "chown", "fchownat",
    "setuid", "setreuid", "setgid", "setregid",
    "pipe", "pipe2",
})


@dataclass
class OpusConfig:
    """Default OPUS 0.1.x configuration surface."""

    record_io: bool = False  # reads/writes are ignored by default
    capture_environment: bool = True
    environment_size: int = 8


class OpusCapture(CaptureSystem):
    """OPUS + PVM + Neo4j storage."""

    name = "opus"
    output_format = "neo4j"
    recording_seconds = 28.0

    def __init__(self, config: Optional[OpusConfig] = None) -> None:
        self.config = config or OpusConfig()

    def record(self, trace: Trace, rng: random.Random) -> RawOutput:
        builder = _PvmBuilder(self.config, rng)
        for event in trace.libc:
            builder.feed(event)
        store = Neo4jSim()
        builder.flush(store)
        return store

    def wrapped(self, function: str) -> bool:
        if function in ("read", "pread", "write", "pwrite"):
            return self.config.record_io
        return function in WRAPPED_FUNCTIONS


class _PvmBuilder:
    """Builds the PVM node/relationship set from libc events."""

    def __init__(self, config: OpusConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self._next_id = rng.randrange(10_000, 90_000)
        self.nodes: List[Tuple[int, str, Dict[str, str]]] = []
        self.rels: List[Tuple[int, int, int, str, Dict[str, str]]] = []
        #: pid -> process node id
        self._process_node: Dict[int, int] = {}
        #: pids whose interposition layer is re-initializing after execve
        self._exec_blackout: Dict[int, bool] = {}
        #: global name -> (global node id, current version node id, version)
        self._globals: Dict[str, Tuple[int, int, int]] = {}

    def _alloc(self) -> int:
        self._next_id += 1
        return self._next_id

    def _add_node(self, label: str, props: Dict[str, str]) -> int:
        node_id = self._alloc()
        self.nodes.append((node_id, label, props))
        return node_id

    def _add_rel(
        self, start: int, end: int, rel_type: str,
        props: Optional[Dict[str, str]] = None,
    ) -> int:
        rel_id = self._alloc()
        self.rels.append((rel_id, start, end, rel_type, props or {}))
        return rel_id

    # -- process and environment ------------------------------------------------

    def _ensure_process(self, event: LibcEvent) -> int:
        pid = event.subject.pid
        existing = self._process_node.get(pid)
        if existing is not None:
            return existing
        node = self._add_node("Process", {
            "pid": str(pid),
            "cmd": event.subject.exe,
            "user": str(event.subject.uid),
            "timestamp": str(event.time_ns),
            "sys_meta": "linux",
        })
        self._process_node[pid] = node
        if self.config.capture_environment:
            self._dump_environment(node, event)
        return node

    def _dump_environment(self, process_node: int, event: LibcEvent) -> None:
        """One ``Env`` node per variable — the reason OPUS graphs are big."""
        env = {
            "PATH": "/usr/local/bin:/usr/bin:/bin",
            "HOME": "/home/bench",
            "LANG": "C.UTF-8",
            "SHELL": "/bin/sh",
            "USER": f"uid{event.subject.uid}",
            "TERM": "xterm",
            "PWD": "/home/bench/staging",
            "OPUS_MASTER": f"port-{self.rng.randrange(30000, 60000)}",
        }
        for index, (key, value) in enumerate(sorted(env.items())):
            if index >= self.config.environment_size:
                break
            env_node = self._add_node("Env", {"name": key, "value": value})
            self._add_rel(process_node, env_node, "ENV", {})

    # -- globals and versions -------------------------------------------------------

    def _global_version(
        self, name: str, event: LibcEvent, bump: bool
    ) -> Tuple[int, int]:
        """Return (global node, current version node), bumping if asked."""
        entry = self._globals.get(name)
        if entry is None:
            global_node = self._add_node("Global", {"name": name})
            version_node = self._add_node("GlobalVersion", {
                "name": name, "version": "1", "timestamp": str(event.time_ns),
            })
            self._add_rel(version_node, global_node, "NAMED", {})
            self._globals[name] = (global_node, version_node, 1)
            return global_node, version_node
        global_node, version_node, version = entry
        if bump:
            new_version = self._add_node("GlobalVersion", {
                "name": name,
                "version": str(version + 1),
                "timestamp": str(event.time_ns),
            })
            self._add_rel(new_version, version_node, "PREV_VERSION", {})
            self._add_rel(new_version, global_node, "NAMED", {})
            self._globals[name] = (global_node, new_version, version + 1)
            return global_node, new_version
        return global_node, version_node

    def _call_node(self, event: LibcEvent, process_node: int) -> int:
        call = self._add_node("Call", {
            "function": event.function,
            "args": ", ".join(event.args),
            "retval": str(event.retval),
            "errno": event.errno or "0",
            "timestamp": str(event.time_ns),
        })
        self._add_rel(call, process_node, "PROC_OBJ", {})
        return call

    def _object_path(self, event: LibcEvent, *roles: str) -> Optional[str]:
        for role in roles:
            for obj in event.objects:
                if obj.role == role and obj.path:
                    return obj.path
        # Fall back to the first path-bearing object.
        for obj in event.objects:
            if obj.path:
                return obj.path
        return None

    # -- event dispatch ----------------------------------------------------------------

    def feed(self, event: LibcEvent) -> None:
        if event.function in ("read", "pread", "write", "pwrite"):
            if not self.config.record_io:
                return
        elif event.function not in WRAPPED_FUNCTIONS:
            return
        pid = event.subject.pid
        if self._exec_blackout.get(pid):
            # Interposition re-init after execve: the loader's own library
            # activity is missed; the first non-loader call re-arms capture.
            if self._is_loader_activity(event):
                return
            self._exec_blackout[pid] = False
        process_node = self._ensure_process(event)
        handler = getattr(self, f"_on_{event.function}", self._on_generic)
        handler(event, process_node)

    @staticmethod
    def _is_loader_activity(event: LibcEvent) -> bool:
        """Dynamic-loader calls reference the system library directories."""
        paths = [obj.path for obj in event.objects if obj.path]
        return bool(paths) and all(
            path.startswith(("/lib", "/usr/lib")) for path in paths
        )

    # -- per-call rendering ---------------------------------------------------------------

    def _on_generic(self, event: LibcEvent, process_node: int) -> None:
        self._call_node(event, process_node)

    def _on_open(self, event: LibcEvent, process_node: int) -> None:
        path = self._object_path(event, "path")
        if path is None:
            return
        call = self._call_node(event, process_node)
        local = self._add_node("LocalVersion", {
            "fd": str(event.retval), "flags": "O_RDWR",
        })
        self._add_rel(local, call, "GENERATED_BY", {})
        if event.success:
            _, version = self._global_version(path, event, bump=False)
            self._add_rel(local, version, "BINDS_TO", {})
        else:
            name_node, _ = self._global_version(path, event, bump=False)

    _on_openat = _on_open
    _on_creat = _on_open

    def _on_close(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        for obj in event.objects:
            if obj.path:
                _, version = self._global_version(obj.path, event, bump=False)
                self._add_rel(call, version, "CLOSES", {})
                break

    def _on_dup(self, event: LibcEvent, process_node: int) -> None:
        # Two components, both hanging off the process node (paper §4.1).
        self._call_node(event, process_node)
        resource = self._add_node("LocalVersion", {
            "fd": str(event.retval), "origin": "dup",
        })
        self._add_rel(resource, process_node, "PROC_OBJ", {})

    _on_dup2 = _on_dup
    _on_dup3 = _on_dup

    def _on_read(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        path = self._object_path(event)
        if path is not None:
            _, version = self._global_version(path, event, bump=False)
            self._add_rel(call, version, "READS", {})

    _on_pread = _on_read

    def _on_write(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        path = self._object_path(event)
        if path is not None:
            _, version = self._global_version(path, event, bump=event.success)
            self._add_rel(version, call, "GENERATED_BY", {})

    _on_pwrite = _on_write

    def _two_name_call(
        self, event: LibcEvent, process_node: int,
        old_role: str, new_role: str, derive: bool,
    ) -> None:
        call = self._call_node(event, process_node)
        old_path = self._object_path(event, old_role)
        new_path = self._object_path(event, new_role)
        old_version = None
        if old_path is not None:
            _, old_version = self._global_version(old_path, event, bump=False)
            self._add_rel(call, old_version, "READS", {})
        if new_path is not None:
            _, new_version = self._global_version(
                new_path, event, bump=event.success
            )
            self._add_rel(new_version, call, "GENERATED_BY", {})
            if derive and old_version is not None:
                self._add_rel(new_version, old_version, "DERIVED_FROM", {})

    def _on_rename(self, event: LibcEvent, process_node: int) -> None:
        self._two_name_call(event, process_node, "oldpath", "newpath", derive=True)

    _on_renameat = _on_rename

    def _on_link(self, event: LibcEvent, process_node: int) -> None:
        self._two_name_call(event, process_node, "oldpath", "newpath", derive=True)

    _on_linkat = _on_link

    def _on_symlink(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        link_path = self._object_path(event, "linkpath")
        if link_path is not None:
            _, version = self._global_version(link_path, event, bump=event.success)
            self._add_rel(version, call, "GENERATED_BY", {})

    _on_symlinkat = _on_symlink
    _on_mknod = _on_symlink

    def _single_name_write(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        path = self._object_path(event, "path", "fd")
        if path is not None:
            _, version = self._global_version(path, event, bump=event.success)
            self._add_rel(version, call, "GENERATED_BY", {})

    _on_truncate = _single_name_write
    _on_ftruncate = _single_name_write
    _on_chmod = _single_name_write
    _on_fchmodat = _single_name_write
    _on_chown = _single_name_write
    _on_fchownat = _single_name_write

    def _on_unlink(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        path = self._object_path(event, "path")
        if path is not None:
            _, version = self._global_version(path, event, bump=False)
            self._add_rel(call, version, "DELETES", {})

    _on_unlinkat = _on_unlink

    def _on_fork(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        if not event.success:
            return
        child_pid = event.retval
        child_node = self._add_node("Process", {
            "pid": str(child_pid),
            "cmd": event.subject.exe,
            "user": str(event.subject.uid),
            "timestamp": str(event.time_ns),
            "sys_meta": "linux",
        })
        self._process_node[child_pid] = child_node
        self._add_rel(child_node, call, "GENERATED_BY", {})
        self._add_rel(child_node, process_node, "FORKED_FROM", {})
        # OPUS re-captures the environment in the child — the reason its
        # fork graphs are large (paper §4.2).
        if self.config.capture_environment:
            self._dump_environment(child_node, event)

    _on_vfork = _on_fork

    def _on_execve(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        path = self._object_path(event, "exe")
        if path is not None:
            _, version = self._global_version(path, event, bump=False)
            self._add_rel(call, version, "READS", {})
        if event.success:
            new_process = self._add_node("Process", {
                "pid": str(event.subject.pid),
                "cmd": event.subject.exe,
                "user": str(event.subject.uid),
                "timestamp": str(event.time_ns),
                "sys_meta": "linux",
            })
            self._add_rel(new_process, call, "GENERATED_BY", {})
            self._process_node[event.subject.pid] = new_process
            # Interposition re-initializes: loader activity is missed.
            self._exec_blackout[event.subject.pid] = True

    def _on_pipe(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        for obj in event.objects:
            if obj.kind == "pipe":
                resource = self._add_node("LocalVersion", {
                    "fd": str(obj.fd), "origin": "pipe", "end": obj.role,
                })
                self._add_rel(resource, call, "GENERATED_BY", {})

    _on_pipe2 = _on_pipe

    def _cred_call(self, event: LibcEvent, process_node: int) -> None:
        call = self._call_node(event, process_node)
        state = self._add_node("ProcessState", {
            "uid": str(event.subject.uid),
            "euid": str(event.subject.euid),
            "gid": str(event.subject.gid),
        })
        self._add_rel(state, call, "GENERATED_BY", {})

    _on_setuid = _cred_call
    _on_setreuid = _cred_call
    _on_setgid = _cred_call
    _on_setregid = _cred_call

    # -- output ---------------------------------------------------------------------------

    def flush(self, store: Neo4jSim) -> None:
        for node_id, label, props in self.nodes:
            store.create_node(node_id, label, props)
        for rel_id, start, end, rel_type, props in self.rels:
            store.create_relationship(rel_id, start, end, rel_type, props)
