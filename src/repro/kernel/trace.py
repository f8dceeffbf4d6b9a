"""Observation streams emitted by the simulated kernel.

Each executed syscall produces up to three records, one per vantage point
(paper Figure 2):

* :class:`AuditEvent` — what the Linux Audit service reports at syscall
  exit (SPADE's source).  Carries success/retval and subject/object ids.
* :class:`LibcEvent` — the C-library wrapper invocation (OPUS's source).
  Present for calls that go through an intercepted dynamic library,
  including failed ones.
* :class:`LsmEvent` — the sequence of Linux Security Module hooks invoked
  while the kernel serviced the call (CamFlow's source).

The capture systems consume these streams; they never inspect kernel
state directly, which keeps the black-box property the paper relies on.

The subject, object and event snapshots are immutable
:class:`typing.NamedTuple` records: a syscall builds about ten of them,
and a NamedTuple costs a third of a frozen dataclass to construct.
Assigning a field raises :class:`AttributeError`.

:func:`reseed` holds the one map of the fields a value drawn by the
machine's clock or id allocator reaches (see :mod:`repro.kernel.clock`).
A trace it makes writes each stream when something first reads it.
"""

from __future__ import annotations

import threading
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)


class SubjectInfo(NamedTuple):
    """Snapshot of the calling process at event time."""

    pid: int
    ppid: int
    exe: str
    comm: str
    task_id: int
    uid: int
    gid: int
    euid: int
    egid: int
    suid: int
    sgid: int

    def as_props(self) -> Dict[str, str]:
        return {
            "pid": str(self.pid),
            "ppid": str(self.ppid),
            "exe": self.exe,
            "comm": self.comm,
            "uid": str(self.uid),
            "gid": str(self.gid),
            "euid": str(self.euid),
            "egid": str(self.egid),
        }


class ObjectInfo(NamedTuple):
    """Snapshot of one kernel object touched by a syscall."""

    kind: str  # "file" | "directory" | "link" | "fifo" | "pipe" | "process" | ...
    role: str  # e.g. "path", "oldpath", "newpath", "fd", "child", "target"
    ino: Optional[int] = None
    path: Optional[str] = None
    fd: Optional[int] = None
    version: Optional[int] = None
    pipe_id: Optional[int] = None
    pid: Optional[int] = None
    task_id: Optional[int] = None
    mode: Optional[str] = None
    uid: Optional[int] = None
    gid: Optional[int] = None


class AuditEvent(NamedTuple):
    seq: int
    time_ns: int
    syscall: str
    args: Tuple[str, ...]
    retval: int
    success: bool
    errno: Optional[str]
    subject: SubjectInfo
    objects: Tuple[ObjectInfo, ...]


class LibcEvent(NamedTuple):
    seq: int
    time_ns: int
    function: str
    args: Tuple[str, ...]
    retval: int
    success: bool
    errno: Optional[str]
    subject: SubjectInfo
    objects: Tuple[ObjectInfo, ...]


class LsmEvent(NamedTuple):
    seq: int
    time_ns: int
    hook: str
    syscall: str
    success: bool
    subject: SubjectInfo
    objects: Tuple[ObjectInfo, ...]
    details: Tuple[Tuple[str, str], ...] = ()


class Trace:
    """Everything one run of the machine produced: its ids and three
    event streams.

    A trace :func:`reseed` makes holds each stream unwritten until
    something first reads it, and writes it then, once, even when two
    threads read it at the same time.  Each capture reads one stream
    (SPADE ``audit``, OPUS ``libc``, CamFlow ``lsm``), so a trial
    rewrites only the stream its tool reads, and a trace that a memo
    shares between tools rewrites each stream once.
    """

    __slots__ = ("boot_id", "machine_id", "_audit", "_libc", "_lsm", "_pending")

    def __init__(
        self,
        boot_id: str = "",
        machine_id: str = "",
        audit: Optional[List[AuditEvent]] = None,
        libc: Optional[List[LibcEvent]] = None,
        lsm: Optional[List[LsmEvent]] = None,
    ) -> None:
        self.boot_id = boot_id
        self.machine_id = machine_id
        self._audit = [] if audit is None else audit
        self._libc = [] if libc is None else libc
        self._lsm = [] if lsm is None else lsm
        #: a reseeded trace's lock and the writers of its unwritten
        #: streams, by name (each dropped once it has run)
        self._pending: Optional[
            Tuple[threading.Lock, Dict[str, Callable[[], list]]]
        ] = None

    @property
    def audit(self) -> List[AuditEvent]:
        events = self._audit
        return events if events is not None else self._write("audit")

    @property
    def libc(self) -> List[LibcEvent]:
        events = self._libc
        return events if events is not None else self._write("libc")

    @property
    def lsm(self) -> List[LsmEvent]:
        events = self._lsm
        return events if events is not None else self._write("lsm")

    def _write(self, name: str) -> list:
        lock, writers = self._pending
        slot = f"_{name}"
        with lock:
            events = getattr(self, slot)
            if events is None:
                events = writers.pop(name)()
                setattr(self, slot, events)
        return events

    def window(self, start_seq: int, end_seq: int) -> "Trace":
        """Sub-trace covering a recording window (inclusive bounds)."""
        return Trace(
            self.boot_id, self.machine_id,
            [e for e in self.audit if start_seq <= e.seq <= end_seq],
            [e for e in self.libc if start_seq <= e.seq <= end_seq],
            [e for e in self.lsm if start_seq <= e.seq <= end_seq],
        )

    @property
    def event_count(self) -> int:
        return len(self.audit) + len(self.libc) + len(self.lsm)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.boot_id == other.boot_id
            and self.machine_id == other.machine_id
            and self.audit == other.audit
            and self.libc == other.libc
            and self.lsm == other.lsm
        )


#: the syscalls whose result is a pid
PID_RESULTS = frozenset(("fork", "vfork", "clone", "getpid"))


def reseed(
    trace: Trace,
    boot_id: str,
    machine_id: str,
    maps: Sequence[Mapping[int, int]],
    pid_args: Mapping[str, Tuple[int, ...]],
) -> Trace:
    """A copy of ``trace`` with each drawn value replaced.

    ``maps`` holds per kind of draw (``TICK``, ``PID``, ``INO``,
    ``OBJECT_ID`` of :mod:`repro.kernel.clock`) each value the trace's
    run drew and the value drawn in its place; a value no allocator drew
    stays.  ``pid_args`` gives, per syscall, the positions of its
    PID-kind arguments.  A snapshot shared by several events in
    ``trace`` is shared in the copy too.

    The copy writes each stream when something first reads it (see
    :class:`Trace`): a stream nothing reads is never rewritten.  Until
    its last stream is written, the copy keeps ``trace`` and the
    snapshots it has rewritten.
    """
    times, pids, inos, object_ids = maps
    new = tuple.__new__
    subjects: Dict[int, SubjectInfo] = {}
    snapshots: Dict[int, ObjectInfo] = {}
    groups: Dict[int, Tuple[ObjectInfo, ...]] = {}

    def subject(old: SubjectInfo) -> SubjectInfo:
        pid, ppid, exe, comm, task_id = old[:5]
        copy = subjects[id(old)] = new(SubjectInfo, (
            pids.get(pid, pid), pids.get(ppid, ppid), exe, comm,
            object_ids.get(task_id, task_id),
        ) + old[5:])
        return copy

    def snapshot(old: ObjectInfo) -> ObjectInfo:
        (kind, role, ino, path, fd, version, pipe_id, pid, task_id, mode,
         uid, gid) = old
        if ino is not None:
            ino = inos.get(ino, ino)
        if pipe_id is not None:
            drawn = object_ids.get(pipe_id, pipe_id)
            if path is not None:
                # a descriptor's "pipe:[id]", "socket:[id]" or "socket:[id+1]"
                head, _, tail = path.partition("[")
                path = f"{head}[{drawn}{tail[len(str(pipe_id)):]}"
            pipe_id = drawn
        if pid is not None:
            pid = pids.get(pid, pid)
        if task_id is not None:
            task_id = object_ids.get(task_id, task_id)
        copy = snapshots[id(old)] = new(ObjectInfo, (
            kind, role, ino, path, fd, version, pipe_id, pid, task_id, mode,
            uid, gid,
        ))
        return copy

    def group(old: Tuple[ObjectInfo, ...]) -> Tuple[ObjectInfo, ...]:
        copy = groups[id(old)] = tuple([
            snapshots.get(id(o)) or snapshot(o) for o in old
        ])
        return copy

    def arguments(old: Tuple[str, ...], positions: Tuple[int, ...]):
        copy = list(old)
        for position in positions:
            value = int(copy[position])
            copy[position] = str(pids.get(value, value))
        return tuple(copy)

    def call(event):
        """An audit or libc event's fields."""
        seq, time_ns, name, args, retval, success, errno, subj, objs = event
        if name in pid_args:
            args = arguments(args, pid_args[name])
        if name in PID_RESULTS:
            retval = pids.get(retval, retval)
        return (
            seq, times[time_ns], name, args, retval, success, errno,
            subjects.get(id(subj)) or subject(subj),
            groups.get(id(objs)) or group(objs),
        )

    def audit() -> List[AuditEvent]:
        return [new(AuditEvent, call(event)) for event in trace.audit]

    def libc() -> List[LibcEvent]:
        return [new(LibcEvent, call(event)) for event in trace.libc]

    def lsm() -> List[LsmEvent]:
        return [
            new(LsmEvent, (
                seq, times[time_ns], hook, name, success,
                subjects.get(id(subj)) or subject(subj),
                groups.get(id(objs)) or group(objs), details,
            ))
            for seq, time_ns, hook, name, success, subj, objs, details
            in trace.lsm
        ]

    reseeded = Trace(boot_id, machine_id)
    reseeded._audit = reseeded._libc = reseeded._lsm = None
    reseeded._pending = (
        threading.Lock(), {"audit": audit, "libc": libc, "lsm": lsm},
    )
    return reseeded
