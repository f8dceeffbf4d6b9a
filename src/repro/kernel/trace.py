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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple


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


@dataclass
class Trace:
    """Everything one run of the machine produced."""

    boot_id: str = ""
    machine_id: str = ""
    audit: List[AuditEvent] = field(default_factory=list)
    libc: List[LibcEvent] = field(default_factory=list)
    lsm: List[LsmEvent] = field(default_factory=list)

    def window(self, start_seq: int, end_seq: int) -> "Trace":
        """Sub-trace covering a recording window (inclusive bounds)."""
        selected = Trace(boot_id=self.boot_id, machine_id=self.machine_id)
        selected.audit = [
            e for e in self.audit if start_seq <= e.seq <= end_seq
        ]
        selected.libc = [e for e in self.libc if start_seq <= e.seq <= end_seq]
        selected.lsm = [e for e in self.lsm if start_seq <= e.seq <= end_seq]
        return selected

    @property
    def event_count(self) -> int:
        return len(self.audit) + len(self.libc) + len(self.lsm)


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

    return Trace(
        boot_id=boot_id,
        machine_id=machine_id,
        audit=[new(AuditEvent, call(event)) for event in trace.audit],
        libc=[new(LibcEvent, call(event)) for event in trace.libc],
        lsm=[
            new(LsmEvent, (
                seq, times[time_ns], hook, name, success,
                subjects.get(id(subj)) or subject(subj),
                groups.get(id(objs)) or group(objs), details,
            ))
            for seq, time_ns, hook, name, success, subj, objs, details
            in trace.lsm
        ],
    )
