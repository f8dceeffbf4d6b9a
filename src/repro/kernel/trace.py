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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple


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
