"""Simulated Linux-like kernel substrate.

:class:`Kernel` composes the machine core with the syscall mixins.  It
replaces the real Linux + auditd + LSM + libc stack that the paper's
capture systems observe; see DESIGN.md §2 for the substitution argument.
"""

from repro.kernel.clock import DrawLog, IdAllocator, VirtualClock, make_rng
from repro.kernel.errors import Errno, KernelError
from repro.kernel.introspect import (
    ArgKind,
    SyscallParam,
    SyscallSignature,
    signature_for,
    syscall_signatures,
)
from repro.kernel.fs import FileSystem, Inode, InodeType
from repro.kernel.machine import (
    BENCH_GID,
    BENCH_UID,
    Machine,
    Pipe,
    SocketPair,
    SyscallOutcome,
)
from repro.kernel.process import Credentials, OpenFileDescription, Process
from repro.kernel.syscalls_fs import FileSyscalls, SocketSyscalls
from repro.kernel.syscalls_misc import MiscSyscalls
from repro.kernel.syscalls_proc import ProcessSyscalls
from repro.kernel.trace import (
    AuditEvent,
    LibcEvent,
    LsmEvent,
    ObjectInfo,
    SubjectInfo,
    Trace,
)


class Kernel(FileSyscalls, SocketSyscalls, MiscSyscalls, ProcessSyscalls, Machine):
    """The full simulated kernel: machine state + every syscall."""


__all__ = [
    "AuditEvent",
    "BENCH_GID",
    "BENCH_UID",
    "Credentials",
    "DrawLog",
    "Errno",
    "FileSystem",
    "FileSyscalls",
    "SocketSyscalls",
    "IdAllocator",
    "Inode",
    "InodeType",
    "Kernel",
    "KernelError",
    "LibcEvent",
    "LsmEvent",
    "Machine",
    "MiscSyscalls",
    "ObjectInfo",
    "OpenFileDescription",
    "Pipe",
    "SocketPair",
    "Process",
    "ProcessSyscalls",
    "SubjectInfo",
    "SyscallOutcome",
    "Trace",
    "VirtualClock",
    "ArgKind",
    "SyscallParam",
    "SyscallSignature",
    "make_rng",
    "signature_for",
    "syscall_signatures",
]
