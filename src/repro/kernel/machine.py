"""The simulated machine: kernel state plus syscall dispatch plumbing.

:class:`Machine` owns the filesystem, process table, pipes, virtual clock,
and the observation trace.  The actual syscall implementations live in the
two mixins (:mod:`repro.kernel.syscalls_fs`, :mod:`repro.kernel.syscalls_proc`)
and are composed into :class:`repro.kernel.Kernel`.

Every syscall goes through :meth:`Machine.syscall`, which emits the audit,
libc, and LSM records for the three capture vantage points and converts
:class:`KernelError` into a ``-1`` return with an errno, like the real ABI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.clock import DrawLog, IdAllocator, VirtualClock, make_rng
from repro.kernel.errors import Errno, KernelError
from repro.kernel.fs import (
    FileSystem, Inode, InodeType, TreeTemplate, mode_string,
)
from repro.kernel.process import Credentials, OpenFileDescription, Process
from repro.kernel.trace import (
    AuditEvent,
    LibcEvent,
    LsmEvent,
    ObjectInfo,
    SubjectInfo,
    Trace,
)

#: Default uid/gid of the unprivileged benchmark user.
BENCH_UID = 1000
BENCH_GID = 1000


_DIR, _FILE = InodeType.DIRECTORY, InodeType.REGULAR

#: The filesystem every boot starts from, in creation order: (path, type,
#: mode, uid, gid, contents).
BOOT_TREE = TreeTemplate((
    ("/bin", _DIR, 0o755, 0, 0, b""),
    ("/sbin", _DIR, 0o755, 0, 0, b""),
    ("/etc", _DIR, 0o755, 0, 0, b""),
    ("/lib", _DIR, 0o755, 0, 0, b""),
    ("/tmp", _DIR, 0o777, 0, 0, b""),
    ("/usr", _DIR, 0o755, 0, 0, b""),
    ("/usr/bin", _DIR, 0o755, 0, 0, b""),
    ("/usr/local", _DIR, 0o755, 0, 0, b""),
    ("/usr/local/bin", _DIR, 0o755, 0, 0, b""),
    ("/home", _DIR, 0o755, 0, 0, b""),
    ("/home/bench", _DIR, 0o755, BENCH_UID, BENCH_GID, b""),
    ("/dev", _DIR, 0o755, 0, 0, b""),
    ("/var", _DIR, 0o755, 0, 0, b""),
    ("/var/log", _DIR, 0o755, 0, 0, b""),
    ("/etc/passwd", _FILE, 0o644, 0, 0, b"root:x:0:0::/root:/bin/sh\n"),
    ("/etc/shadow", _FILE, 0o600, 0, 0, b"root:!:0:::::\n"),
    ("/lib/libc.so.6", _FILE, 0o755, 0, 0, b"\x7fELF libc"),
    ("/lib/ld-linux.so.2", _FILE, 0o755, 0, 0, b"\x7fELF ld"),
    ("/bin/sh", _FILE, 0o755, 0, 0, b"\x7fELF bin"),
    ("/bin/true", _FILE, 0o755, 0, 0, b"\x7fELF bin"),
    ("/sbin/init", _FILE, 0o755, 0, 0, b"\x7fELF bin"),
))


@dataclass
class Pipe:
    """An anonymous pipe: a byte buffer with two ends."""

    pipe_id: int
    buffer: bytes = b""
    read_open: bool = True
    write_open: bool = True


@dataclass
class SocketPair:
    """A connected local (AF_UNIX) socket pair.

    Each end can send and receive; ``buffers`` holds the two directed
    byte streams (index 0: a→b, index 1: b→a).
    """

    socket_id: int
    buffers: List[bytes] = field(default_factory=lambda: [b"", b""])

    def send(self, end: str, data: bytes) -> int:
        index = 0 if end == "a" else 1
        self.buffers[index] += data
        return len(data)

    def recv(self, end: str, length: int) -> bytes:
        index = 1 if end == "a" else 0
        chunk = self.buffers[index][:length]
        self.buffers[index] = self.buffers[index][len(chunk):]
        return chunk


@dataclass
class SyscallOutcome:
    """What a syscall implementation reports back to the dispatcher."""

    retval: int
    objects: List[ObjectInfo] = field(default_factory=list)
    hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = field(
        default_factory=list
    )
    #: Audit emission is deferred for vfork (paper §4.2): Linux Audit reports
    #: the parent's vfork only after the child has run.
    defer_audit: bool = False


class Machine:
    """Kernel state container and syscall dispatcher."""

    def __init__(
        self, seed: Optional[int] = None, draws: Optional[DrawLog] = None
    ) -> None:
        """A booted machine; with ``draws``, its clock and id allocator
        log every draw there."""
        self.rng = make_rng(seed)
        if draws is None:
            self.clock = VirtualClock(self.rng)
            self.ids = IdAllocator(self.rng)
        else:
            self.clock, self.ids = draws.allocators(self.rng)
        self.fs = FileSystem(self.ids, self.clock, BOOT_TREE)
        self.processes: Dict[int, Process] = {}
        self.pipes: Dict[int, Pipe] = {}
        self.sockets: Dict[int, SocketPair] = {}
        self.trace = Trace(boot_id=self.ids.boot_id, machine_id=self.ids.machine_id)
        self.seq = 0
        #: objects reported by the most recent syscall (pipe() writes its
        #: fds into a user array; callers read them back from here)
        self.last_objects: Tuple[ObjectInfo, ...] = ()
        self._deferred_audit: List[AuditEvent] = []
        #: one interned snapshot per process identity (see ``_subject``)
        self._subjects: Dict[Tuple[object, ...], SubjectInfo] = {}
        self.init_process = self._make_process(
            ppid=0, creds=Credentials.for_user(0, 0), exe="/sbin/init", comm="init"
        )
        self.shell = self._make_process(
            ppid=self.init_process.pid,
            creds=Credentials.for_user(BENCH_UID, BENCH_GID),
            exe="/bin/sh",
            comm="sh",
        )
        self.shell.cwd = "/home/bench"

    # -- boot-time state -----------------------------------------------------

    def _make_process(
        self, ppid: int, creds: Credentials, exe: str, comm: str
    ) -> Process:
        process = Process(
            pid=self.ids.pid(),
            ppid=ppid,
            creds=creds,
            exe=exe,
            comm=comm,
            task_id=self.ids.object_id(),
            start_time_ns=self.clock.tick(),
        )
        self.processes[process.pid] = process
        return process

    # -- event emission ---------------------------------------------------------

    def _subject(self, process: Process) -> SubjectInfo:
        """The process snapshot, shared by every event with its identity."""
        creds = process.creds
        identity = (
            process.pid, process.ppid, process.exe, process.comm,
            process.task_id, creds.uid, creds.gid, creds.euid, creds.egid,
            creds.suid, creds.sgid,
        )
        subject = self._subjects.get(identity)
        if subject is None:
            subject = self._subjects[identity] = SubjectInfo(*identity)
        return subject

    def file_object(
        self,
        inode: Inode,
        path: Optional[str],
        role: str,
        fd: Optional[int] = None,
    ) -> ObjectInfo:
        kind = inode.type.value
        # positional, in field order: a syscall builds several of these,
        # and keyword arguments double a NamedTuple's construction cost
        return ObjectInfo(
            kind, role, inode.ino, path, fd, inode.version,
            None, None, None,  # pipe_id, pid, task_id
            mode_string(kind, inode.mode), inode.uid, inode.gid,
        )

    def process_object(self, process: Process, role: str) -> ObjectInfo:
        return ObjectInfo(
            kind="process",
            role=role,
            pid=process.pid,
            task_id=process.task_id,
        )

    def pipe_object(
        self, pipe: Pipe, role: str, fd: Optional[int] = None
    ) -> ObjectInfo:
        return ObjectInfo(kind="pipe", role=role, pipe_id=pipe.pipe_id, fd=fd)

    # -- dispatch -----------------------------------------------------------------

    def syscall(
        self,
        process: Process,
        name: str,
        args: Sequence[object],
        implementation: Callable[[], SyscallOutcome],
    ) -> int:
        """Run a syscall implementation and emit its observation records.

        Returns the retval; failed calls return ``-1`` (errno is recorded
        in the trace) rather than raising, mirroring the C ABI that the
        benchmark programs see.
        """
        if not process.alive:
            raise KernelError(Errno.ESRCH, f"process {process.pid} is dead")
        self.seq += 1
        seq = self.seq
        time_ns = self.clock.tick()
        rendered_args = tuple(map(str, args))
        # LSM hooks run *during* the call and see the pre-call subject;
        # audit and libc report at syscall exit and see the post-call
        # subject (so e.g. setuid's audit record carries the new uid).
        subject_entry = self._subject(process)
        try:
            outcome = implementation()
            success, errno_name = True, None
        except KernelError as error:
            success, errno_name = False, error.errno.name
            outcome = SyscallOutcome(retval=-1, objects=list(error.__dict__.get("objects", [])))
            hooks = getattr(error, "hooks", None)
            if hooks:
                outcome.hooks = hooks
        subject_exit = self._subject(process)
        objects = self.last_objects = tuple(outcome.objects)
        retval = outcome.retval
        # The events are built positionally, in field order (see
        # ``file_object``): each call emits two, plus one per LSM hook.
        audit_event = AuditEvent(
            seq, time_ns, name, rendered_args, retval, success, errno_name,
            subject_exit, objects,
        )
        if outcome.defer_audit:
            self._deferred_audit.append(audit_event)
        else:
            self.trace.audit.append(audit_event)
        self.trace.libc.append(LibcEvent(
            seq, time_ns, name, rendered_args, retval,
            success, errno_name, subject_exit, objects,
        ))
        for hook_name, hook_objects, details in outcome.hooks:
            self.trace.lsm.append(LsmEvent(
                seq, self.clock.tick(), hook_name, name, success,
                subject_entry, tuple(hook_objects),
                tuple(sorted(details.items())),
            ))
        return retval

    def flush_deferred_audit(self) -> None:
        """Emit audit records held back by vfork semantics."""
        self.trace.audit.extend(self._deferred_audit)
        self._deferred_audit.clear()

    # -- helpers shared by syscall mixins -------------------------------------------

    def alloc_pipe(self) -> Pipe:
        pipe = Pipe(pipe_id=self.ids.object_id())
        self.pipes[pipe.pipe_id] = pipe
        return pipe

    def alloc_socketpair(self) -> SocketPair:
        pair = SocketPair(socket_id=self.ids.object_id())
        self.sockets[pair.socket_id] = pair
        return pair

    def socket_object(
        self, pair: SocketPair, role: str, fd: Optional[int] = None
    ) -> ObjectInfo:
        return ObjectInfo(
            kind="socket", role=role, pipe_id=pair.socket_id, fd=fd
        )

    def description_for_pipe(self, pipe: Pipe, end: str) -> OpenFileDescription:
        return OpenFileDescription(
            ino=0,
            path=f"pipe:[{pipe.pipe_id}]",
            flags="O_RDONLY" if end == "read" else "O_WRONLY",
            object_kind="pipe",
            pipe_id=pipe.pipe_id,
            pipe_end=end,
        )

    def process(self, pid: int) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise KernelError(Errno.ESRCH, f"pid {pid}") from None
