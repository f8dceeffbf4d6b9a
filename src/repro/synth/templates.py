"""Syscall templates and the abstract state the generator threads through.

A benchmark program must do more than pass the spec validator: every op
marked ``expect_success`` must actually succeed when the executor runs
it on the simulated kernel (an open of a path nothing staged, a write
to a read-only descriptor, or a chmod of a file another user owns all
raise :class:`~repro.suite.executor.ExecutionError`).  The generator
therefore tracks an abstract :class:`GenState` — which staged files and
directories exist, which descriptors are open and with what access,
which pipes carry data, which children are alive, whose credentials the
program runs under — and each :class:`OpTemplate` declares when it
applies and how it transforms that state.

Templates are cross-checked against the kernel's introspected syscall
signatures (:func:`repro.kernel.syscall_signatures`) by a guard test,
so a kernel signature change surfaces as a test failure here instead of
as run-time garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.api.specs import OpSpec, SetupSpec

#: the two credential personas a synthesized program may run under;
#: root bypasses permission checks (safe everywhere), the user persona
#: enables deliberate-failure workloads against root-owned files
ROOT_UID, ROOT_GID = 0, 0
USER_UID, USER_GID = 1000, 1000

#: literal pools the samplers draw from (small and fixed so arg-shape
#: coverage saturates instead of exploding)
MODES = (0o600, 0o640, 0o644, 0o700, 0o755)
LENGTHS = (0, 1, 16, 64, 256)
OFFSETS = (0, 1, 8, 64)
PAYLOADS = (b"hello", b"payload", b"synthetic data\n", b"xyzzy" * 3)
MASKS = (0o022, 0o027, 0o077)
OTHER_IDS = (1000, 2000)
OPEN_FLAGS = ("O_RDWR", "O_RDONLY")
WHENCES = ("SEEK_SET", "SEEK_CUR", "SEEK_END")


@dataclass
class FdInfo:
    """One open file descriptor the program holds (a ``$var``)."""

    var: str
    readable: bool
    writable: bool
    #: regular file vs something lseek/mmap refuse (pipe/socket ends
    #: are tracked separately and never appear here)
    regular: bool = True


@dataclass
class PipeInfo:
    """One pipe's bound ``<prefix>_r``/``<prefix>_w`` variable pair."""

    prefix: str
    has_data: bool = False


@dataclass
class SockInfo:
    """One socketpair's bound ``<prefix>_a``/``<prefix>_b`` pair."""

    prefix: str
    has_data: bool = False


@dataclass
class GenState:
    """Abstract machine state threaded through one program generation."""

    uid: int = ROOT_UID
    gid: int = ROOT_GID
    setup: List[SetupSpec] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    dirs: List[str] = field(default_factory=list)
    fds: List[FdInfo] = field(default_factory=list)
    pipes: List[PipeInfo] = field(default_factory=list)
    socks: List[SockInfo] = field(default_factory=list)
    children: List[str] = field(default_factory=list)
    used_newfds: Set[int] = field(default_factory=set)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.uid == ROOT_UID

    def fresh(self, stem: str) -> str:
        """A deterministic fresh identifier (``stem`` + counter)."""
        index = self.counters.get(stem, 0)
        self.counters[stem] = index + 1
        return f"{stem}{index}"

    def fresh_file_name(self) -> str:
        return self.fresh("new") + ".txt"

    def ensure_file(self, rng: random.Random) -> str:
        """An existing regular file — reuse one or stage a fresh one.

        Setup actions run before any op, so staging a new file mid-
        generation is always consistent with the ops emitted so far.
        """
        if self.files and rng.random() < 0.65:
            return rng.choice(self.files)
        name = self.fresh("s") + ".txt"
        self.setup.append(SetupSpec(kind="file", path=name))
        self.files.append(name)
        return name

    def readable_fds(self) -> List[FdInfo]:
        return [fd for fd in self.fds if fd.readable]

    def writable_fds(self) -> List[FdInfo]:
        return [fd for fd in self.fds if fd.writable]

    def fresh_newfd(self) -> int:
        """An unused high descriptor slot for dup2/dup3."""
        slot = 10
        while slot in self.used_newfds:
            slot += 1
        self.used_newfds.add(slot)
        return slot


@dataclass(frozen=True)
class OpTemplate:
    """One synthesizable syscall: applicability, emission, constraints."""

    call: str
    emit: Callable[[GenState, random.Random], OpSpec]
    applicable: Callable[[GenState], bool] = lambda state: True
    weight: int = 2
    #: only valid as the program's final (target) op — credential
    #: changes and execve would poison the state for later ops
    terminal: bool = False
    #: safe for the mutation engine to splice in at program start
    #: (no state preconditions beyond the staged setup)
    insertable: bool = False


def _root_only(state: GenState) -> bool:
    return state.is_root


def _user_only(state: GenState) -> bool:
    return not state.is_root


def _op(call: str, *args, result: Optional[str] = None,
        expect_success: bool = True) -> OpSpec:
    return OpSpec(call=call, args=tuple(args), result=result,
                  expect_success=expect_success)


# -- emitters ----------------------------------------------------------------


def _emit_open(state: GenState, rng: random.Random) -> OpSpec:
    path = state.ensure_file(rng)
    flags = rng.choice(OPEN_FLAGS)
    var = state.fresh("fd")
    state.fds.append(FdInfo(var, readable=True, writable=flags == "O_RDWR"))
    call = rng.choice(("open", "openat"))
    return _op(call, path, flags, result=var)


def _emit_creat(state: GenState, rng: random.Random) -> OpSpec:
    path = state.fresh_file_name()
    var = state.fresh("fd")
    state.files.append(path)
    # creat opens O_WRONLY: the descriptor cannot be read from
    state.fds.append(FdInfo(var, readable=False, writable=True))
    return _op("creat", path, rng.choice(MODES), result=var)


def _emit_close(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.fds)
    state.fds.remove(fd)
    return _op("close", f"${fd.var}")


def _emit_dup(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.fds)
    var = state.fresh("fd")
    state.fds.append(FdInfo(var, fd.readable, fd.writable, fd.regular))
    return _op("dup", f"${fd.var}", result=var)


def _emit_dup2(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.fds)
    var = state.fresh("fd")
    state.fds.append(FdInfo(var, fd.readable, fd.writable, fd.regular))
    call = rng.choice(("dup2", "dup3"))
    return _op(call, f"${fd.var}", state.fresh_newfd(), result=var)


def _emit_read(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.readable_fds())
    if rng.random() < 0.5:
        return _op("read", f"${fd.var}", rng.choice(LENGTHS))
    return _op("pread", f"${fd.var}", rng.choice(LENGTHS),
               rng.choice(OFFSETS))


def _emit_write(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.writable_fds())
    if rng.random() < 0.5:
        return _op("write", f"${fd.var}", rng.choice(PAYLOADS))
    return _op("pwrite", f"${fd.var}", rng.choice(PAYLOADS),
               rng.choice(OFFSETS))


def _emit_lseek(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice([f for f in state.fds if f.regular])
    return _op("lseek", f"${fd.var}", rng.choice(OFFSETS),
               rng.choice(WHENCES))


def _emit_fstat(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice(state.fds)
    return _op("fstat", f"${fd.var}")


def _emit_ftruncate(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice([f for f in state.writable_fds() if f.regular])
    return _op("ftruncate", f"${fd.var}", rng.choice(LENGTHS))


def _emit_mmap(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice([f for f in state.readable_fds() if f.regular])
    return _op("mmap", f"${fd.var}", "PROT_READ")


def _emit_link(state: GenState, rng: random.Random) -> OpSpec:
    old = state.ensure_file(rng)
    new = state.fresh("hard") + ".txt"
    state.files.append(new)
    call = rng.choice(("link", "linkat"))
    return _op(call, old, new)


def _emit_symlink(state: GenState, rng: random.Random) -> OpSpec:
    target = state.ensure_file(rng)
    link = state.fresh("soft") + ".txt"
    # the link path is deliberately NOT added to files: the target may
    # be renamed or unlinked later, which would dangle the symlink
    call = rng.choice(("symlink", "symlinkat"))
    return _op(call, target, link)


def _emit_mknod(state: GenState, rng: random.Random) -> OpSpec:
    path = state.fresh("fifo")
    call = rng.choice(("mknod", "mknodat"))
    return _op(call, path, "S_IFIFO")


def _emit_rename(state: GenState, rng: random.Random) -> OpSpec:
    old = state.ensure_file(rng)
    new = state.fresh("moved") + ".txt"
    state.files.remove(old)
    state.files.append(new)
    call = rng.choice(("rename", "renameat"))
    return _op(call, old, new)


def _emit_truncate(state: GenState, rng: random.Random) -> OpSpec:
    return _op("truncate", state.ensure_file(rng), rng.choice(LENGTHS))


def _emit_unlink(state: GenState, rng: random.Random) -> OpSpec:
    path = rng.choice(state.files)
    state.files.remove(path)
    call = rng.choice(("unlink", "unlinkat"))
    return _op(call, path)


def _emit_mkdir(state: GenState, rng: random.Random) -> OpSpec:
    path = state.fresh("d")
    state.dirs.append(path)
    return _op("mkdir", path, 0o755)


def _emit_rmdir(state: GenState, rng: random.Random) -> OpSpec:
    path = rng.choice(state.dirs)
    state.dirs.remove(path)
    return _op("rmdir", path)


def _emit_stat(state: GenState, rng: random.Random) -> OpSpec:
    return _op("stat", state.ensure_file(rng))


def _emit_access(state: GenState, rng: random.Random) -> OpSpec:
    return _op("access", state.ensure_file(rng), 4)


def _emit_getcwd(state: GenState, rng: random.Random) -> OpSpec:
    return _op("getcwd")


def _emit_getpid(state: GenState, rng: random.Random) -> OpSpec:
    return _op("getpid")


def _emit_umask(state: GenState, rng: random.Random) -> OpSpec:
    return _op("umask", rng.choice(MASKS))


def _emit_chmod(state: GenState, rng: random.Random) -> OpSpec:
    # sampled modes all keep owner rw, so later opens still succeed
    path = state.ensure_file(rng)
    call = rng.choice(("chmod", "fchmodat"))
    return _op(call, path, rng.choice(MODES))


def _emit_fchmod(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice([f for f in state.fds if f.regular])
    return _op("fchmod", f"${fd.var}", rng.choice(MODES))


def _emit_chown(state: GenState, rng: random.Random) -> OpSpec:
    # root only; ownership moves away, so the file leaves the pool
    # (a non-root persona could no longer rely on owner bits — and even
    # under root, keeping it would let chmod sample a mode the new
    # owner scenario never re-checks)
    path = rng.choice(state.files)
    state.files.remove(path)
    other = rng.choice(OTHER_IDS)
    call = rng.choice(("chown", "fchownat"))
    return _op(call, path, other, other)


def _emit_fchown(state: GenState, rng: random.Random) -> OpSpec:
    fd = rng.choice([f for f in state.fds if f.regular])
    other = rng.choice(OTHER_IDS)
    return _op("fchown", f"${fd.var}", other, other)


def _emit_pipe(state: GenState, rng: random.Random) -> OpSpec:
    prefix = state.fresh("p")
    state.pipes.append(PipeInfo(prefix))
    if rng.random() < 0.5:
        return _op("pipe2", "O_CLOEXEC", result=prefix)
    return _op("pipe", result=prefix)


def _emit_pipe_write(state: GenState, rng: random.Random) -> OpSpec:
    pipe = rng.choice(state.pipes)
    pipe.has_data = True
    return _op("write", f"${pipe.prefix}_w", rng.choice(PAYLOADS))


def _emit_pipe_read(state: GenState, rng: random.Random) -> OpSpec:
    pipe = rng.choice([p for p in state.pipes if p.has_data])
    return _op("read", f"${pipe.prefix}_r", rng.choice(LENGTHS))


def _emit_tee(state: GenState, rng: random.Random) -> OpSpec:
    source = rng.choice([p for p in state.pipes if p.has_data])
    sinks = [p for p in state.pipes if p.prefix != source.prefix]
    if sinks:
        sink = rng.choice(sinks)
    else:
        sink = PipeInfo(state.fresh("p"))
        state.pipes.append(sink)
        # tee needs a second pipe; recursion depth one, then emit
        return _op("pipe", result=sink.prefix)
    sink.has_data = True
    return _op("tee", f"${source.prefix}_r", f"${sink.prefix}_w",
               rng.choice(LENGTHS[1:]))


def _emit_socketpair(state: GenState, rng: random.Random) -> OpSpec:
    prefix = state.fresh("sk")
    state.socks.append(SockInfo(prefix))
    return _op("socketpair", result=prefix)


def _emit_send(state: GenState, rng: random.Random) -> OpSpec:
    sock = rng.choice(state.socks)
    sock.has_data = True
    return _op("send", f"${sock.prefix}_a", rng.choice(PAYLOADS))


def _emit_recv(state: GenState, rng: random.Random) -> OpSpec:
    sock = rng.choice([s for s in state.socks if s.has_data])
    return _op("recv", f"${sock.prefix}_b", rng.choice(LENGTHS))


def _emit_fork(state: GenState, rng: random.Random) -> OpSpec:
    var = state.fresh("child")
    state.children.append(var)
    return _op("fork", result=var)


def _emit_vfork(state: GenState, rng: random.Random) -> OpSpec:
    # the executor exits a vforked child immediately (DV semantics), so
    # it is never killable — don't add it to children
    return _op("vfork", result=state.fresh("child"))


def _emit_clone(state: GenState, rng: random.Random) -> OpSpec:
    return _op("clone", "CLONE_VM|SIGCHLD", result=state.fresh("child"))


def _emit_kill(state: GenState, rng: random.Random) -> OpSpec:
    child = rng.choice(state.children)
    state.children.remove(child)
    return _op("kill", f"${child}", "SIGKILL")


def _emit_execve(state: GenState, rng: random.Random) -> OpSpec:
    # terminal: exec may drop O_CLOEXEC descriptors, so nothing runs after
    return _op("execve", "/bin/true")


def _emit_setid(state: GenState, rng: random.Random) -> OpSpec:
    # terminal: after dropping privileges the persona's staged files may
    # no longer be writable, so no op may follow
    other = rng.choice(OTHER_IDS)
    call = rng.choice((
        "setuid", "setgid", "setreuid", "setregid",
        "setresuid", "setresgid",
    ))
    if call in ("setuid", "setgid"):
        return _op(call, other)
    if call in ("setreuid", "setregid"):
        return _op(call, other, other)
    return _op(call, other, other, other)


def _emit_open_denied(state: GenState, rng: random.Random) -> OpSpec:
    # §3.1 failure workload: a normal user probing root-only files
    return _op("open", "/etc/shadow", "O_RDONLY", expect_success=False)


def _emit_chmod_denied(state: GenState, rng: random.Random) -> OpSpec:
    return _op("chmod", "/etc/passwd", 0o666, expect_success=False)


def _emit_rename_denied(state: GenState, rng: random.Random) -> OpSpec:
    source = state.ensure_file(rng)
    return _op("rename", source, "/etc/passwd", expect_success=False)


# -- the template table ------------------------------------------------------

def _has(attr: str) -> Callable[[GenState], bool]:
    return lambda state: bool(getattr(state, attr))


_HAS_FDS = _has("fds")
_HAS_FILES = _has("files")
_HAS_DIRS = _has("dirs")
_HAS_PIPES = _has("pipes")
_HAS_SOCKS = _has("socks")
_HAS_CHILDREN = _has("children")


def _has_regular_fd(state: GenState) -> bool:
    return any(fd.regular for fd in state.fds)


def _has_readable_fd(state: GenState) -> bool:
    return any(fd.readable for fd in state.fds)


def _has_readable_regular_fd(state: GenState) -> bool:
    return any(fd.readable and fd.regular for fd in state.fds)


def _has_writable_fd(state: GenState) -> bool:
    return any(fd.writable for fd in state.fds)


def _has_writable_regular_fd(state: GenState) -> bool:
    return any(fd.writable and fd.regular for fd in state.fds)


def _has_loaded_pipe(state: GenState) -> bool:
    return any(pipe.has_data for pipe in state.pipes)


def _has_loaded_sock(state: GenState) -> bool:
    return any(sock.has_data for sock in state.socks)


TEMPLATES: Tuple[OpTemplate, ...] = (
    OpTemplate("open", _emit_open, weight=5, insertable=True),
    OpTemplate("creat", _emit_creat, weight=4),
    OpTemplate("close", _emit_close, _HAS_FDS, weight=3),
    OpTemplate("dup", _emit_dup, _HAS_FDS),
    OpTemplate("dup2", _emit_dup2, _HAS_FDS),
    OpTemplate("read", _emit_read, _has_readable_fd, weight=4),
    OpTemplate("write", _emit_write, _has_writable_fd, weight=4),
    OpTemplate("lseek", _emit_lseek, _has_regular_fd),
    OpTemplate("fstat", _emit_fstat, _HAS_FDS),
    OpTemplate("ftruncate", _emit_ftruncate, _has_writable_regular_fd),
    OpTemplate("mmap", _emit_mmap, _has_readable_regular_fd),
    OpTemplate("link", _emit_link, weight=2),
    OpTemplate("symlink", _emit_symlink, weight=2),
    OpTemplate("mknod", _emit_mknod),
    OpTemplate("rename", _emit_rename, weight=2),
    OpTemplate("truncate", _emit_truncate),
    OpTemplate("unlink", _emit_unlink, _HAS_FILES, weight=2),
    OpTemplate("mkdir", _emit_mkdir),
    OpTemplate("rmdir", _emit_rmdir, _HAS_DIRS),
    OpTemplate("stat", _emit_stat, insertable=True),
    OpTemplate("access", _emit_access, insertable=True),
    OpTemplate("getcwd", _emit_getcwd, weight=1, insertable=True),
    OpTemplate("getpid", _emit_getpid, weight=1, insertable=True),
    OpTemplate("umask", _emit_umask, weight=1, insertable=True),
    OpTemplate("chmod", _emit_chmod),
    OpTemplate("fchmod", _emit_fchmod, _has_regular_fd),
    OpTemplate("chown", _emit_chown,
               lambda state: state.is_root and bool(state.files)),
    OpTemplate("fchown", _emit_fchown,
               lambda state: state.is_root and _has_regular_fd(state)),
    OpTemplate("pipe", _emit_pipe, weight=3, insertable=True),
    OpTemplate("pipe_write", _emit_pipe_write, _HAS_PIPES, weight=3),
    OpTemplate("pipe_read", _emit_pipe_read, _has_loaded_pipe),
    OpTemplate("tee", _emit_tee, _has_loaded_pipe),
    OpTemplate("socketpair", _emit_socketpair, insertable=True),
    OpTemplate("send", _emit_send, _HAS_SOCKS),
    OpTemplate("recv", _emit_recv, _has_loaded_sock),
    OpTemplate("fork", _emit_fork, weight=3),
    OpTemplate("vfork", _emit_vfork),
    OpTemplate("clone", _emit_clone),
    OpTemplate("kill", _emit_kill, _HAS_CHILDREN),
    OpTemplate("execve", _emit_execve, terminal=True),
    OpTemplate("setid", _emit_setid, _root_only, terminal=True),
    OpTemplate("open_denied", _emit_open_denied, _user_only, weight=1),
    OpTemplate("chmod_denied", _emit_chmod_denied, _user_only, weight=1),
    OpTemplate("rename_denied", _emit_rename_denied, _user_only, weight=1),
)

#: template name -> the kernel syscalls it may emit (the guard test
#: checks every one against the introspected signatures)
TEMPLATE_CALLS: Dict[str, Tuple[str, ...]] = {
    "open": ("open", "openat"),
    "creat": ("creat",),
    "close": ("close",),
    "dup": ("dup",),
    "dup2": ("dup2", "dup3"),
    "read": ("read", "pread"),
    "write": ("write", "pwrite"),
    "lseek": ("lseek",),
    "fstat": ("fstat",),
    "ftruncate": ("ftruncate",),
    "mmap": ("mmap",),
    "link": ("link", "linkat"),
    "symlink": ("symlink", "symlinkat"),
    "mknod": ("mknod", "mknodat"),
    "rename": ("rename", "renameat"),
    "truncate": ("truncate",),
    "unlink": ("unlink", "unlinkat"),
    "mkdir": ("mkdir",),
    "rmdir": ("rmdir",),
    "stat": ("stat",),
    "access": ("access",),
    "getcwd": ("getcwd",),
    "getpid": ("getpid",),
    "umask": ("umask",),
    "chmod": ("chmod", "fchmodat"),
    "fchmod": ("fchmod",),
    "chown": ("chown", "fchownat"),
    "fchown": ("fchown",),
    "pipe": ("pipe", "pipe2"),
    "pipe_write": ("write",),
    "pipe_read": ("read",),
    "tee": ("tee", "pipe"),
    "socketpair": ("socketpair",),
    "send": ("send",),
    "recv": ("recv",),
    "fork": ("fork",),
    "vfork": ("vfork",),
    "clone": ("clone",),
    "kill": ("kill",),
    "execve": ("execve",),
    "setid": ("setuid", "setgid", "setreuid", "setregid",
              "setresuid", "setresgid"),
    "open_denied": ("open",),
    "chmod_denied": ("chmod",),
    "rename_denied": ("rename",),
}
