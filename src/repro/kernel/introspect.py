"""Introspection over the simulated kernel's syscall surface.

One pass over the :class:`~repro.kernel.Kernel` ``sys_*`` methods gives
every syscall's positional parameters, so neither consumer can drift
from what the executor dispatches to.  The benchmark-spec validator
checks an op's arity and argument types against them
(:meth:`repro.api.specs.BenchmarkSpec.validate`); the synthesis engine
needs more: *what each argument means*, so a generator can sample
plausible values (a path, an open file descriptor, a mode, a uid)
instead of guessing from type annotations alone.

Each parameter is classified into an :class:`ArgKind` by (name,
annotation).  Anything unrecognized is :data:`ArgKind.OPAQUE`: the
generator simply refuses to synthesize calls it cannot type, rather
than emitting garbage.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class ArgKind(enum.Enum):
    """Semantic role of one syscall parameter."""

    PATH = "path"          # a filesystem path (str)
    NEW_PATH = "new_path"  # a path expected not to exist yet (str)
    FD = "fd"              # an open file descriptor (int, usually $var)
    NEW_FD = "new_fd"      # an explicit descriptor slot (dup2/dup3)
    MODE = "mode"          # permission bits (int)
    FLAGS = "flags"        # symbolic flag string (O_*, S_*, CLONE_*, ...)
    LENGTH = "length"      # byte count (int >= 0)
    OFFSET = "offset"      # file offset (int >= 0)
    DATA = "data"          # payload bytes
    UID = "uid"            # user id (int)
    GID = "gid"            # group id (int)
    PID = "pid"            # process id (int, usually $var)
    SIGNAL = "signal"      # signal name (str)
    CODE = "code"          # exit code (int)
    ARGV = "argv"          # execve argument vector (unchecked)
    WHENCE = "whence"      # lseek anchor (SEEK_*)
    MASK = "mask"          # umask/access mask (int)
    OPAQUE = "opaque"      # unclassified: not safe to synthesize


#: (parameter name, annotation string) -> kind; checked before the
#: name-only fallbacks below
_BY_NAME_AND_TYPE: Dict[Tuple[str, str], ArgKind] = {
    ("mode", "str"): ArgKind.FLAGS,   # mknod's "S_IFIFO"
    ("mode", "int"): ArgKind.MODE,
}

_BY_NAME: Dict[str, ArgKind] = {
    "path": ArgKind.PATH,
    "oldpath": ArgKind.PATH,
    "target": ArgKind.PATH,
    "newpath": ArgKind.NEW_PATH,
    "linkpath": ArgKind.NEW_PATH,
    "fd": ArgKind.FD,
    "oldfd": ArgKind.FD,
    "fd_in": ArgKind.FD,
    "fd_out": ArgKind.FD,
    "newfd": ArgKind.NEW_FD,
    "flags": ArgKind.FLAGS,
    "prot": ArgKind.FLAGS,
    "length": ArgKind.LENGTH,
    "offset": ArgKind.OFFSET,
    "data": ArgKind.DATA,
    "uid": ArgKind.UID,
    "ruid": ArgKind.UID,
    "euid": ArgKind.UID,
    "suid": ArgKind.UID,
    "gid": ArgKind.GID,
    "rgid": ArgKind.GID,
    "egid": ArgKind.GID,
    "sgid": ArgKind.GID,
    "pid": ArgKind.PID,
    "signal": ArgKind.SIGNAL,
    "code": ArgKind.CODE,
    "argv": ArgKind.ARGV,
    "whence": ArgKind.WHENCE,
    "mask": ArgKind.MASK,
}

#: parameter annotations a spec's literal argument is type-checked
#: against; anything else (e.g. execve's ``Optional[List[str]]`` argv)
#: goes unchecked
_CHECKABLE: Dict[str, type] = {"str": str, "int": int, "bytes": bytes}


@dataclass(frozen=True)
class SyscallParam:
    """One positional parameter of a ``sys_*`` method."""

    name: str
    kind: ArgKind
    required: bool
    #: the literal default for optional parameters (None when required)
    default: object = None
    #: the type a literal argument must have (None: unchecked)
    expected_type: Optional[type] = None


@dataclass(frozen=True)
class SyscallSignature:
    """The full introspected shape of one syscall."""

    call: str
    params: Tuple[SyscallParam, ...]

    @property
    def required(self) -> int:
        return sum(1 for p in self.params if p.required)

    @property
    def maximum(self) -> int:
        return len(self.params)


_SIGNATURES: Optional[Dict[str, SyscallSignature]] = None


def _annotation_name(annotation: object) -> str:
    if annotation is inspect.Parameter.empty:
        return ""
    if isinstance(annotation, str):
        return annotation
    return getattr(annotation, "__name__", str(annotation))


def _classify(name: str, annotation: object) -> ArgKind:
    typed = _BY_NAME_AND_TYPE.get((name, _annotation_name(annotation)))
    if typed is not None:
        return typed
    return _BY_NAME.get(name, ArgKind.OPAQUE)


def syscall_signatures() -> Dict[str, SyscallSignature]:
    """``call -> SyscallSignature`` over every ``sys_*`` kernel method.

    Built lazily in one pass and cached; the ``self``/``process``
    parameters are dropped, so indexes line up with
    :class:`~repro.suite.program.Op` argument positions.
    """
    global _SIGNATURES
    if _SIGNATURES is not None:
        return _SIGNATURES
    from repro.kernel import Kernel  # late: this module is imported by the package

    positional = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    signatures: Dict[str, SyscallSignature] = {}
    for attr in dir(Kernel):
        if not attr.startswith("sys_"):
            continue
        params = [
            p for p in inspect.signature(getattr(Kernel, attr)).parameters.values()
            if p.kind in positional
        ][2:]  # drop self, process
        call = attr[len("sys_"):]
        signatures[call] = SyscallSignature(
            call=call,
            params=tuple(
                SyscallParam(
                    name=p.name,
                    kind=_classify(p.name, p.annotation),
                    required=p.default is inspect.Parameter.empty,
                    default=(
                        None if p.default is inspect.Parameter.empty
                        else p.default
                    ),
                    expected_type=_CHECKABLE.get(
                        _annotation_name(p.annotation)
                    ),
                )
                for p in params
            ),
        )
    _SIGNATURES = signatures
    return signatures


def signature_for(call: str) -> SyscallSignature:
    """The signature of one syscall (KeyError names the known calls)."""
    signatures = syscall_signatures()
    try:
        return signatures[call]
    except KeyError:
        raise KeyError(
            f"unknown syscall {call!r}; the kernel implements: "
            f"{sorted(signatures)}"
        ) from None
