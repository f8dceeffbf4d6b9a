"""Errno values and the kernel error type."""

from __future__ import annotations

import enum
from typing import Optional


class Errno(enum.IntEnum):
    """The subset of Linux errno values the simulator produces."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EBADF = 9
    EACCES = 13
    EBUSY = 16
    EEXIST = 17
    EXDEV = 18
    ENODEV = 19
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    EMFILE = 24
    EFBIG = 27
    ESPIPE = 29
    ELOOP = 40
    ENOTEMPTY = 39


class KernelError(Exception):
    """A failed syscall: carries the errno reported to user space.

    Implementations may attach the ``objects`` the call had already touched
    and the LSM ``hooks`` that had already fired before the failure, so the
    observation streams can describe failed calls (OPUS sees failed libc
    calls; LSM hooks fire for permission denials).
    """

    def __init__(self, errno: Errno, message: str = "") -> None:
        super().__init__(message or errno.name)
        self.errno = errno
        self.objects: list = []
        self.hooks: list = []

    def with_context(self, objects: list, hooks: Optional[list] = None) -> "KernelError":
        self.objects = objects
        self.hooks = hooks or []
        return self

    def __repr__(self) -> str:
        return f"KernelError({self.errno.name})"
