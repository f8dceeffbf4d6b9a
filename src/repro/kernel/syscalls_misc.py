"""Additional syscalls beyond the paper's Table 2 set.

Directory management, descriptor positioning, and metadata queries —
needed by richer benchmark scenarios (multi-step sequences, detection
workloads) and by future benchmark families.  Each call follows the same
validate/mutate/report discipline as the Table 2 syscalls.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel.errors import Errno, KernelError
from repro.kernel.fs import MKDIR_MODE_MASK, InodeType
from repro.kernel.machine import Machine, SyscallOutcome
from repro.kernel.process import Process
from repro.kernel.trace import ObjectInfo

_WANT_WRITE = 2


class MiscSyscalls:
    """Mixin over :class:`Machine`: directories, offsets, metadata."""

    # -- directories -----------------------------------------------------------

    def sys_mkdir(self: Machine, process: Process, path: str, mode: int = 0o755) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
            parent, name = self.fs.lookup_parent(full, creds.euid, creds.egid)
            parent_obj = self.file_object(parent, self.fs.split(full)[0], "dir")
            try:
                self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
            except KernelError as denied:
                hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
                raise denied.with_context([parent_obj], hooks)
            stored = mode & MKDIR_MODE_MASK
            inode = self.fs.create_entry(
                parent, name, InodeType.DIRECTORY, stored, creds.euid, creds.egid
            )
            new_obj = self.file_object(inode, full, "path")
            hooks.append(("inode_mkdir", [parent_obj, new_obj], {"mode": oct(stored)}))
            return SyscallOutcome(retval=0, objects=[new_obj], hooks=hooks)
        return self.syscall(process, "mkdir", (path, oct(mode)), run)

    def sys_rmdir(self: Machine, process: Process, path: str) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
            parent, name = self.fs.lookup_parent(full, creds.euid, creds.egid)
            parent_obj = self.file_object(parent, self.fs.split(full)[0], "dir")
            child_ino = parent.entries.get(name)
            if child_ino is None:
                raise KernelError(Errno.ENOENT, full).with_context([parent_obj], hooks)
            child = self.fs.inode(child_ino)
            child_obj = self.file_object(child, full, "path")
            if child.type is not InodeType.DIRECTORY:
                raise KernelError(Errno.ENOTDIR, full).with_context([child_obj], hooks)
            if set(child.entries) - {".", ".."}:
                raise KernelError(Errno.ENOTEMPTY, full).with_context([child_obj], hooks)
            try:
                self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
            except KernelError as denied:
                hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
                raise denied.with_context([child_obj, parent_obj], hooks)
            del parent.entries[name]
            parent.nlink -= 1
            parent.bump_version()
            hooks.append(("inode_rmdir", [parent_obj, child_obj], {}))
            return SyscallOutcome(retval=0, objects=[child_obj], hooks=hooks)
        return self.syscall(process, "rmdir", (path,), run)

    def sys_chdir(self: Machine, process: Process, path: str) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, creds.euid, creds.egid)
            obj = self.file_object(inode, full, "path")
            if inode.type is not InodeType.DIRECTORY:
                raise KernelError(Errno.ENOTDIR, full).with_context([obj], [])
            hooks = [("inode_permission", [obj], {"mask": "x"})]
            if not self.fs.may_access(inode, creds.euid, creds.egid, 1):
                raise KernelError(Errno.EACCES, full).with_context([obj], hooks)
            process.cwd = full
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "chdir", (path,), run)

    def sys_getcwd(self: Machine, process: Process) -> int:
        def run() -> SyscallOutcome:
            return SyscallOutcome(retval=0, objects=[
                ObjectInfo(kind="directory", role="cwd", path=process.cwd)
            ])
        return self.syscall(process, "getcwd", (), run)

    # -- descriptor positioning ---------------------------------------------------

    def sys_lseek(
        self: Machine, process: Process, fd: int, offset: int,
        whence: str = "SEEK_SET",
    ) -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            if description.object_kind in ("pipe", "socket"):
                raise KernelError(Errno.ESPIPE)
            inode = self.fs.inode(description.ino)
            obj = self.file_object(inode, description.path, "fd", fd=fd)
            if whence == "SEEK_SET":
                new_offset = offset
            elif whence == "SEEK_CUR":
                new_offset = description.offset + offset
            elif whence == "SEEK_END":
                new_offset = inode.size + offset
            else:
                raise KernelError(Errno.EINVAL, whence).with_context([obj], [])
            if new_offset < 0:
                raise KernelError(Errno.EINVAL).with_context([obj], [])
            description.offset = new_offset
            return SyscallOutcome(retval=new_offset, objects=[obj])
        return self.syscall(process, "lseek", (fd, offset, whence), run)

    # -- metadata ---------------------------------------------------------------------

    def sys_stat(self: Machine, process: Process, path: str) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, creds.euid, creds.egid)
            obj = self.file_object(inode, full, "path")
            hooks = [("inode_getattr", [obj], {})]
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "stat", (path,), run)

    def sys_fstat(self: Machine, process: Process, fd: int) -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            if description.object_kind in ("pipe", "socket"):
                obj = ObjectInfo(
                    kind=description.object_kind, role="fd", fd=fd,
                    pipe_id=description.pipe_id,
                )
                return SyscallOutcome(retval=0, objects=[obj])
            inode = self.fs.inode(description.ino)
            obj = self.file_object(inode, description.path, "fd", fd=fd)
            hooks = [("inode_getattr", [obj], {})]
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "fstat", (fd,), run)

    def sys_umask(self: Machine, process: Process, mask: int) -> int:
        def run() -> SyscallOutcome:
            previous = getattr(process, "umask", 0o022)
            process.umask = mask  # type: ignore[attr-defined]
            return SyscallOutcome(retval=previous)
        return self.syscall(process, "umask", (oct(mask),), run)
