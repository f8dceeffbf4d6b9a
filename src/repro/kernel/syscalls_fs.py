"""File-system and pipe syscalls (Table 1 groups 1 and 4).

Each ``sys_*`` method validates like the real call (permission checks,
existence, descriptor state), mutates kernel state, and reports the objects
touched plus the LSM hooks that fired.  Failed calls raise
:class:`KernelError` with the partial object/hook context attached, so the
capture systems that observe failures (OPUS via libc, CamFlow via LSM)
still get their view.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernel.errors import Errno, KernelError
from repro.kernel.fs import Inode, InodeType
from repro.kernel.machine import Machine, SyscallOutcome
from repro.kernel.process import OpenFileDescription, Process
from repro.kernel.trace import ObjectInfo

_WANT_READ = 4
_WANT_WRITE = 2
_WANT_EXEC = 1


def _flags_want(flags: str) -> int:
    want = 0
    if "O_RDONLY" in flags or "O_RDWR" in flags:
        want |= _WANT_READ
    if "O_WRONLY" in flags or "O_RDWR" in flags or "O_APPEND" in flags:
        want |= _WANT_WRITE
    return want or _WANT_READ


class FileSyscalls:
    """Mixin over :class:`Machine` implementing file and pipe syscalls."""

    # -- open family -----------------------------------------------------------

    def sys_open(
        self: Machine, process: Process, path: str, flags: str = "O_RDWR",
        mode: int = 0o644,
    ) -> int:
        def run() -> SyscallOutcome:
            return self._open_common(process, path, flags, mode, "open")
        return self.syscall(process, "open", (path, flags), run)

    def sys_openat(
        self: Machine, process: Process, path: str, flags: str = "O_RDWR",
        mode: int = 0o644,
    ) -> int:
        def run() -> SyscallOutcome:
            return self._open_common(process, path, flags, mode, "openat")
        return self.syscall(process, "openat", ("AT_FDCWD", path, flags), run)

    def sys_creat(self: Machine, process: Process, path: str, mode: int = 0o644) -> int:
        def run() -> SyscallOutcome:
            return self._open_common(
                process, path, "O_CREAT|O_WRONLY|O_TRUNC", mode, "creat"
            )
        return self.syscall(process, "creat", (path, oct(mode)), run)

    def _open_common(
        self: Machine, process: Process, path: str, flags: str, mode: int,
        syscall_name: str,
    ) -> SyscallOutcome:
        creds = process.creds
        full = self.fs.normalize(path, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        created = False
        try:
            inode = self.fs.resolve(full, creds.euid, creds.egid)
        except KernelError as error:
            if error.errno is not Errno.ENOENT or "O_CREAT" not in flags:
                raise error.with_context(
                    [ObjectInfo(kind="file", role="path", path=full)], hooks
                )
            parent, name = self.fs.lookup_parent(full, creds.euid, creds.egid)
            parent_obj = self.file_object(parent, self.fs.split(full)[0], "dir")
            try:
                self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
            except KernelError as denied:
                hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
                raise denied.with_context([parent_obj], hooks)
            inode = self.fs.create_entry(
                parent, name, InodeType.REGULAR, mode, creds.euid, creds.egid
            )
            created = True
            hooks.append((
                "inode_create",
                [parent_obj, self.file_object(inode, full, "path")],
                {"mode": oct(mode)},
            ))
        file_obj = self.file_object(inode, full, "path")
        if inode.type is InodeType.DIRECTORY and _flags_want(flags) & _WANT_WRITE:
            raise KernelError(Errno.EISDIR, full).with_context([file_obj], hooks)
        if not created:
            want = _flags_want(flags)
            try:
                self.fs.check_access(inode, creds.euid, creds.egid, want)
            except KernelError as denied:
                hooks.append(("inode_permission", [file_obj], {"mask": "rw"}))
                raise denied.with_context([file_obj], hooks)
            hooks.append(("inode_permission", [file_obj], {"mask": "rw"}))
        if "O_TRUNC" in flags and inode.type is InodeType.REGULAR and not created:
            inode.data = b""
            inode.size = 0
            inode.bump_version()
        hooks.append(("file_open", [file_obj], {"flags": flags}))
        description = OpenFileDescription(ino=inode.ino, path=full, flags=flags)
        fd = process.alloc_fd(description)
        outcome = SyscallOutcome(retval=fd)
        outcome.objects = [self.file_object(inode, full, "path", fd=fd)]
        outcome.hooks = hooks
        if created:
            outcome.objects.append(ObjectInfo(kind="file", role="created", path=full, ino=inode.ino))
        return outcome

    def sys_close(self: Machine, process: Process, fd: int) -> int:
        def run() -> SyscallOutcome:
            description = process.drop_fd(fd)
            objects = [
                ObjectInfo(
                    kind=description.object_kind,
                    role="fd",
                    ino=description.ino or None,
                    path=description.path,
                    fd=fd,
                    pipe_id=description.pipe_id,
                )
            ]
            # No LSM hook fires at close time; the underlying structures are
            # freed lazily (paper §4.1: CamFlow records the eventual free,
            # which ProvMark does not reliably observe).
            return SyscallOutcome(retval=0, objects=objects)
        return self.syscall(process, "close", (fd,), run)

    # -- descriptor duplication -----------------------------------------------

    def _dup_common(
        self: Machine, process: Process, oldfd: int, newfd: Optional[int]
    ) -> SyscallOutcome:
        description = process.get_fd(oldfd)
        if newfd is None:
            fd = process.alloc_fd(description)
            description.refcount += 1
        else:
            if newfd in process.fds:
                process.drop_fd(newfd)
            process.install_fd(newfd, description)
            fd = newfd
        objects = [
            ObjectInfo(
                kind=description.object_kind, role="oldfd",
                ino=description.ino or None, path=description.path, fd=oldfd,
                pipe_id=description.pipe_id,
            ),
            ObjectInfo(
                kind=description.object_kind, role="newfd",
                ino=description.ino or None, path=description.path, fd=fd,
                pipe_id=description.pipe_id,
            ),
        ]
        # dup involves no security decision: no LSM hook fires, which is why
        # CamFlow records nothing for dup (Table 2, note NR).
        return SyscallOutcome(retval=fd, objects=objects)

    def sys_dup(self: Machine, process: Process, oldfd: int) -> int:
        return self.syscall(
            process, "dup", (oldfd,), lambda: self._dup_common(process, oldfd, None)
        )

    def sys_dup2(self: Machine, process: Process, oldfd: int, newfd: int) -> int:
        return self.syscall(
            process, "dup2", (oldfd, newfd),
            lambda: self._dup_common(process, oldfd, newfd),
        )

    def sys_dup3(self: Machine, process: Process, oldfd: int, newfd: int) -> int:
        return self.syscall(
            process, "dup3", (oldfd, newfd, "O_CLOEXEC"),
            lambda: self._dup_common(process, oldfd, newfd),
        )

    # -- read / write -----------------------------------------------------------

    def _io_common(
        self: Machine, process: Process, fd: int, length: int, write: bool,
        positional: bool,
        data: bytes = b"",
    ) -> SyscallOutcome:
        description = process.get_fd(fd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        if description.object_kind == "pipe":
            pipe = self.pipes[description.pipe_id or 0]
            obj = self.pipe_object(pipe, "fd", fd=fd)
            if positional:
                raise KernelError(Errno.ESPIPE).with_context([obj], hooks)
            hooks.append((
                "file_permission", [obj], {"mask": "w" if write else "r"}
            ))
            if write:
                if description.pipe_end != "write":
                    raise KernelError(Errno.EBADF).with_context([obj], hooks)
                pipe.buffer += data or b"x" * length
                moved = len(data) or length
            else:
                if description.pipe_end != "read":
                    raise KernelError(Errno.EBADF).with_context([obj], hooks)
                moved = min(length, len(pipe.buffer))
                pipe.buffer = pipe.buffer[moved:]
            return SyscallOutcome(retval=moved, objects=[obj], hooks=hooks)
        inode = self.fs.inode(description.ino)
        obj = self.file_object(inode, description.path, "fd", fd=fd)
        want_flag = _flags_want(description.flags)
        if write and not (want_flag & _WANT_WRITE):
            raise KernelError(Errno.EBADF).with_context([obj], hooks)
        if not write and not (want_flag & _WANT_READ):
            raise KernelError(Errno.EBADF).with_context([obj], hooks)
        hooks.append((
            "file_permission", [obj], {"mask": "w" if write else "r"}
        ))
        if write:
            payload = data or b"x" * length
            offset = 0 if positional else description.offset
            buffer = inode.data[:offset].ljust(offset, b"\0") + payload
            inode.data = buffer + inode.data[offset + len(payload):]
            inode.size = len(inode.data)
            inode.bump_version()
            inode.mtime_ns = self.clock.tick()
            if not positional:
                description.offset += len(payload)
            moved = len(payload)
        else:
            offset = 0 if positional else description.offset
            chunk = inode.data[offset:offset + length]
            if not positional:
                description.offset += len(chunk)
            moved = len(chunk)
        return SyscallOutcome(retval=moved, objects=[obj], hooks=hooks)

    def sys_read(self: Machine, process: Process, fd: int, length: int = 64) -> int:
        return self.syscall(
            process, "read", (fd, length),
            lambda: self._io_common(process, fd, length, write=False, positional=False),
        )

    def sys_pread(self: Machine, process: Process, fd: int, length: int = 64, offset: int = 0) -> int:
        return self.syscall(
            process, "pread", (fd, length, offset),
            lambda: self._io_common(process, fd, length, write=False, positional=True),
        )

    def sys_write(
        self: Machine, process: Process, fd: int, data: bytes = b"hello"
    ) -> int:
        return self.syscall(
            process, "write", (fd, len(data)),
            lambda: self._io_common(
                process, fd, len(data), write=True, positional=False, data=data
            ),
        )

    def sys_pwrite(
        self: Machine, process: Process, fd: int, data: bytes = b"hello", offset: int = 0
    ) -> int:
        return self.syscall(
            process, "pwrite", (fd, len(data), offset),
            lambda: self._io_common(
                process, fd, len(data), write=True, positional=True, data=data
            ),
        )

    # -- links --------------------------------------------------------------------

    def _link_common(
        self: Machine, process: Process, oldpath: str, newpath: str
    ) -> SyscallOutcome:
        creds = process.creds
        old_full = self.fs.normalize(oldpath, process.cwd)
        new_full = self.fs.normalize(newpath, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        target = self.fs.resolve(old_full, creds.euid, creds.egid, follow=False)
        target_obj = self.file_object(target, old_full, "oldpath")
        parent, name = self.fs.lookup_parent(new_full, creds.euid, creds.egid)
        parent_obj = self.file_object(parent, self.fs.split(new_full)[0], "dir")
        try:
            self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
        except KernelError as denied:
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
            raise denied.with_context([target_obj, parent_obj], hooks)
        self.fs.link_entry(parent, name, target)
        new_obj = self.file_object(target, new_full, "newpath")
        hooks.append(("inode_link", [target_obj, parent_obj, new_obj], {}))
        return SyscallOutcome(
            retval=0, objects=[target_obj, new_obj], hooks=hooks
        )

    def sys_link(self: Machine, process: Process, oldpath: str, newpath: str) -> int:
        return self.syscall(
            process, "link", (oldpath, newpath),
            lambda: self._link_common(process, oldpath, newpath),
        )

    def sys_linkat(self: Machine, process: Process, oldpath: str, newpath: str) -> int:
        return self.syscall(
            process, "linkat", ("AT_FDCWD", oldpath, "AT_FDCWD", newpath),
            lambda: self._link_common(process, oldpath, newpath),
        )

    def _symlink_common(
        self: Machine, process: Process, target: str, linkpath: str
    ) -> SyscallOutcome:
        creds = process.creds
        link_full = self.fs.normalize(linkpath, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        parent, name = self.fs.lookup_parent(link_full, creds.euid, creds.egid)
        parent_obj = self.file_object(parent, self.fs.split(link_full)[0], "dir")
        try:
            self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
        except KernelError as denied:
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
            raise denied.with_context([parent_obj], hooks)
        inode = self.fs.create_entry(
            parent, name, InodeType.SYMLINK, 0o777, creds.euid, creds.egid
        )
        inode.symlink_target = target
        link_obj = self.file_object(inode, link_full, "linkpath")
        hooks.append(("inode_symlink", [parent_obj, link_obj], {"target": target}))
        return SyscallOutcome(retval=0, objects=[link_obj], hooks=hooks)

    def sys_symlink(self: Machine, process: Process, target: str, linkpath: str) -> int:
        return self.syscall(
            process, "symlink", (target, linkpath),
            lambda: self._symlink_common(process, target, linkpath),
        )

    def sys_symlinkat(self: Machine, process: Process, target: str, linkpath: str) -> int:
        return self.syscall(
            process, "symlinkat", (target, "AT_FDCWD", linkpath),
            lambda: self._symlink_common(process, target, linkpath),
        )

    # -- mknod ------------------------------------------------------------------

    def _mknod_common(
        self: Machine, process: Process, path: str, mode: str
    ) -> SyscallOutcome:
        creds = process.creds
        full = self.fs.normalize(path, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        parent, name = self.fs.lookup_parent(full, creds.euid, creds.egid)
        parent_obj = self.file_object(parent, self.fs.split(full)[0], "dir")
        itype = InodeType.FIFO
        if "S_IFCHR" in mode:
            itype = InodeType.CHARDEV
        elif "S_IFBLK" in mode:
            itype = InodeType.BLOCKDEV
        elif "S_IFSOCK" in mode:
            itype = InodeType.SOCKET
        if itype in (InodeType.CHARDEV, InodeType.BLOCKDEV) and creds.euid != 0:
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
            raise KernelError(Errno.EPERM).with_context([parent_obj], hooks)
        try:
            self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
        except KernelError as denied:
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
            raise denied.with_context([parent_obj], hooks)
        inode = self.fs.create_entry(
            parent, name, itype, 0o644, creds.euid, creds.egid
        )
        node_obj = self.file_object(inode, full, "path")
        hooks.append(("inode_mknod", [parent_obj, node_obj], {"mode": mode}))
        return SyscallOutcome(retval=0, objects=[node_obj], hooks=hooks)

    def sys_mknod(self: Machine, process: Process, path: str, mode: str = "S_IFIFO") -> int:
        return self.syscall(
            process, "mknod", (path, mode),
            lambda: self._mknod_common(process, path, mode),
        )

    def sys_mknodat(self: Machine, process: Process, path: str, mode: str = "S_IFIFO") -> int:
        return self.syscall(
            process, "mknodat", ("AT_FDCWD", path, mode),
            lambda: self._mknod_common(process, path, mode),
        )

    # -- rename --------------------------------------------------------------------

    def _rename_common(
        self: Machine, process: Process, oldpath: str, newpath: str
    ) -> SyscallOutcome:
        creds = process.creds
        old_full = self.fs.normalize(oldpath, process.cwd)
        new_full = self.fs.normalize(newpath, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        old_parent, old_name = self.fs.lookup_parent(old_full, creds.euid, creds.egid)
        new_parent, new_name = self.fs.lookup_parent(new_full, creds.euid, creds.egid)
        old_parent_obj = self.file_object(old_parent, self.fs.split(old_full)[0], "olddir")
        new_parent_obj = self.file_object(new_parent, self.fs.split(new_full)[0], "newdir")
        moving_ino = old_parent.entries.get(old_name)
        if moving_ino is None:
            raise KernelError(Errno.ENOENT, old_full).with_context(
                [old_parent_obj], hooks
            )
        moving = self.fs.inode(moving_ino)
        old_obj = self.file_object(moving, old_full, "oldpath")
        for parent, parent_obj in ((old_parent, old_parent_obj), (new_parent, new_parent_obj)):
            try:
                self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
            except KernelError as denied:
                hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
                raise denied.with_context([old_obj, parent_obj], hooks)
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
        existing_ino = new_parent.entries.get(new_name)
        if existing_ino == moving.ino:
            # Both names are links to one file (or the same name): rename(2)
            # succeeds without doing anything, and returns before the
            # inode_rename hook fires.
            return SyscallOutcome(retval=0, objects=[old_obj], hooks=hooks)
        if existing_ino is not None:
            existing = self.fs.inode(existing_ino)
            # Overwriting a root-owned file as non-root fails on the sticky
            # /etc case used by the failed-rename benchmark.
            if creds.euid != 0 and existing.uid != creds.euid and not self.fs.may_access(
                existing, creds.euid, creds.egid, _WANT_WRITE
            ):
                raise KernelError(Errno.EACCES, new_full).with_context(
                    [old_obj, self.file_object(existing, new_full, "newpath")], hooks
                )
            self.fs.unlink_entry(new_parent, new_name)
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = moving.ino
        old_parent.bump_version()
        new_parent.bump_version()
        moving.bump_version()
        new_obj = self.file_object(moving, new_full, "newpath")
        hooks.append(("inode_rename", [old_obj, new_obj, old_parent_obj, new_parent_obj], {}))
        return SyscallOutcome(retval=0, objects=[old_obj, new_obj], hooks=hooks)

    def sys_rename(self: Machine, process: Process, oldpath: str, newpath: str) -> int:
        return self.syscall(
            process, "rename", (oldpath, newpath),
            lambda: self._rename_common(process, oldpath, newpath),
        )

    def sys_renameat(self: Machine, process: Process, oldpath: str, newpath: str) -> int:
        return self.syscall(
            process, "renameat", ("AT_FDCWD", oldpath, "AT_FDCWD", newpath),
            lambda: self._rename_common(process, oldpath, newpath),
        )

    # -- truncate -----------------------------------------------------------------

    def _truncate_inode(
        self: Machine, inode: Inode, length: int
    ) -> None:
        inode.data = inode.data[:length].ljust(length, b"\0")
        inode.size = length
        inode.bump_version()
        inode.mtime_ns = self.clock.tick()

    def sys_truncate(self: Machine, process: Process, path: str, length: int = 0) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
            inode = self.fs.resolve(full, creds.euid, creds.egid)
            obj = self.file_object(inode, full, "path")
            try:
                self.fs.check_access(inode, creds.euid, creds.egid, _WANT_WRITE)
            except KernelError as denied:
                hooks.append(("inode_permission", [obj], {"mask": "w"}))
                raise denied.with_context([obj], hooks)
            self._truncate_inode(inode, length)
            hooks.append(("inode_permission", [obj], {"mask": "w"}))
            hooks.append(("path_truncate", [obj], {"length": str(length)}))
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "truncate", (path, length), run)

    def sys_ftruncate(self: Machine, process: Process, fd: int, length: int = 0) -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            inode = self.fs.inode(description.ino)
            obj = self.file_object(inode, description.path, "fd", fd=fd)
            if not _flags_want(description.flags) & _WANT_WRITE:
                raise KernelError(Errno.EBADF).with_context([obj], [])
            self._truncate_inode(inode, length)
            hooks = [("path_truncate", [obj], {"length": str(length)})]
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "ftruncate", (fd, length), run)

    # -- unlink --------------------------------------------------------------------

    def _unlink_common(self: Machine, process: Process, path: str) -> SyscallOutcome:
        creds = process.creds
        full = self.fs.normalize(path, process.cwd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        parent, name = self.fs.lookup_parent(full, creds.euid, creds.egid)
        parent_obj = self.file_object(parent, self.fs.split(full)[0], "dir")
        target_ino = parent.entries.get(name)
        if target_ino is None:
            raise KernelError(Errno.ENOENT, full).with_context([parent_obj], hooks)
        target = self.fs.inode(target_ino)
        target_obj = self.file_object(target, full, "path")
        try:
            self.fs.check_access(parent, creds.euid, creds.egid, _WANT_WRITE)
        except KernelError as denied:
            hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
            raise denied.with_context([target_obj, parent_obj], hooks)
        self.fs.unlink_entry(parent, name)
        hooks.append(("inode_permission", [parent_obj], {"mask": "w"}))
        hooks.append(("inode_unlink", [parent_obj, target_obj], {}))
        return SyscallOutcome(retval=0, objects=[target_obj], hooks=hooks)

    def sys_unlink(self: Machine, process: Process, path: str) -> int:
        return self.syscall(
            process, "unlink", (path,), lambda: self._unlink_common(process, path)
        )

    def sys_unlinkat(self: Machine, process: Process, path: str) -> int:
        return self.syscall(
            process, "unlinkat", ("AT_FDCWD", path, 0),
            lambda: self._unlink_common(process, path),
        )

    # -- pipes ---------------------------------------------------------------------

    def _pipe_common(self: Machine, process: Process, flags: str) -> SyscallOutcome:
        pipe = self.alloc_pipe()
        read_description = self.description_for_pipe(pipe, "read")
        write_description = self.description_for_pipe(pipe, "write")
        read_fd = process.alloc_fd(read_description)
        write_fd = process.alloc_fd(write_description)
        objects = [
            self.pipe_object(pipe, "read_end", fd=read_fd),
            self.pipe_object(pipe, "write_end", fd=write_fd),
        ]
        # Anonymous pipe creation allocates inodes internally but fires no
        # provenance-bearing LSM hook in CamFlow's recorded set.
        return SyscallOutcome(retval=0, objects=objects)

    def sys_pipe(self: Machine, process: Process) -> int:
        return self.syscall(
            process, "pipe", ("fds",), lambda: self._pipe_common(process, "")
        )

    def sys_pipe2(self: Machine, process: Process, flags: str = "O_CLOEXEC") -> int:
        return self.syscall(
            process, "pipe2", ("fds", flags),
            lambda: self._pipe_common(process, flags),
        )

    def sys_tee(
        self: Machine, process: Process, fd_in: int, fd_out: int, length: int = 64
    ) -> int:
        def run() -> SyscallOutcome:
            description_in = process.get_fd(fd_in)
            description_out = process.get_fd(fd_out)
            if description_in.object_kind != "pipe" or description_out.object_kind != "pipe":
                raise KernelError(Errno.EINVAL)
            pipe_in = self.pipes[description_in.pipe_id or 0]
            pipe_out = self.pipes[description_out.pipe_id or 0]
            in_obj = self.pipe_object(pipe_in, "pipe_in", fd=fd_in)
            out_obj = self.pipe_object(pipe_out, "pipe_out", fd=fd_out)
            moved = min(length, len(pipe_in.buffer))
            pipe_out.buffer += pipe_in.buffer[:moved]
            hooks = [
                ("file_permission", [in_obj], {"mask": "r"}),
                ("file_permission", [out_obj], {"mask": "w"}),
                ("file_splice_pipe_to_pipe", [in_obj, out_obj], {"len": str(moved)}),
            ]
            return SyscallOutcome(retval=moved, objects=[in_obj, out_obj], hooks=hooks)
        return self.syscall(process, "tee", (fd_in, fd_out, length), run)


class SocketSyscalls:
    """Mixin over :class:`Machine` implementing local-socket syscalls.

    These back the paper's introductory motivation: communication over
    local sockets is a blind spot for recorders that do not hook it —
    "attackers can evade notice by using these communication channels".
    Only the LSM vantage (CamFlow) observes them by default.
    """

    def sys_socketpair(self: Machine, process: Process) -> int:
        def run() -> SyscallOutcome:
            pair = self.alloc_socketpair()
            description_a = OpenFileDescription(
                ino=0, path=f"socket:[{pair.socket_id}]", flags="O_RDWR",
                object_kind="socket", pipe_id=pair.socket_id, pipe_end="a",
            )
            description_b = OpenFileDescription(
                ino=0, path=f"socket:[{pair.socket_id}+1]", flags="O_RDWR",
                object_kind="socket", pipe_id=pair.socket_id, pipe_end="b",
            )
            fd_a = process.alloc_fd(description_a)
            fd_b = process.alloc_fd(description_b)
            objects = [
                self.socket_object(pair, "end_a", fd=fd_a),
                self.socket_object(pair, "end_b", fd=fd_b),
            ]
            hooks = [
                ("socket_create", [objects[0]], {"family": "AF_UNIX"}),
                ("socket_socketpair", objects, {}),
            ]
            return SyscallOutcome(retval=0, objects=objects, hooks=hooks)
        return self.syscall(process, "socketpair", ("AF_UNIX", "SOCK_STREAM"), run)

    def _socket_io(
        self: Machine, process: Process, fd: int, send: bool,
        data: bytes, length: int,
    ) -> SyscallOutcome:
        description = process.get_fd(fd)
        if description.object_kind != "socket":
            raise KernelError(Errno.ENOTDIR, "not a socket")
        pair = self.sockets[description.pipe_id or 0]
        obj = self.socket_object(pair, "fd", fd=fd)
        hooks = [(
            "socket_sendmsg" if send else "socket_recvmsg",
            [obj], {"len": str(len(data) or length)},
        )]
        if send:
            moved = pair.send(description.pipe_end or "a", data)
        else:
            moved = len(pair.recv(description.pipe_end or "a", length))
        return SyscallOutcome(retval=moved, objects=[obj], hooks=hooks)

    def sys_send(self: Machine, process: Process, fd: int, data: bytes = b"payload") -> int:
        return self.syscall(
            process, "send", (fd, len(data)),
            lambda: self._socket_io(process, fd, True, data, 0),
        )

    def sys_recv(self: Machine, process: Process, fd: int, length: int = 64) -> int:
        return self.syscall(
            process, "recv", (fd, length),
            lambda: self._socket_io(process, fd, False, b"", length),
        )
