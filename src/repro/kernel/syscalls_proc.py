"""Process-management and permission syscalls (Table 1 groups 2 and 3)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernel.errors import Errno, KernelError
from repro.kernel.fs import S_IALLUGO, InodeType
from repro.kernel.machine import Machine, SyscallOutcome
from repro.kernel.process import Credentials, Process
from repro.kernel.trace import ObjectInfo


class ProcessSyscalls:
    """Mixin over :class:`Machine` implementing process and cred syscalls."""

    # -- process creation ---------------------------------------------------

    def _spawn_child(self: Machine, parent: Process) -> Process:
        child = self._make_process(
            ppid=parent.pid,
            creds=parent.creds.copy(),
            exe=parent.exe,
            comm=parent.comm,
        )
        child.cwd = parent.cwd
        child.argv = list(parent.argv)
        child.env = dict(parent.env)
        child.fds = parent.clone_fd_table()
        child.next_fd = parent.next_fd
        return child

    def _fork_common(
        self: Machine, process: Process, name: str, defer_audit: bool
    ) -> SyscallOutcome:
        child = self._spawn_child(process)
        hooks = [(
            "task_alloc",
            [self.process_object(child, "child")],
            {"clone_flags": "0" if name != "clone" else "CLONE_VM"},
        )]
        outcome = SyscallOutcome(
            retval=child.pid,
            objects=[self.process_object(child, "child")],
            hooks=hooks,
        )
        outcome.defer_audit = defer_audit
        return outcome

    def sys_fork(self: Machine, process: Process) -> int:
        return self.syscall(
            process, "fork", (),
            lambda: self._fork_common(process, "fork", defer_audit=False),
        )

    def sys_vfork(self: Machine, process: Process) -> int:
        """vfork suspends the parent; Linux Audit therefore reports the
        child's syscalls *before* the parent's vfork record (paper §4.2,
        the cause of SPADE's disconnected vfork node, note DV)."""
        process.vfork_parent_suspended = True
        return self.syscall(
            process, "vfork", (),
            lambda: self._fork_common(process, "vfork", defer_audit=True),
        )

    def sys_clone(self: Machine, process: Process, flags: str = "CLONE_VM|SIGCHLD") -> int:
        return self.syscall(
            process, "clone", (flags,),
            lambda: self._fork_common(process, "clone", defer_audit=False),
        )

    def sys_execve(
        self: Machine, process: Process, path: str,
        argv: Optional[List[str]] = None,
    ) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
            inode = self.fs.resolve(full, creds.euid, creds.egid)
            exe_obj = self.file_object(inode, full, "exe")
            if inode.type is not InodeType.REGULAR:
                raise KernelError(Errno.EACCES, full).with_context([exe_obj], hooks)
            try:
                self.fs.check_access(inode, creds.euid, creds.egid, 1)
            except KernelError as denied:
                hooks.append(("bprm_creds_for_exec", [exe_obj], {}))
                raise denied.with_context([exe_obj], hooks)
            old_exe = process.exe
            process.exe = full
            process.comm = self.fs.split(full)[1]
            process.argv = list(argv or [full])
            # The kernel gives the post-exec task a fresh identity (CamFlow
            # versions the task node on exec).
            process.task_id = self.ids.object_id()
            hooks.extend([
                ("bprm_creds_for_exec", [exe_obj], {}),
                ("bprm_check_security", [exe_obj], {"old_exe": old_exe}),
                ("bprm_committed_creds", [self.process_object(process, "task"), exe_obj], {}),
            ])
            objects = [
                exe_obj,
                self.process_object(process, "task"),
                ObjectInfo(kind="file", role="old_exe", path=old_exe),
            ]
            return SyscallOutcome(retval=0, objects=objects, hooks=hooks)
        return self.syscall(process, "execve", (path,), run)

    def sys_exit(self: Machine, process: Process, code: int = 0) -> int:
        def run() -> SyscallOutcome:
            process.alive = False
            process.exit_code = code
            if process.vfork_parent_suspended:
                pass  # the loader resumes the parent and flushes audit
            # task_free fires asynchronously, outside the recording window.
            return SyscallOutcome(retval=0, objects=[self.process_object(process, "task")])
        result = self.syscall(process, "exit", (code,), run)
        parent = self.processes.get(process.ppid)
        if parent is not None and parent.vfork_parent_suspended:
            parent.vfork_parent_suspended = False
            self.flush_deferred_audit()
        return result

    def sys_kill(self: Machine, process: Process, pid: int, signal: str = "SIGKILL") -> int:
        def run() -> SyscallOutcome:
            target = self.process(pid)
            hooks = [(
                "task_kill",
                [self.process_object(target, "target")],
                {"signal": signal},
            )]
            if signal in ("SIGKILL", "SIGTERM"):
                target.alive = False
                target.exit_code = -1
            return SyscallOutcome(
                retval=0,
                objects=[self.process_object(target, "target")],
                hooks=hooks,
            )
        return self.syscall(process, "kill", (pid, signal), run)

    # -- file permission / ownership changes --------------------------------------

    def _chmod_inode(
        self: Machine, process: Process, inode, path: Optional[str],
        mode: int, fd: Optional[int],
    ) -> SyscallOutcome:
        creds = process.creds
        mode &= S_IALLUGO
        obj = self.file_object(inode, path, "fd" if fd is not None else "path", fd=fd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        if creds.euid != 0 and creds.euid != inode.uid:
            hooks.append(("inode_setattr", [obj], {"mode": oct(mode)}))
            raise KernelError(Errno.EPERM).with_context([obj], hooks)
        inode.mode = mode
        inode.bump_version()
        inode.ctime_ns = self.clock.tick()
        hooks.append(("inode_setattr", [obj], {"mode": oct(mode)}))
        return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)

    def sys_chmod(self: Machine, process: Process, path: str, mode: int = 0o600) -> int:
        def run() -> SyscallOutcome:
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, process.creds.euid, process.creds.egid)
            return self._chmod_inode(process, inode, full, mode, None)
        return self.syscall(process, "chmod", (path, oct(mode)), run)

    def sys_fchmod(self: Machine, process: Process, fd: int, mode: int = 0o600) -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            inode = self.fs.inode(description.ino)
            return self._chmod_inode(process, inode, description.path, mode, fd)
        return self.syscall(process, "fchmod", (fd, oct(mode)), run)

    def sys_fchmodat(self: Machine, process: Process, path: str, mode: int = 0o600) -> int:
        def run() -> SyscallOutcome:
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, process.creds.euid, process.creds.egid)
            return self._chmod_inode(process, inode, full, mode, None)
        return self.syscall(process, "fchmodat", ("AT_FDCWD", path, oct(mode)), run)

    def _chown_inode(
        self: Machine, process: Process, inode, path: Optional[str],
        uid: int, gid: int, fd: Optional[int],
    ) -> SyscallOutcome:
        creds = process.creds
        obj = self.file_object(inode, path, "fd" if fd is not None else "path", fd=fd)
        hooks: List[Tuple[str, List[ObjectInfo], Dict[str, str]]] = []
        changing_owner = uid != -1 and uid != inode.uid
        if creds.euid != 0 and (changing_owner or creds.euid != inode.uid):
            hooks.append(("inode_setattr", [obj], {"uid": str(uid), "gid": str(gid)}))
            raise KernelError(Errno.EPERM).with_context([obj], hooks)
        if uid != -1:
            inode.uid = uid
        if gid != -1:
            inode.gid = gid
        inode.bump_version()
        inode.ctime_ns = self.clock.tick()
        hooks.append(("inode_setattr", [obj], {"uid": str(uid), "gid": str(gid)}))
        return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)

    def sys_chown(
        self: Machine, process: Process, path: str, uid: int = -1, gid: int = -1
    ) -> int:
        def run() -> SyscallOutcome:
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, process.creds.euid, process.creds.egid)
            return self._chown_inode(process, inode, full, uid, gid, None)
        return self.syscall(process, "chown", (path, uid, gid), run)

    def sys_fchown(
        self: Machine, process: Process, fd: int, uid: int = -1, gid: int = -1
    ) -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            inode = self.fs.inode(description.ino)
            return self._chown_inode(process, inode, description.path, uid, gid, fd)
        return self.syscall(process, "fchown", (fd, uid, gid), run)

    def sys_fchownat(
        self: Machine, process: Process, path: str, uid: int = -1, gid: int = -1
    ) -> int:
        def run() -> SyscallOutcome:
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, process.creds.euid, process.creds.egid)
            return self._chown_inode(process, inode, full, uid, gid, None)
        return self.syscall(process, "fchownat", ("AT_FDCWD", path, uid, gid), run)

    # -- credential changes ----------------------------------------------------------

    def _cred_outcome(
        self: Machine, process: Process, hook: str, before: Credentials,
    ) -> SyscallOutcome:
        after = process.creds
        changed = before.as_props() != after.as_props()
        hooks = [(
            hook,
            [self.process_object(process, "task")],
            {"changed": str(changed).lower(), **after.as_props()},
        )]
        outcome = SyscallOutcome(
            retval=0,
            objects=[
                ObjectInfo(
                    kind="process", role="task", pid=process.pid,
                    task_id=process.task_id,
                )
            ],
            hooks=hooks,
        )
        return outcome

    @staticmethod
    def _may_set_id(creds_euid: int, requested: int, allowed: Tuple[int, ...]) -> bool:
        return creds_euid == 0 or requested in allowed

    def sys_setuid(self: Machine, process: Process, uid: int) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid == 0:
                creds.uid = creds.euid = creds.suid = uid
            elif uid in (creds.uid, creds.suid):
                creds.euid = uid
            else:
                raise KernelError(Errno.EPERM).with_context(
                    [self.process_object(process, "task")],
                    [("task_fix_setuid", [self.process_object(process, "task")], {})],
                )
            return self._cred_outcome(process, "task_fix_setuid", before)
        return self.syscall(process, "setuid", (uid,), run)

    def sys_setgid(self: Machine, process: Process, gid: int) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid == 0:
                creds.gid = creds.egid = creds.sgid = gid
            elif gid in (creds.gid, creds.sgid):
                creds.egid = gid
            else:
                raise KernelError(Errno.EPERM).with_context(
                    [self.process_object(process, "task")],
                    [("task_fix_setgid", [self.process_object(process, "task")], {})],
                )
            return self._cred_outcome(process, "task_fix_setgid", before)
        return self.syscall(process, "setgid", (gid,), run)

    def sys_setreuid(self: Machine, process: Process, ruid: int, euid: int) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid != 0:
                for requested in (ruid, euid):
                    if requested != -1 and requested not in (creds.uid, creds.euid, creds.suid):
                        raise KernelError(Errno.EPERM).with_context(
                            [self.process_object(process, "task")], []
                        )
            if ruid != -1:
                creds.uid = ruid
            if euid != -1:
                creds.euid = euid
                creds.suid = euid
            return self._cred_outcome(process, "task_fix_setuid", before)
        return self.syscall(process, "setreuid", (ruid, euid), run)

    def sys_setregid(self: Machine, process: Process, rgid: int, egid: int) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid != 0:
                for requested in (rgid, egid):
                    if requested != -1 and requested not in (creds.gid, creds.egid, creds.sgid):
                        raise KernelError(Errno.EPERM).with_context(
                            [self.process_object(process, "task")], []
                        )
            if rgid != -1:
                creds.gid = rgid
            if egid != -1:
                creds.egid = egid
                creds.sgid = egid
            return self._cred_outcome(process, "task_fix_setgid", before)
        return self.syscall(process, "setregid", (rgid, egid), run)

    def sys_setresuid(
        self: Machine, process: Process, ruid: int, euid: int, suid: int
    ) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid != 0:
                for requested in (ruid, euid, suid):
                    if requested != -1 and requested not in (creds.uid, creds.euid, creds.suid):
                        raise KernelError(Errno.EPERM).with_context(
                            [self.process_object(process, "task")], []
                        )
            if ruid != -1:
                creds.uid = ruid
            if euid != -1:
                creds.euid = euid
            if suid != -1:
                creds.suid = suid
            return self._cred_outcome(process, "task_fix_setuid", before)
        return self.syscall(process, "setresuid", (ruid, euid, suid), run)

    def sys_setresgid(
        self: Machine, process: Process, rgid: int, egid: int, sgid: int
    ) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            before = creds.copy()
            if creds.euid != 0:
                for requested in (rgid, egid, sgid):
                    if requested != -1 and requested not in (creds.gid, creds.egid, creds.sgid):
                        raise KernelError(Errno.EPERM).with_context(
                            [self.process_object(process, "task")], []
                        )
            if rgid != -1:
                creds.gid = rgid
            if egid != -1:
                creds.egid = egid
            if sgid != -1:
                creds.sgid = sgid
            return self._cred_outcome(process, "task_fix_setgid", before)
        return self.syscall(process, "setresgid", (rgid, egid, sgid), run)

    # -- support calls used by process startup ---------------------------------------

    def sys_access(self: Machine, process: Process, path: str, mode: int = 4) -> int:
        def run() -> SyscallOutcome:
            creds = process.creds
            full = self.fs.normalize(path, process.cwd)
            inode = self.fs.resolve(full, creds.euid, creds.egid)
            obj = self.file_object(inode, full, "path")
            hooks = [("inode_permission", [obj], {"mask": str(mode)})]
            if not self.fs.may_access(inode, creds.euid, creds.egid, mode):
                raise KernelError(Errno.EACCES).with_context([obj], hooks)
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "access", (path, mode), run)

    def sys_mmap(self: Machine, process: Process, fd: int, prot: str = "PROT_READ") -> int:
        def run() -> SyscallOutcome:
            description = process.get_fd(fd)
            inode = self.fs.inode(description.ino)
            obj = self.file_object(inode, description.path, "fd", fd=fd)
            hooks = [("mmap_file", [obj], {"prot": prot})]
            return SyscallOutcome(retval=0, objects=[obj], hooks=hooks)
        return self.syscall(process, "mmap", (fd, prot), run)

    def sys_getpid(self: Machine, process: Process) -> int:
        return self.syscall(
            process, "getpid", (), lambda: SyscallOutcome(retval=process.pid)
        )
