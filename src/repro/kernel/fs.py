"""In-memory filesystem: inodes, directories, links, permissions.

The filesystem is the object store the capture systems observe: each inode
has a run-volatile inode number, an owner, a mode, and a version counter
bumped on every mutation (the hook the versioning models of OPUS/SPADE
need).
"""

from __future__ import annotations

import enum
import functools
import stat
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.kernel.clock import IdAllocator, VirtualClock
from repro.kernel.errors import Errno, KernelError

MAX_SYMLINK_DEPTH = 8


class InodeType(enum.Enum):
    REGULAR = "file"
    DIRECTORY = "directory"
    SYMLINK = "link"
    FIFO = "fifo"
    CHARDEV = "chardev"
    BLOCKDEV = "blockdev"
    SOCKET = "socket"


#: stat(2) file-type bits per inode kind (an ``InodeType`` value)
_S_IFMT = {
    "file": stat.S_IFREG,
    "directory": stat.S_IFDIR,
    "link": stat.S_IFLNK,
    "fifo": stat.S_IFIFO,
    "chardev": stat.S_IFCHR,
    "blockdev": stat.S_IFBLK,
    "socket": stat.S_IFSOCK,
}


@functools.lru_cache(maxsize=1024)
def mode_string(kind: str, mode: int) -> str:
    """``ls -l`` rendering of an inode's kind and permission bits."""
    return stat.filemode(_S_IFMT[kind] | mode)


@dataclass
class Inode:
    """One filesystem object."""

    ino: int
    type: InodeType
    mode: int
    uid: int
    gid: int
    nlink: int = 0
    size: int = 0
    version: int = 0
    ctime_ns: int = 0
    mtime_ns: int = 0
    data: bytes = b""
    symlink_target: str = ""
    entries: Dict[str, int] = field(default_factory=dict)
    device: Tuple[int, int] = (0, 0)

    def bump_version(self) -> None:
        self.version += 1


class FileSystem:
    """Path namespace over an inode table.

    All methods operate on absolute, already-resolved parent directories;
    path resolution (``resolve``) follows symlinks with a depth limit.
    Permission checks live here because they are what the LSM hook stream
    reports on.
    """

    def __init__(self, ids: IdAllocator, clock: VirtualClock) -> None:
        self.ids = ids
        self.clock = clock
        self.inodes: Dict[int, Inode] = {}
        self.root_ino = self._new_inode(InodeType.DIRECTORY, 0o755, 0, 0).ino
        root = self.inodes[self.root_ino]
        root.entries["."] = self.root_ino
        root.entries[".."] = self.root_ino
        root.nlink = 2

    # -- inode management ---------------------------------------------------

    def _new_inode(
        self, itype: InodeType, mode: int, uid: int, gid: int
    ) -> Inode:
        now = self.clock.tick()
        inode = Inode(
            ino=self.ids.ino(),
            type=itype,
            mode=mode,
            uid=uid,
            gid=gid,
            ctime_ns=now,
            mtime_ns=now,
        )
        self.inodes[inode.ino] = inode
        return inode

    def inode(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise KernelError(Errno.ENOENT, f"stale inode {ino}") from None

    # -- permissions ----------------------------------------------------------

    def may_access(
        self, inode: Inode, euid: int, egid: int, want: int
    ) -> bool:
        """POSIX rwx check; ``want`` is a mask of R_OK=4, W_OK=2, X_OK=1."""
        if euid == 0:
            if want & 1 and inode.type is InodeType.REGULAR:
                return bool(inode.mode & 0o111)
            return True
        if euid == inode.uid:
            bits = (inode.mode >> 6) & 7
        elif egid == inode.gid:
            bits = (inode.mode >> 3) & 7
        else:
            bits = inode.mode & 7
        return (bits & want) == want

    def check_access(
        self, inode: Inode, euid: int, egid: int, want: int
    ) -> None:
        if not self.may_access(inode, euid, egid, want):
            raise KernelError(Errno.EACCES)

    # -- path handling ----------------------------------------------------------

    @staticmethod
    def split(path: str) -> Tuple[str, str]:
        """(dirname, basename), treating ``path`` as absolute."""
        path = path.rstrip("/") or "/"
        if "/" not in path:
            return "/", path
        head, _, tail = path.rpartition("/")
        return head or "/", tail

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def normalize(path: str, cwd: str = "/") -> str:
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        parts: List[str] = []
        for piece in path.split("/"):
            if piece in ("", "."):
                continue
            if piece == "..":
                if parts:
                    parts.pop()
            else:
                parts.append(piece)
        return "/" + "/".join(parts)

    def resolve(
        self,
        path: str,
        euid: int = 0,
        egid: int = 0,
        follow: bool = True,
        _depth: int = 0,
    ) -> Inode:
        """Resolve an absolute path to its inode.

        Directory traversal requires execute permission on every directory
        on the way (the LSM ``inode_permission`` checks).
        """
        if _depth > MAX_SYMLINK_DEPTH:
            raise KernelError(Errno.ELOOP)
        path = self.normalize(path)
        current = self.inode(self.root_ino)
        if path == "/":
            return current
        parts = path.strip("/").split("/")
        for index, part in enumerate(parts):
            if current.type is not InodeType.DIRECTORY:
                raise KernelError(Errno.ENOTDIR, path)
            self.check_access(current, euid, egid, 1)
            child_ino = current.entries.get(part)
            if child_ino is None:
                raise KernelError(Errno.ENOENT, path)
            child = self.inode(child_ino)
            is_last = index == len(parts) - 1
            if child.type is InodeType.SYMLINK and (follow or not is_last):
                prefix = "/" + "/".join(parts[:index])
                target = child.symlink_target
                if not target.startswith("/"):
                    target = prefix + "/" + target
                rest = "/".join(parts[index + 1:])
                full = target + ("/" + rest if rest else "")
                return self.resolve(full, euid, egid, follow, _depth + 1)
            current = child
        return current

    def lookup_parent(
        self, path: str, euid: int = 0, egid: int = 0
    ) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        dirname, basename = self.split(self.normalize(path))
        if not basename:
            raise KernelError(Errno.EINVAL, path)
        parent = self.resolve(dirname, euid, egid)
        if parent.type is not InodeType.DIRECTORY:
            raise KernelError(Errno.ENOTDIR, dirname)
        return parent, basename

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except KernelError:
            return False

    # -- directory operations ------------------------------------------------------

    def create_entry(
        self,
        parent: Inode,
        name: str,
        itype: InodeType,
        mode: int,
        uid: int,
        gid: int,
    ) -> Inode:
        if name in parent.entries:
            raise KernelError(Errno.EEXIST, name)
        inode = self._new_inode(itype, mode, uid, gid)
        inode.nlink = 1
        if itype is InodeType.DIRECTORY:
            inode.entries["."] = inode.ino
            inode.entries[".."] = parent.ino
            inode.nlink = 2
            parent.nlink += 1
        parent.entries[name] = inode.ino
        parent.bump_version()
        parent.mtime_ns = self.clock.tick()
        return inode

    def link_entry(self, parent: Inode, name: str, inode: Inode) -> None:
        if name in parent.entries:
            raise KernelError(Errno.EEXIST, name)
        if inode.type is InodeType.DIRECTORY:
            raise KernelError(Errno.EPERM, "hard link to directory")
        parent.entries[name] = inode.ino
        inode.nlink += 1
        inode.bump_version()
        parent.bump_version()

    def unlink_entry(self, parent: Inode, name: str) -> Inode:
        child_ino = parent.entries.get(name)
        if child_ino is None:
            raise KernelError(Errno.ENOENT, name)
        child = self.inode(child_ino)
        if child.type is InodeType.DIRECTORY:
            raise KernelError(Errno.EISDIR, name)
        del parent.entries[name]
        child.nlink -= 1
        child.bump_version()
        parent.bump_version()
        if child.nlink <= 0:
            # The inode table entry survives until last close; the kernel
            # layer handles that.  We keep it for simplicity — provenance
            # systems refer to dead inodes too.
            pass
        return child

    def mkdir(self, path: str, mode: int = 0o755, uid: int = 0, gid: int = 0) -> Inode:
        parent, name = self.lookup_parent(path)
        return self.create_entry(parent, name, InodeType.DIRECTORY, mode, uid, gid)

    def write_file(
        self, path: str, data: bytes = b"", mode: int = 0o644,
        uid: int = 0, gid: int = 0,
    ) -> Inode:
        """Create or replace a regular file (setup helper, not a syscall)."""
        parent, name = self.lookup_parent(path)
        existing = parent.entries.get(name)
        if existing is not None:
            inode = self.inode(existing)
        else:
            inode = self.create_entry(parent, name, InodeType.REGULAR, mode, uid, gid)
        inode.data = data
        inode.size = len(data)
        inode.bump_version()
        return inode

    def mode_string(self, inode: Inode) -> str:
        return mode_string(inode.type.value, inode.mode)
