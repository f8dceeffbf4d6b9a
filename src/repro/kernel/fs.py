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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.clock import IdAllocator, VirtualClock
from repro.kernel.errors import Errno, KernelError

MAX_SYMLINK_DEPTH = 8

#: the permission bits open, creat and chmod keep of a caller's mode
#: (Linux's ``S_IALLUGO``); mkdir also drops setuid and setgid
#: (``S_IRWXUGO | S_ISVTX``)
S_IALLUGO = 0o7777
MKDIR_MODE_MASK = 0o1777


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


class TreeTemplate:
    """A fixed directory tree under a root, worked out once.

    ``entries`` are ``(path, type, mode, uid, gid, contents)`` in creation
    order, each under the root or an earlier directory entry.  Creating
    them one at a time derives the same links, link counts and versions on
    every boot; the template derives them once, and :meth:`stamp` draws
    only what differs between boots, in the order that one-at-a-time
    creation draws it: the root's ctime and inode number, then per entry
    its ctime, its inode number and its parent's new mtime.  A regular
    file's contents count as one write (version 1).
    """

    def __init__(
        self, entries: Sequence[Tuple[str, InodeType, int, int, int, bytes]]
    ) -> None:
        index = {"": 0}
        # per inode, the root first: its parent, (type, mode, uid, gid,
        # contents), link count, version and named children
        parents = [0]
        kinds = [(InodeType.DIRECTORY, 0o755, 0, 0, b"")]
        nlinks, versions = [2], [0]
        children: List[List[Tuple[str, int]]] = [[(".", 0), ("..", 0)]]
        for path, itype, mode, uid, gid, data in entries:
            head, _, name = path.rpartition("/")
            parent = index[head]
            node = index[path] = len(parents)
            directory = itype is InodeType.DIRECTORY
            parents.append(parent)
            kinds.append((itype, mode, uid, gid, data))
            nlinks.append(2 if directory else 1)
            versions.append(1 if itype is InodeType.REGULAR else 0)
            children.append([(".", node), ("..", parent)] if directory else [])
            children[parent].append((name, node))
            versions[parent] += 1
            if directory:
                nlinks[parent] += 1
        self.parents = tuple(parents)
        self.nodes = tuple(zip(kinds, nlinks, versions, map(tuple, children)))

    def stamp(
        self, ids: IdAllocator, clock: VirtualClock
    ) -> Tuple[int, Dict[int, Inode]]:
        """A fresh copy of the tree: (root inode number, inode table)."""
        tick, new_ino = clock.tick, ids.ino
        ctimes = [tick()]
        inos = [new_ino()]
        mtimes = ctimes[:]
        for parent in self.parents[1:]:
            now = tick()
            ctimes.append(now)
            mtimes.append(now)
            inos.append(new_ino())
            mtimes[parent] = tick()
        inodes: Dict[int, Inode] = {}
        for node, (
            (itype, mode, uid, gid, data), nlink, version, children,
        ) in enumerate(self.nodes):
            ino = inos[node]
            inodes[ino] = Inode(
                ino, itype, mode, uid, gid, nlink, len(data), version,
                ctimes[node], mtimes[node], data,
                entries={name: inos[child] for name, child in children},
            )
        return inos[0], inodes


class FileSystem:
    """Path namespace over an inode table.

    All methods operate on absolute, already-resolved parent directories;
    path resolution (``resolve``) follows symlinks with a depth limit.
    Permission checks live here because they are what the LSM hook stream
    reports on.
    """

    def __init__(
        self, ids: IdAllocator, clock: VirtualClock, tree: TreeTemplate
    ) -> None:
        """A fresh copy of ``tree``."""
        self.ids = ids
        self.clock = clock
        self.root_ino, self.inodes = tree.stamp(ids, clock)

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

    def walk(
        self,
        path: str,
        euid: int = 0,
        egid: int = 0,
        search: bool = True,
        follow: bool = True,
        _depth: int = 0,
    ) -> Tuple[Inode, str, Optional[Inode]]:
        """One pass down an absolute path: ``(directory, name, inode)``.

        ``name`` is the path's last component, ``directory`` the one
        holding it, and ``inode`` what it names, or None when the
        directory has no such entry.  Every directory before the last
        needs search permission (the LSM ``inode_permission`` checks),
        and a symlink before the last component is followed.  The last
        directory needs search permission too when ``search`` is set,
        and a symlink as the last component is followed when ``follow``
        is (it must resolve).  The root names itself: ``(root, "",
        root)``.
        """
        if _depth > MAX_SYMLINK_DEPTH:
            raise KernelError(Errno.ELOOP)
        path = self.normalize(path)
        current = self.inode(self.root_ino)
        if path == "/":
            return current, "", current
        parts = path[1:].split("/")
        last = len(parts) - 1
        # root may search any directory (``may_access``'s rule), so its
        # walks skip the call per directory
        for index in range(last):
            if current.type is not InodeType.DIRECTORY:
                raise KernelError(Errno.ENOTDIR, path)
            if euid and not self.may_access(current, euid, egid, 1):
                raise KernelError(Errno.EACCES)
            child_ino = current.entries.get(parts[index])
            if child_ino is None:
                raise KernelError(Errno.ENOENT, path)
            child = self.inode(child_ino)
            if child.type is InodeType.SYMLINK:
                return self.walk(
                    self._through(parts, index, child), euid, egid,
                    search, follow, _depth + 1,
                )
            current = child
        if current.type is not InodeType.DIRECTORY:
            raise KernelError(Errno.ENOTDIR, path)
        if search and euid and not self.may_access(current, euid, egid, 1):
            raise KernelError(Errno.EACCES)
        name = parts[last]
        child_ino = current.entries.get(name)
        if child_ino is None:
            return current, name, None
        child = self.inode(child_ino)
        if follow and child.type is InodeType.SYMLINK:
            child = self.resolve(
                self._through(parts, last, child), euid, egid, True,
                _depth + 1,
            )
        return current, name, child

    @staticmethod
    def _through(parts: List[str], index: int, link: Inode) -> str:
        """The path ``parts`` spell with the symlink at ``index``
        replaced by its target."""
        target = link.symlink_target
        if not target.startswith("/"):
            target = "/" + "/".join(parts[:index]) + "/" + target
        rest = "/".join(parts[index + 1:])
        return target + ("/" + rest if rest else "")

    def resolve(
        self,
        path: str,
        euid: int = 0,
        egid: int = 0,
        follow: bool = True,
        _depth: int = 0,
    ) -> Inode:
        """Resolve an absolute path to its inode (ENOENT when missing).

        Directory traversal requires execute permission on every directory
        on the way (the LSM ``inode_permission`` checks).
        """
        _, _, inode = self.walk(path, euid, egid, True, follow, _depth)
        if inode is None:
            raise KernelError(Errno.ENOENT, path)
        return inode

    def lookup_parent(
        self, path: str, euid: int = 0, egid: int = 0
    ) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parent, name, _ = self.walk(path, euid, egid, False, False)
        if not name:
            raise KernelError(Errno.EINVAL, path)
        return parent, name

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
