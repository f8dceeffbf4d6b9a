"""Syscall-layer tests: semantics, failure modes, and observation events."""

import pytest

from repro.kernel import BENCH_GID, BENCH_UID, Credentials, Kernel


@pytest.fixture
def kernel() -> Kernel:
    return Kernel(seed=5)


@pytest.fixture
def proc(kernel):
    """A root benchmark process with cwd /tmp."""
    pid = kernel.sys_fork(kernel.shell)
    process = kernel.process(pid)
    process.creds = Credentials.for_user(0, 0)
    process.cwd = "/tmp"
    return process


@pytest.fixture
def user_proc(kernel):
    pid = kernel.sys_fork(kernel.shell)
    process = kernel.process(pid)
    process.creds = Credentials.for_user(BENCH_UID, BENCH_GID)
    process.cwd = "/tmp"
    return process


def last_audit(kernel):
    return kernel.trace.audit[-1]


class TestOpenFamily:
    def test_open_returns_fd(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        assert fd >= 3
        assert proc.fds[fd].path == "/tmp/f.txt"

    def test_open_missing_fails_enoent(self, kernel, proc):
        assert kernel.sys_open(proc, "missing.txt", "O_RDONLY") == -1
        event = last_audit(kernel)
        assert not event.success
        assert event.errno == "ENOENT"

    def test_open_creat_flag_creates(self, kernel, proc):
        fd = kernel.sys_open(proc, "new.txt", "O_CREAT|O_RDWR")
        assert fd >= 3
        assert kernel.fs.exists("/tmp/new.txt")

    def test_creat_truncates_existing(self, kernel, proc):
        kernel.fs.write_file("/tmp/full.txt", b"content")
        kernel.sys_creat(proc, "full.txt")
        assert kernel.fs.resolve("/tmp/full.txt").size == 0

    def test_open_denied_for_unreadable(self, kernel, user_proc):
        assert kernel.sys_open(user_proc, "/etc/shadow", "O_RDONLY") == -1
        assert last_audit(kernel).errno == "EACCES"

    def test_lsm_hooks_on_open(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        kernel.sys_open(proc, "f.txt", "O_RDWR")
        hooks = [e.hook for e in kernel.trace.lsm if e.syscall == "open"]
        assert "file_open" in hooks
        assert "inode_permission" in hooks

    def test_creat_emits_inode_create_hook(self, kernel, proc):
        kernel.sys_creat(proc, "brand.txt")
        hooks = [e.hook for e in kernel.trace.lsm if e.syscall == "creat"]
        assert "inode_create" in hooks


class TestCloseAndDup:
    def test_close_releases_fd(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        assert kernel.sys_close(proc, fd) == 0
        assert fd not in proc.fds

    def test_close_bad_fd(self, kernel, proc):
        assert kernel.sys_close(proc, 99) == -1
        assert last_audit(kernel).errno == "EBADF"

    def test_close_emits_no_lsm_hooks(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        kernel.sys_close(proc, fd)
        assert not [e for e in kernel.trace.lsm if e.syscall == "close"]

    def test_dup_shares_offset(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt", b"0123456789")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        dup_fd = kernel.sys_dup(proc, fd)
        kernel.sys_read(proc, fd, 4)
        assert proc.fds[dup_fd].offset == 4

    def test_dup2_targets_specific_fd(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        assert kernel.sys_dup2(proc, fd, 42) == 42
        assert proc.fds[42].ino == proc.fds[fd].ino

    def test_dup2_closes_previous_occupant(self, kernel, proc):
        kernel.fs.write_file("/tmp/a.txt")
        kernel.fs.write_file("/tmp/b.txt")
        fd_a = kernel.sys_open(proc, "a.txt", "O_RDWR")
        fd_b = kernel.sys_open(proc, "b.txt", "O_RDWR")
        kernel.sys_dup2(proc, fd_a, fd_b)
        assert proc.fds[fd_b].path == "/tmp/a.txt"


class TestReadWrite:
    def test_read_advances_offset(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt", b"0123456789")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        assert kernel.sys_read(proc, fd, 4) == 4
        assert kernel.sys_read(proc, fd, 100) == 6

    def test_pread_does_not_advance(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt", b"0123456789")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        kernel.sys_pread(proc, fd, 4, 0)
        assert proc.fds[fd].offset == 0

    def test_write_updates_content_and_version(self, kernel, proc):
        inode = kernel.fs.write_file("/tmp/f.txt", b"")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        version = inode.version
        assert kernel.sys_write(proc, fd, b"hello") == 5
        assert inode.data == b"hello"
        assert inode.version > version

    def test_write_on_readonly_fd_fails(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDONLY")
        assert kernel.sys_write(proc, fd, b"x") == -1
        assert last_audit(kernel).errno == "EBADF"

    def test_file_permission_hook_mask(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt", b"abc")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        kernel.sys_read(proc, fd, 1)
        kernel.sys_write(proc, fd, b"z")
        masks = [
            dict(e.details).get("mask")
            for e in kernel.trace.lsm
            if e.hook == "file_permission"
        ]
        assert masks == ["r", "w"]


class TestLinkFamily:
    def test_link_creates_second_name(self, kernel, proc):
        kernel.fs.write_file("/tmp/orig.txt")
        assert kernel.sys_link(proc, "orig.txt", "other.txt") == 0
        assert kernel.fs.exists("/tmp/other.txt")

    def test_link_existing_target_fails(self, kernel, proc):
        kernel.fs.write_file("/tmp/a.txt")
        kernel.fs.write_file("/tmp/b.txt")
        assert kernel.sys_link(proc, "a.txt", "b.txt") == -1
        assert last_audit(kernel).errno == "EEXIST"

    def test_symlink_points_at_target(self, kernel, proc):
        kernel.fs.write_file("/tmp/real.txt")
        assert kernel.sys_symlink(proc, "real.txt", "soft.txt") == 0
        resolved = kernel.fs.resolve("/tmp/soft.txt")
        assert resolved.ino == kernel.fs.resolve("/tmp/real.txt").ino

    def test_mknod_fifo_allowed_for_user(self, kernel, user_proc):
        assert kernel.sys_mknod(user_proc, "fifo", "S_IFIFO") == 0

    def test_mknod_device_requires_root(self, kernel, user_proc, proc):
        assert kernel.sys_mknod(user_proc, "dev0", "S_IFCHR") == -1
        assert last_audit(kernel).errno == "EPERM"
        assert kernel.sys_mknod(proc, "dev1", "S_IFCHR") == 0


class TestRename:
    def test_rename_moves_entry(self, kernel, proc):
        kernel.fs.write_file("/tmp/old.txt")
        assert kernel.sys_rename(proc, "old.txt", "new.txt") == 0
        assert not kernel.fs.exists("/tmp/old.txt")
        assert kernel.fs.exists("/tmp/new.txt")

    def test_rename_missing_source(self, kernel, proc):
        assert kernel.sys_rename(proc, "ghost.txt", "x.txt") == -1
        assert last_audit(kernel).errno == "ENOENT"

    def test_rename_over_protected_file_denied(self, kernel, user_proc):
        kernel.fs.write_file("/tmp/mine.txt", uid=BENCH_UID, gid=BENCH_GID)
        assert kernel.sys_rename(user_proc, "mine.txt", "/etc/passwd") == -1
        assert last_audit(kernel).errno == "EACCES"
        # The failed call still reported its objects for libc observers.
        assert last_audit(kernel).objects

    def test_rename_as_root_overwrites(self, kernel, proc):
        kernel.fs.write_file("/tmp/src.txt", b"payload")
        kernel.fs.write_file("/tmp/dst.txt", b"old")
        assert kernel.sys_rename(proc, "src.txt", "dst.txt") == 0
        assert kernel.fs.resolve("/tmp/dst.txt").data == b"payload"

    def test_rename_emits_inode_rename_hook(self, kernel, proc):
        kernel.fs.write_file("/tmp/old.txt")
        kernel.sys_rename(proc, "old.txt", "new.txt")
        assert any(e.hook == "inode_rename" for e in kernel.trace.lsm)

    def test_rename_onto_itself_does_nothing(self, kernel, proc):
        inode = kernel.fs.write_file("/tmp/a.txt", b"data")
        version = inode.version
        assert kernel.sys_rename(proc, "a.txt", "a.txt") == 0
        assert kernel.fs.resolve("/tmp/a.txt") is inode
        assert (inode.version, inode.nlink) == (version, 1)
        assert [o.role for o in last_audit(kernel).objects] == ["oldpath"]
        assert not any(e.hook == "inode_rename" for e in kernel.trace.lsm)

    def test_rename_between_links_to_one_file_keeps_both(self, kernel, proc):
        # rename(2): if both names are links to the same file, do nothing
        inode = kernel.fs.write_file("/tmp/a.txt")
        assert kernel.sys_link(proc, "a.txt", "b.txt") == 0
        version = inode.version
        assert kernel.sys_rename(proc, "a.txt", "b.txt") == 0
        assert kernel.fs.resolve("/tmp/a.txt") is inode
        assert kernel.fs.resolve("/tmp/b.txt") is inode
        assert (inode.version, inode.nlink) == (version, 2)
        assert not any(e.hook == "inode_rename" for e in kernel.trace.lsm)


class TestTruncateUnlink:
    def test_truncate_changes_size(self, kernel, proc):
        kernel.fs.write_file("/tmp/t.txt", b"0123456789")
        assert kernel.sys_truncate(proc, "t.txt", 3) == 0
        assert kernel.fs.resolve("/tmp/t.txt").size == 3

    def test_ftruncate_requires_writable_fd(self, kernel, proc):
        kernel.fs.write_file("/tmp/t.txt", b"abc")
        fd = kernel.sys_open(proc, "t.txt", "O_RDONLY")
        assert kernel.sys_ftruncate(proc, fd, 0) == -1

    def test_unlink_removes(self, kernel, proc):
        kernel.fs.write_file("/tmp/u.txt")
        assert kernel.sys_unlink(proc, "u.txt") == 0
        assert not kernel.fs.exists("/tmp/u.txt")

    def test_unlink_missing(self, kernel, proc):
        assert kernel.sys_unlink(proc, "ghost.txt") == -1


class TestPipesAndTee:
    def test_pipe_allocates_two_fds(self, kernel, proc):
        assert kernel.sys_pipe(proc) == 0
        roles = {o.role for o in kernel.last_objects}
        assert roles == {"read_end", "write_end"}

    def test_pipe_write_then_read(self, kernel, proc):
        kernel.sys_pipe(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        assert kernel.sys_write(proc, fds["write_end"], b"abc") == 3
        assert kernel.sys_read(proc, fds["read_end"], 10) == 3

    def test_read_from_write_end_fails(self, kernel, proc):
        kernel.sys_pipe(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        assert kernel.sys_read(proc, fds["write_end"], 10) == -1

    def test_pread_on_pipe_is_espipe(self, kernel, proc):
        kernel.sys_pipe(proc)
        fds = {o.role: o.fd for o in kernel.last_objects}
        assert kernel.sys_pread(proc, fds["read_end"], 10) == -1
        assert last_audit(kernel).errno == "ESPIPE"

    def test_tee_copies_without_consuming(self, kernel, proc):
        kernel.sys_pipe(proc)
        p = {o.role: o.fd for o in kernel.last_objects}
        kernel.sys_pipe(proc)
        q = {o.role: o.fd for o in kernel.last_objects}
        kernel.sys_write(proc, p["write_end"], b"data")
        assert kernel.sys_tee(proc, p["read_end"], q["write_end"], 64) == 4
        assert kernel.sys_read(proc, p["read_end"], 64) == 4
        assert kernel.sys_read(proc, q["read_end"], 64) == 4

    def test_tee_on_non_pipe_fails(self, kernel, proc):
        kernel.fs.write_file("/tmp/f.txt")
        fd = kernel.sys_open(proc, "f.txt", "O_RDWR")
        kernel.sys_pipe(proc)
        q = {o.role: o.fd for o in kernel.last_objects}
        assert kernel.sys_tee(proc, fd, q["write_end"], 4) == -1
