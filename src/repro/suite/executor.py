"""Executes benchmark programs on a fresh simulated machine.

One execution = one recording trial: boot a seeded kernel, prepare the
staging directory (the per-syscall setup script, paper §3), open the
recording window, run the process-startup boilerplate plus the program
ops, close the window, and hand the trace to the capture system.

The startup boilerplate — shell fork, execve of the benchmark binary,
loader/libc activity — is deliberately included in the window: it is the
"considerable boilerplate provenance" the background program exists to
cancel out (paper §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from repro.kernel import (
    BENCH_GID, BENCH_UID, Credentials, Kernel, KernelError, Process,
)
from repro.kernel.fs import InodeType
from repro.kernel.trace import Trace
from repro.suite.program import Arg, Op, Program, Variant

STAGING_DIR = "/home/bench/staging"


class ExecutionError(Exception):
    """Raised when a benchmark op behaves contrary to its declaration."""


@dataclass
class ExecutionResult:
    """Trace window plus metadata for one trial."""

    trace: Trace
    variables: Dict[str, int]
    foreground: bool
    exit_code: int


class ProgramExecutor:
    """Runs one program variant (fg or bg) on a fresh kernel."""

    def __init__(self, program: Program, seed: Optional[int] = None) -> None:
        self.program = program
        self.seed = seed

    def run(self, foreground: bool) -> ExecutionResult:
        """One trial of the program's foreground or background variant.

        Reads nothing of the program but :meth:`Program.variant` (and
        its name, for error messages), so the variant is a complete key
        for what the trial records.
        """
        variant = self.program.variant(foreground)
        kernel = Kernel(seed=self.seed)
        self._prepare_staging(kernel, variant)
        start_seq = kernel.seq + 1
        process = self._start_benchmark_process(kernel, variant)
        variables = self._run_ops(kernel, process, variant.ops)
        if process.alive:
            kernel.sys_exit(process, 0)
        # Reap any children the program spawned (implicit exit at end of
        # their trivial main, still inside the recording window).
        for child in list(kernel.processes.values()):
            if child.ppid == process.pid and child.alive:
                kernel.sys_exit(child, 0)
        end_seq = kernel.seq
        trace = kernel.trace.window(start_seq, end_seq)
        return ExecutionResult(
            trace=trace,
            variables=variables,
            foreground=foreground,
            exit_code=process.exit_code or 0,
        )

    # -- stages ------------------------------------------------------------

    def _prepare_staging(self, kernel: Kernel, variant: Variant) -> None:
        fs = kernel.fs
        if not fs.exists(STAGING_DIR):
            staging = fs.mkdir(STAGING_DIR, mode=0o755)
            staging.uid, staging.gid = BENCH_UID, BENCH_GID
        for index, action in enumerate(variant.setup):
            path = self._staged_path(action.path)
            try:
                if action.kind == "file":
                    inode = fs.write_file(path, action.content, mode=action.mode)
                elif action.kind == "dir":
                    inode = fs.mkdir(path, mode=action.mode)
                elif action.kind == "fifo":
                    parent, name = fs.lookup_parent(path)
                    inode = fs.create_entry(parent, name, InodeType.FIFO, 0o644, 0, 0)
                elif action.kind == "symlink":
                    parent, name = fs.lookup_parent(path)
                    inode = fs.create_entry(parent, name, InodeType.SYMLINK, 0o777, 0, 0)
                    inode.symlink_target = self._staged_path(action.link_target)
                else:
                    raise ExecutionError(f"unknown setup action {action.kind!r}")
            except KernelError as exc:  # e.g. a missing parent, or staged twice
                raise ExecutionError(
                    f"{self.program.name}: setup[{index}] ({action.kind} "
                    f"{action.path!r}) cannot be staged: {exc.errno.name}"
                ) from exc
            inode.uid = variant.run_as_uid
            inode.gid = variant.run_as_gid

    def _start_benchmark_process(
        self, kernel: Kernel, variant: Variant
    ) -> Process:
        """Shell forks, child execs the benchmark binary, loader maps libc."""
        binary = f"{STAGING_DIR}/bench_{'fg' if variant.foreground else 'bg'}"
        kernel.fs.write_file(binary, b"\x7fELF bench", mode=0o755)
        shell = kernel.shell
        shell.creds = Credentials.for_user(
            variant.run_as_uid, variant.run_as_gid
        )
        shell.cwd = STAGING_DIR
        child_pid = kernel.sys_fork(shell)
        process = kernel.process(child_pid)
        kernel.sys_execve(process, binary, [binary])
        # Dynamic loader boilerplate: map libc.
        libc_fd = kernel.sys_open(process, "/lib/libc.so.6", "O_RDONLY")
        kernel.sys_mmap(process, libc_fd, "PROT_READ|PROT_EXEC")
        kernel.sys_close(process, libc_fd)
        return process

    def _run_ops(
        self, kernel: Kernel, process: Process, ops: Sequence[Op]
    ) -> Dict[str, int]:
        """Run ``ops``; each binds the variables :func:`bound_names`
        names, and ``self`` is the benchmark process."""
        variables: Dict[str, int] = {"self": process.pid}
        current = process
        for op in ops:
            if not current.alive:
                break
            args = [self._resolve_arg(a, variables) for a in op.args]
            method = getattr(kernel, f"sys_{op.call}", None)
            if method is None:
                raise ExecutionError(f"unknown syscall {op.call!r}")
            retval = method(current, *args)
            succeeded = retval >= 0
            if succeeded != op.expect_success:
                raise ExecutionError(
                    f"{self.program.name}: {op.call} expected "
                    f"{'success' if op.expect_success else 'failure'}, "
                    f"got retval {retval}"
                )
            if op.result:
                variables[op.result] = retval
            if op.call in ("pipe", "pipe2"):
                self._bind_pipe_fds(kernel, op, variables)
            if op.call == "socketpair":
                self._bind_socket_fds(kernel, op, variables)
            if op.call in ("fork", "vfork", "clone") and retval > 0:
                variables[(op.result or "child")] = retval
                child = kernel.process(retval)
                if op.call == "vfork":
                    # vfork: the child runs (and exits) before the parent
                    # resumes; its exit flushes the deferred audit record.
                    kernel.sys_exit(child, 0)
        return variables

    def _bind_pipe_fds(
        self, kernel: Kernel, op: Op, variables: Dict[str, int]
    ) -> None:
        prefix = op.result or "pipe"
        for obj in kernel.last_objects:
            if obj.kind == "pipe" and obj.fd is not None:
                if obj.role == "read_end":
                    variables[f"{prefix}_r"] = obj.fd
                elif obj.role == "write_end":
                    variables[f"{prefix}_w"] = obj.fd

    def _bind_socket_fds(
        self, kernel: Kernel, op: Op, variables: Dict[str, int]
    ) -> None:
        prefix = op.result or "sock"
        for obj in kernel.last_objects:
            if obj.kind == "socket" and obj.fd is not None:
                if obj.role == "end_a":
                    variables[f"{prefix}_a"] = obj.fd
                elif obj.role == "end_b":
                    variables[f"{prefix}_b"] = obj.fd

    def _resolve_arg(self, arg: Arg, variables: Dict[str, int]) -> Arg:
        if isinstance(arg, str) and arg.startswith("$"):
            name = arg[1:]
            if name not in variables:
                raise ExecutionError(f"unbound variable ${name}")
            return variables[name]
        if isinstance(arg, str) and arg.startswith("./"):
            return self._staged_path(arg[2:])
        return arg

    @staticmethod
    def _staged_path(path: str) -> str:
        if path.startswith("/"):
            return path
        return f"{STAGING_DIR}/{path}"


def bound_names(op: Op) -> Set[str]:
    """The variables ``op`` binds when :meth:`ProgramExecutor._run_ops`
    runs it: its ``result``, both ends of a pipe or socket pair (named
    for the result, or ``pipe``/``sock``), a fork's child (``child``
    unless named).  Reads only ``call`` and ``result``, so a spec's
    ``OpSpec`` answers too."""
    names = {op.result} if op.result else set()
    if op.call in ("pipe", "pipe2"):
        prefix = op.result or "pipe"
        names.update((f"{prefix}_r", f"{prefix}_w"))
    elif op.call == "socketpair":
        prefix = op.result or "sock"
        names.update((f"{prefix}_a", f"{prefix}_b"))
    elif op.call in ("fork", "vfork", "clone"):
        names.add(op.result or "child")
    return names


def run_trial(
    program: Program, foreground: bool, seed: Optional[int] = None
) -> ExecutionResult:
    """Convenience wrapper: one trial of one program variant."""
    return ProgramExecutor(program, seed=seed).run(foreground)
