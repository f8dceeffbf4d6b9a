"""Benchmark program DSL.

Each paper benchmark is a tiny C program whose target syscall is wrapped in
``#ifdef TARGET`` (paper §3); ProvMark compiles it twice to get a
*foreground* (everything) and a *background* (everything but the target)
binary.  We mirror that exactly: a :class:`Program` is a list of
:class:`Op` values, each flagged ``target`` or not, plus the staging setup
the per-syscall script would have prepared.

Arguments starting with ``$`` reference variables bound by earlier ops'
results, e.g.::

    Op("open", ("test.txt", "O_RDWR"), result="id")
    Op("close", ("$id",), target=True)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

Arg = Union[str, int, bytes]


@dataclass(frozen=True)
class Op:
    """One operation the benchmark program performs."""

    call: str
    args: Tuple[Arg, ...] = ()
    result: Optional[str] = None
    target: bool = False
    #: expected success; used by the suite's self-tests ("tests for each
    #: one to ensure the target behavior was performed", paper §4)
    expect_success: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class SetupAction:
    """Staging-directory preparation performed before recording starts."""

    kind: str  # "file" | "dir" | "fifo" | "symlink"
    path: str
    mode: int = 0o644
    content: bytes = b"benchmark data\n"
    link_target: str = ""


def create_file(path: str, mode: int = 0o644, content: bytes = b"benchmark data\n") -> SetupAction:
    return SetupAction("file", path, mode=mode, content=content)


def create_dir(path: str, mode: int = 0o755) -> SetupAction:
    return SetupAction("dir", path, mode=mode)


def create_fifo(path: str) -> SetupAction:
    return SetupAction("fifo", path)


def create_symlink(path: str, target: str) -> SetupAction:
    return SetupAction("symlink", path, link_target=target)


@dataclass(frozen=True)
class Variant:
    """One compiled binary of a program: everything a trial executes.

    :meth:`ProgramExecutor.run <repro.suite.executor.ProgramExecutor.run>`
    reads nothing of its program but this value, and the pipeline keys
    each variant's stage artifacts by it.  The program's name and
    documentation fields are left out, so benchmarks that share a
    background share its artifacts.
    """

    foreground: bool
    ops: Tuple[Op, ...]
    setup: Tuple[SetupAction, ...]
    run_as_uid: int
    run_as_gid: int


@dataclass(frozen=True)
class Program:
    """A complete benchmark: staging setup plus the op sequence."""

    name: str
    ops: Tuple[Op, ...]
    setup: Tuple[SetupAction, ...] = ()
    group: int = 1
    group_name: str = "Files"
    run_as_uid: int = 0
    run_as_gid: int = 0
    description: str = ""
    #: expected Table 2 classification per tool: "ok" or "empty", with an
    #: optional note (NR/SC/LP/DV); used by the analysis stage.
    expected: Tuple[Tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "setup", tuple(self.setup))
        object.__setattr__(self, "expected", tuple(self.expected))

    def foreground_ops(self) -> Tuple[Op, ...]:
        """All ops — the program compiled with ``-DTARGET``."""
        return self.ops

    def background_ops(self) -> Tuple[Op, ...]:
        """Ops outside ``#ifdef TARGET`` — the background program."""
        return tuple(op for op in self.ops if not op.target)

    def target_ops(self) -> Tuple[Op, ...]:
        return tuple(op for op in self.ops if op.target)

    def variant(self, foreground: bool) -> Variant:
        """The foreground or background binary, as a trial runs it."""
        return Variant(
            foreground=foreground,
            ops=self.foreground_ops() if foreground else self.background_ops(),
            setup=self.setup,
            run_as_uid=self.run_as_uid,
            run_as_gid=self.run_as_gid,
        )

    def expectation(self, tool: str) -> Optional[Tuple[str, str]]:
        """(classification, note) expected for a tool, if declared."""
        for name, classification, note in self.expected:
            if name == tool:
                return classification, note
        return None

    def to_c_source(self) -> str:
        """Render the benchmark as the C program the paper would use.

        This is documentation/reporting output (the HTML report shows it);
        the simulator executes the op list directly.
        """
        lines = [
            f"// {self.name}.c",
            "#include <fcntl.h>",
            "#include <unistd.h>",
            "void main() {",
        ]
        in_target = False
        for op in self.ops:
            if op.target and not in_target:
                lines.append("#ifdef TARGET")
                in_target = True
            if not op.target and in_target:
                lines.append("#endif")
                in_target = False
            rendered_args = ", ".join(_c_arg(a) for a in op.args)
            call = f"{op.call}({rendered_args});"
            if op.result:
                call = f"int {op.result} = " + call.replace("int ", "")
            lines.append("  " + call)
        if in_target:
            lines.append("#endif")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _c_arg(arg: Arg) -> str:
    if isinstance(arg, bytes):
        return '"' + arg.decode("utf-8", "replace").replace("\n", "\\n") + '"'
    if isinstance(arg, str):
        if arg.startswith("$"):
            return arg[1:]
        if arg.startswith(("O_", "S_", "SIG", "AT_", "CLONE", "PROT")):
            return arg
        return f'"{arg}"'
    return str(arg)
