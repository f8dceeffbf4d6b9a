"""The benchmark suite: an open registry seeded with the paper's rows.

The 44 rows of Table 2 (grouped as in Table 1), the failure benchmarks,
the scalability sweep, and the extended suite are *builtin* entries of
:class:`SuiteRegistry` — an open registry that user code (and the typed
v1 API: ``POST /v1/benchmarks``, ``provmark bench add``) extends with
benchmarks compiled from declarative :class:`~repro.api.specs.BenchmarkSpec`
documents.  Entries carry tags for selection (``registry.select`` powers
``BatchRequest.tags``); builtin rows are re-expressible as specs via
:meth:`SuiteRegistry.spec`, so every benchmark — shipped or user-defined
— travels through one vocabulary.

Every builtin benchmark declares the Table 2 expectation — ``ok`` or
``empty`` per tool with the paper's note (NR = behaviour not recorded by
the default configuration, SC = only state changes monitored, LP =
limitation in ProvMark, DV = disconnected vforked process) — which the
analysis stage checks the pipeline's output against.

The module-level lookups ``get_benchmark`` and the per-family dicts
read the default registry, :data:`SUITE_REGISTRY`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.suite.program import Op, Program, create_file

#: Table 1 — benchmarked syscall families.
TABLE1_GROUPS: Dict[int, Tuple[str, Tuple[str, ...]]] = {
    1: ("Files", (
        "close", "creat", "dup[2,3]", "[sym]link[at]", "mknod[at]",
        "open[at]", "[p]read", "rename[at]", "[f]truncate", "unlink[at]",
        "[p]write",
    )),
    2: ("Processes", ("clone", "execve", "exit", "[v]fork", "kill")),
    3: ("Permissions", (
        "[f]chmod[at]", "[f]chown[at]", "set[re[s]]gid", "set[re[s]]uid",
    )),
    4: ("Pipes", ("pipe[2]", "tee")),
}

_GROUP_NAMES = {num: name for num, (name, _) in TABLE1_GROUPS.items()}


def _expected(spade: str, opus: str, camflow: str) -> Tuple[Tuple[str, str, str], ...]:
    """Parse compact expectations like ``"ok"`` / ``"empty:NR"`` / ``"ok:DV"``."""
    out = []
    for tool, spec in (("spade", spade), ("opus", opus), ("camflow", camflow)):
        classification, _, note = spec.partition(":")
        out.append((tool, classification, note))
    return tuple(out)


def _bench(
    name: str,
    group: int,
    ops: Iterable[Op],
    setup: Iterable = (),
    expected: Tuple[Tuple[str, str, str], ...] = (),
    run_as_uid: int = 0,
    run_as_gid: int = 0,
    description: str = "",
) -> Program:
    return Program(
        name=name,
        ops=tuple(ops),
        setup=tuple(setup),
        group=group,
        group_name=_GROUP_NAMES[group],
        run_as_uid=run_as_uid,
        run_as_gid=run_as_gid,
        description=description,
        expected=expected,
    )


def _build_table2_benchmarks() -> Dict[str, Program]:
    test_file = (create_file("test.txt"),)
    benchmarks = [
        # -- Group 1: files ------------------------------------------------
        _bench("close", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("close", ("$id",), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "empty:LP"),
            description="close an open file descriptor"),
        _bench("creat", 1, [
            Op("creat", ("newfile.txt", 0o644), result="id", target=True),
        ], expected=_expected("ok", "ok", "ok"),
            description="create a new file"),
        _bench("dup", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("dup", ("$id",), result="id2", target=True),
        ], setup=test_file, expected=_expected("empty:SC", "ok", "empty:NR"),
            description="duplicate a file descriptor"),
        _bench("dup2", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("dup2", ("$id", 10), result="id2", target=True),
        ], setup=test_file, expected=_expected("empty:SC", "ok", "empty:NR")),
        _bench("dup3", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("dup3", ("$id", 10), result="id2", target=True),
        ], setup=test_file, expected=_expected("empty:SC", "ok", "empty:NR")),
        _bench("link", 1, [
            Op("link", ("test.txt", "hardlink.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok"),
            description="create a hard link"),
        _bench("linkat", 1, [
            Op("linkat", ("test.txt", "hardlink.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("symlink", 1, [
            Op("symlink", ("test.txt", "softlink.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "empty:NR"),
            description="create a symbolic link"),
        _bench("symlinkat", 1, [
            Op("symlinkat", ("test.txt", "softlink.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "empty:NR")),
        _bench("mknod", 1, [
            Op("mknod", ("fifo_node", "S_IFIFO"), target=True),
        ], expected=_expected("empty:NR", "ok", "empty:NR"),
            description="create a FIFO special file"),
        _bench("mknodat", 1, [
            Op("mknodat", ("fifo_node", "S_IFIFO"), target=True),
        ], expected=_expected("empty:NR", "empty:NR", "empty:NR")),
        _bench("open", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id", target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok"),
            description="open an existing file"),
        _bench("openat", 1, [
            Op("openat", ("test.txt", "O_RDWR"), result="id", target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("read", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("read", ("$id", 64), target=True),
        ], setup=test_file, expected=_expected("ok", "empty:NR", "ok"),
            description="read from an open file"),
        _bench("pread", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("pread", ("$id", 64, 0), target=True),
        ], setup=test_file, expected=_expected("ok", "empty:NR", "ok")),
        _bench("rename", 1, [
            Op("rename", ("test.txt", "renamed.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok"),
            description="rename a file (paper Figure 1)"),
        _bench("renameat", 1, [
            Op("renameat", ("test.txt", "renamed.txt"), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("truncate", 1, [
            Op("truncate", ("test.txt", 4), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("ftruncate", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("ftruncate", ("$id", 4), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("unlink", 1, [
            Op("unlink", ("test.txt",), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok"),
            description="delete a file"),
        _bench("unlinkat", 1, [
            Op("unlinkat", ("test.txt",), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("write", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("write", ("$id", b"hello"), target=True),
        ], setup=test_file, expected=_expected("ok", "empty:NR", "ok"),
            description="write to an open file"),
        _bench("pwrite", 1, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("pwrite", ("$id", b"hello", 0), target=True),
        ], setup=test_file, expected=_expected("ok", "empty:NR", "ok")),
        # -- Group 2: processes ---------------------------------------------
        _bench("clone", 2, [
            Op("clone", (), result="child", target=True),
        ], expected=_expected("ok", "empty:NR", "ok"),
            description="create a thread/process via clone"),
        _bench("execve", 2, [
            Op("execve", ("/bin/true",), target=True),
        ], expected=_expected("ok", "ok", "ok"),
            description="replace the process image"),
        _bench("exit", 2, [
            Op("exit", (0,), target=True),
        ], expected=_expected("empty:LP", "empty:LP", "empty:LP"),
            description="terminate normally (implicit exit exists anyway)"),
        _bench("fork", 2, [
            Op("fork", (), result="child", target=True),
        ], expected=_expected("ok", "ok", "ok"),
            description="fork a child process"),
        _bench("kill", 2, [
            Op("fork", (), result="child"),
            Op("kill", ("$child", "SIGKILL"), target=True),
        ], expected=_expected("empty:LP", "empty:LP", "empty:LP"),
            description="kill a child process"),
        _bench("vfork", 2, [
            Op("vfork", (), result="child", target=True),
        ], expected=_expected("ok:DV", "ok", "ok"),
            description="vfork: audit sees the child before the vfork"),
        # -- Group 3: permissions --------------------------------------------
        _bench("chmod", 3, [
            Op("chmod", ("test.txt", 0o600), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("fchmod", 3, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("fchmod", ("$id", 0o600), target=True),
        ], setup=test_file, expected=_expected("ok", "empty:NR", "ok")),
        _bench("fchmodat", 3, [
            Op("fchmodat", ("test.txt", 0o600), target=True),
        ], setup=test_file, expected=_expected("ok", "ok", "ok")),
        _bench("chown", 3, [
            Op("chown", ("test.txt", 1000, 1000), target=True),
        ], setup=test_file, expected=_expected("empty:NR", "ok", "ok")),
        _bench("fchown", 3, [
            Op("open", ("test.txt", "O_RDWR"), result="id"),
            Op("fchown", ("$id", 1000, 1000), target=True),
        ], setup=test_file, expected=_expected("empty:NR", "empty:NR", "ok")),
        _bench("fchownat", 3, [
            Op("fchownat", ("test.txt", 1000, 1000), target=True),
        ], setup=test_file, expected=_expected("empty:NR", "ok", "ok")),
        _bench("setgid", 3, [
            Op("setgid", (1000,), target=True),
        ], expected=_expected("ok", "ok", "ok")),
        _bench("setregid", 3, [
            Op("setregid", (1000, 1000), target=True),
        ], expected=_expected("ok", "ok", "ok")),
        _bench("setresgid", 3, [
            # Sets the group id to its *current* value: no state change, so
            # SPADE's change monitor sees nothing (paper §4.3).
            Op("setresgid", (0, 0, 0), target=True),
        ], expected=_expected("empty:SC", "empty:NR", "ok")),
        _bench("setuid", 3, [
            Op("setuid", (1000,), target=True),
        ], expected=_expected("ok", "ok", "ok")),
        _bench("setreuid", 3, [
            Op("setreuid", (1000, 1000), target=True),
        ], expected=_expected("ok", "ok", "ok")),
        _bench("setresuid", 3, [
            # An actual uid change: SPADE notices it on later records.
            Op("setresuid", (1000, 1000, 1000), target=True),
        ], expected=_expected("ok:SC", "empty:NR", "ok")),
        # -- Group 4: pipes -----------------------------------------------------
        _bench("pipe", 4, [
            Op("pipe", (), result="p", target=True),
        ], expected=_expected("empty:NR", "ok", "empty:NR")),
        _bench("pipe2", 4, [
            Op("pipe2", ("O_CLOEXEC",), result="p", target=True),
        ], expected=_expected("empty:NR", "ok", "empty:NR")),
        _bench("tee", 4, [
            Op("pipe", (), result="p"),
            Op("pipe", (), result="q"),
            Op("write", ("$p_w", b"pipe payload")),
            Op("tee", ("$p_r", "$q_w", 64), target=True),
        ], expected=_expected("empty:NR", "empty:NR", "ok"),
            description="duplicate pipe contents without consuming"),
    ]
    return {program.name: program for program in benchmarks}


def _build_failure_benchmarks() -> Dict[str, Program]:
    """§3.1 (Alice): failed calls caused by access-control denials."""
    benchmarks = [
        _bench("rename_fail", 1, [
            Op("rename", ("mine.txt", "/etc/passwd"), target=True,
               expect_success=False),
        ], setup=(create_file("mine.txt"),),
            run_as_uid=1000, run_as_gid=1000,
            expected=_expected("empty:NR", "ok", "empty:NR"),
            description="non-privileged rename over /etc/passwd (EACCES)"),
        _bench("open_fail", 1, [
            Op("open", ("/etc/shadow", "O_RDONLY"), result="id", target=True,
               expect_success=False),
        ], run_as_uid=1000, run_as_gid=1000,
            expected=_expected("empty:NR", "ok", "empty:NR"),
            description="open a root-only file as a normal user (EACCES)"),
        _bench("chmod_fail", 3, [
            Op("chmod", ("/etc/passwd", 0o666), target=True,
               expect_success=False),
        ], run_as_uid=1000, run_as_gid=1000,
            expected=_expected("empty:NR", "ok", "empty:NR"),
            description="chmod a file owned by root as a normal user (EPERM)"),
    ]
    return {program.name: program for program in benchmarks}


def _build_scalability_benchmarks() -> Dict[str, Program]:
    """§5.2: scaleN repeats a creat+unlink pair N times.

    The paper stops at scale8; scale16/scale32 extend the sweep toward
    realistic suspicious-behaviour target sizes (§5.4) and exercise the
    matching engine's candidate pruning under the solver step budget.
    scale128/scale512 are the next-tier rows: they prove the decomposed
    generalization solver stays ~linear, and are tagged ``slow`` so that
    default suite sweeps skip them (benchmark runs opt in explicitly).
    """
    benchmarks = {}
    for factor in (1, 2, 4, 8, 16, 32, 128, 512):
        ops: List[Op] = []
        for index in range(factor):
            ops.append(Op("creat", ("scale.txt", 0o644), result=f"fd{index}",
                          target=True))
            ops.append(Op("unlink", ("scale.txt",), target=True))
        benchmarks[f"scale{factor}"] = _bench(
            f"scale{factor}", 1, ops,
            expected=_expected("ok", "ok", "ok"),
            description=f"{factor}x (creat + unlink) target sequence",
        )
    return benchmarks


TABLE2_BENCHMARKS: Dict[str, Program] = _build_table2_benchmarks()
FAILURE_BENCHMARKS: Dict[str, Program] = _build_failure_benchmarks()
SCALABILITY_BENCHMARKS: Dict[str, Program] = _build_scalability_benchmarks()

#: Table 2 row order.
TABLE2_ORDER: Tuple[str, ...] = tuple(TABLE2_BENCHMARKS)


# -- the open registry --------------------------------------------------------


class SuiteRegistryError(ValueError):
    """An invalid registry mutation (builtin collision, overflow)."""


@dataclass(frozen=True)
class RegisteredBenchmark:
    """One registry entry: the program plus its registration metadata."""

    program: Program
    tags: Tuple[str, ...] = ()
    builtin: bool = False
    #: the BenchmarkSpec the entry was registered from (None for
    #: builtins and plain-Program registrations; synthesized on demand
    #: by :meth:`SuiteRegistry.spec`)
    spec: Optional[object] = None


class SuiteRegistry:
    """An open, thread-safe registry of benchmark programs.

    Builtin entries (the paper's suite) are immutable: they can be
    neither replaced nor unregistered.  Custom entries — registered by
    user code, ``POST /v1/benchmarks``, or specs persisted in an
    artifact store — may be freely replaced and removed, and their count
    is capped so an open HTTP surface cannot grow the registry without
    bound.
    """

    #: custom entries allowed beyond the builtins
    MAX_CUSTOM = 1024

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, RegisteredBenchmark] = {}

    # -- mutation -----------------------------------------------------------

    def register(
        self,
        program: Program,
        tags: Iterable[str] = (),
        builtin: bool = False,
        spec: Optional[object] = None,
    ) -> None:
        """Add (or, for custom names, replace) a benchmark entry."""
        if not isinstance(program, Program):
            raise SuiteRegistryError(
                f"register() takes a Program, got {type(program).__name__}"
            )
        entry = RegisteredBenchmark(
            program=program, tags=tuple(tags), builtin=builtin, spec=spec
        )
        with self._lock:
            existing = self._entries.get(program.name)
            if existing is not None and existing.builtin:
                raise SuiteRegistryError(
                    f"benchmark {program.name!r} is builtin and cannot be "
                    "replaced"
                )
            if existing is None and not builtin:
                custom = sum(
                    1 for e in self._entries.values() if not e.builtin
                )
                if custom >= self.MAX_CUSTOM:
                    raise SuiteRegistryError(
                        f"registry holds the maximum of {self.MAX_CUSTOM} "
                        "custom benchmarks; unregister one first"
                    )
            self._entries[program.name] = entry

    def unregister(self, name: str) -> Program:
        """Remove a custom entry; builtins refuse, unknown names raise."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(self._unknown_message(name))
            if entry.builtin:
                raise SuiteRegistryError(
                    f"benchmark {name!r} is builtin and cannot be "
                    "unregistered"
                )
            del self._entries[name]
            return entry.program

    # -- lookup -------------------------------------------------------------
    #
    # Single-key reads rely on the GIL-atomicity of dict lookups;
    # every *iterating* read works over an atomically-copied snapshot,
    # so concurrent HTTP handler threads can list/select while another
    # registers (never "dict changed size during iteration").

    def get(self, name: str) -> Program:
        try:
            return self._entries[name].program
        except KeyError:
            raise KeyError(self._unknown_message(name)) from None

    def entry(self, name: str) -> RegisteredBenchmark:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(self._unknown_message(name)) from None

    def snapshot(self) -> Dict[str, RegisteredBenchmark]:
        """A consistent point-in-time copy of every entry.

        ``dict(d)`` (like ``list(d)`` in :meth:`names`) copies at the C
        level without releasing the GIL, so it needs no lock and is
        safe to call from methods already holding it.
        """
        return dict(self._entries)

    def builtin_copy(self) -> "SuiteRegistry":
        """A new registry carrying (only) this one's builtin entries.

        The isolation helper for services/tests/benches that must not
        see — or leak — custom registrations through the shared default
        registry; entry metadata (tags, spec) is preserved.
        """
        registry = SuiteRegistry()
        for entry in self.snapshot().values():
            if entry.builtin:
                registry.register(entry.program, tags=entry.tags,
                                  builtin=True, spec=entry.spec)
        return registry

    def spec(self, name: str) -> object:
        """The entry's :class:`~repro.api.specs.BenchmarkSpec`.

        Custom entries return the spec they were registered from;
        builtin rows (and plain-Program registrations) are re-expressed
        through :func:`~repro.api.specs.spec_from_program`, carrying the
        entry's registry tags.
        """
        entry = self.entry(name)
        if entry.spec is not None:
            return entry.spec
        # Late import: repro.api depends on this module at import time.
        from repro.api.specs import spec_from_program

        return spec_from_program(entry.program, tags=entry.tags)

    def is_builtin(self, name: str) -> bool:
        return self.entry(name).builtin

    def tags(self, name: str) -> Tuple[str, ...]:
        return self.entry(name).tags

    def names(self) -> List[str]:
        return list(self._entries)

    def select(self, tags: Iterable[str]) -> List[str]:
        """Names of entries carrying *all* the given tags, registry order."""
        wanted = set(tags)
        return [
            name for name, entry in self.snapshot().items()
            if wanted <= set(entry.tags)
        ]

    def items(self) -> List[Tuple[str, Program]]:
        return [(n, e.program) for n, e in self.snapshot().items()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown benchmark {name!r}; available: "
            f"{sorted(self.names())}"
        )


def _seed_builtins(registry: SuiteRegistry) -> None:
    for program in TABLE2_BENCHMARKS.values():
        registry.register(
            program,
            tags=("builtin", "table2", program.group_name.lower()),
            builtin=True,
        )
    for program in FAILURE_BENCHMARKS.values():
        registry.register(
            program,
            tags=("builtin", "failure", program.group_name.lower()),
            builtin=True,
        )
    for program in SCALABILITY_BENCHMARKS.values():
        tags = ("builtin", "scalability")
        if program.name in ("scale128", "scale512"):
            tags += ("slow",)
        registry.register(program, tags=tags, builtin=True)


#: the default registry every surface (service, CLI, module lookups) shares
SUITE_REGISTRY = SuiteRegistry()
_seed_builtins(SUITE_REGISTRY)


def get_benchmark(name: str) -> Program:
    return SUITE_REGISTRY.get(name)


def benchmarks_in_group(group: int) -> List[Program]:
    return [p for p in TABLE2_BENCHMARKS.values() if p.group == group]
