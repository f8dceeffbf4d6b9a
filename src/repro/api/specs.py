"""Declarative benchmark specifications — benchmarks as data (v1).

The paper's suite is 44 fixed syscall benchmarks, but its stated goal is
extensibility: users bring *their own* target behaviours to probe a
capture tool's expressiveness.  This module is the contract that lets
them do it safely: a benchmark enters the system as a validated JSON
document, not Python code, travels over the same typed v1 API that runs
it, and compiles into exactly the :class:`~repro.suite.program.Program`
a hand-written registry row would have produced.

Vocabulary (all payload types, :func:`repro.codec.payload_type`):

* :class:`OpSpec` — one syscall invocation (call, args, result binding,
  target flag, expected success);
* :class:`SetupSpec` — one staging-directory preparation action;
* :class:`ProgramSpec` — the op sequence plus setup and credentials;
* :class:`ExpectationSpec` — one per-tool Table 2 expectation row;
* :class:`BenchmarkSpec` — the complete named unit with tags.

Validation is layered, and every failure is a
:class:`~repro.api.errors.ValidationError` carrying the **full nested
field path** (``BenchmarkSpec.program.ops[3].args[0]``, never a bare
``args``), rendered identically by the CLI and the HTTP envelope:

1. **structural** (``from_payload``) — the one payload codec
   (:mod:`repro.codec`) derives it from the field declarations below:
   strict types, unknown-key rejection, ``{"base64": ...}`` bytes, and
   each message naming the path where the bad value was found;
   malformed documents never half-decode.  ``__post_init__`` adds only
   the value rules (non-empty names, the setup ``kind`` choice);
2. **semantic** (:meth:`BenchmarkSpec.validate`) — op names and arg
   arity against the simulated kernel's syscall table
   (:func:`syscall_table`), ``$var`` dataflow resolution for *both*
   program variants (the background variant drops target ops, so a
   non-target op must not consume a target op's result), setup-path
   confinement to the staging directory, uid/gid ranges, and size caps
   suitable for untrusted clients;
3. **compilation** (:func:`compile_spec`) — a validated spec becomes a
   :class:`~repro.suite.program.Program` that is equal (same dataclass
   value, same ``repr``, hence the same artifact-store keys and
   byte-identical pipeline results) to its hand-written counterpart.
   :func:`spec_from_program` inverts it: every builtin registry row
   round-trips ``Program -> BenchmarkSpec -> Program`` exactly.

Custom specs persist in the artifact store under the :data:`SPEC_STAGE`
stage, keyed by content digest (:func:`spec_digest`), so ``--store``
sweeps and ``--resume`` cover user benchmarks; run artifacts already
fingerprint the compiled program, so cached results stay correct.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path
from typing import Container, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.errors import ValidationError
from repro.codec import check_choice, check_names, payload_type
from repro.kernel import Kernel
from repro.storage.artifacts import STORE_VERSION, ArtifactStore, canonical_key
from repro.suite.program import Arg, Op, Program, SetupAction

#: artifact-store stage under which benchmark specs persist
SPEC_STAGE = "spec"

#: the store versions whose spec artifacts read as specs: a spec is user
#: data, and its payload has not changed since version 1, so a bump of
#: the cache's ``STORE_VERSION`` leaves every persisted spec listed,
#: runnable and removable
SPEC_VERSIONS = range(1, STORE_VERSION + 1)

#: staging actions :class:`SetupSpec` may declare
SETUP_KINDS = ("file", "dir", "fifo", "symlink")

#: Table 2 classifications an expectation may declare
EXPECTED_CLASSIFICATIONS = ("ok", "empty")

#: uid/gid values must stay below this (one 16-bit id namespace)
MAX_ID = 65535

#: size caps protecting the registry and the executor from hostile specs
MAX_OPS = 1024
MAX_SETUP = 128
MAX_TAGS = 32
MAX_NAME_LENGTH = 100

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_TAG_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_RESULT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


# -- the kernel syscall table ------------------------------------------------


_SYSCALL_TABLE: Optional[Dict[str, Tuple[int, int]]] = None
_SYSCALL_PARAMS: Optional[Dict[str, Tuple[Tuple[str, Optional[type]], ...]]] = None

#: kernel parameter annotations the validator can type-check; anything
#: else (e.g. execve's ``Optional[List[str]]`` argv) goes unchecked
_ANNOTATION_TYPES: Dict[object, type] = {
    "str": str, "int": int, "bytes": bytes,
    str: str, int: int, bytes: bytes,
}


def _scan_kernel() -> None:
    """Build both syscall caches from one pass over the Kernel class."""
    global _SYSCALL_TABLE, _SYSCALL_PARAMS
    table: Dict[str, Tuple[int, int]] = {}
    param_map: Dict[str, Tuple[Tuple[str, Optional[type]], ...]] = {}
    positional = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    for attr in dir(Kernel):
        if not attr.startswith("sys_"):
            continue
        params = [
            p for p in
            inspect.signature(getattr(Kernel, attr)).parameters.values()
            if p.kind in positional
        ][2:]  # drop self, process
        required = sum(
            1 for p in params if p.default is inspect.Parameter.empty
        )
        call = attr[len("sys_"):]
        table[call] = (required, len(params))
        param_map[call] = tuple(
            (p.name, _ANNOTATION_TYPES.get(p.annotation)) for p in params
        )
    _SYSCALL_TABLE = table
    _SYSCALL_PARAMS = param_map


def syscall_table() -> Dict[str, Tuple[int, int]]:
    """``call -> (required_args, max_args)`` from the simulated kernel.

    Derived by introspection over the :class:`~repro.kernel.Kernel`
    ``sys_*`` methods (dropping the ``self``/``process`` parameters), so
    the validator can never drift from what the executor dispatches to.
    """
    if _SYSCALL_TABLE is None:
        _scan_kernel()
    return _SYSCALL_TABLE


def syscall_params() -> Dict[str, Tuple[Tuple[str, Optional[type]], ...]]:
    """Per-call ``((param_name, expected_type | None), ...)``.

    ``None`` marks a parameter whose annotation the validator does not
    type-check.  ``$var`` references are always exempt — they resolve
    to kernel-bound integers at run time.
    """
    if _SYSCALL_PARAMS is None:
        _scan_kernel()
    return _SYSCALL_PARAMS


# -- spec types ---------------------------------------------------------------


@payload_type
class OpSpec:
    """One operation of the benchmark program (one syscall invocation)."""

    call: str
    args: Tuple[Arg, ...] = ()
    result: Optional[str] = None
    target: bool = False
    expect_success: bool = True

    def __post_init__(self) -> None:
        check_names(self, "call", "result")


@payload_type
class SetupSpec:
    """One staging-directory preparation action (runs before recording)."""

    kind: str
    path: str
    mode: int = 0o644
    content: bytes = b"benchmark data\n"
    link_target: str = ""

    def __post_init__(self) -> None:
        check_choice(self, "kind", SETUP_KINDS)
        check_names(self, "path")


@payload_type
class ProgramSpec:
    """The op sequence, staging setup, and credentials of one benchmark."""

    ops: Tuple[OpSpec, ...] = ()
    setup: Tuple[SetupSpec, ...] = ()
    run_as_uid: int = 0
    run_as_gid: int = 0


@payload_type
class ExpectationSpec:
    """One per-tool expectation row (Table 2's ok/empty plus note)."""

    tool: str
    classification: str
    note: str = ""

    def __post_init__(self) -> None:
        check_names(self, "tool")


@payload_type
class BenchmarkSpec:
    """A complete benchmark as a data object.

    ``validate()`` runs the semantic checks and returns ``self``;
    :func:`compile_spec` (or :meth:`to_program`) turns a valid spec into
    the :class:`~repro.suite.program.Program` the pipeline runs.
    """

    name: str
    program: ProgramSpec
    group: int = 0
    group_name: str = "Custom"
    description: str = ""
    tags: Tuple[str, ...] = ()
    expectations: Tuple[ExpectationSpec, ...] = ()

    def __post_init__(self) -> None:
        check_names(self, "name", "tags")

    # -- semantics ----------------------------------------------------------

    def validate(self) -> "BenchmarkSpec":
        """Run every semantic check; ValidationError paths are full."""
        root = "BenchmarkSpec"
        if len(self.name) > MAX_NAME_LENGTH:
            _fail(f"{root}.name",
                  f"must be at most {MAX_NAME_LENGTH} characters")
        if not _NAME_RE.match(self.name):
            _fail(f"{root}.name",
                  "must match [A-Za-z0-9][A-Za-z0-9_.-]* "
                  f"(got {self.name!r})")
        if self.group < 0:
            _fail(f"{root}.group", f"must be >= 0, got {self.group}")
        self._validate_tags(root)
        self._validate_expectations(root)
        self._validate_program(f"{root}.program")
        return self

    def _validate_tags(self, root: str) -> None:
        if len(self.tags) > MAX_TAGS:
            _fail(f"{root}.tags", f"must have at most {MAX_TAGS} entries")
        seen = set()
        for i, tag in enumerate(self.tags):
            if not _TAG_RE.match(tag):
                _fail(f"{root}.tags[{i}]",
                      f"must match [A-Za-z0-9][A-Za-z0-9_.-]* (got {tag!r})")
            if tag in seen:
                _fail(f"{root}.tags[{i}]", f"duplicate tag {tag!r}")
            seen.add(tag)

    def _validate_expectations(self, root: str) -> None:
        seen = set()
        for i, expectation in enumerate(self.expectations):
            if expectation.classification not in EXPECTED_CLASSIFICATIONS:
                _fail(f"{root}.expectations[{i}].classification",
                      f"must be one of {list(EXPECTED_CLASSIFICATIONS)}, "
                      f"got {expectation.classification!r}")
            if expectation.tool in seen:
                _fail(f"{root}.expectations[{i}].tool",
                      f"duplicate expectation for tool {expectation.tool!r}")
            seen.add(expectation.tool)

    def _validate_program(self, root: str) -> None:
        program = self.program
        for field, value in (("run_as_uid", program.run_as_uid),
                             ("run_as_gid", program.run_as_gid)):
            if not 0 <= value <= MAX_ID:
                _fail(f"{root}.{field}",
                      f"must be in [0, {MAX_ID}], got {value}")
        if not program.ops:
            _fail(f"{root}.ops", "must declare at least one op")
        if len(program.ops) > MAX_OPS:
            _fail(f"{root}.ops", f"must have at most {MAX_OPS} entries")
        if not any(op.target for op in program.ops):
            _fail(f"{root}.ops",
                  "at least one op must be marked \"target\": true")
        if len(program.setup) > MAX_SETUP:
            _fail(f"{root}.setup", f"must have at most {MAX_SETUP} entries")
        for i, action in enumerate(program.setup):
            self._validate_setup_action(action, f"{root}.setup[{i}]")
        table, params = syscall_table(), syscall_params()
        for i, op in enumerate(program.ops):
            self._validate_op(op, table, params, f"{root}.ops[{i}]")
        # Dataflow must resolve in the foreground program (all ops) AND
        # in the background program (target ops stripped out, paper §3).
        self._validate_dataflow(program.ops, root, variant="foreground")
        self._validate_dataflow(
            tuple(op if not op.target else None for op in program.ops),
            root, variant="background",
        )

    @staticmethod
    def _validate_setup_action(action: SetupSpec, path: str) -> None:
        for field, value in (("path", action.path),
                             ("link_target", action.link_target)):
            if not value:
                continue
            if value.startswith("/") or "\\" in value:
                _fail(f"{path}.{field}",
                      "must be a relative path inside the staging "
                      f"directory, got {value!r}")
            if ".." in value.split("/"):
                _fail(f"{path}.{field}",
                      f"must not contain '..' segments, got {value!r}")
        if not 0 <= action.mode <= 0o7777:
            _fail(f"{path}.mode",
                  f"must be in [0, 0o7777], got {action.mode}")
        if action.kind == "symlink" and not action.link_target:
            _fail(f"{path}.link_target",
                  "is required for \"symlink\" setup actions")
        if action.kind != "symlink" and action.link_target:
            _fail(f"{path}.link_target",
                  f"is only valid for \"symlink\" actions, not {action.kind!r}")

    @staticmethod
    def _validate_op(
        op: OpSpec,
        table: Mapping[str, Tuple[int, int]],
        params: Mapping[str, Tuple[Tuple[str, Optional[type]], ...]],
        path: str,
    ) -> None:
        if op.call not in table:
            _fail(f"{path}.call",
                  f"unknown syscall {op.call!r}; the kernel implements: "
                  f"{sorted(table)}")
        required, maximum = table[op.call]
        if not required <= len(op.args) <= maximum:
            expected = (
                f"exactly {required}" if required == maximum
                else f"between {required} and {maximum}"
            )
            _fail(f"{path}.args",
                  f"{op.call} takes {expected} argument(s), "
                  f"got {len(op.args)}")
        for j, arg in enumerate(op.args):
            name, expected_type = params[op.call][j]
            if isinstance(arg, str) and arg.startswith("$"):
                # a $var resolves to a kernel-bound *int* at run time,
                # so it can only stand in an int (or unchecked) slot
                if expected_type in (str, bytes):
                    _fail(f"{path}.args[{j}]",
                          f"{arg!r} resolves to an integer at run time, "
                          f"but {op.call} argument {name!r} expects "
                          f"{expected_type.__name__}")
                continue
            if expected_type is not None and (
                not isinstance(arg, expected_type)
                or isinstance(arg, bool)
            ):
                _fail(f"{path}.args[{j}]",
                      f"{op.call} argument {name!r} must be "
                      f"{expected_type.__name__}, "
                      f"got {type(arg).__name__}")
            if (name == "mode" and isinstance(arg, int)
                    and not 0 <= arg <= 0o7777):  # permission bits only
                _fail(f"{path}.args[{j}]",
                      f"{op.call} argument 'mode' must be in [0, 0o7777], "
                      f"got {arg}")
        if op.result is not None:
            if not _RESULT_RE.match(op.result):
                _fail(f"{path}.result",
                      "must be an identifier ([A-Za-z_][A-Za-z0-9_]*), "
                      f"got {op.result!r}")
            if op.result == "self":
                _fail(f"{path}.result",
                      "'self' is bound implicitly and cannot be rebound")

    @staticmethod
    def _validate_dataflow(
        ops: Tuple[Optional[OpSpec], ...], root: str, variant: str
    ) -> None:
        """Mirror the executor's variable binding over one variant.

        ``ops`` carries ``None`` at the positions the variant drops, so
        error paths still index into the full op list.
        """
        bound = {"self"}
        for i, op in enumerate(ops):
            if op is None:
                continue
            for j, arg in enumerate(op.args):
                if not isinstance(arg, str) or not arg.startswith("$"):
                    continue
                name = arg[1:]
                if name not in bound:
                    hint = (
                        " in the background variant (target ops are "
                        "stripped out)" if variant == "background" else ""
                    )
                    _fail(f"{root}.ops[{i}].args[{j}]",
                          f"references unbound variable {arg!r}{hint}")
            # binding rules of repro.suite.executor._run_ops
            if op.result:
                bound.add(op.result)
            if op.call in ("pipe", "pipe2"):
                prefix = op.result or "pipe"
                bound.update((f"{prefix}_r", f"{prefix}_w"))
            if op.call == "socketpair":
                prefix = op.result or "sock"
                bound.update((f"{prefix}_a", f"{prefix}_b"))
            if op.call in ("fork", "vfork", "clone"):
                bound.add(op.result or "child")

    def to_program(self) -> Program:
        return compile_spec(self)


# -- compilation --------------------------------------------------------------


def compile_spec(spec: BenchmarkSpec) -> Program:
    """Validate and compile a spec into the executable Program.

    The result is the same dataclass value (hence the same ``repr`` and
    the same artifact-store key material) a hand-written
    ``suite/registry.py`` row with these fields would produce, so a
    spec-defined benchmark yields byte-identical pipeline results.
    """
    if not isinstance(spec, BenchmarkSpec):
        raise ValidationError(
            f"compile_spec() takes a BenchmarkSpec, got {type(spec).__name__}"
        )
    spec.validate()
    return Program(
        name=spec.name,
        ops=tuple(
            Op(
                call=op.call,
                args=op.args,
                result=op.result,
                target=op.target,
                expect_success=op.expect_success,
            )
            for op in spec.program.ops
        ),
        setup=tuple(
            SetupAction(
                kind=action.kind,
                path=action.path,
                mode=action.mode,
                content=action.content,
                link_target=action.link_target,
            )
            for action in spec.program.setup
        ),
        group=spec.group,
        group_name=spec.group_name,
        run_as_uid=spec.program.run_as_uid,
        run_as_gid=spec.program.run_as_gid,
        description=spec.description,
        expected=tuple(
            (e.tool, e.classification, e.note) for e in spec.expectations
        ),
    )


def spec_from_program(
    program: Program, tags: Tuple[str, ...] = ()
) -> BenchmarkSpec:
    """The inverse of :func:`compile_spec` (used for the builtin rows).

    ``compile_spec(spec_from_program(p)) == p`` holds for every program
    the suite registry carries; the round-trip test enforces it.
    """
    return BenchmarkSpec(
        name=program.name,
        program=ProgramSpec(
            ops=tuple(
                OpSpec(
                    call=op.call,
                    args=op.args,
                    result=op.result,
                    target=op.target,
                    expect_success=op.expect_success,
                )
                for op in program.ops
            ),
            setup=tuple(
                SetupSpec(
                    kind=action.kind,
                    path=action.path,
                    mode=action.mode,
                    content=action.content,
                    link_target=action.link_target,
                )
                for action in program.setup
            ),
            run_as_uid=program.run_as_uid,
            run_as_gid=program.run_as_gid,
        ),
        group=program.group,
        group_name=program.group_name,
        description=program.description,
        tags=tuple(tags),
        expectations=tuple(
            ExpectationSpec(tool=tool, classification=classification,
                            note=note)
            for tool, classification, note in program.expected
        ),
    )


# -- persistence (the artifact store's "spec" stage) -------------------------


def spec_digest(spec: BenchmarkSpec) -> str:
    """Content digest of a spec — its identity in the store's spec stage."""
    return canonical_key({"spec": spec.to_payload()})


def persist_spec(store: ArtifactStore, spec: BenchmarkSpec) -> str:
    """Persist a validated spec under the ``spec`` stage; returns digest.

    Keys are content digests, so re-adding the same spec is idempotent.
    Persisting has *replace* semantics per name: older artifacts
    carrying the same benchmark name under a different digest are
    removed, so an edited spec never leaves a stale twin behind for
    :func:`load_persisted_specs` to resurrect.
    """
    spec.validate()
    payload = spec.to_payload()
    digest = spec_digest(spec)
    _remove_named(store, spec.name, keep=digest)
    store.save(SPEC_STAGE, {"spec": payload}, payload)
    return digest


def _remove_named(store: ArtifactStore, name: str, keep: str = "") -> int:
    """Delete every stored spec whose raw payload is named ``name``, but
    the one whose digest (its filename stem) is ``keep``; returns the
    count.  No spec decode: one that no longer decodes is removable."""
    removed = 0
    for path, stored in list(
        store.iter_stage(SPEC_STAGE, versions=SPEC_VERSIONS)
    ):
        if (path.stem != keep and isinstance(stored, Mapping)
                and stored.get("name") == name):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def iter_persisted_specs(
    store: ArtifactStore, skip_digests: Container[str] = ()
) -> Iterator[Tuple[Path, BenchmarkSpec]]:
    """Yield ``(artifact_path, spec)`` for every decodable stored spec.

    Artifacts that fail structural decoding are skipped (and counted
    invalid), matching the store's corruption-tolerance contract.
    ``skip_digests`` (artifact filename stems) are dropped before any
    file read, so incremental consumers rescan a store for the price
    of a directory listing.
    """
    for path, payload in store.iter_stage(
        SPEC_STAGE, skip_digests, versions=SPEC_VERSIONS
    ):
        try:
            yield path, BenchmarkSpec.from_payload(payload)
        except ValidationError:
            store.stats.invalid += 1


def load_persisted_specs(store: ArtifactStore) -> List[BenchmarkSpec]:
    """Every decodable spec persisted in the store, path order."""
    return [spec for _, spec in iter_persisted_specs(store)]


def remove_persisted_spec(store: ArtifactStore, name: str) -> int:
    """Delete every persisted spec named ``name``; returns count removed."""
    return _remove_named(store, name)
