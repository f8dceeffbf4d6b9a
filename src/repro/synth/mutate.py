"""Mutation operators: deriving benchmark variants from existing seeds.

Each operator takes a seed :class:`BenchmarkSpec` (a builtin registry
row or an earlier synthesized candidate) and a seeded ``random.Random``
and returns a *candidate* mutant — or ``None`` when the seed offers no
applicable edit.  Operators are purely syntactic; the engine puts every
mutant through the same oracle as generated specs (semantic validation
plus a dry run of both variants) and discards the ones that fail, so an
operator never needs to prove feasibility, only to propose plausibly.

Specs are frozen dataclasses: every operator builds a *new* spec and
can never mutate the seed in place — the registry-immutability
regression test pins that down for builtin rows.

Operators (the classic program-fuzzing quintet, specialized to this
op vocabulary):

* :func:`perturb_arg` — resample one literal argument (mode, length,
  offset, mask, payload bytes) within its kind's pool;
* :func:`insert_op` — splice a fresh, precondition-free op at program
  start (non-target, so both variants gain it);
* :func:`delete_op` — drop a non-target op whose results nothing
  references;
* :func:`swap_ops` — exchange two adjacent non-target ops that do not
  feed each other;
* :func:`substitute_target` — replace a target op with a different
  syscall over the same principal argument.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional, Set, Tuple

from repro.api.specs import BenchmarkSpec, OpSpec
from repro.kernel.introspect import ArgKind, syscall_signatures
from repro.suite.executor import bound_names
from repro.synth.templates import LENGTHS, MASKS, MODES, OFFSETS, PAYLOADS

MutationOperator = Callable[[BenchmarkSpec, random.Random], Optional[BenchmarkSpec]]

#: argument kinds whose literals may be resampled without affecting
#: whether the op succeeds
_PERTURBABLE_INT: dict = {
    ArgKind.MODE: MODES,
    ArgKind.LENGTH: LENGTHS,
    ArgKind.OFFSET: OFFSETS,
    ArgKind.MASK: MASKS,
}


def _with_ops(spec: BenchmarkSpec, ops: Tuple[OpSpec, ...]) -> BenchmarkSpec:
    return dataclasses.replace(
        spec, program=dataclasses.replace(spec.program, ops=ops)
    )


def _used_vars(op: OpSpec) -> Set[str]:
    return {
        arg[1:] for arg in op.args
        if isinstance(arg, str) and arg.startswith("$")
    }


def perturb_arg(
    spec: BenchmarkSpec, rng: random.Random
) -> Optional[BenchmarkSpec]:
    """Resample one safe literal argument of one op."""
    signatures = syscall_signatures()
    sites: List[Tuple[int, int, Tuple]] = []
    for i, op in enumerate(spec.program.ops):
        params = signatures[op.call].params if op.call in signatures else ()
        for j, arg in enumerate(op.args):
            if isinstance(arg, str):
                continue
            if isinstance(arg, bytes):
                sites.append((i, j, PAYLOADS))
                continue
            if j < len(params):
                pool = _PERTURBABLE_INT.get(params[j].kind)
                if pool is not None:
                    sites.append((i, j, pool))
    if not sites:
        return None
    i, j, pool = rng.choice(sites)
    old = spec.program.ops[i].args[j]
    alternatives = [value for value in pool if value != old]
    if not alternatives:
        return None
    args = list(spec.program.ops[i].args)
    args[j] = rng.choice(alternatives)
    ops = list(spec.program.ops)
    ops[i] = dataclasses.replace(ops[i], args=tuple(args))
    return _with_ops(spec, tuple(ops))


def insert_op(
    spec: BenchmarkSpec, rng: random.Random
) -> Optional[BenchmarkSpec]:
    """Splice a precondition-free op at program start (non-target)."""
    choices: List[OpSpec] = [
        OpSpec(call="getpid"),
        OpSpec(call="getcwd"),
        OpSpec(call="umask", args=(rng.choice(MASKS),)),
    ]
    staged = [
        action.path for action in spec.program.setup
        if action.kind == "file"
    ]
    if staged:
        path = rng.choice(staged)
        choices.extend((
            OpSpec(call="stat", args=(path,)),
            OpSpec(call="access", args=(path, 4)),
            OpSpec(call="open", args=(path, "O_RDONLY"),
                   result="probe_fd"),
        ))
    taken = set().union(*(
        bound_names(op) | _used_vars(op) for op in spec.program.ops
    ))
    candidates = [
        op for op in choices
        if not (bound_names(op) & taken)
    ]
    if not candidates:
        return None
    new_op = rng.choice(candidates)
    return _with_ops(spec, (new_op,) + spec.program.ops)


def delete_op(
    spec: BenchmarkSpec, rng: random.Random
) -> Optional[BenchmarkSpec]:
    """Drop one non-target op whose results are never consumed."""
    ops = spec.program.ops
    deletable = []
    for i, op in enumerate(ops):
        if op.target:
            continue
        bound = bound_names(op)
        if any(bound & _used_vars(later) for later in ops[i + 1:]):
            continue
        deletable.append(i)
    if not deletable or len(ops) <= 2:
        return None
    i = rng.choice(deletable)
    remaining = ops[:i] + ops[i + 1:]
    if not any(op.target for op in remaining):
        return None
    return _with_ops(spec, remaining)


def swap_ops(
    spec: BenchmarkSpec, rng: random.Random
) -> Optional[BenchmarkSpec]:
    """Exchange two adjacent non-target ops with no dataflow between."""
    ops = spec.program.ops
    sites = [
        i for i in range(len(ops) - 1)
        if not ops[i].target and not ops[i + 1].target
        and not (bound_names(ops[i]) & _used_vars(ops[i + 1]))
        and (ops[i].call, ops[i].args) != (ops[i + 1].call, ops[i + 1].args)
    ]
    if not sites:
        return None
    i = rng.choice(sites)
    swapped = list(ops)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return _with_ops(spec, tuple(swapped))


def substitute_target(
    spec: BenchmarkSpec, rng: random.Random
) -> Optional[BenchmarkSpec]:
    """Replace one target op with a different syscall over the same
    principal argument (path -> path family, fd -> fd family, nullary ->
    nullary family)."""
    ops = spec.program.ops
    targets = [i for i, op in enumerate(ops) if op.target]
    if not targets:
        return None
    i = rng.choice(targets)
    op = ops[i]
    first = op.args[0] if op.args else None
    if isinstance(first, str) and first.startswith("$"):
        menu = [
            OpSpec(call="fstat", args=(first,), target=True),
            OpSpec(call="close", args=(first,), target=True),
            OpSpec(call="dup", args=(first,), result="sub_fd", target=True),
        ]
    elif isinstance(first, str) and not first.startswith("/"):
        menu = [
            OpSpec(call="stat", args=(first,), target=True),
            OpSpec(call="access", args=(first, 4), target=True),
            OpSpec(call="chmod", args=(first, rng.choice(MODES)),
                   target=True),
            OpSpec(call="truncate", args=(first, rng.choice(LENGTHS)),
                   target=True),
            OpSpec(call="unlink", args=(first,), target=True),
            OpSpec(call="open", args=(first, "O_RDONLY"),
                   result="sub_fd", target=True),
        ]
    elif first is None:
        menu = [
            OpSpec(call="fork", result="sub_child", target=True),
            OpSpec(call="pipe", result="sub_p", target=True),
            OpSpec(call="socketpair", result="sub_sk", target=True),
            OpSpec(call="getpid", target=True),
        ]
    else:
        return None
    taken = set().union(*(
        bound_names(other) | _used_vars(other) for other in ops
    ))
    menu = [
        candidate for candidate in menu
        if candidate.call != op.call
        and not (bound_names(candidate) & taken)
    ]
    if not menu:
        return None
    replaced = list(ops)
    replaced[i] = rng.choice(menu)
    return _with_ops(spec, tuple(replaced))


#: name -> operator, in the order the engine samples them
MUTATION_OPERATORS: Tuple[Tuple[str, MutationOperator], ...] = (
    ("perturb_arg", perturb_arg),
    ("insert_op", insert_op),
    ("delete_op", delete_op),
    ("swap_ops", swap_ops),
    ("substitute_target", substitute_target),
)


def mutate_spec(
    spec: BenchmarkSpec, rng: random.Random, name: str
) -> Optional[Tuple[str, BenchmarkSpec]]:
    """Apply one randomly chosen applicable operator to ``spec``.

    Returns ``(operator_name, mutant)`` with the mutant renamed to
    ``name`` and retagged for synthesis, or ``None`` when no operator
    produced an edit.  The caller owns oracle-checking the mutant.
    """
    order = list(MUTATION_OPERATORS)
    rng.shuffle(order)
    for operator_name, operator in order:
        mutant = operator(spec, rng)
        if mutant is None:
            continue
        mutant = dataclasses.replace(
            mutant,
            name=name,
            group=0,
            group_name="Synthesized",
            description=(
                f"mutated from {spec.name!r} via {operator_name}"
            ),
            expectations=(),
        )
        return operator_name, mutant
    return None
