"""One codec for every payload type: the wire shape is the field list.

A *payload type* is a frozen dataclass that crosses the CLI, HTTP, the
durable spool or the cluster wire as a JSON object whose keys are
exactly its fields.  :func:`payload_type` derives its codec from the
field declarations, so adding a payload field is one declaration plus
its value rule:

* ``to_payload()`` encodes every field: tuples become lists, ``bytes``
  become ``{"base64": "..."}`` objects and nested payload values go
  through their own ``to_payload()``;
* ``from_payload(payload, path=None)`` is strict: a non-object, an
  unknown key or a missing required key is rejected.  JSON arrays become
  tuples, JSON numbers become floats in ``float`` fields, a base64
  object with exactly the ``base64`` key becomes ``bytes``, and nested
  fields decode through their own ``from_payload`` (given the field path
  when that decoder takes a ``path``);
* construction checks every field against its annotation — ``str``,
  ``int`` (bool rejected), ``float`` (int accepted, bool rejected),
  ``bool``, ``bytes``, a ``Union`` of those (bool rejected unless a
  member), ``Optional[...]``, ``Tuple[X, ...]`` and nested payload
  types — and then runs the class's own ``__post_init__``, which holds
  only value rules (ranges, choices, non-empty, cross-field rules),
  written with :func:`fail`, :func:`check_names`, :func:`check_range`
  and :func:`check_choice`.

Every failure raises the type's error class with a message shaped
``"<Type>.<field>: must be ..."``:
:class:`~repro.api.errors.ValidationError` unless the decorator names
another.  A payload decoded at ``path`` (a nested field, say
``BenchmarkSpec.program.ops[3]``) names that path instead of its type,
in decoding errors and construction errors alike.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import inspect
import typing
from typing import (
    Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple, Type,
)

#: raises unless a value fits a field's annotation: (value, where) -> None
Check = Callable[[object, str], None]

#: turns one decoded-JSON value into a field value: (value, where) -> value
Decode = Callable[[object, str], object]

#: scalar annotation -> (noun for messages, accepted types); a bool is
#: refused wherever ``bool`` is not itself the annotation or a member
_SCALARS: Dict[type, Tuple[str, tuple]] = {
    str: ("a string", (str,)),
    bool: ("a bool", (bool,)),
    int: ("an int", (int,)),
    float: ("a number", (int, float)),
    bytes: ('bytes ({"base64": ...} in JSON)', (bytes,)),
}

#: values ``to_payload`` emits as they are
_PLAIN = (str, int, float, bool, type(None))


class _Field(NamedTuple):
    where: str  # "<Type>.<field>", the prefix of every message
    check: Check
    decode: Decode


def _default_error() -> Type[Exception]:
    # Looked up when a type is declared, not at import: the pipeline's
    # StageTimings imports this module while the repro.api package,
    # which imports the pipeline, may still be loading.
    from repro.api.errors import ValidationError

    return ValidationError


def payload_type(cls=None, *, error: Optional[Type[Exception]] = None):
    """Declare ``cls`` a frozen dataclass with the derived payload codec.

    Use bare (``@payload_type``) or naming the type's error class
    (``@payload_type(error=FaultError)``).  The class's own
    ``__post_init__``, if any, runs after the field type checks.
    """
    def wrap(cls):
        raise_as = error or _default_error()
        value_rules = getattr(cls, "__post_init__", None)

        def __post_init__(self) -> None:
            for name, (where, check, _) in cls._payload_fields.items():
                check(getattr(self, name), where)
            if value_rules is not None:
                value_rules(self)

        cls.__post_init__ = __post_init__
        cls.to_payload = fields_to_payload
        cls.from_payload = classmethod(_from_payload)
        cls = dataclasses.dataclass(frozen=True)(cls)
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        cls._payload_error = raise_as
        cls._payload_fields = {
            f.name: _Field(f"{cls.__name__}.{f.name}",
                           *_compile(hints[f.name], raise_as))
            for f in fields
        }
        cls._payload_required = tuple(
            f.name for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        return cls

    return wrap if cls is None else wrap(cls)


def fields_to_payload(obj) -> Dict[str, object]:
    """Every dataclass field of ``obj``, JSON-ready (the derived
    ``to_payload``)."""
    payload = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        payload[name] = value if isinstance(value, _PLAIN) else _encode(value)
    return payload


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def payload_object(
    what: str,
    payload: object,
    known: Iterable[str],
    required: Iterable[str] = (),
    error: Optional[Type[Exception]] = None,
) -> Mapping[str, object]:
    """``payload`` if it is a JSON object with every ``required`` key and
    no key outside ``known``; else ``error`` (ValidationError by default)
    naming ``what``."""
    error = error or _default_error()
    if not isinstance(payload, Mapping):
        raise error(
            f"{what} payload must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(known), key=str)
    if unknown:
        raise error(f"{what} payload has unknown keys: {unknown}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise error(f"{what} payload is missing required keys: {missing}")
    return payload


def _from_payload(cls, payload: object, path: Optional[str] = None):
    fields, error = cls._payload_fields, cls._payload_error
    where = path or cls.__name__
    payload_object(where, payload, fields, cls._payload_required, error)
    decoded = {key: fields[key].decode(value, f"{where}.{key}")
               for key, value in payload.items()}
    try:
        return cls(**decoded)
    except error as exc:  # "<Type>.<field>: ..." from a check or value rule
        message = str(exc)
        if path is None or not message.startswith(f"{cls.__name__}."):
            raise
        raise type(exc)(path + message[len(cls.__name__):]) from None


# -- value rules, for a payload type's __post_init__ -------------------------


def fail(obj: object, field: str, message: str) -> None:
    """Raise ``obj``'s payload error as ``"<Type>.<field>: <message>"``."""
    raise type(obj)._payload_error(f"{type(obj).__name__}.{field}: {message}")


def check_names(obj: object, *fields: str) -> None:
    """Each named field — a string, or a tuple of strings — holds only
    non-empty names (None passes: optionality is the field's type)."""
    for field in fields:
        value = getattr(obj, field)
        if value == "":
            fail(obj, field, "must be non-empty")
        if isinstance(value, tuple) and "" in value:
            fail(obj, f"{field}[{value.index('')}]", "must be non-empty")


def check_range(
    obj: object, *fields: str,
    minimum: Optional[float] = None, maximum: Optional[float] = None,
) -> None:
    """Each named numeric field lies within the bounds (None passes)."""
    for field in fields:
        value = getattr(obj, field)
        if value is None:
            continue
        if minimum is not None and value < minimum:
            fail(obj, field, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            fail(obj, field, f"must be <= {maximum}, got {value}")


def check_choice(obj: object, field: str, choices: Tuple[str, ...]) -> None:
    value = getattr(obj, field)
    if value not in choices:
        fail(obj, field, f"must be one of {list(choices)}, got {value!r}")


def _encode(value: object) -> object:
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, bytes):
        return {"base64": base64.b64encode(value).decode("ascii")}
    encode = getattr(value, "to_payload", None)
    return value if encode is None else encode()


def _compile(
    hint: object, error: Type[Exception], optional: bool = False
) -> Tuple[Check, Decode]:
    """The construction check and the JSON decoder for one annotation.

    Decoders pass ``None`` through: optionality is the check's to rule on.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    check_item = None
    if origin is typing.Union and args[1:] == (type(None),):  # Optional[X]
        return _compile(args[0], error, optional=True)
    if origin is tuple and args[1:] == (Ellipsis,):  # Tuple[X, ...]
        noun, accepted, refused = "a tuple", (tuple,), ()
        check_item, decode_item = _compile(args[0], error)

        def decode(value: object, where: str) -> object:
            if not isinstance(value, list):
                return value  # the construction check names the mismatch
            return tuple(
                decode_item(item, f"{where}[{index}]")
                for index, item in enumerate(value)
            )
    elif hint in _SCALARS or (
        origin is typing.Union and all(arg in _SCALARS for arg in args)
    ):  # a scalar, or a union of scalars
        members = args or (hint,)
        nouns = [_SCALARS[member][0] for member in members]
        noun = (nouns[0] if len(nouns) == 1
                else f"{', '.join(nouns[:-1])} or {nouns[-1]}")
        accepted = tuple(t for member in members for t in _SCALARS[member][1])
        refused = () if bool in members else (bool,)
        if bytes in members:
            decode = functools.partial(_decode_bytes, error=error)
        else:
            decode = _decode_float if hint is float else _decode_as_is
    elif isinstance(hint, type) and hasattr(hint, "from_payload"):
        noun, accepted, refused = f"a {hint.__name__}", (hint,), ()
        decode = _nested_decoder(hint, error)
    else:
        raise TypeError(f"no payload codec for field type {hint!r}")

    def check(value: object, where: str) -> None:
        if value is None and optional:
            return
        if not isinstance(value, accepted) or isinstance(value, refused):
            raise error(f"{where}: must be {noun}, got {type(value).__name__}")
        if check_item is not None:
            for index, item in enumerate(value):
                check_item(item, f"{where}[{index}]")

    return check, decode


def _decode_as_is(value: object, where: str) -> object:
    return value


def _decode_float(value: object, where: str) -> object:
    return float(value) if type(value) is int else value


def _decode_bytes(
    value: object, where: str, error: Type[Exception]
) -> object:
    if not isinstance(value, Mapping):
        return value  # the construction check names the mismatch
    payload_object(where, value, ("base64",), ("base64",), error)
    try:
        return base64.b64decode(value["base64"], validate=True)
    except (binascii.Error, TypeError, ValueError):
        raise error(f"{where}.base64: is not valid base64") from None


def _nested_decoder(hint: type, error: Type[Exception]) -> Decode:
    decode = hint.from_payload
    takes_path = "path" in inspect.signature(decode).parameters

    def decode_nested(value: object, where: str) -> object:
        if value is None:
            return None
        try:
            if takes_path:
                return decode(value, path=where)
            return decode(value)
        except error:
            raise
        except Exception as exc:  # noqa: BLE001
            # a hand-written nested decoder reads outside input and may
            # fail in any way; each failure means this payload is malformed
            raise error(
                f"{where}: malformed {hint.__name__} payload ({exc})"
            ) from exc

    return decode_nested
