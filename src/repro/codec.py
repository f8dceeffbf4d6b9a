"""One codec for every payload type: the wire shape is the field list.

A *payload type* is a frozen dataclass that crosses the CLI, HTTP, the
durable spool or the cluster wire as a JSON object whose keys are
exactly its fields.  :func:`payload_type` derives its codec from the
field declarations, so adding a payload field is one declaration plus
its value rule:

* ``to_payload()`` encodes every field: tuples become lists and nested
  payload values go through their own ``to_payload()``;
* ``from_payload(payload)`` is strict: a non-object, an unknown key or a
  missing required key is rejected.  JSON arrays become tuples, JSON
  numbers become floats in ``float`` fields, and nested fields decode
  through their own ``from_payload`` (given the field path when that
  decoder takes a ``path``);
* construction checks every field against its annotation — ``str``,
  ``int`` (bool rejected), ``float`` (int accepted, bool rejected),
  ``bool``, ``Optional[...]``, ``Tuple[X, ...]`` and nested payload
  types — and then runs the class's own ``__post_init__``, which holds
  only value rules (ranges, choices, non-empty, cross-field rules).

Every failure raises the type's error class with a message shaped
``"<Type>.<field>: must be ..."``:
:class:`~repro.api.errors.ValidationError` unless the decorator names
another.
"""

from __future__ import annotations

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

#: scalar annotation -> (noun for messages, accepted types, refused subtypes)
_SCALARS: Dict[type, Tuple[str, tuple, tuple]] = {
    str: ("a string", (str,), ()),
    bool: ("a bool", (bool,), ()),
    int: ("an int", (int,), (bool,)),
    float: ("a number", (int, float), (bool,)),
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


def _from_payload(cls, payload: object):
    fields = cls._payload_fields
    payload_object(cls.__name__, payload, fields, cls._payload_required,
                   cls._payload_error)
    return cls(**{
        key: fields[key].decode(value, fields[key].where)
        for key, value in payload.items()
    })


def _encode(value: object) -> object:
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
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
    elif hint in _SCALARS:
        noun, accepted, refused = _SCALARS[hint]
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
