"""One JSON codec for the records the package reads and writes.

This is the one place where a file becomes a record: ``X.read(path)``
raises the record's own error class, naming the path (and the line and
column of bad JSON), for a file it cannot open, decode, parse or check.

A record sets ``_what``, its name in messages, its error class ``_error``
and its ``_schema`` string if any. Its JSON keys are its dataclass fields,
in field order, each named as its field unless ``field(metadata={"key":
...})`` names it otherwise; a key of ``None``, used only by the design's
spending rule, keeps the keys its metadata's ``"keys"`` lists in the
record's object, and its check reads that object. A field's check follows
its type: ``float``, ``int``, ``str`` and ``bool`` read a number, an
integer, a string and a boolean, ``X | None`` also null, ``tuple[X, ...]``
a list and ``dict[str, X]`` an object of X, and any other type its
``from_dict``. A check accepts one JSON type only: a number is never a
string or a bool. A key whose field has no default is required; a
``_strict`` record, a file only the program writes, needs every key and its
schema. Every record rejects any other key. Tuples are written as lists and
infinities as null. A record, however built, refuses NaN and infinity (json
reads both) in any float it holds, in a field, tuple or dict, before its own
``_validate``, but allows an infinity in a field whose metadata has
``"infinite": True``. Every failure raises the record's error class, a
nested record's wrapped in its parent's.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from functools import cache

from .errors import RmstgstError


def _typed(kind: str, *types, convert=None):
    def check(value):
        # a JSON true is a Python int, but not a number
        if not isinstance(value, types) or isinstance(value, bool) != (bool in types):
            raise TypeError(f"{kind} expected, got {value!r}")
        return value if convert is None else convert(value)

    return check


number = _typed("a number", int, float, convert=float)
integer = _typed("an integer", int)
string = _typed("a string", str)
boolean = _typed("a boolean", bool)


def optional(check):
    return lambda value: None if value is None else check(value)


def list_of(check):
    return lambda value: tuple(map(check, _typed("a list", list)(value)))


def dict_of(check):
    return lambda value: {k: check(v) for k, v in _typed("an object", dict)(value).items()}


_SCALARS = {float: number, int: integer, str: string, bool: boolean}


def _check(hint):
    """The check of a field of type ``hint``."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return optional(_check(inner))
    origin = typing.get_origin(hint)
    if origin is tuple:
        return list_of(_check(args[0]))
    if origin is dict:
        return dict_of(_check(args[1]))
    return hint.from_dict


@cache
def _keys(cls) -> tuple:
    """``(key, field, check)`` of each of ``cls``'s fields, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("key", f.name), f.name, _check(hints[f.name])) for f in dataclasses.fields(cls))


def utf8_bytes(path, what: str, error) -> bytes:
    """The bytes of any input file, checked as UTF-8 whole; ``error`` says it cannot read ``what``, or the line of
    its first byte that is not UTF-8, counted from the file's start."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        raw.decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    return raw


def _json(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return None if isinstance(value, float) and math.isinf(value) else value


class Record:
    """Mixin of a frozen dataclass stored as one JSON object."""

    _schema: str | None = None
    _strict = False

    @classmethod
    def read(cls, path):
        """The record in the UTF-8 JSON file at ``path``, after one byte-order mark if it starts with one."""
        def unique(pairs):  # each object in the file, nested ones too: a key given twice is the record's error
            keys = [key for key, _ in pairs]
            if len(set(keys)) < len(keys):
                raise cls._error(f"{cls._what} repeats keys {sorted({key for key in keys if keys.count(key) > 1})}")
            return dict(pairs)

        raw = utf8_bytes(path, cls._what, cls._error)
        try:
            return cls.from_dict(json.loads(raw.decode("utf-8-sig"), object_pairs_hook=unique))
        except json.JSONDecodeError as exc:
            raise cls._error(f"{path}: {cls._what} is not valid JSON at line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from None
        except cls._error as exc:
            raise cls._error(f"{path}: {exc}") from exc

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for v in value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not (math.isfinite(v) or math.isinf(v) and f.metadata.get("infinite")):
                    raise self._error(f"{f.name} must be finite, got {value!r}")
        if hasattr(self, "_validate"):  # the record's own checks
            self._validate()

    def to_dict(self) -> dict:
        out = {"schema": self._schema} if self._schema else {}
        for key, name, _ in _keys(type(self)):
            value = _json(getattr(self, name))
            if key is None:
                out.update(value)
            else:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, d):
        what, error = cls._what, cls._error
        if not isinstance(d, dict):
            raise error(f"{what} must be a JSON object")
        schema = d.get("schema", None if cls._strict else cls._schema)
        if cls._schema and schema != cls._schema:
            raise error(f"unsupported {what} schema {schema!r}, expected {cls._schema!r}")
        defaulted = () if cls._strict else {
            f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
        }
        missing = [key for key, name, _ in _keys(cls) if key is not None and key not in d and name not in defaulted]
        if missing:
            raise error(f"{what} missing keys: {sorted(missing)}")
        known = {k for f in dataclasses.fields(cls) for k in f.metadata.get("keys", [f.metadata.get("key", f.name)])}
        unknown = set(d) - known - ({"schema"} if cls._schema else set())
        if unknown:
            raise error(f"unknown {what} keys: {sorted(unknown)}")
        fields = {}
        try:
            for key, name, check in _keys(cls):
                if key is None or key in d:
                    fields[name] = check(d if key is None else d[key])
            return cls(**fields)
        except (TypeError, OverflowError) as exc:  # overflow: an integer past the float range
            raise error(f"malformed {what}: {key or name}: {exc}") from None
        except RmstgstError as exc:
            raise error(f"malformed {what}: {exc}") from exc
