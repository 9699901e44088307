"""Input documents as typed values, one rule per kind of field.

Every field of a subcommand's document, a serialized algebra and the
envelope options is read here. A missing required field, a document that
is not an object and a value off its rule are refused with ValueError
naming the field by its path (`ops[3].index`, `algebra.dim`, or the bare
key at the top). An integer is a JSON integer or a float without a
fraction (2.0 is 2) in the 64-bit range, never a bool; a tolerance is a
finite non-negative number; a flag is a JSON boolean; see `array` and
`indices` for arrays.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

_MISSING = object()
ENVELOPE_OPTIONS = ("tol_sep", "tol_rank", "jet_order", "jet_wordlen", "jet_points")


def _shown(value) -> str:
    """A value as a refusal shows it: its repr, or its kind if that is long."""
    shown = repr(value)
    if len(shown) <= 40:
        return shown
    return {list: "a list", dict: "an object"}.get(type(value), shown[:40] + "...")


def _number(x) -> float | None:
    """x as a float (inf beyond the float range), or None if it is not a number."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf


def integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    if type(value) is int:  # the common case, and never a bool
        n = value
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        n = int(value)
    elif isinstance(value, float) and value.is_integer():
        n = int(value)
    else:
        raise ValueError(f"{name} must be an integer, not {_shown(value)}")
    if not -2 ** 63 <= n < 2 ** 63:
        raise ValueError(f"{name} is beyond the 64-bit integer range")
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, not {n}")
    if high is not None and n > high:
        raise ValueError(f"{name} must be <= {high}, not {n}")
    return n


def tolerance(name: str, value) -> float:
    """A negative or non-finite tolerance would pass every sample."""
    tol = _number(value)
    if tol is None:
        raise ValueError(f"{name} must be a number, not {_shown(value)}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, not {tol!r}")
    return tol


def flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, not {_shown(value)}")
    return value


def text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, not {_shown(value)}")
    return value


def array(name: str, value, shape: tuple, finite: bool = True,
          real: bool = False) -> np.ndarray:
    """Nested lists as a complex array of the given shape (None: any
    positive length). An entry is a number x, standing for [x, 0], or an
    [re, im] pair of numbers, in any mix; with real=True only numbers, and
    the array is real. Any other layout (a length off the shape, unequal
    rows, a bool, a string, null) is refused, and so are an integer beyond
    the float range and, unless finite=False, an entry that is not finite."""
    k = len(shape)
    parts = np.array(value, dtype=object)
    if not real and parts.ndim == k and any(isinstance(e, (list, tuple)) for e in parts.flat):
        pairs = np.array([e if isinstance(e, (list, tuple)) else (e, 0) for e in parts.flat],
                         dtype=object)
        if pairs.shape == (parts.size, 2):
            parts = pairs.reshape(parts.shape + (2,))
    sizes = tuple(n or m for n, m in zip(shape, parts.shape))
    layouts = (sizes,) if real else (sizes, sizes + (2,))
    if not (len(sizes) == k and parts.shape in layouts and parts.size
            and set(map(type, parts.flat)) <= {int, float}):
        if shape[0]:
            raise ValueError(f"{name} must be {k}-fold nested lists of [re, im] number "
                             f"pairs, {shape[0]} at each level")
        raise ValueError(f"{name} must be a non-empty list of "
                         + "equal non-empty rows of " * (k - 1)
                         + ("numbers" if real else "numbers or [re, im] number pairs"))
    try:
        values = parts.astype(float)
    except OverflowError:
        raise ValueError(f"{name} has an integer beyond the float range") from None
    if finite and not np.isfinite(values).all():
        raise ValueError(f"{name} has an entry that is not finite")
    if real:
        return values
    return values.view(complex)[..., 0] if parts.ndim > k else values.astype(complex)


def sized(name: str, values: np.ndarray, shape: tuple) -> np.ndarray:
    """values, refused unless its shape is `shape` (None: any length)."""
    if values.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, values.shape)):
        want = ", ".join("n" if n is None else str(n) for n in shape)
        raise ValueError(f"{name} has shape {values.shape}, expected ({want})")
    return values


def indices(name: str, rows) -> np.ndarray:
    """Multi-indices, each a list of non-negative integers (by the integer
    rule) and all of one length, as an (n, length) int64 array; entries
    are refused as `<name> entry`."""
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    parts = np.array(rows, dtype=object)
    if parts.ndim != 2:
        raise ValueError(f"each {name} must be a list of integers, all of one length")
    if not set(map(type, parts.flat)) <= {int}:
        parts = np.array([integer(f"{name} entry", v) for v in parts.flat],
                         dtype=object).reshape(parts.shape)
    try:
        out = parts.astype(np.int64)
    except OverflowError:
        raise ValueError(f"{name} entry is beyond the 64-bit integer range") from None
    if (out < 0).any():
        raise ValueError(f"{name} entry must be >= 0, not {out[out < 0][0]}")
    return out


def _points(name: str, value, m: int) -> list:
    """Points of m finite numbers each, as given."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of points, not {_shown(value)}")
    for i, pt in enumerate(value):
        if not (isinstance(pt, (list, tuple, np.ndarray)) and len(pt) == m
                and all((v := _number(x)) is not None and math.isfinite(v) for x in pt)):
            raise ValueError(f"{name}[{i}] is {_shown(pt)}; each of jet_points must be a list "
                             f"of {m} finite numbers")
    return value


class Fields:
    """The fields of one JSON object. `path` names the object in refusals
    (empty at the top of a document). Each method reads one field by its
    key; a field with a default is optional and the default is returned
    as it is when the key is absent. Once every field is read, `done`
    refuses the keys no read asked for, so a misspelled optional field
    does not silently take its default."""

    __slots__ = ("data", "path", "asked")

    def __init__(self, data, path: str = ""):
        if not isinstance(data, dict):
            raise ValueError(f"{path or 'the document'} must be an object, not {_shown(data)}")
        self.data = data
        self.path = path
        self.asked: dict = {}  # the keys read so far, in order

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def raw(self, key: str, default=_MISSING):
        """The field as the document holds it, checked only for presence."""
        self.asked[key] = None
        if key in self.data:
            return self.data[key]
        if default is _MISSING:
            raise ValueError(f"{self.name(key)} is missing")
        return default

    def _read(self, key, default, rule, *args):
        value = self.raw(key, default)
        return rule(self.name(key), value, *args) if key in self.data else value

    def done(self) -> None:
        """Refuses the first key that no read asked for."""
        unknown = [key for key in self.data if key not in self.asked]
        if unknown:
            raise ValueError(f"unknown field {self.name(unknown[0])!r}; the fields are "
                             f"{', '.join(self.asked)}")

    def integer(self, key: str, default=_MISSING, low: int | None = None,
                high: int | None = None) -> int:
        return self._read(key, default, integer, low, high)

    def tolerance(self, key: str, default=_MISSING) -> float:
        return self._read(key, default, tolerance)

    def flag(self, key: str, default=_MISSING) -> bool:
        return self._read(key, default, flag)

    def text(self, key: str, default=_MISSING) -> str:
        return self._read(key, default, text)

    def array(self, key: str, shape: tuple, finite: bool = True, real: bool = False,
              default=_MISSING, dims: tuple | None = None) -> np.ndarray:
        """The array rule, and with `dims` the sizes other fields fix."""
        values = self._read(key, default, array, shape, finite, real)
        if dims is None or values is default:
            return values
        return sized(self.name(key), values, dims)

    def labels(self, key: str, count: int):
        """None, or a list of `count` strings."""
        value = self.raw(key, None)
        if value is not None and not (isinstance(value, list) and len(value) == count
                                      and all(isinstance(s, str) for s in value)):
            raise ValueError(f"{self.name(key)} must be null or a list of {count} "
                             f"strings, not {_shown(value)}")
        return value

    def each(self, key: str, parse, *args) -> list:
        """A non-empty list, each item read by parse(item, *args); a refusal
        is prefixed with the item's path."""
        items = self.raw(key)
        name = self.name(key)
        if not (isinstance(items, list) and items):
            raise ValueError(f"{name} must be a non-empty list, not {_shown(items)}")
        out = []
        for i, item in enumerate(items):
            try:
                out.append(parse(item, *args))
            except ValueError as exc:
                raise ValueError(f"{name}[{i}]: {exc}") from None
        return out

    def rows(self, key: str, *fields) -> tuple[list, ...]:
        """The named fields of each object in the list under `key`, one list
        per field; an object with any other key is refused."""
        items = self.raw(key)
        name = self.name(key)
        if not isinstance(items, list):
            raise ValueError(f"{name} must be a list of objects, not {_shown(items)}")
        try:
            out = tuple([item[f] for item in items] for f in fields)
            if all(len(item) == len(fields) for item in items):
                return out
        except (KeyError, TypeError):
            pass
        # the first item that is not an object, lacks a field or has another raises
        for i, item in enumerate(items):
            entry = Fields(item, f"{name}[{i}]")
            for f in fields:
                entry.raw(f)
            entry.done()

    def algebra(self, key: str, check: bool = True, default=_MISSING):
        return self._read(key, default, algebra, check)


def algebra(name: str, spec, check: bool = True):
    """An algebra from a constructor name, {"name": ...} or a serialized
    algebra (StructureAlgebra.from_dict). `name` names the field, empty
    for a whole document; a refusal of a named constructor is prefixed
    with it."""
    from .algebra import StructureAlgebra, algebra_from_name  # it reads with this module

    if isinstance(spec, dict) and "name" in spec:
        doc = Fields(spec, name)
        spec = text(f"{name}.name" if name else "algebra name", doc.raw("name"))
        doc.done()
    if isinstance(spec, str):
        try:
            return algebra_from_name(spec)
        except ValueError as exc:
            if not name:
                raise
            raise ValueError(f"{name}: {exc}") from None
    if isinstance(spec, dict):
        return StructureAlgebra.from_dict(Fields(spec, name), check=check)
    raise ValueError(f"{name or 'the algebra'} must be a name, {{\"name\": ...}} or a "
                     f"serialized algebra, not {_shown(spec)}")


def envelope_options(options, m: int) -> dict:
    """The envelope options that are present, read by their rules for a box
    of m axes: tol_sep and tol_rank are tolerances, jet_order (>= 0) and
    jet_wordlen (>= 1) integers, jet_points a list of points of m finite numbers.
    An unknown option is refused. Reading the result again gives it back."""
    doc = Fields(options, "options")
    unknown = sorted(set(doc.data) - set(ENVELOPE_OPTIONS))
    if unknown:
        raise ValueError(f"unknown envelope option {unknown[0]!r}; "
                         f"the options are {', '.join(ENVELOPE_OPTIONS)}")
    read = {"tol_sep": doc.tolerance("tol_sep", None),
            "tol_rank": doc.tolerance("tol_rank", None),
            "jet_order": doc.integer("jet_order", None, low=0),
            "jet_wordlen": doc.integer("jet_wordlen", None, low=1),
            "jet_points": doc._read("jet_points", None, _points, m)}
    return {k: v for k, v in read.items() if v is not None}
