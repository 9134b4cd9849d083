"""Parsing and serialization of exact rationals, and `load_json`, the one
reader of input documents: a file that is not UTF-8 JSON, or that json
cannot read (arrays or objects nested past the recursion limit, an
integer literal past the int digit limit), raises DocumentError naming it.

Wire format: rationals are strings "p/q" in lowest terms with q > 0,
or bare integer strings; integers proper stay JSON integers.  parse_frac
is the one rule for exact inputs, library calls included; parse_int and parse_exact keep ints.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import DocumentError, PreconditionError


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, too many digits
        raise DocumentError(f"{path}: {exc}") from exc


def parse_frac(value) -> Fraction:
    """Accept an int, a Fraction, a numpy integer or a "p/q" / "p" string; no float or bool."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):  # int, numpy integers
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"not a rational: {value!r}") from exc
    raise PreconditionError(f"not a rational: {value!r}")


def parse_int(value) -> int:
    """An int as it is, else parse_frac(value), which must be an integer."""
    f = value if type(value) is int else parse_frac(value)
    if f.denominator != 1:
        raise PreconditionError(f"not an integer: {str(value)!r}")
    return f.numerator


def parse_ints(values) -> tuple[int, ...]:
    """parse_int of every entry, so ints are kept as they are."""
    return tuple(map(parse_int, values))


def parse_exact(values) -> tuple:
    """The entries as a tuple: ints as they are (fraction-free paths), the rest parse_frac."""
    return tuple(c if type(c) is int else parse_frac(c) for c in values)


def parse_str(value) -> str:
    """A JSON string, taken as it is: nothing else is converted to one."""
    if not isinstance(value, str):
        raise PreconditionError(f"expected a string, got {value!r}")
    return value


def parse_array(value, parse=parse_frac) -> tuple:
    """A JSON array with every entry parsed (default: as a rational)."""
    if not isinstance(value, (list, tuple)):
        raise PreconditionError(f"expected an array, got {value!r}")
    return tuple(parse(c) for c in value)


def parse_matrix(value) -> tuple:
    """A JSON array of equally long arrays of rationals."""
    rows = parse_array(value, parse_array)
    if len({len(row) for row in rows}) > 1:
        raise PreconditionError(f"rows of different lengths: {value!r}")
    return rows


def parse_field(doc, key: str, parse, where: str, optional: bool = False):
    """parse(doc[key]) for a JSON object; errors name where and the key.
    With ``optional``, a missing or null key gives None."""
    try:
        if not isinstance(doc, dict):
            raise PreconditionError(f"expected an object, got {doc!r}")
        if optional and doc.get(key) is None:
            return None
        if key not in doc:
            raise PreconditionError("missing")
        return parse(doc[key])
    except PreconditionError as exc:
        raise PreconditionError(f"{where}: {key!r}: {exc}") from exc


def integral(x) -> tuple[tuple[int, ...], int]:
    """(X, m) with X integral, m > 0 the lcm of the denominators and x = X / m."""
    coords = parse_exact(x)
    m = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (m // c.denominator) for c in coords), m


def frac_str(value) -> str:
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_vector(text: str) -> tuple[Fraction, ...]:
    """Parse "a,b,c" with rational entries."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or parts == [""]:
        raise PreconditionError("empty vector")
    return tuple(parse_frac(p) for p in parts)


def vector_strs(coords) -> list[str]:
    return [frac_str(c) for c in coords]
