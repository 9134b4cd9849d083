"""Orbit-signature tables and recognition of monodromy-rigid wall classes.

Recognition is table driven: a class is matched against rows keyed by
(square, divisibility) and optionally a discriminant residue.  Solving
for a class from prescribed intersection numbers and rescaling to a
primitive representative live here as well.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import linalg
from .errors import PreconditionError, Record
from .lattice import IntegralLattice, fold_residue
from .rational import integral, load_json, parse_array, parse_field, parse_frac, parse_int, parse_str


class OrbitSignature(Record):
    name: str
    square: int
    divisibility: int
    codimension: int
    disc_residue: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise PreconditionError(f"orbit name must be a string, got {self.name!r}")
        for key in ("square", "divisibility", "codimension"):
            if type(value := getattr(self, key)) is not int:
                raise PreconditionError(f"orbit {self.name!r}: {key} must be an integer, got {value!r}")
        if (residue := self.disc_residue) is not None:
            if not isinstance(residue, (list, tuple)) or not all(type(r) is int for r in residue):
                raise PreconditionError(
                    f"orbit {self.name!r}: disc_residue must be a list of integers, got {residue!r}")
            object.__setattr__(self, "disc_residue", tuple(residue))  # a tuple, so that the row hashes
        if self.square >= 0:
            raise PreconditionError(f"orbit {self.name!r}: square must be negative")
        if self.divisibility < 1 or self.codimension < 1:
            raise PreconditionError(f"orbit {self.name!r}: divisibility and codimension must be positive")

    @property
    def key(self):
        return (self.square, self.divisibility, self.disc_residue)

    def report_fields(self) -> dict:
        """The square, divisibility and codimension, in that order, as reports print them."""
        return {key: getattr(self, key) for key in ("square", "divisibility", "codimension")}


class SignatureTable(Record):
    orbits: tuple[OrbitSignature, ...]

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))  # a tuple, so that the table hashes
        names = [o.name for o in self.orbits]
        if len(set(names)) != len(names):
            raise PreconditionError("orbit names must be unique")
        keys = [o.key for o in self.orbits]
        if len(set(keys)) != len(keys):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise PreconditionError(f"ambiguous signature table: duplicate key {dup}")

    @functools.cached_property  # kept in __dict__, not in the fields that == and hash read
    def squares(self) -> tuple[int, ...]:
        return tuple(sorted({o.square for o in self.orbits}))

    @functools.cached_property
    def sublattices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(d, squares): the squares s, ascending, whose rows' divisibilities have gcd d_s = d."""
        ds = {}
        for s, d in sorted(self._rows):  # one pass over the rows, squares ascending
            ds[s] = math.gcd(ds.get(s, 0), d)
        groups = {}
        for s, d in ds.items():
            groups[d] = groups.get(d, ()) + (s,)
        return tuple(groups.items())

    @functools.cached_property
    def _rows(self) -> dict:
        """(square, divisibility) -> (pinned rows, the one unpinned row or None)."""
        rows = {}
        for o in self.orbits:
            key = o.square, o.divisibility
            pinned, plain = rows.get(key, ((), None))
            rows[key] = (pinned, o) if o.disc_residue is None else (pinned + (o,), plain)
        return rows

    def check_residues(self, lattice: IntegralLattice) -> None:
        """Reject a pinned residue that could never match on this lattice: one
        without an entry per nontrivial factor of its discriminant group (read
        only if some row pins one), or one not folded (``fold_residue``)."""
        pinned = [o for o in self.orbits if o.disc_residue is not None]
        factors = lattice.discriminant_group().invariant_factors if pinned else ()
        for o in pinned:
            if len(o.disc_residue) != len(factors):
                raise PreconditionError(
                    f"orbit {o.name!r}: disc_residue has {len(o.disc_residue)} entries, "
                    f"but the discriminant group has {len(factors)} nontrivial factors")
            folded = fold_residue(o.disc_residue, factors)
            if o.disc_residue != folded:
                raise PreconditionError(
                    f"orbit {o.name!r}: disc_residue {list(o.disc_residue)} is not in folded "
                    f"form and never matches; it should be {list(folded)}")

    def match(self, square: int, divisibility: int, residue_fn) -> OrbitSignature | None:
        """Unique row for the invariants, or None.

        residue_fn is called lazily, only when some row of the pair pins a
        discriminant residue; the caller has checked the pinned residues
        (``check_residues``).
        """
        pinned, plain = self._rows.get((square, divisibility), ((), None))
        if pinned:
            residue = tuple(residue_fn())
            for o in pinned:
                if o.disc_residue == residue:
                    return o
        return plain


def classify(lattice: IntegralLattice, table: SignatureTable, x) -> OrbitSignature | None:
    """Table row whose invariants match the class x, or None.

    Invariant under x -> -x: square, divisibility and the sign-folded
    residue all are.  A table that pins a residue is checked
    (``check_residues``) for every class, after the match, so that d | G x
    is still checked before the group is read.
    """
    v = lattice.primitive_class(x)
    row = linalg.mat_vec(lattice.gram, v)
    square = linalg.dot(row, v)
    if square >= 0:
        raise PreconditionError("class must have negative square")
    d = lattice.class_divisibility(v)
    # the match checks d | G x before check_residues reads the group
    found = table.match(square, d, lambda: lattice.residues(row, d))
    table.check_residues(lattice)
    return found


def dual_solve(lattice: IntegralLattice, constraints) -> tuple[Fraction, ...]:
    """The unique rational x with pairing(x, c_i) = v_i for all (c_i, v_i)."""
    if not constraints:
        raise PreconditionError("no constraints")
    rows = []
    rhs = []
    for cls, value in constraints:
        rows.append(lattice.pairing_row(cls))
        rhs.append(parse_frac(value))
    try:
        return linalg.solve(rows, rhs)
    except PreconditionError as exc:
        if "underdetermined" in str(exc):
            raise PreconditionError("constraint classes do not span the lattice") from exc
        raise


def primitive_rescale(x) -> tuple[tuple[int, ...], Fraction]:
    """Primitive integral y and scale s > 0 with y = s * x."""
    ints, denom = integral(x)
    g = math.gcd(*ints)
    if g == 0:
        raise PreconditionError("zero vector")
    return tuple(c // g for c in ints), Fraction(denom, g)


def table_from_dict(doc: dict) -> SignatureTable:
    rows = doc.get("orbits") if isinstance(doc, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise PreconditionError("signature-table document needs an 'orbits' list")
    orbits = []
    for i, row in enumerate(rows):
        def field(key, parse=parse_int, optional=False):
            return parse_field(row, key, parse, f"orbit {i}", optional)

        orbits.append(OrbitSignature(
            name=field("name", parse_str),
            square=field("square"),
            divisibility=field("divisibility"),
            codimension=field("codimension"),
            disc_residue=field("disc_residue", lambda r: parse_array(r, parse_int), optional=True),
        ))
    return SignatureTable(orbits=tuple(orbits))


def load_table(path) -> SignatureTable:
    doc = load_json(path)
    try:
        return table_from_dict(doc)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc
