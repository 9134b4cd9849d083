"""Integral lattices with exact pairing, divisibility and discriminant data.

The pairing is the symmetric bilinear form given by an integer Gram
matrix.  All arithmetic is exact: integers and Fractions only; wall
incidence and primitivity are discrete questions and must not be
decided in floating point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import PreconditionError, Record
from .rational import (load_json, parse_array, parse_exact, parse_field, parse_frac, parse_int,
                       parse_ints, parse_str)


class DiscriminantGroup(Record):
    """Cokernel of the Gram matrix in invariant-factor form.

    ``invariant_factors`` lists the factors d_1 | d_2 | ... that exceed 1.
    ``transform`` holds the matching rows of the unimodular U of the
    Smith normal form U G V = D; it maps integer dual-basis coordinates
    to residue tuples.  The trivial factors and their rows are not kept.
    """

    invariant_factors: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]


class IntegralLattice(Record):
    gram: tuple[tuple[int, ...], ...]
    basis_names: tuple[str, ...]
    ambient_ideals: tuple[int, ...] | None = None
    fujiki_constant: Fraction | None = None  # metadata only, never computed with

    def __post_init__(self):
        # sequences are kept as tuples, so that a lattice built from lists compares and hashes
        try:
            gram = linalg.mat(self.gram)
        except TypeError:
            raise PreconditionError("gram must be a square integer matrix") from None
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if n < 1:
            raise PreconditionError("rank must be >= 1")
        for row in gram:
            if len(row) != n or not all(type(x) is int for x in row):
                raise PreconditionError("gram must be a square integer matrix")
        if gram != linalg.transpose(gram):
            raise PreconditionError("gram must be symmetric")
        names = self.basis_names
        if hasattr(names, "__iter__") and not isinstance(names, str):  # a bare string is not split
            names = tuple(names)
            object.__setattr__(self, "basis_names", names)
        if not isinstance(names, tuple) or not all(isinstance(name, str) for name in names):
            raise PreconditionError(f"basis_names must be a sequence of strings, got {names!r}")
        if len(names) != n:
            raise PreconditionError("basis_names length must equal rank")
        if len(set(names)) != n:
            dup = next(name for name in names if names.count(name) > 1)
            raise PreconditionError(f"basis_names must be unique; {dup!r} repeats")
        if (ideals := self.ambient_ideals) is not None:
            ideals = tuple(ideals) if hasattr(ideals, "__iter__") else ()  # () has the wrong length
            object.__setattr__(self, "ambient_ideals", ideals)
            if len(ideals) != n or not all(type(a) is int and a > 0 for a in ideals):
                raise PreconditionError("ambient_ideals must be positive integers, one per basis vector")
        if self.fujiki_constant is not None:
            try:
                object.__setattr__(self, "fujiki_constant", parse_frac(self.fujiki_constant))
            except PreconditionError as exc:
                raise PreconditionError(f"fujiki_constant: {exc}") from None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, x, y):
        return linalg.dot(self.pairing_row(x), parse_exact(y))

    def square(self, x):
        return self.pairing(x, x)

    def check_length(self, v: tuple) -> tuple:
        """v, checked to have one entry per basis vector."""
        if len(v) != self.rank:
            raise PreconditionError(
                f"dimension mismatch: expected {self.rank} coordinates, got {len(v)}")
        return v

    def pairing_row(self, x) -> tuple:
        """G x, the pairings of x with the basis vectors; x follows rational.parse_exact."""
        return linalg.mat_vec(self.gram, parse_exact(x))

    def primitive_class(self, x) -> tuple[int, ...]:
        """The class x as ints, checked for length, then zero, then primitivity."""
        v = self.check_length(parse_ints(x))
        if all(c == 0 for c in v):
            raise PreconditionError("zero vector")
        if math.gcd(*v) != 1:
            raise PreconditionError("class must be primitive")
        return v

    def divisibility(self, x) -> int:
        """Positive generator of the pairing ideal of x.

        With no ambient data this is the ideal against this lattice:
        gcd of the pairings with the basis vectors.  When the lattice is
        a sublattice of a bigger one, that ideal can shrink; the optional
        per-basis-vector ambient_ideals record the generator of each basis
        vector's pairing ideal in the ambient lattice, and the divisibility
        becomes gcd_i(ambient_i * x_i).
        """
        return self.class_divisibility(self.check_length(parse_ints(x)))

    def class_divisibility(self, v) -> int:
        """``divisibility`` of an int tuple v of the right length."""
        if all(c == 0 for c in v):
            raise PreconditionError("zero vector")
        g = pairing_ideal(self.gram, self.ambient_ideals, v)
        if g == 0:
            raise PreconditionError("vector pairs to zero with the whole lattice")
        return g

    def discriminant_group(self) -> DiscriminantGroup:
        return _discriminant_group(self.gram)

    def residues(self, row, d) -> tuple[int, ...]:
        """Residues of x/d, U (G x / d) mod the invariant factors, folded by
        sign (``fold_residue``): x and -x describe the same wall.  ``row`` is
        the pairing row G x of a class x and d divides it; the row must hold
        one int per basis vector and d must be a positive int, as the Gram
        matrix and the ambient ideals are checked.  The check that d divides
        the row comes before the group is read."""
        if not all(type(p) is int for p in self.check_length(row)):
            raise PreconditionError(f"the pairing row must hold integers, got {row!r}")
        if type(d) is not int or d < 1:
            raise PreconditionError(f"d must be a positive integer, got {d!r}")
        if any(p % d for p in row):
            raise PreconditionError("divisibility does not divide the pairing row")
        disc = self.discriminant_group()
        return fold_residue([sum(map(mul, u, row)) // d for u in disc.transform],
                            disc.invariant_factors)

    def signature(self) -> tuple[int, int, int]:
        """Inertia (n_plus, n_minus, n_zero) by exact congruence diagonalization."""
        _t, diag = _congruence(self.gram)
        plus = sum(1 for d in diag if d > 0)
        minus = sum(1 for d in diag if d < 0)
        return plus, minus, len(diag) - plus - minus

    def diagonalize(self):
        """(T, diag) with T^t G T = diag(diag), exact rationals.

        For Lorentzian input (one positive inertia index) the positive
        entry is listed first.
        """
        t, diag = _congruence(self.gram)
        if any(d == 0 for d in diag):
            raise PreconditionError("degenerate lattice")
        positives = [i for i, d in enumerate(diag) if d > 0]
        if len(positives) == 1 and positives[0] != 0:
            p = positives[0]
            order = [p] + [i for i in range(self.rank) if i != p]
            t = tuple(tuple(row[i] for i in order) for row in t)
            diag = tuple(diag[i] for i in order)
        return t, diag


# Keyed by the Gram matrix, not by the lattice: a dropped lattice is
# freed, lattices with one Gram matrix share the work (every CLI call
# loads its lattice file again), and the bound caps what a long-lived
# process keeps.  The Smith form is computed once per Gram matrix, here:
# the discriminant group and cone's sublattices L_d both read it.
@functools.lru_cache(maxsize=256)
def _smith_form(gram):
    return linalg.smith_normal_form(gram)


@functools.lru_cache(maxsize=256)
def _discriminant_group(gram) -> DiscriminantGroup:
    u, d, _v = _smith_form(gram)
    factors = [d[i][i] for i in range(len(gram))]
    if not factors[-1]:  # an invariant factor 0: the Gram matrix is singular
        raise PreconditionError("degenerate lattice")
    ones = factors.count(1)  # d_1 | d_2 | ...: the trivial factors come first
    return DiscriminantGroup(invariant_factors=tuple(factors[ones:]), transform=u[ones:])


@functools.lru_cache(maxsize=256)
def _congruence(gram):
    return linalg.congruence_diagonalize(gram)


def pairing_ideal(gram, ambient_ideals, v: tuple[int, ...]) -> int:
    """The divisibility rule on a checked integer tuple v (0 if v pairs to
    zero with everything): gcd_i(ambient_i * v_i) with ambient ideals, else
    the gcd of G v, by integer dots.  ``IntegralLattice.divisibility`` parses
    and checks its argument first; the wall enumeration, whose candidates
    are integer tuples of the right length already, calls this.
    """
    return math.gcd(*map(mul, ambient_ideals, v)) if ambient_ideals else \
        math.gcd(*(sum(map(mul, row, v)) for row in gram))


def fold_residue(r, factors) -> tuple[int, ...]:
    """r reduced into [0, f) entry by entry, or -r so reduced, whichever
    tuple is smaller: the form ``residues`` returns, which a pinned
    ``disc_residue`` must have to match."""
    plus = tuple(c % f for c, f in zip(r, factors))
    return min(plus, tuple(-c % f for c, f in zip(plus, factors)))


def mod_four_class(lattice: IntegralLattice, x) -> int:
    """Reduction mod 4 of the last discriminant residue, folded by sign.

    Returns 0, 1 or 2, standing for the classes 0, +-1 and 2 (mod 4); 0
    when the discriminant group is trivial.  The reduction is well
    defined only when the last invariant factor is divisible by 4 (the
    bundled quartic-K3 data has group Z/36); any other factor is a
    PreconditionError, raised before x is read.
    """
    read = mod_four_reader(lattice)
    v = lattice.primitive_class(x)
    return read(linalg.mat_vec(lattice.gram, v), lattice.class_divisibility(v))


def mod_four_reader(lattice: IntegralLattice):
    """The map (G x, d(x)) -> ``mod_four_class`` of x, reading the group and
    checking its last factor once.  A read checks that d divides G x and
    takes one dot product, with the group's last row u: 4 divides the last
    factor, so u . (G x / d) mod 4, folded by sign, is the class."""
    disc = lattice.discriminant_group()
    if disc.invariant_factors and disc.invariant_factors[-1] % 4:
        raise PreconditionError("residue mod 4 needs the last invariant factor divisible by 4; "
                                f"got {disc.invariant_factors[-1]}")
    u = disc.transform[-1] if disc.transform else ()  # a trivial group reads 0

    def read(row, d) -> int:
        if any(p % d for p in row):
            raise PreconditionError("divisibility does not divide the pairing row")
        m = sum(map(mul, u, row)) // d % 4
        return min(m, 4 - m)

    return read


def make_lattice(gram, basis_names=None, ambient_ideals=None,
                 fujiki_constant=None) -> IntegralLattice:
    gram = linalg.mat(gram)
    if basis_names is None:
        basis_names = tuple(f"e{i + 1}" for i in range(len(gram)))
    return IntegralLattice(
        gram=gram,
        basis_names=basis_names,
        ambient_ideals=ambient_ideals,
        fujiki_constant=fujiki_constant,
    )


def lattice_from_dict(doc: dict, where: str = "lattice document") -> IntegralLattice:
    """Read a lattice document; every error names where and the key.

    Integer entries follow the one rule for document integers
    (rational.parse_int); basis_names must be an array of strings.
    """
    gram = parse_field(doc, "gram", lambda v: parse_array(v, lambda row: parse_array(row, parse_int)),
                       where)
    basis_names = parse_field(doc, "basis_names", lambda v: parse_array(v, parse_str), where,
                              optional=True)
    ambient_ideals = parse_field(doc, "ambient_ideals", lambda v: parse_array(v, parse_int), where,
                                 optional=True)
    fujiki_constant = parse_field(doc, "fujiki_constant", parse_frac, where, optional=True)
    try:
        return make_lattice(gram, basis_names, ambient_ideals, fujiki_constant)
    except PreconditionError as exc:
        raise PreconditionError(f"{where}: {exc}") from exc


def load_lattice(path) -> IntegralLattice:
    return lattice_from_dict(load_json(path), str(path))
