"""The one rule for exact inputs (rational.parse_frac) at every library
entry point that takes numbers, and optional document fields."""

import re
from fractions import Fraction

import numpy as np
import pytest

from hkcone import cone, fixtures, linalg, mbm, mukai, render, symplectic as sp, torus
from hkcone.errors import PreconditionError
from hkcone.rational import frac_str, integral, parse_field, parse_int, parse_ints

F = Fraction

QUARTIC = fixtures.quartic_lattice()
TABLE = fixtures.orbit_table()
NAMED = fixtures.named_classes()


def _crossings(f):
    return [(s.t, s.wall_class) for s in f.steps]


# Each entry point takes one number c; every other input is fixed.
SITES = {
    "integral": lambda c: integral([c, 1]),
    "cone point": lambda c: cone._integral_cone_point(QUARTIC, (c, 4, -1)),
    "disk point": lambda c: render.klein_coords(QUARTIC, (c, 4, -1)),
    "primitive_rescale": lambda c: mbm.primitive_rescale([c, 1]),
    "elimination row": lambda c: linalg.determinant([[c, 1], [0, 2]]),
    "congruence_diagonalize": lambda c: linalg.congruence_diagonalize([[c, 1], [1, 0]]),
    "make_point": lambda c: mukai.make_point([c, 0], [0, 1]),
    "pairing x": lambda c: QUARTIC.pairing((c, 4, -1), (1, 0, 0)),
    "pairing y": lambda c: QUARTIC.pairing((1, 2, 0), (c, 4, -1)),
    "square": lambda c: QUARTIC.square((c, 4, -1)),
    "pairing_row": lambda c: QUARTIC.pairing_row((c, 4, -1)),
    "symplectic_space": lambda c: sp.symplectic_space([[0, c], [-1, 0]]),
    "subspace": lambda c: sp.subspace([[c, 1]]).basis,
    "pullback_rank": lambda c: sp.pullback_rank(sp.standard_space(1), [[c, 1], [1, 1]]),
    "exact_point": lambda c: torus.exact_point(c, 0),
    "dual_solve": lambda c: mbm.dual_solve(
        QUARTIC, [(NAMED["C"], c), (NAMED["F"], 3), (NAMED["eps"], 1)]),
    "enumerate bound": lambda c: len(cone.enumerate_wall_classes(QUARTIC, TABLE, (4, 4, -1), c)),
    "factor_path bound": lambda c: _crossings(cone.factor_path(
        QUARTIC, TABLE, fixtures.chamber_point(1), fixtures.chamber_point(3), c)),
}

# Results at c = 3 and at c = 3/2.  A numpy integer is read as the int it
# equals, so an int64 bound cannot overflow inside the walk.
ACCEPTED = {
    "integral": (((3, 1), 1), ((3, 2), 2)),
    "cone point": (((3, 4, -1), 1, [6, 9, 4], 50), ((3, 8, -2), 2, [18, 9, 8], 110)),
    "disk point": ((-0.5, -0.23570226039551584), (-0.75, -0.23570226039551584)),
    "primitive_rescale": (((3, 1), F(1)), ((3, 2), F(2))),
    "elimination row": (F(6), F(3)),
    "congruence_diagonalize": ((((1, F(-1, 3)), (0, 1)), (3, F(-1, 3))),
                               (((1, F(-2, 3)), (0, 1)), (F(3, 2), F(-2, 3)))),
    "pairing x": (6, 9),
    "pairing y": (24, 18),
    "square": (50, F(55, 2)),
    "pairing_row": ((6, 9, 4), (9, F(9, 2), 4)),
    "make_point": (mukai.MukaiPoint((3, 0), (0, 1)), mukai.MukaiPoint((F(3, 2), 0), (0, 1))),
    "subspace": (((3, 1),), ((F(3, 2), 1),)),
    "pullback_rank": (2, 2),
    "exact_point": (torus.TorusPoint(F(0), F(0)), torus.TorusPoint(F(1, 2), F(0))),
    "dual_solve": ((1, F(5, 3), F(-5, 4)), (1, F(7, 6), F(-5, 4))),
    "enumerate bound": (11, 8),
    "factor_path bound": ([(F(2, 5), (-4, 0, 1)), (F(3, 4), (-2, 0, 1))],) * 2,
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [0.1, True, np.float64(0.5)], ids=["float", "bool", "float64"])
def test_floats_and_bools_are_rejected(site, value):
    with pytest.raises(PreconditionError, match=re.escape(f"not a rational: {value!r}")):
        SITES[site](value)


@pytest.mark.parametrize("site", ACCEPTED)
@pytest.mark.parametrize("value, index", [(3, 0), (F(3, 2), 1), ("3/2", 1), (np.int64(3), 0)],
                         ids=["int", "Fraction", "string", "int64"])
def test_exact_values_are_accepted(site, value, index):
    assert SITES[site](value) == ACCEPTED[site][index]


def test_symplectic_space_accepts_exact_entries():
    for c, minus in [(3, -3), (F(3, 2), F(-3, 2)), ("3/2", "-3/2"), (np.int64(3), np.int64(-3))]:
        omega = sp.symplectic_space([[0, c], [minus, 0]]).omega
        assert omega == ((0, F(c)), (-F(c), 0))


def test_result_types():
    # Mukai points hold Fractions, whatever the input
    point = mukai.make_point([np.int64(3), 0], [0, "1"])
    assert all(type(c) is F for c in point.u + point.phi)
    # symplectic matrices built from ints hold ints, and Fractions otherwise
    for omega in (sp.standard_space(2).omega, sp.symplectic_space([[0, 2], [-2, 0]]).omega):
        assert all(type(c) is int for row in omega for c in row)
    assert all(type(c) is F for c in sp.subspace([["1/2", np.int64(1)]]).basis[0])
    # the lattice form of ints is an int
    assert type(QUARTIC.pairing((1, 2, 0), (3, 4, -1))) is int
    assert all(type(c) is int for c in QUARTIC.pairing_row((3, 4, -1)))
    # integral gives Python ints, also for numpy integers
    ints, m = integral([np.int64(3), F(1, 2), "1/3"])
    assert ints == (18, 3, 2) and m == 6
    assert all(type(c) is int for c in ints + (m,))


def test_parse_int_keeps_ints():
    big = 10 ** 30
    assert parse_int(big) is big
    assert type(parse_int(np.int64(7))) is int and parse_int(np.int64(7)) == 7
    assert parse_ints([big, np.int64(-2), "8/2", F(6, 3)]) == (big, -2, 4, 2)
    for value in (True, 0.5):
        with pytest.raises(PreconditionError, match=re.escape(f"not a rational: {value!r}")):
            parse_int(value)
    with pytest.raises(PreconditionError, match=re.escape("not an integer: '1/2'")):
        parse_int("1/2")


def test_frac_str_copies_no_fraction(monkeypatch):
    # ints, Fractions and "p/q" strings print in lowest terms, as JSON
    # wire strings; a Fraction is printed as it is, not copied
    values = (3, -4, 0, F(6, 4), F(-5), F(7, -21), "3/6", "-7", np.int64(9))
    want = ["3", "-4", "0", "3/2", "-5", "-1/3", "1/2", "-7", "9"]
    assert [frac_str(v) for v in values] == want
    built = []
    monkeypatch.setattr(F, "__new__", lambda *args, original=F.__new__, **kwargs:
                        built.append(args[1:]) or original(*args, **kwargs))
    assert [frac_str(v) for v in values] == want
    assert len(built) == sum(type(v) is not F for v in values)


class TestOptionalField:
    def test_missing_key(self):
        assert parse_field({}, "k", parse_int, "doc", optional=True) is None

    def test_null_value(self):
        assert parse_field({"k": None}, "k", parse_int, "doc", optional=True) is None

    def test_present_value(self):
        assert parse_field({"k": "8/2"}, "k", parse_int, "doc", optional=True) == 4

    def test_bad_present_value_names_where_and_key(self):
        with pytest.raises(PreconditionError, match=r"^doc: 'k': not an integer: '1/2'$"):
            parse_field({"k": "1/2"}, "k", parse_int, "doc", optional=True)

    def test_required_key_stays_required(self):
        with pytest.raises(PreconditionError, match=r"^doc: 'k': missing$"):
            parse_field({}, "k", parse_int, "doc")
        with pytest.raises(PreconditionError, match=r"^doc: 'k': not a rational: None$"):
            parse_field({"k": None}, "k", parse_int, "doc")

    def test_not_an_object(self):
        with pytest.raises(PreconditionError, match=r"^doc: 'k': expected an object, got \[\]$"):
            parse_field([], "k", parse_int, "doc", optional=True)
