import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcone.errors import PreconditionError
from hkcone.lattice import make_lattice
from hkcone.mbm import (OrbitSignature, SignatureTable, classify, dual_solve, primitive_rescale,
                        table_from_dict)

from conftest import NAMED_ORDER


class TestClassify:
    def test_beta(self, quartic, table, named):
        row = classify(quartic, table, named["beta"])
        assert (row.square, row.divisibility, row.codimension) == (-36, 4, 2)

    def test_gamma(self, quartic, table, named):
        row = classify(quartic, table, named["gamma"])
        assert (row.square, row.divisibility, row.codimension) == (-12, 2, 3)
        assert row.name == "codim3"

    def test_nonnegative_square_rejected(self, quartic, table, named):
        with pytest.raises(PreconditionError):
            classify(quartic, table, named["F"])

    def test_imprimitive_rejected(self, quartic, table):
        with pytest.raises(PreconditionError):
            classify(quartic, table, (2, 0, 0))

    def test_unknown_class_returns_none(self, quartic, table):
        # (1,0,-1): square -6, not in the table
        assert quartic.square((1, 0, -1)) == -6
        assert classify(quartic, table, (1, 0, -1)) is None

    def test_negation_invariance(self, quartic, table):
        rng = random.Random(8)
        for _ in range(200):
            x = tuple(rng.randint(-8, 8) for _ in range(3))
            if math.gcd(*x) != 1 or quartic.square(x) >= 0:
                continue
            neg = tuple(-c for c in x)
            assert classify(quartic, table, x) == classify(quartic, table, neg)

    def test_seven_named_classes_hit_five_rows(self, quartic, table, named):
        rows = [classify(quartic, table, named[n]) for n in NAMED_ORDER]
        assert all(r is not None for r in rows)
        assert len({r.name for r in rows}) == 5

    def test_integral_rational_class(self, quartic, table):
        # (4, 0, -1) with a Fraction entry is the class (4, 0, -1)
        row = classify(quartic, table, (Fraction(4), 0, -1))
        assert row.name == "codim2" and row == classify(quartic, table, (4, 0, -1))

    def test_non_integral_class_rejected(self, quartic, table):
        with pytest.raises(PreconditionError, match="not an integer"):
            classify(quartic, table, (Fraction(3, 2), 1, 0))

    def test_residue_pinned_row(self, quartic, named):
        pinned = table_from_dict({"orbits": [
            {"name": "a", "square": -4, "divisibility": 4, "codimension": 1,
             "disc_residue": [9]},
            {"name": "b", "square": -4, "divisibility": 4, "codimension": 2,
             "disc_residue": [0]},
        ]})
        assert classify(quartic, pinned, named["delta"]).name == "a"

    @pytest.mark.parametrize("x", [(4, 0, -1), (1, 0, 0), (0, 0, 1)])
    def test_malformed_pinned_table_is_rejected_for_every_class(self, quartic, x):
        # (4, 0, -1) matches the pinned row's (square, divisibility), (1, 0, 0)
        # the unpinned row b and (0, 0, 1) no row: each is rejected
        malformed = table_from_dict({"orbits": [
            {"name": "a", "square": -36, "divisibility": 4, "codimension": 2,
             "disc_residue": [1, 2]},
            {"name": "b", "square": -2, "divisibility": 1, "codimension": 1}]})
        with pytest.raises(PreconditionError, match="^" + re.escape(
                "orbit 'a': disc_residue has 2 entries, but the discriminant group has 1 "
                "nontrivial factors") + "$"):
            classify(quartic, malformed, x)

    def test_unpinned_match_reads_no_residue_under_a_pinned_table(self, quartic):
        # with ambient ideals [1, 1, 8], (0, 0, 1) has divisibility 8, which does
        # not divide G x = (0, 0, -4); its residue is read only for a pinned row
        lat = make_lattice(quartic.gram, ambient_ideals=[1, 1, 8])
        rows = [{"name": "a", "square": -36, "divisibility": 4, "codimension": 2,
                 "disc_residue": [0]},
                {"name": "b", "square": -4, "divisibility": 8, "codimension": 1}]
        assert classify(lat, table_from_dict({"orbits": rows}), (0, 0, 1)).name == "b"
        assert classify(lat, table_from_dict({"orbits": rows}), (1, 0, -1)) is None
        rows[1]["disc_residue"] = [0]
        with pytest.raises(PreconditionError,
                           match="^divisibility does not divide the pairing row$"):
            classify(lat, table_from_dict({"orbits": rows}), (0, 0, 1))


class TestTable:
    def test_collision_rejected(self):
        with pytest.raises(PreconditionError):
            table_from_dict({"orbits": [
                {"name": "a", "square": -4, "divisibility": 2, "codimension": 1},
                {"name": "b", "square": -4, "divisibility": 2, "codimension": 3},
            ]})

    def test_duplicate_names_rejected(self):
        with pytest.raises(PreconditionError):
            table_from_dict({"orbits": [
                {"name": "a", "square": -4, "divisibility": 2, "codimension": 1},
                {"name": "a", "square": -2, "divisibility": 1, "codimension": 1},
            ]})

    @pytest.mark.parametrize("row, key", [
        ({"square": -4, "divisibility": 2, "codimension": 1}, "'name'"),
        ({"name": "a", "square": "-4/3", "divisibility": 2, "codimension": 1}, "'square'"),
        ({"name": "a", "square": -4, "divisibility": 2.0, "codimension": 1},
         "'divisibility'"),
        ({"name": "a", "square": -4, "divisibility": 2}, "'codimension'"),
        ({"name": "a", "square": -4, "divisibility": 2, "codimension": 1,
          "disc_residue": ["1/2"]}, "'disc_residue'"),
        (["a", -4, 2, 1], "object"),
    ])
    def test_malformed_row_names_the_key(self, row, key):
        with pytest.raises(PreconditionError, match=f"orbit 0: .*{key}"):
            table_from_dict({"orbits": [row]})

    def test_integer_fields_take_any_integral_rational(self):
        import numpy as np
        row = {"name": "a", "square": "-4", "divisibility": Fraction(4, 2),
               "codimension": np.int64(1), "disc_residue": ["3", 0]}
        orbit = table_from_dict({"orbits": [row]}).orbits[0]
        assert (orbit.square, orbit.divisibility, orbit.codimension) == (-4, 2, 1)
        assert orbit.disc_residue == (3, 0)
        assert all(type(v) is int for v in (orbit.square, *orbit.disc_residue))

    def test_codimension_helpers(self, table):
        codimension = {o.name: o.codimension for o in table.orbits}
        assert codimension["delta"] == 1
        assert codimension["codim2"] == 2
        assert codimension["codim3"] == 3

    def test_positive_square_rejected(self):
        with pytest.raises(PreconditionError):
            OrbitSignature(name="x", square=2, divisibility=1, codimension=1)

    @pytest.mark.parametrize("key, value", [("square", "-2"), ("square", -2.5),
                                            ("divisibility", Fraction(2)), ("codimension", True)])
    def test_direct_build_names_a_field_that_is_not_an_int(self, key, value):
        # the file loaders parse these fields (rational.parse_int); a direct build is checked
        fields = {"name": "x", "square": -2, "divisibility": 1, "codimension": 1, key: value}
        with pytest.raises(PreconditionError,
                           match=f"^orbit 'x': {key} must be an integer, got {re.escape(repr(value))}$"):
            OrbitSignature(**fields)

    def test_direct_build_rejects_a_name_that_is_not_a_string(self):
        with pytest.raises(PreconditionError, match="^orbit name must be a string, got 5$"):
            OrbitSignature(5, -4, 4, 1)

    @pytest.mark.parametrize("residue", [("1",), (1.0,), (True,), 5, "1"])
    def test_direct_build_names_a_residue_that_is_not_ints(self, residue):
        want = f"orbit 'w': disc_residue must be a list of integers, got {residue!r}"
        with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
            OrbitSignature("w", -4, 4, 1, residue)

    def test_classify_never_meets_a_residue_that_is_not_ints(self, quartic):
        # the row is rejected when it is built, not by a TypeError in the table check
        with pytest.raises(PreconditionError, match="^orbit 'w': disc_residue must be"):
            classify(quartic, SignatureTable((OrbitSignature("w", -36, 4, 2, ("1",)),)), (4, 0, -1))

    def test_direct_build_keeps_lists_as_tuples(self):
        orbit = OrbitSignature(name="x", square=-2, divisibility=1, codimension=1, disc_residue=[1])
        assert orbit.disc_residue == (1,) and orbit.key == (-2, 1, (1,))
        assert hash(orbit) == hash(("x", -2, 1, 1, (1,)))
        table = SignatureTable(orbits=[orbit])
        assert table.orbits == (orbit,) and hash(table) == hash(((orbit,),))


class TestDualSolve:
    def test_curve_class_recovery(self, quartic, named):
        x = dual_solve(quartic, [(named["C"], 1), (named["F"], 3), (named["eps"], 1)])
        assert x == (1, 1, Fraction(-5, 4))

    def test_zero_constraints_give_zero(self, quartic, named):
        x = dual_solve(quartic, [(named["C"], 0), (named["F"], 0), (named["delta"], 0)])
        assert x == (0, 0, 0)

    def test_gram_column_identity(self, quartic, named):
        x = dual_solve(quartic, [(named["C"], -2), (named["F"], 3), (named["delta"], 0)])
        assert x == (1, 0, 0)

    def test_roundtrip(self, quartic):
        rng = random.Random(17)
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for _ in range(100):
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            x = dual_solve(quartic, list(zip(basis, values)))
            for cls, v in zip(basis, values):
                assert quartic.pairing(x, cls) == v

    def test_non_spanning_rejected(self, quartic, named):
        with pytest.raises(PreconditionError):
            dual_solve(quartic, [(named["C"], 1), (named["C"], 1)])

    def test_inconsistent_rejected(self, quartic, named):
        with pytest.raises(PreconditionError):
            dual_solve(quartic, [(named["C"], 1), (named["C"], 2),
                                 (named["F"], 0), (named["delta"], 0)])

    def test_consistent_overdetermined_ok(self, quartic, named):
        x = dual_solve(quartic, [(named["C"], 1), (named["F"], 3),
                                 (named["eps"], 1), (named["C"], 1)])
        assert x == (1, 1, Fraction(-5, 4))


class TestPrimitiveRescale:
    def test_zeta(self):
        assert primitive_rescale((1, 1, Fraction(-5, 4))) == ((4, 4, -5), 4)

    def test_downscale(self):
        assert primitive_rescale((2, 0, 0)) == ((1, 0, 0), Fraction(1, 2))

    def test_fractional(self):
        assert primitive_rescale((0, Fraction(4, 3), 0)) == ((0, 1, 0), Fraction(3, 4))

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            primitive_rescale((0, 0, 0))

    @given(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
           st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, y, k):
        if not any(y):
            return
        g = 0
        from math import gcd
        for c in y:
            g = gcd(g, c)
        y = tuple(c // g for c in y)
        got, scale = primitive_rescale(tuple(Fraction(c, k) for c in y))
        assert got == y and scale == k


class TestClassLength:
    @pytest.mark.parametrize("x", [(4, 0), (4, 0, -1, 0)])
    def test_classify_says_dimension_mismatch(self, quartic, table, x):
        # (4, 0) is not primitive, but its length is what is wrong with it
        with pytest.raises(PreconditionError, match="dimension mismatch") as info:
            classify(quartic, table, x)
        assert "primitive" not in str(info.value)
