import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcone import linalg
from hkcone.errors import PreconditionError
from hkcone.mukai import (DualMukaiPoint, MukaiPoint, check_diagram, flop, flop_dual, make_point,
                          proportional)

F = Fraction


def random_point(rng, k):
    n = k + 1

    def rand_frac():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    while True:
        u = tuple(rand_frac() for _ in range(n))
        if any(u):
            break
    while True:
        raw = tuple(rand_frac() for _ in range(n))
        shift = sum(p * q for p, q in zip(raw, u)) / sum(c * c for c in u)
        phi = tuple(p - shift * c for p, c in zip(raw, u))
        if any(phi):
            break
    return make_point(u, phi)


class TestMakePoint:
    def test_outer_product(self):
        m = make_point((1, 0), (0, 1))
        assert m.a == ((0, 1), (0, 0))

    def test_zero_covector_gives_zero_section(self):
        m = make_point((2, 3), (0, 0))
        assert all(all(c == 0 for c in row) for row in m.a)

    def test_nonvanishing_pairing_rejected(self):
        with pytest.raises(PreconditionError):
            make_point((1, 0), (1, 0))

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError):
            make_point((0, 0), (0, 1))

    def test_membership_enforced_on_direct_construction(self):
        with pytest.raises(PreconditionError, match="^phi must vanish on u$"):
            MukaiPoint((1, 0), (1, 0))  # A = u phi^t squares to (phi . u) A != 0
        with pytest.raises(PreconditionError, match="^u must be nonzero$"):
            MukaiPoint((0, 0), (0, 1))
        with pytest.raises(PreconditionError, match="^u and phi must have the same length$"):
            MukaiPoint((1, 0), (0, 0, 0))
        with pytest.raises(PreconditionError, match="^u must vanish on phi$"):
            DualMukaiPoint((0, 1), (0, 1))


class TestContract:
    def test_zero_section_to_origin(self):
        m = make_point((1, 2), (0, 0))
        assert m.a == ((0, 0), (0, 0))

    def test_rank_one_output(self):
        m = make_point((1, 0), (0, 1))
        a = m.a
        assert a == ((0, 1), (0, 0))
        assert linalg.rank(a) == 1

    def test_square_zero(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_point(rng, 2).a
            sq = linalg.mat_mul(a, a)
            assert all(all(c == 0 for c in row) for row in sq)


class TestFlop:
    def test_worked_k1_point(self):
        m = make_point((1, 0), (0, 1))
        d = flop(m)
        assert proportional(d.phi, (0, 1))
        assert d.b == ((0, 0), (1, 0))

    def test_zero_section_undefined(self):
        with pytest.raises(PreconditionError):
            flop(make_point((1, 0), (0, 0)))

    def test_kernel_direction_k2(self):
        m = make_point((1, 0, 0), (0, 2, 3))
        assert proportional(flop(m).phi, (0, 2, 3))

    def test_involution(self):
        rng = random.Random(2)
        for k in (1, 2, 3):
            for _ in range(50):
                m = random_point(rng, k)
                back = flop_dual(flop(m))
                assert proportional(back.u, m.u)
                assert back.a == m.a


class TestProportional:
    def test_rationals(self):
        assert proportional((F(1, 2), F(-3, 4)), (2, -3))
        assert not proportional((F(1, 2), 1), (1, 1))
        assert proportional((0, 2, 3), (0, -4, -6))

    @pytest.mark.parametrize("v, w, match", [
        ((0.1, 0.2), (1, 2), "not a rational"),
        ((True, 0), (1, 0), "not a rational"),
        ((1, 2), (1, 2, 3), "same length"),
    ])
    def test_floats_bools_and_lengths_are_preconditions(self, v, w, match):
        with pytest.raises(PreconditionError, match=match):
            proportional(v, w)


class TestDiagram:
    def test_worked_point(self):
        assert check_diagram(make_point((1, 0), (0, 1)))

    def test_scale_invariance(self):
        m1 = make_point((1, 0), (0, 1))
        m2 = make_point((F(7, 3), 0), (0, F(3, 7)))
        assert m1.a == m2.a  # same underlying endomorphism
        assert check_diagram(m1) and check_diagram(m2)
        assert proportional(flop(m1).phi, flop(m2).phi)

    def test_random_points(self):
        rng = random.Random(4)
        for k in (1, 2, 3, 4):
            for _ in range(25):
                assert check_diagram(random_point(rng, k))

    def test_adjoint_identification(self):
        rng = random.Random(5)
        m = random_point(rng, 3)
        assert flop(m).b == linalg.transpose(m.a)


@given(st.integers(1, 3), st.fractions(min_value=F(1, 5), max_value=5),
       st.fractions(min_value=F(1, 5), max_value=5))
@settings(max_examples=60, deadline=None)
def test_projective_invariance(k, su, sphi):
    rng = random.Random(k)
    m = random_point(rng, k)
    scaled = make_point(tuple(su * c for c in m.u), tuple(sphi * c for c in m.phi))
    d1, d2 = flop(m), flop(scaled)
    assert proportional(d1.phi, d2.phi)
    assert check_diagram(scaled)


def _row_covector(u, a):
    """The matrix route's covector: row i0 of A over u[i0], i0 the first nonzero."""
    i0 = next(i for i, c in enumerate(u) if c)
    return tuple(Fraction(a[i0][j]) / u[i0] for j in range(len(u)))


class TestAgainstMatrixRoute:
    """The pair (u, phi) against a slow oracle that stores A = u phi^t and
    re-derives every covector from the rows of A and of its transpose."""

    def test_random_points(self):
        rng = random.Random(6)
        for k in (1, 2, 3, 4):
            for _ in range(40):
                m = random_point(rng, k)
                a = tuple(tuple(ui * pj for pj in m.phi) for ui in m.u)
                phi = _row_covector(m.u, a)
                b = linalg.transpose(a)
                u = _row_covector(phi, b)
                d = flop(m)
                back = flop_dual(d)
                assert m.a == a
                assert d.phi == phi and d.b == b
                assert back.u == u and back.a == linalg.transpose(b)
                assert make_point(m.u, phi) == m
                assert all(type(c) is Fraction for v in (d.phi, back.u) for c in v)

    def test_zero_section(self):
        rng = random.Random(7)
        for k in (1, 2, 3, 4):
            u = tuple(F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(k + 1))
            zero = tuple((0,) * (k + 1) for _ in range(k + 1))
            assert make_point(u, _row_covector(u, zero)) == make_point(u, (0,) * (k + 1))
            assert make_point(u, (0,) * (k + 1)).a == zero
