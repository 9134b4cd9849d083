import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcone import linalg, mukai
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

    def test_flops_relabel_the_checked_pair(self, monkeypatch):
        checked = []
        original = mukai._check_pair
        monkeypatch.setattr(mukai, "_check_pair",
                            lambda *args: checked.append(args[2]) or original(*args))
        point = make_point((F(1, 2), F(-1, 3), 2), (2, 3, 0))
        image = flop(point)
        back = flop_dual(image)
        assert checked == [("u", "phi")]  # make_point's only
        # the relabelled points equal the checked constructions, forms included
        direct = DualMukaiPoint(point.phi, point.u)
        assert (image, image.forms) == (direct, direct.forms)
        assert (back, back.forms) == (point, point.forms)
        assert image.b == linalg.transpose(point.a) and back.a == point.a
        assert checked == [("u", "phi"), ("phi", "u")]  # direct constructors still check
        with pytest.raises(PreconditionError, match="^flop is undefined on the zero section$"):
            flop(make_point((1, 0), (0, 0)))
        with pytest.raises(PreconditionError, match="^flop is undefined on the zero section$"):
            flop_dual(DualMukaiPoint((0, 1), (0, 0)))
        with pytest.raises(PreconditionError, match="^u must be nonzero$"):
            MukaiPoint((0, 0), (0, 1))

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


class TestIntegralForms:
    """A point checks its pair on the integral forms of u and phi, which it keeps."""

    @pytest.mark.parametrize("cls, first, second", [
        (MukaiPoint, "u", "phi"), (DualMukaiPoint, "phi", "u")])
    @pytest.mark.parametrize("bad", [0.5, True, 1.0])
    def test_floats_and_bools_are_rejected_naming_the_vector(self, cls, first, second, bad):
        with pytest.raises(PreconditionError, match=rf"^{first}: not a rational: {bad!r}$"):
            cls((bad, 0), (0, 1))
        with pytest.raises(PreconditionError, match=rf"^{second}: not a rational: {bad!r}$"):
            cls((1, 0), (0, bad))

    @pytest.mark.parametrize("cls, first, second", [
        (MukaiPoint, "u", "phi"), (DualMukaiPoint, "phi", "u")])
    @pytest.mark.parametrize("bad", ["1", "0", "1/2"])
    def test_strings_are_rejected_naming_the_vector(self, cls, first, second, bad):
        with pytest.raises(PreconditionError, match=rf"^{first}: not a rational: {bad!r}$"):
            cls((bad, 1), (0, 0))
        with pytest.raises(PreconditionError, match=rf"^{second}: not a rational: {bad!r}$"):
            cls((1, 0), (0, bad))

    def test_strings_are_parsed_only_by_make_point(self):
        point = make_point(("1", "0"), ("0", "1"))
        assert point == make_point((1, 0), (0, 1)) == MukaiPoint((F(1), F(0)), (F(0), F(1)))
        assert all(type(c) is F for c in point.u + point.phi)
        with pytest.raises(PreconditionError, match=r"^u: not a rational: '1'$"):
            MukaiPoint(("1", "0"), ("0", "1"))
        # a string zero section is rejected when built, before flop could read it
        with pytest.raises(PreconditionError, match=r"^phi: not a rational: '0'$"):
            MukaiPoint((1, 0), ("0", "0"))
        with pytest.raises(PreconditionError, match="^flop is undefined on the zero section$"):
            flop(make_point(("1", "0"), ("0", "0")))

    @pytest.mark.parametrize("cls", [MukaiPoint, DualMukaiPoint])
    def test_ints_and_fractions_still_build(self, cls):
        for marked, cov in [((1, 0), (0, 1)), ((F(1, 2), F(-1, 3)), (F(2), F(3))),
                            ((3, F(1, 2)), (F(1, 6), -1))]:
            point = cls(marked, cov)
            matrix = point.a if cls is MukaiPoint else point.b
            assert matrix == tuple(tuple(F(x) * F(y) for y in cov) for x in marked)
            assert all(type(c) is F for row in matrix for c in row)
            assert point == cls(tuple(map(F, marked)), tuple(map(F, cov)))

    def test_forms_are_kept_and_not_compared(self):
        point = make_point((F(1, 2), F(-1, 3), 2), (2, 3, 0))
        assert point.forms == (((3, -2, 12), 6), ((2, 3, 0), 1))
        assert point.a is point.a  # built once
        assert "forms" not in repr(point)
        assert point == make_point((F(1, 2), F(-1, 3), 2), (2, 3, 0))
        assert hash(point) == hash(make_point((F(1, 2), F(-1, 3), 2), (2, 3, 0)))


def _sympy_outer(u, phi):
    """u phi^t by sympy, entries back as Fractions."""
    m = sympy.Matrix(u) * sympy.Matrix(phi).T
    return tuple(tuple(F(int(e.p), int(e.q)) for e in m.row(i)) for i in range(m.rows))


def _wide_frac(rng):
    """A Fraction with a denominator up to 10^12, zero one time in four."""
    if rng.random() < 0.25:
        return F(0)
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))


def _wide_pair(rng, k, vanishing):
    """(u, phi) in Q^(k+1) from _wide_frac, u != 0; if ``vanishing``,
    phi(u) = 0 by solving for phi at the first nonzero entry of u."""
    while True:
        u = [_wide_frac(rng) for _ in range(k + 1)]
        if any(u):
            break
    phi = [_wide_frac(rng) for _ in range(k + 1)]
    if vanishing:
        i0 = next(i for i, c in enumerate(u) if c)
        phi[i0] = 0
        phi[i0] = -sum(p * c for p, c in zip(phi, u)) / u[i0]
    return u, phi


class TestAgainstSympy:
    """The integral forms against sympy's exact outer product, on Fractions
    with negative and zero entries and denominators up to 10^12."""

    def test_matrices_and_diagram(self):
        rng = random.Random(27)
        for k in range(1, 7):
            for _ in range(12):
                u, phi = _wide_pair(rng, k, vanishing=True)
                if not any(phi):
                    continue
                p = make_point(u, phi)
                d = flop(p)
                back = flop_dual(d)
                a = _sympy_outer(u, phi)
                for got, want in [(p.a, a), (d.b, _sympy_outer(phi, u)), (back.a, a)]:
                    assert got == want
                    assert all(type(c) is F for row in got for c in row)
                assert check_diagram(p)
                assert d.b == linalg.transpose(a)

    def test_pair_check_rejects_exactly_the_nonvanishing_pairs(self):
        rng = random.Random(28)
        verdicts = []
        for k in range(1, 7):
            for j in range(40):
                u, phi = _wide_pair(rng, k, vanishing=j % 2 == 1)
                vanishes = sum(p * c for p, c in zip(phi, u)) == 0
                try:
                    MukaiPoint(tuple(u), tuple(phi))
                    accepted = True
                except PreconditionError as exc:
                    assert str(exc) == "phi must vanish on u"
                    accepted = False
                assert accepted == vanishes
                verdicts.append(vanishes)
        assert 100 < sum(verdicts) < 240
