import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import floor, gcd, isqrt, lcm, prod

import numpy as np
import pytest

from hkcone import fixtures, linalg
from hkcone import cone as cone_module
from hkcone import lattice as lattice_module
from hkcone import render as render_module
from hkcone.cone import (STATUS_DIVISORIAL, STATUS_OK, STATUS_REGULAR, FlopFactorization,
                         WallCrossing, _distinct_crossings, _ellipsoid_slices, _fix_endpoint,
                         _integral_cone_point, _majorant, _short_shift, _sides, _strict_crossings,
                         _sublattice, _walls, enumerate_wall_classes, factor_path,
                         factorization_report, group_hu_yau)
from hkcone.errors import InvariantError, PreconditionError
from hkcone.lattice import make_lattice
from hkcone.mbm import OrbitSignature, SignatureTable, classify, primitive_rescale
from hkcone.rational import integral
from hkcone.render import build_scene
from test_lattice import discriminant_image_two_pass

F = Fraction

def random_positive_definite(rng, m):
    b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    return [[sum(r[i] * r[j] for r in b) + (i == j) for j in range(m)] for i in range(m)]


def schur_chain(a):
    """t[i] = det A[:i,:i] times the Schur complement of A[:i,:i] in A."""
    t = [a]
    for i in range(1, len(a)):
        prev = t[-1]
        dp = t[-2][0][0] if i > 1 else 1
        t.append([[(prev[0][0] * prev[r][c] - prev[r][0] * prev[0][c]) // dp
                   for c in range(1, len(prev))] for r in range(1, len(prev))])
    return t


def ellipsoid_slices_schur(a, budget):
    """The Fincke-Pohst walk on its own Schur chain: the oracle for
    cone._ellipsoid_slices, which reads linalg's Bareiss rows."""
    m = len(a)
    t = schur_chain(a)
    y = [0] * m

    def walk(i, v, zero):
        row = t[i][0]
        d = row[0]
        dp = t[i - 1][0][0] if i else 1
        beta = sum(row[j - i] * y[j] for j in range(i + 1, m))
        r = isqrt(dp * (d * budget - v))
        hi = (r - beta) // d
        lo = -((r + beta) // d)
        if zero:
            lo = 0 if i else 1
        if i == 0:
            if lo <= hi:
                yield tuple(y[1:]), lo, hi
            return
        for yi in range(lo, hi + 1):
            y[i] = yi
            u = d * yi + beta
            yield from walk(i - 1, (u * u + dp * v) // d, zero and yi == 0)
        y[i] = 0

    return walk(m - 1, 0, True)


M1 = (2, F(3, 2), -1)
M2 = (1, 1, F(-3, 5))
M3 = (1, 1, F(-1, 4))
M4 = (1, 2, F(-5, 4))


def oracle_scan(lattice, table, base, bound, box):
    """Independent brute force over the coordinate box |c_i| <= box."""
    g_mat = np.array(lattice.gram, dtype=np.int64)
    p = np.array([int(c) for c in base], dtype=np.int64)
    g = int(p @ g_mat @ p)
    gp = g_mat @ p
    r = np.arange(-box, box + 1, dtype=np.int64)
    grids = np.meshgrid(*([r] * lattice.rank), indexing="ij")
    x = np.stack(grids, axis=-1).reshape(-1, lattice.rank)
    s = np.einsum("ij,jk,ik->i", x, g_mat, x)
    t = x @ gp
    squares = np.array(sorted({o.square for o in table.orbits}), dtype=np.int64)
    region = bound.denominator * t * t <= bound.numerator * (-s) * g
    canon = np.zeros(len(x), dtype=bool)
    undecided = np.ones(len(x), dtype=bool)
    for col in range(lattice.rank):
        canon |= undecided & (x[:, col] > 0)
        undecided &= x[:, col] == 0
    prim = np.gcd.reduce(np.abs(x), axis=1) == 1
    if lattice.ambient_ideals is not None:
        ideals = np.array(lattice.ambient_ideals, dtype=np.int64)
        div = np.gcd.reduce(np.abs(x) * ideals[None, :], axis=1)
    else:
        div = np.gcd.reduce(np.abs(x @ g_mat), axis=1)
    rows = {(o.square, o.divisibility): o for o in table.orbits
            if o.disc_residue is None}
    hits = []
    for i in np.nonzero(np.isin(s, squares) & region & canon & prim)[0]:
        key = (int(s[i]), int(div[i]))
        if key in rows:
            hits.append((tuple(int(c) for c in x[i]), rows[key]))
    hits.sort(key=lambda item: item[0])
    return hits


def enumeration_box(lattice, base, bound, squares):
    """Per-coordinate bounds containing every candidate wall class.

    Splitting x against the base point p, the region inequality
    q(x,p)^2 <= B |q(x)| q(p) together with a fixed square q(x) = s
    bounds the positive definite majorant 2 q(x,p)^2/q(p) - q(x) by
    (2B + 1) max|s|, and the box follows from the inverse of the
    majorant's Gram matrix.
    """
    p = primitive_rescale(_integral_cone_point(lattice, base)[0])[0]
    g = lattice.square(p)
    gp = lattice.pairing_row(p)
    scaled = _majorant(gp, gp, g, lattice.gram)
    cap = (2 * Fraction(bound) + 1) * max(abs(s) for s in squares)
    inv = linalg.invert(scaled)
    return tuple(isqrt(floor(cap * g * inv[i][i])) for i in range(lattice.rank))


def canonical_box(bounds):
    """Nonzero integer vectors in the box, first nonzero coordinate positive.

    Grouped by the position k of the first nonzero coordinate: zeros
    before it, 1..bounds[k] at it, the full range after it.
    """
    for k in range(len(bounds)):
        yield from itertools.product(*([(0,)] * k), range(1, bounds[k] + 1),
                                     *(range(-b, b + 1) for b in bounds[k + 1:]))


def box_scan(lattice, table, base, bound):
    """The exact box scan: every canonical point of ``enumeration_box``
    through the same filters as ``enumerate_wall_classes``."""
    p = [int(c) for c in base]
    g = lattice.square(p)
    squares = set(table.squares)
    found = []
    for x in canonical_box(enumeration_box(lattice, base, bound, squares)):
        s = lattice.square(x)
        if s not in squares:
            continue
        t = lattice.pairing(x, p)
        if t * t > bound * (-s) * g or gcd(*x) != 1:
            continue
        d = lattice.divisibility(x)
        row = table.match(s, d, lambda: lattice.residues(lattice.pairing_row(x), d))
        if row is not None:
            found.append((x, row))
    found.sort(key=lambda item: item[0])
    return found


# U + <-2> and U + <-2> + <-4>: hyperbolic coordinates have G_kk = 0
U2 = make_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
U24 = make_lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -4]])
U_TABLE = SignatureTable(orbits=tuple(
    OrbitSignature(name=f"m{-sq}d{d}", square=sq, divisibility=d,
                   codimension=1 if sq == -2 else 2)
    for sq, ds in ((-2, (1, 2)), (-4, (1, 2, 4))) for d in ds))


def segment_walls(lattice, table, a, b):
    """The walls that meet the closed segment [a, b], for integral a and b
    in one component of the cone: ``_walls`` of rho = 0 on G a and G b."""
    ga, gb = _sides(lattice.gram, a), _sides(lattice.gram, b)
    return _walls(lattice, table, ga, gb, linalg.dot(a, gb), 0)


def spy_on_walks(monkeypatch):
    """Lists that record, while the test runs, the second pairing row G b
    and q(a, b) of every ``_walls`` call and the verdict of every
    ``_short_shift``."""
    walks, certified = [], []
    monkeypatch.setattr(cone_module, "_walls",
                        lambda *args: walks.append((tuple(args[3]), args[4])) or _walls(*args))
    monkeypatch.setattr(cone_module, "_short_shift",
                        lambda *args: certified.append(_short_shift(*args)) or certified[-1])
    return walks, certified


class TestSameComponent:
    """Two cone points lie in one component iff factor_path accepts them."""

    def test_positive_pairing(self, quartic, table):
        factor_path(quartic, table, (4, 4, -1), (1, 1, 0), fixtures.PATH_BOUND)

    def test_antipodal(self, quartic, table):
        with pytest.raises(PreconditionError, match="different components"):
            factor_path(quartic, table, (4, 4, -1), (-4, -4, 1), fixtures.PATH_BOUND)

    def test_reflexive(self, quartic, table):
        factor_path(quartic, table, (4, 4, -1), (4, 4, -1), fixtures.PATH_BOUND)

    def test_requires_lorentzian(self, table):
        for lat, p, q in [(make_lattice([[2, 0], [0, 2]]), (1, 0), (0, 1)),
                          (make_lattice([[1, 0], [0, 1]]), (0, 1), (0, 1)),
                          (make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), (0, 1, 0),
                           (0, 1, 0))]:
            with pytest.raises(PreconditionError, match="signature"):
                factor_path(lat, table, p, q, fixtures.PATH_BOUND)


class TestEnumerate:
    def test_contains_all_named_classes(self, quartic, table, named):
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND)
        classes = {x for x, _ in walls}
        for name in ["delta", "alpha", "eps", "beta", "eta", "zeta", "gamma"]:
            assert named[name] in classes

    def test_tiny_bound_is_empty(self, quartic, table):
        assert enumerate_wall_classes(quartic, table, (4, 4, -1), F(1, 1000)) == []

    def test_restricted_table(self, quartic, table, named):
        sub = SignatureTable(orbits=tuple(o for o in table.orbits if o.name == "codim3"))
        walls = enumerate_wall_classes(quartic, sub, (4, 4, -1), fixtures.ENUM_BOUND)
        assert walls
        for x, sig in walls:
            assert quartic.square(x) == -12
            assert quartic.divisibility(x) == 2
        assert named["gamma"] in {x for x, _ in walls}

    def test_sorted_and_deterministic(self, quartic, table):
        w1 = enumerate_wall_classes(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND)
        w2 = enumerate_wall_classes(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND)
        assert w1 == w2
        assert [x for x, _ in w1] == sorted(x for x, _ in w1)

    def test_region_inequality_holds(self, quartic, table):
        base = (4, 4, -1)
        qb = quartic.square(base)
        for x, _ in enumerate_wall_classes(quartic, table, base, fixtures.ENUM_BOUND):
            t = quartic.pairing(x, base)
            assert t * t <= fixtures.ENUM_BOUND * abs(quartic.square(x)) * qb

    def test_agrees_with_box_oracle(self, quartic, table):
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND)
        oracle = oracle_scan(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND, 40)
        assert [(x, sig.name) for x, sig in walls] == [(x, sig.name) for x, sig in oracle]

    def test_random_lorentzian_completeness(self, table):
        rng = random.Random(42)
        # (rank, lattices, entry span, vector reach, oracle margin).  Above
        # rank 3 a uniform Gram draw is rarely Lorentzian and its boxes are
        # far too big for the oracle, so the diagonal is redrawn with signs
        # (+, -, ..., -) to dominate off-diagonal entries of at most 1.  The
        # oracle grid (2 (max(box) + margin) + 1)^rank must stay under 10^6
        # points, and the margins keep the test near 2 s.
        for rank, wanted, span, reach, margin in [(3, 13, 10, 4, 5), (4, 5, 1, 2, 3),
                                                  (5, 3, 1, 2, 1)]:
            tested = 0
            while tested < wanted:
                gram = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i, rank):
                        gram[i][j] = gram[j][i] = rng.randint(-span, span)
                if rank > 3:
                    for i in range(rank):
                        gram[i][i] = rng.randint(2, 6) * (1 if i == 0 else -1)
                lat = make_lattice(gram)
                if linalg.determinant(gram) == 0 or lat.signature() != (1, rank - 1, 0):
                    continue
                base = None
                for _ in range(50):
                    cand = tuple(rng.randint(-reach, reach) for _ in range(rank))
                    if any(cand) and lat.square(cand) > 0:
                        base = cand
                        break
                if base is None:
                    continue
                pairs = set()
                for _ in range(200):
                    v = tuple(rng.randint(-reach, reach) for _ in range(rank))
                    if not any(v) or lat.square(v) >= 0:
                        continue
                    if gcd(*v) != 1:
                        continue
                    pairs.add((int(lat.square(v)), lat.divisibility(v)))
                    if len(pairs) >= 3:
                        break
                if not pairs:
                    continue
                rows = tuple(OrbitSignature(name=f"o{i}", square=s, divisibility=d,
                                            codimension=(i % 3) + 1)
                             for i, (s, d) in enumerate(sorted(pairs)))
                sub = SignatureTable(orbits=rows)
                bound = F(1)
                box = enumeration_box(lat, base, bound, [r.square for r in rows])
                if (2 * (max(box) + margin) + 1) ** rank > 10 ** 6:
                    continue
                walls = enumerate_wall_classes(lat, sub, base, bound)
                oracle = oracle_scan(lat, sub, base, bound, max(box) + margin)
                assert [(x, sig.name) for x, sig in walls] == \
                    [(x, sig.name) for x, sig in oracle]
                tested += 1

    @pytest.mark.parametrize("bounds", [(0, 2, 0), (3,), (0, 0, 1), (0,), (2, 0, 3),
                                        (1, 2, 0, 1)])
    def test_canonical_box_against_full_box(self, bounds):
        got = list(canonical_box(bounds))
        full = itertools.product(*(range(-b, b + 1) for b in bounds))
        want = {x for x in full if any(x) and next(c for c in x if c) > 0}
        assert len(got) == len(set(got))
        assert set(got) == want
        assert not any(all(c == 0 for c in x) for x in got)

    def test_bad_bound_rejected(self, quartic, table):
        with pytest.raises(PreconditionError):
            enumerate_wall_classes(quartic, table, (4, 4, -1), 0)

    def test_quartic_b100_against_box_scan(self, quartic, table):
        assert enumerate_wall_classes(quartic, table, (4, 4, -1), 100) == \
            box_scan(quartic, table, (4, 4, -1), F(100))

    @pytest.mark.parametrize("lat, base", [(U2, (3, 1, 0)), (U2, (5, 2, 1)),
                                           (U24, (3, 1, 0, 0)), (U24, (4, 2, 1, 1))])
    @pytest.mark.parametrize("bound", [F(1), F(3), F(8), F(7, 3)])
    def test_hyperbolic_solved_coordinate(self, lat, base, bound):
        # The solved coordinate is the one of least majorant diagonal; for
        # these bases it is e (index 0), where G_kk = 0, so q(x) = s is
        # linear in x_0 with slope 2 x_1.  Prefixes with x_1 = 0 make it
        # vanish altogether, and the ellipsoid slice is scanned.
        gp = lat.pairing_row(base)
        mt = _majorant(gp, gp, lat.square(base), lat.gram)
        assert min(range(lat.rank), key=lambda i: mt[i][i]) == 0
        walls = enumerate_wall_classes(lat, U_TABLE, base, bound)
        box = enumeration_box(lat, base, bound, U_TABLE.squares)
        oracle = oracle_scan(lat, U_TABLE, base, bound, max(box) + 1)
        assert [(x, sig.name) for x, sig in walls] == [(x, sig.name) for x, sig in oracle]
        if bound == 8:
            assert any(x[1] == 0 and x[0] != 0 for x, _ in walls)

    @pytest.mark.parametrize("gram, base, wall, bound", [
        ([[-1, 1, 0], [1, 3, 2], [0, 2, -1]], (0, 2, 2), (1, -3, 2), 3),
        ([[1, 4, 2], [4, 3, 3], [2, 3, 2]], (1, 3, -3), (3, 4, -7), 1),
        ([[-4, 3, 0], [3, -1, -3], [0, -3, 3]], (-3, -3, 0), (5, 5, 1), 2)])
    def test_wall_on_the_region_boundary(self, gram, base, wall, bound):
        # q(x, p)^2 = B |q(x)| q(p) for the wall, and its prefix lies on the
        # boundary of the projected ellipsoid: one less in the budget drops it
        lat = make_lattice(gram)
        s = lat.square(wall)
        assert lat.pairing(wall, base) ** 2 == bound * -s * lat.square(base)
        sub = SignatureTable(orbits=(OrbitSignature(name="w", square=s,
                                                    divisibility=lat.divisibility(wall),
                                                    codimension=2),))
        walls = enumerate_wall_classes(lat, sub, base, bound)
        assert wall in {x for x, _ in walls}
        box = enumeration_box(lat, base, F(bound), sub.squares)
        oracle = oracle_scan(lat, sub, base, F(bound), max(box) + 1)
        assert [(x, sig.name) for x, sig in walls] == [(x, sig.name) for x, sig in oracle]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_bareiss_rows_are_the_schur_chain(self, m):
        rng = random.Random(100 + m)
        for _ in range(60):
            a = random_positive_definite(rng, m)
            rows, pivots, _d, swaps, _scale = linalg._echelon(a)
            assert swaps == 0 and pivots == list(range(m))
            assert [row[i:] for i, row in enumerate(rows)] == \
                [t[0] for t in schur_chain(a)]
            budget = rng.randint(0, 60)
            assert list(_ellipsoid_slices(linalg._echelon(a), budget)) == \
                list(ellipsoid_slices_schur(a, budget))

    @pytest.mark.parametrize("a", [
        [[0]],
        [[-1]],
        [[1, 2], [2, 1]],
        [[0, 1], [1, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        # two swaps, every Bareiss pivot positive, not positive definite
        [[0, 1, -2, 0], [1, 2, -2, 1], [-2, -2, 0, -1], [0, 1, -1, -2]],
    ])
    def test_ellipsoid_slices_reject_indefinite(self, a):
        with pytest.raises(InvariantError, match="positive definite"):
            _ellipsoid_slices(linalg._echelon(a), 10)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_ellipsoid_slices_against_brute_force(self, m):
        rng = random.Random(m)
        for _ in range(40):
            b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
            a = [[sum(r[i] * r[j] for r in b) + (i == j) for j in range(m)]
                 for i in range(m)]
            budget = rng.randint(0, 24)
            got = [(y0,) + outer
                   for outer, lo, hi in _ellipsoid_slices(linalg._echelon(a), budget)
                   for y0 in range(lo, hi + 1)]
            # the eigenvalues of A are >= 1, so |y_i| <= sqrt(budget) < 5
            reach = range(-4, 5)
            want = {y for y in itertools.product(reach, repeat=m)
                    if any(y) and [c for c in y if c][-1] > 0 and
                    sum(y[i] * a[i][j] * y[j] for i in range(m) for j in range(m)) <= budget}
            assert len(got) == len(set(got))
            assert set(got) == want


def crossing_t(lattice, x, a, b):
    """The parameter of the wall of x on [a, b] as factor_path finds it:
    ``_strict_crossings`` on the ``_sides`` of the row x^t G at the
    integral forms of a and b; None when the sides do not strictly differ."""
    (pa, ma), (pb, mb) = integral(a), integral(b)
    rows = linalg.mat_mul([integral(x)[0]], lattice.gram)
    steps = _strict_crossings([(x, None)], _sides(rows, pa), ma, _sides(rows, pb), mb)
    return steps[0].t if steps else None


class TestCrossingParameter:
    def test_symmetric_configuration(self, quartic):
        t = crossing_t(quartic, (0, 0, 1), (1, 1, 1), (1, 1, -1))
        assert t == F(1, 2)

    def test_same_side_is_none(self, quartic):
        assert crossing_t(quartic, (0, 0, 1), (1, 1, -1), (2, 2, -1)) is None

    def test_endpoint_on_wall_is_none(self, quartic):
        assert crossing_t(quartic, (0, 0, 1), (1, 1, 0), (1, 1, -1)) is None

    def test_rational_points_keep_their_value(self, quartic):
        a, b = (2, F(3, 2), -1), (1, 2, F(-5, 4))
        qa, qb = quartic.pairing((-4, 0, 1), a), quartic.pairing((-4, 0, 1), b)
        assert crossing_t(quartic, (-4, 0, 1), a, b) == qa / (qa - qb) == F(2, 13)
        assert crossing_t(quartic, (F(-4, 3), 0, F(1, 3)), a, b) == F(2, 13)

    @pytest.mark.parametrize("x, a, b", [
        ((-4, 0, 1), (2, 1.5, -1), (1, 2, -1.25)),
        ((True, 0, 1), (1, 1, 1), (1, 1, -1)),
        ((0, 0, 1), (1, 1, 1), (1, 1, "x")),
    ])
    def test_floats_and_bools_are_preconditions(self, quartic, x, a, b):
        with pytest.raises(PreconditionError, match="not a rational"):
            crossing_t(quartic, x, a, b)


# (1, 1, 0) to each of these ends needs the second pass of _fix_endpoint
SECOND_PASS_TABLE = SignatureTable(orbits=(OrbitSignature("near", -36, 1, 2),
                                           OrbitSignature("far", -1892, 1, 2)))
SECOND_PASS_ENDS = [(2, 1, 0), (1, 2, 0), (3, 2, 0)]


class TestFactorPath:
    def test_chain_m1_to_m4(self, quartic, table):
        f = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        assert f.status == STATUS_OK
        assert not f.perturbed
        assert [s.wall_class for s in f.steps] == [(-4, 0, 1), (-2, 0, 1), (0, 4, -3)]
        assert [s.t for s in f.steps] == [F(2, 13), F(1, 2), F(4, 5)]
        assert [(s.signature.square, s.signature.divisibility) for s in f.steps] == \
            [(-36, 4), (-12, 2), (-36, 4)]
        assert [s.codimension for s in f.steps] == [2, 3, 2]
        assert f.groups == ((0, 1), (2,))

    def test_adjacent_pairs_cross_one_wall(self, quartic, table):
        for a, b, cls in [(M1, M2, (4, 0, -1)), (M2, M3, (2, 0, -1)), (M3, M4, (0, 4, -3))]:
            f = factor_path(quartic, table, a, b, F(20))
            assert len(f.steps) == 1
            got = f.steps[0].wall_class
            assert got == cls or got == tuple(-c for c in cls)

    def test_equal_endpoints(self, quartic, table):
        f = factor_path(quartic, table, M3, M3, fixtures.PATH_BOUND)
        assert f.steps == () and f.status == STATUS_REGULAR

    def test_alpha_wall_is_divisorial(self, quartic, table):
        f = factor_path(quartic, table, (3, F(17, 8), F(3, 2)), (3, F(15, 8), F(3, 2)),
                        fixtures.PATH_BOUND)
        assert f.status == STATUS_DIVISORIAL
        assert len(f.steps) == 1
        assert f.steps[0].signature.name == "alpha"

    def test_wall_pairing_vanishes_at_crossing(self, quartic, table):
        f = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        for s in f.steps:
            point = tuple(x + s.t * (y - x) for x, y in zip(f.a, f.b))
            assert quartic.pairing(s.wall_class, point) == 0
            assert quartic.square(point) > 0
            assert quartic.pairing(s.wall_class, f.a) > 0
            assert quartic.pairing(s.wall_class, f.b) < 0
            assert 0 < s.t < 1

    def test_reversal(self, quartic, table):
        fwd = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        rev = factor_path(quartic, table, M4, M1, fixtures.PATH_BOUND)
        assert [s.t for s in rev.steps] == [1 - s.t for s in reversed(fwd.steps)]
        assert [s.wall_class for s in rev.steps] == \
            [tuple(-c for c in s.wall_class) for s in reversed(fwd.steps)]
        assert [s.signature for s in rev.steps] == \
            [s.signature for s in reversed(fwd.steps)]

    def test_determinism(self, quartic, table):
        f1 = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        f2 = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        assert f1 == f2
        assert factorization_report(f1) == factorization_report(f2)

    def test_different_components_rejected(self, quartic, table):
        with pytest.raises(PreconditionError):
            factor_path(quartic, table, M1, tuple(-c for c in M4), fixtures.PATH_BOUND)

    def test_empty_table_rejected_after_the_segment_checks(self, quartic):
        empty = SignatureTable(orbits=())
        with pytest.raises(PreconditionError, match="signature table is empty"):
            factor_path(quartic, empty, M1, M4, fixtures.PATH_BOUND)
        with pytest.raises(PreconditionError, match="bound too small"):
            factor_path(quartic, empty, M3, (1, 2, F(-3, 2)), F(8))
        with pytest.raises(PreconditionError, match="different components"):
            factor_path(quartic, empty, M1, tuple(-c for c in M4), fixtures.PATH_BOUND)
        with pytest.raises(PreconditionError, match="signature table is empty"):
            enumerate_wall_classes(quartic, empty, (4, 4, -1), fixtures.ENUM_BOUND)

    def test_bound_must_cover(self, quartic, table):
        with pytest.raises(PreconditionError):
            factor_path(quartic, table, M3, (1, 2, F(-3, 2)), F(8))

    def test_endpoint_on_wall_perturbs(self, quartic, table):
        f = factor_path(quartic, table, M3, (1, 1, 0), F(8))
        assert f.perturbed
        assert f.b != (1, 1, 0)
        ts = [s.t for s in f.steps]
        assert len(ts) == len(set(ts))

    def test_endpoint_on_two_walls_perturbs(self, quartic, table, monkeypatch):
        # (3/2, 1, -1) lies on exactly two enumerated walls, those of alpha
        # (1, 0, 0) and codim2 (12, 8, -9); it is tried as either endpoint.
        # The accepted shift is certified by _short_shift: the only walk is
        # the one of the segment itself.
        p, bound = (F(3, 2), 1, -1), F(113, 15)
        walks, certified = spy_on_walks(monkeypatch)
        for a, b in [(M3, p), (p, M3)]:
            walls = enumerate_wall_classes(quartic, table, a, bound)
            assert sorted(x for x, _ in walls if quartic.pairing(x, p) == 0) == \
                [(1, 0, 0), (12, 8, -9)]
            walks.clear()
            certified.clear()
            f = factor_path(quartic, table, a, b, bound)
            assert len(walks) == 1 and certified == [True]
            assert f.perturbed
            ts = [s.t for s in f.steps]
            assert all(s < t for s, t in zip(ts, ts[1:]))
            moved = f.b if b == p else f.a
            assert moved != tuple(p)
            for x, _ in walls:
                assert quartic.pairing(x, moved) != 0
                assert quartic.pairing(x, moved) * quartic.pairing(x, p) >= 0

    def test_fix_endpoint_rejects_a_shift_across_a_wall(self, quartic, table):
        # (1, 1, 0) is on the wall of w1 = (3, -1, 0) and at pairing 1 from
        # that of w2 = (22, -7, 0), with q(w2, e_0) = -65: the first shift,
        # 1/64 e_0, clears w1 but crosses w2 (pairing 1 - 65/64 < 0).  Over
        # the denominator 64 that shift is (65, 64, 0), with 64 times the
        # sides -9/64 and -1/64 of the rational point.
        rows = linalg.mat_mul([(3, -1, 0), (22, -7, 0)], quartic.gram)
        original = (1, 1, 0)
        sides = _sides(rows, original)
        assert sides == [0, 1]
        first = (65, 64, 0)
        assert _sides(rows, first) == [-9, -1]
        end = original, _sides(quartic.gram, original)
        moved, d, moved_sides = _fix_endpoint(quartic, table, [(3, -1, 0), (22, -7, 0)], F(8),
                                              end, end, 1, sides, None)
        assert tuple(F(c, d) for c in moved) != tuple(F(c, 64) for c in first)
        assert moved_sides == _sides(rows, moved)
        for c, o in zip(moved_sides, sides):
            assert c != 0 and c * o >= 0

    def test_fix_endpoint_walks_a_shift_it_cannot_certify(self, quartic, monkeypatch):
        # With w2 of the test above the one wall of a table, (1, 1, 0) is on
        # no wall and has no side list.  The first shift crosses w2, which is
        # not through (1, 1, 0), so _short_shift fails, and the walk of
        # [x, y] finds w2 and rejects the shift.  The second, (65, 65, 0),
        # is on the ray of x and is certified.
        w2, original = (22, -7, 0), (1, 1, 0)
        one_wall = orbit_rows([(quartic.square(w2), quartic.divisibility(w2))])
        walks, certified = spy_on_walks(monkeypatch)
        end = original, _sides(quartic.gram, original)
        assert _fix_endpoint(quartic, one_wall, [], F(8), end, end, 1, [],
                             None) == ((65, 65, 0), 64, [])
        shift = (65, 64, 0)
        assert certified == [False, True]
        assert walks == [(tuple(_sides(quartic.gram, shift)), quartic.pairing(original, shift))]
        assert w2 in [x for x, _ in segment_walls(quartic, one_wall, original, shift)]

    @pytest.mark.parametrize("b", SECOND_PASS_ENDS)
    def test_second_pass_clears_a_wall_within_the_first_shift(self, quartic, b):
        # (1, 1, 0) lies on the wall of (3, -1, 0), of square -36, and the
        # walls of (22, -7, 0) and (16, -5, 15), of square -1892, pass at
        # pairing 1 from it: each of the first pass's 64 candidates stays
        # on the first wall or crosses one of the others
        a = (1, 1, 0)
        f = factor_path(quartic, SECOND_PASS_TABLE, a, b, F(8))
        assert f.perturbed and f.status == STATUS_OK
        assert f.a != a
        for x, _sig in segment_walls(quartic, SECOND_PASS_TABLE, a, b):
            for moved, end in ((f.a, a), (f.b, b)):
                assert quartic.pairing(x, moved) * quartic.pairing(x, end) >= 0
        walls = segment_walls(quartic, SECOND_PASS_TABLE, integral(f.a)[0], integral(f.b)[0])
        sa, sb = fraction_sides(quartic, walls, f.a), fraction_sides(quartic, walls, f.b)
        assert 0 not in sa + sb
        ts = [s.t for s in f.steps]
        assert len(ts) == len(set(ts))
        assert list(f.steps) == fraction_crossings(walls, sa, sb)

    def test_coincident_crossings_perturb(self, quartic, table):
        # the walls of alpha, beta and gamma share the interior line through
        # (3, 2, 0); a symmetric segment through it crosses them all at t=1/2
        a, b = (F(5, 2), 2, F(-1, 2)), (F(7, 2), 2, F(1, 2))
        f = factor_path(quartic, table, a, b, F(8))
        assert f.perturbed
        ts = [s.t for s in f.steps]
        assert len(ts) == len(set(ts)) and len(ts) >= 3

    @pytest.mark.parametrize("call, got", [
        (lambda q, t: factor_path(q, t, (1, 2), (4, 4, -1), 8), 2),
        (lambda q, t: factor_path(q, t, (4, 4, -1), (1, 2, 3, 4), 8), 4),
        (lambda q, t: enumerate_wall_classes(q, t, (4, 4), 8), 2)])
    def test_wrong_length_point_names_the_lengths(self, quartic, table, call, got):
        with pytest.raises(PreconditionError,
                           match=rf"^dimension mismatch: expected 3 coordinates, got {got}$"):
            call(quartic, table)

    def test_report_schema(self, quartic, table):
        f = factor_path(quartic, table, M1, M4, fixtures.PATH_BOUND)
        rep = factorization_report(f)
        assert rep["a"] == ["2", "3/2", "-1"]
        assert rep["status"] == "ok"
        assert rep["groups"] == [[0, 1], [2]]
        assert rep["steps"][2] == {"class": [0, 4, -3], "square": -36,
                                   "divisibility": 4, "codimension": 2,
                                   "t": "4/5", "orbit": "codim2"}


class TestGroupHuYau:
    def _steps(self, codims, table):
        orbit = {o.name: o for o in table.orbits}
        by_codim = {1: orbit["delta"], 2: orbit["codim2"], 3: orbit["codim3"]}
        return [WallCrossing(wall_class=(i + 1, 0, 0), t=F(i + 1, len(codims) + 1),
                             signature=by_codim[c])
                for i, c in enumerate(codims)]

    def test_paper_chain(self, table):
        assert group_hu_yau(self._steps([2, 3, 2], table)) == ((0, 1), (2,))

    def test_single_codim2(self, table):
        assert group_hu_yau(self._steps([3, 2, 3], table)) == ((0, 1, 2),)

    def test_singleton(self, table):
        assert group_hu_yau(self._steps([2], table)) == ((0,),)

    def test_longer_mix(self, table):
        assert group_hu_yau(self._steps([3, 2, 3, 2, 2, 3], table)) == \
            ((0, 1, 2), (3,), (4, 5))

    def test_blocks_partition_and_have_one_codim2(self, table):
        rng = random.Random(6)
        for _ in range(100):
            codims = [rng.choice([2, 3]) for _ in range(rng.randint(1, 10))]
            if 2 not in codims:
                continue
            steps = self._steps(codims, table)
            blocks = group_hu_yau(steps)
            flat = [i for b in blocks for i in b]
            assert flat == list(range(len(steps)))
            for b in blocks:
                assert sum(1 for i in b if codims[i] == 2) == 1

    def test_no_codim2_rejected(self, table):
        with pytest.raises(PreconditionError, match="regular in codimension two"):
            group_hu_yau(self._steps([3, 3], table))

    def test_divisorial_rejected(self, table):
        with pytest.raises(PreconditionError):
            group_hu_yau(self._steps([1, 2], table))


class TestRandomSegments:
    def test_random_pairs_stress(self, quartic, table):
        rng = random.Random(99)

        def rand_point():
            while True:
                p = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                if quartic.square(p) > 0:
                    return p

        pairs = 0
        while pairs < 50:
            a, b = rand_point(), rand_point()
            qab = quartic.pairing(a, b)
            if qab <= 0:
                continue
            need = F(qab * qab, quartic.square(a) * quartic.square(b))
            if need > 6:
                continue
            bound = max(F(1), need) + 1
            f = factor_path(quartic, table, a, b, bound)
            ts = [s.t for s in f.steps]
            assert ts == sorted(ts) and len(ts) == len(set(ts))
            for s in f.steps:
                pt = tuple(x + s.t * (y - x) for x, y in zip(f.a, f.b))
                assert quartic.pairing(s.wall_class, pt) == 0
                assert quartic.square(pt) > 0
                assert quartic.pairing(s.wall_class, f.a) > 0 > quartic.pairing(s.wall_class, f.b)
                assert 0 < s.t < 1
            g = factor_path(quartic, table, b, a, bound)
            if not f.perturbed and not g.perturbed:
                # exact reversal only makes sense in general position: the
                # perturbation rule moves the segment end, so perturbed runs
                # are allowed to differ
                assert [s.t for s in g.steps] == [1 - s.t for s in reversed(f.steps)]
                assert [s.wall_class for s in g.steps] == \
                    [tuple(-c for c in s.wall_class) for s in reversed(f.steps)]
            pairs += 1

    def test_perturbation_from_multiwall_point(self, quartic, table):
        # (2, 4/3, 0) spans the same ray as (3, 2, 0) and lies on six walls
        # whose normals have disjoint coordinate support; clearing it needs
        # compounded shifts
        a = (2, F(4, 3), 0)
        b = (1, 2, F(-1, 3))
        f = factor_path(quartic, table, a, b, F(4))
        assert f.perturbed
        ts = [s.t for s in f.steps]
        assert len(ts) == len(set(ts))
        f2 = factor_path(quartic, table, a, b, F(4))
        assert f == f2


def fraction_sides(lattice, walls, p):
    gp = lattice.pairing_row(p)
    return [sum(xi * gi for xi, gi in zip(x, gp)) for x, _sig in walls]


def fraction_covers(lattice, bound, base, point):
    qq = lattice.pairing(base, point)
    return qq * qq <= bound * lattice.square(base) * lattice.square(point)


def fraction_fix_endpoint(lattice, walls, bound, base, original, sides, extra_ok):
    """Shifts eps e_j, eps = 1/(scale D) halving after each cycle, in
    Fractions: 64 shifts from the original with scale 64, then 64 more
    from the original with scale 64 2^(64 div n).  The error counts the
    candidates that left the region and those that extra_ok rejected."""
    n = len(original)
    den = lcm(*(F(c).denominator for c in original))
    outside = tied = 0
    for scale in (64, 64 * 2 ** (64 // n)):
        current = list(original)
        for k in range(64):
            current[k % n] += F(1, scale * den) / 2 ** (k // n)
            cand = tuple(current)
            if lattice.square(cand) <= 0 or lattice.pairing(cand, original) <= 0:
                continue
            if not fraction_covers(lattice, bound, base, cand):
                outside += 1
                continue
            cand_sides = fraction_sides(lattice, walls, cand)
            if any(c == 0 or c * o < 0 for c, o in zip(cand_sides, sides)):
                continue
            if extra_ok(cand_sides):
                return cand, cand_sides
            tied += 1
    raise PreconditionError(f"could not perturb an endpoint into general position: {outside} "
                            f"of 128 candidates left the region of bound {bound}, {tied} gave "
                            "two walls one crossing parameter")


def fraction_crossings(walls, sa, sb):
    steps = []
    for (x, sig), qa, qb in zip(walls, sa, sb):
        if qa * qb < 0:
            if qa < 0:
                x = tuple(-c for c in x)
            steps.append(WallCrossing(wall_class=x, t=F(qa, qa - qb), signature=sig))
    steps.sort(key=lambda s: (s.t, s.wall_class))
    return steps


def fraction_factor_path(lattice, table, a, b, bound):
    """factor_path by the Fraction route: endpoints, side lists, shifts
    and crossing parameters all in Fractions.  Callers pass valid input."""
    bound = F(bound)
    a, b = tuple(map(F, a)), tuple(map(F, b))
    walls = enumerate_wall_classes(lattice, table, a, bound)
    pa, pb = a, b
    sa, sb = fraction_sides(lattice, walls, a), fraction_sides(lattice, walls, b)
    perturbed = False
    if 0 in sa:
        pa, sa = fraction_fix_endpoint(lattice, walls, bound, a, a, sa, lambda _s: True)
        perturbed = True

    def b_ok(sides):
        ts = [s.t for s in fraction_crossings(walls, sa, sides)]
        return len(ts) == len(set(ts))

    if 0 in sb or not b_ok(sb):
        pb, sb = fraction_fix_endpoint(lattice, walls, bound, a, b, sb, b_ok)
        perturbed = True
    steps = fraction_crossings(walls, sa, sb)
    if any(s.codimension == 1 for s in steps):
        status = STATUS_DIVISORIAL
    elif not any(s.codimension == 2 for s in steps):
        status = STATUS_REGULAR
    else:
        status = STATUS_OK
    groups = group_hu_yau(steps) if status == STATUS_OK else ()
    return FlopFactorization(a=pa, b=pb, steps=tuple(steps), groups=groups,
                             status=status, perturbed=perturbed)


def valid_segment(lattice, a, b, bound):
    """Both points in one component of the cone, the region around a covering b."""
    return lattice.square(a) > 0 and lattice.square(b) > 0 and lattice.pairing(a, b) > 0 \
        and bound >= 1 and fraction_covers(lattice, bound, a, b)


def project(lattice, p, w):
    """p moved along w onto the wall of w."""
    f = lattice.pairing(p, w) / lattice.square(w)
    return tuple(pi - f * wi for pi, wi in zip(p, w))


def two_wall_point(lattice, walls, rng, a):
    """A cone point on two walls at once, for a random pair of walls x, y
    spanning a negative definite plane, or None.  In rank 3 it is the
    integral ray G x cross G y; above, a less its orthogonal projection
    onto the plane, which lies in a's component since the plane is
    negative definite."""
    rows = linalg.mat_mul([x for x, _ in walls], lattice.gram)
    pairs = list(itertools.combinations(range(len(walls)), 2))
    rng.shuffle(pairs)
    for i, j in pairs[:50]:
        (x, _), (y, _), gx, gy = walls[i], walls[j], rows[i], rows[j]
        qxx, qyy, qxy = linalg.dot(gx, x), linalg.dot(gy, y), linalg.dot(gx, y)
        if qxx * qyy <= qxy ** 2:
            continue
        if lattice.rank == 3:
            return (gx[1] * gy[2] - gx[2] * gy[1], gx[2] * gy[0] - gx[0] * gy[2],
                    gx[0] * gy[1] - gx[1] * gy[0])
        ax, ay, det = linalg.dot(gx, a), linalg.dot(gy, a), qxx * qyy - qxy ** 2
        cx, cy = F(ax * qyy - ay * qxy, det), F(ay * qxx - ax * qxy, det)
        return tuple(c - cx * u - cy * v for c, u, v in zip(a, x, y))
    return None


def random_segments(lattice, table, rng, count, bound, reach=6, den=4):
    """(a, b) pairs valid at the bound.  Each random pair gives up to five:
    itself; b, then a, projected onto a wall that separates them; a with
    b on two walls; and a segment symmetric about a two-wall point,
    which meets both walls at t = 1/2 when they separate its ends."""
    def point():
        while True:
            p = tuple(F(rng.randint(-reach, reach), rng.randint(1, den))
                      for _ in range(lattice.rank))
            if lattice.square(p) > 0:
                return p

    out = []
    while len(out) < count:
        a, b = point(), point()
        if not valid_segment(lattice, a, b, bound):
            continue
        walls = enumerate_wall_classes(lattice, table, a, bound)
        cases = [(a, b)]
        crossed = [x for x, _ in walls if lattice.pairing(x, a) * lattice.pairing(x, b) < 0]
        if crossed:
            w = rng.choice(crossed)
            cases += [(a, project(lattice, b, w)), (project(lattice, a, w), b)]
        r = two_wall_point(lattice, walls, rng, a)
        if r is not None:
            if lattice.pairing(r, a) < 0:
                r = tuple(-c for c in r)
            v = tuple(F(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(lattice.rank))
            cases += [(a, r), (tuple(c - e for c, e in zip(r, v)),
                               tuple(c + e for c, e in zip(r, v)))]
        out += [(p, q) for p, q in cases if valid_segment(lattice, p, q, bound)]
    return out[:count]


def outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


class TestAgainstFractionOracle:
    """factor_path in integers equals (==) the Fraction route it replaced:
    the same walls, perturbed endpoints, parameters, groups and report."""

    def assert_same(self, lattice, table, a, b, bound):
        got = outcome(factor_path, lattice, table, a, b, bound)
        want = outcome(fraction_factor_path, lattice, table, a, b, bound)
        assert got == want, (lattice.gram, a, b, bound)
        if isinstance(got, FlopFactorization):
            assert factorization_report(got) == factorization_report(want)
        return got

    def test_fixed_cases(self, quartic, table):
        p = (F(3, 2), 1, -1)
        cases = [(M1, M4, fixtures.PATH_BOUND), (M4, M1, fixtures.PATH_BOUND),
                 (M3, (1, 1, 0), F(8)), (M3, p, F(113, 15)), (p, M3, F(113, 15)),
                 ((F(5, 2), 2, F(-1, 2)), (F(7, 2), 2, F(1, 2)), F(8)),
                 ((2, F(4, 3), 0), (1, 2, F(-1, 3)), F(4))]
        results = [self.assert_same(quartic, table, a, b, bound) for a, b, bound in cases]
        assert [f.perturbed for f in results] == [False, False] + [True] * 5

    @pytest.mark.parametrize("b", SECOND_PASS_ENDS)
    def test_second_perturbation_pass(self, quartic, b):
        f = self.assert_same(quartic, SECOND_PASS_TABLE, (1, 1, 0), b, F(8))
        assert f.status == STATUS_OK

    @pytest.mark.parametrize("bound", [F(8), F(20)])
    def test_random_quartic_segments(self, quartic, table, bound):
        rng = random.Random(int(bound))
        segments = random_segments(quartic, table, rng, 155, bound)
        results = [self.assert_same(quartic, table, a, b, bound) for a, b in segments]
        perturbed = sum(1 for f in results if not isinstance(f, str) and f.perturbed)
        assert 3 * perturbed >= len(results), perturbed

    def test_random_lorentzian_segments(self):
        from test_render import random_lorentzian_lattices
        rng = random.Random(23)
        results = []
        for lat in random_lorentzian_lattices(12, seed=5):
            pairs = set()
            while len(pairs) < 3:
                v = tuple(rng.randint(-3, 3) for _ in range(3))
                if any(v) and lat.square(v) < 0 and gcd(*v) == 1:
                    pairs.add((lat.square(v), lat.divisibility(v)))
            sub = SignatureTable(orbits=tuple(
                OrbitSignature(name=f"o{i}", square=s, divisibility=d, codimension=i % 3 + 1)
                for i, (s, d) in enumerate(sorted(pairs))))
            for a, b in random_segments(lat, sub, rng, 10, F(3), reach=3, den=3):
                results.append(self.assert_same(lat, sub, a, b, F(3)))
        perturbed = sum(1 for f in results if not isinstance(f, str) and f.perturbed)
        assert 3 * perturbed >= len(results), perturbed


    @pytest.mark.parametrize("case", ["u24", "u24-even", "rank5", "rank4-ideals",
                                      "rank5-ideals"])
    def test_higher_rank_segments(self, case):
        # free endpoints, endpoints projected onto a crossed wall, and
        # endpoints on two walls at once, in ranks 4 and 5
        rng = random.Random(sum(map(ord, case)))
        lat, tab = {"u24": lambda: (U24, U_TABLE),
                    "u24-even": lambda: (U24, U24_EVEN_TABLE),
                    "rank5": lambda: random_lorentzian(rng, 5, False),
                    "rank4-ideals": lambda: random_lorentzian(rng, 4, True),
                    "rank5-ideals": lambda: random_lorentzian(rng, 5, True)}[case]()
        results = [self.assert_same(lat, tab, a, b, F(3))
                   for a, b in random_segments(lat, tab, rng, 16, F(3), reach=3, den=3)]
        done = [f for f in results if not isinstance(f, str)]
        assert any(f.perturbed for f in done) and any(f.steps for f in done)


class TestTightRegion:
    """At the smallest bound that covers b, the region around a binds on
    b's perturbation: the carried q(a, y) must reject exactly the
    candidates the Fraction route rejects."""

    def test_against_the_fraction_route(self, quartic, table):
        results = []
        for a in [(2, F(3, 2), -1), (1, 2, F(-5, 4))]:
            for b in itertools.product(range(1, 5), range(1, 5), range(-2, 2)):
                if quartic.square(b) <= 0:
                    continue
                bound = F(quartic.pairing(a, b)) ** 2 / (quartic.square(a) * quartic.square(b))
                got = outcome(factor_path, quartic, table, a, b, bound)
                assert got == outcome(fraction_factor_path, quartic, table, a, b, bound), (a, b)
                results.append(got)
        assert sum(not isinstance(f, str) and f.perturbed for f in results) > 10
        assert ("could not perturb an endpoint into general position: 124 of 128 candidates "
                "left the region of bound 169/96, 0 gave two walls one crossing parameter") \
            in results


class TestSameChamber:
    """Two points share a chamber iff their segment has no crossing."""

    def test_scaling_stays(self, quartic, table):
        assert not factor_path(quartic, table, M3, tuple(2 * c for c in M3), F(8)).steps

    def test_equal_points(self, quartic, table):
        assert not factor_path(quartic, table, M3, M3, F(8)).steps

    def test_empty_table_rejected(self, quartic):
        with pytest.raises(PreconditionError, match="signature table is empty"):
            factor_path(quartic, SignatureTable(orbits=()), M3, M4, F(20))

    def test_eta_separates(self, quartic, table):
        assert quartic.pairing((0, 4, -3), M3) > 0 > quartic.pairing((0, 4, -3), M4)
        assert factor_path(quartic, table, M3, M4, F(20)).steps


def enumerate_one_ellipsoid(lattice, table, base, bound):
    """The single-ellipsoid walk: one ellipsoid sized by the most negative
    table square, every table square tried at every prefix of the full
    lattice.  The oracle for the per-square walks on L_d."""
    bound = Fraction(bound)
    p = primitive_rescale(_integral_cone_point(lattice, base)[0])[0]
    squares = table.squares
    g = lattice.square(p)
    gp = [int(v) for v in lattice.pairing_row(p)]
    mt = _majorant(gp, gp, g, lattice.gram)
    bn, bd = bound.numerator, bound.denominator
    gram = lattice.gram
    n = lattice.rank
    cap = floor(g * (2 * bound + 1) * -squares[0])
    k = min(range(n), key=lambda i: mt[i][i])
    free = [j for j in range(n) if j != k]
    mkk, gkk = mt[k][k], gram[k][k]

    def roots(y, lin, quad):
        out = []
        if gkk:
            d0 = lin * lin - gkk * quad
            for s in squares:
                disc = d0 + gkk * s
                if disc >= 0:
                    r = isqrt(disc)
                    if r * r == disc:
                        out += [(s, num // gkk) for num in {r - lin, -r - lin}
                                if num % gkk == 0]
        elif lin:
            out = [(s, (s - quad) // (2 * lin)) for s in squares
                   if (s - quad) % (2 * lin) == 0]
        elif quad in squares:
            b = sum(mt[k][j] * v for j, v in zip(free, y))
            rest = sum(v * mt[i][j] * w for i, v in zip(free, y) for j, w in zip(free, y))
            top = mkk * (cap - rest) + b * b
            if top >= 0:
                r = isqrt(top)
                out = [(quad, z) for z in range(-((r + b) // mkk), (r - b) // mkk + 1)]
        return out

    found = []

    def emit(y, t, s, z):
        t += gp[k] * z
        if bd * t * t > bn * (-s) * g:
            return
        x = [0] * n
        for j, v in zip(free, y):
            x[j] = v
        x[k] = z
        if next(c for c in x if c) < 0:
            x = [-c for c in x]
        x = tuple(x)
        if gcd(*x) != 1:
            return
        d = lattice.divisibility(x)
        row = table.match(s, d, lambda: lattice.residues(lattice.pairing_row(x), d))
        if row is not None:
            found.append((x, row))

    zero = (0,) * len(free)
    for s, z in roots(zero, 0, 0):
        if z > 0:
            emit(zero, 0, s, z)
    if free:
        schur = [[mkk * mt[i][j] - mt[i][k] * mt[k][j] for j in free] for i in free]
        gk = [gram[k][j] for j in free]
        gf = [[gram[i][j] for j in free] for i in free]
        pf = [gp[j] for j in free]
        for outer, lo, hi in _ellipsoid_slices(linalg._echelon(schur), mkk * cap):
            for y0 in range(lo, hi + 1):
                y = (y0,) + outer
                lin = sum(c * v for c, v in zip(gk, y))
                quad = sum(v * gf[i][j] * w for i, v in enumerate(y) for j, w in enumerate(y))
                for s, z in roots(y, lin, quad):
                    emit(y, sum(c * v for c, v in zip(pf, y)), s, z)
    found.sort(key=lambda item: item[0])
    return found


CONE_POINT_DRAWS = 10_000


def cone_points(rng, lattice, count, reach):
    """Seeded integer points of positive square with coordinates in +-reach.

    Fails after ``CONE_POINT_DRAWS`` draws, so that a lattice with no such
    point within reach fails its test instead of hanging it."""
    points = []
    for _ in range(CONE_POINT_DRAWS):
        if len(points) == count:
            return points
        v = tuple(rng.randint(-reach, reach) for _ in range(lattice.rank))
        if lattice.square(v) > 0:
            points.append(v)
    pytest.fail(f"no {count} points of positive square within +-{reach} in {CONE_POINT_DRAWS} "
                f"draws on the lattice {lattice.gram}")


def orbit_rows(pairs):
    return SignatureTable(orbits=tuple(
        OrbitSignature(name=f"o{i}", square=s, divisibility=d, codimension=i % 3 + 1)
        for i, (s, d) in enumerate(sorted(pairs))))


def random_lorentzian(rng, rank, ideals):
    """A seeded Lorentzian lattice of the given rank, with random ambient
    ideals in 1..6 or none, and a table of (square, divisibility) pairs
    met by short primitive vectors, one square with a second divisibility.
    Above rank 3 the vectors are shorter, so the walks stay small."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.randint(-1, 1) if rank > 3 else rng.randint(-4, 4)
        if rank > 3:
            for i in range(rank):
                gram[i][i] = rng.randint(2, 6) * (1 if i == 0 else -1)
        lat = make_lattice(gram, ambient_ideals=[rng.randint(1, 6) for _ in range(rank)]
                           if ideals else None)
        if linalg.determinant(gram) == 0 or lat.signature() != (1, rank - 1, 0):
            continue
        pairs = set()
        reach = 3 if rank == 3 else 1
        for _ in range(300):
            v = tuple(rng.randint(-reach, reach) for _ in range(rank))
            if any(v) and lat.square(v) < 0 and gcd(*v) == 1:
                pairs.add((lat.square(v), lat.divisibility(v)))
            if len(pairs) >= 4:
                break
        if pairs:
            s, d = max(pairs)
            return lat, orbit_rows(pairs | {(s, d * rng.choice([2, 3]))})


# rows (-4, 2), (-4, 4) and (-8, 2): d_s = 2 on both squares of U + <-2> + <-4>
U24_EVEN_TABLE = orbit_rows([(-4, 2), (-4, 4), (-8, 2)])
# squares with several divisibilities, and a row pinning a residue of Z/36
QUARTIC_MANY_TABLE = SignatureTable(orbits=(
    OrbitSignature(name="a", square=-2, divisibility=1, codimension=1),
    OrbitSignature(name="d1", square=-4, divisibility=1, codimension=1),
    OrbitSignature(name="d2", square=-4, divisibility=2, codimension=1),
    OrbitSignature(name="d4", square=-4, divisibility=4, codimension=1),
    OrbitSignature(name="c2", square=-12, divisibility=2, codimension=3),
    OrbitSignature(name="c6", square=-12, divisibility=6, codimension=3),
    OrbitSignature(name="b4", square=-36, divisibility=4, codimension=2),
    OrbitSignature(name="b4r", square=-36, divisibility=4, codimension=2, disc_residue=(9,)),
    OrbitSignature(name="b12", square=-36, divisibility=12, codimension=2),
))


# the rows of a table that pins residues of Z/36, one pinned row never met
QUARTIC_PINNED_TABLE = SignatureTable(orbits=tuple(
    OrbitSignature(name=f"r{i}", square=sq, divisibility=d, codimension=2, disc_residue=r)
    for i, (sq, d, r) in enumerate([(-36, 4, (9,)), (-4, 4, (9,)), (-4, 2, (18,)), (-12, 2, (0,)),
                                    (-12, 2, None), (-2, 1, None)])))


def test_cone_points_fails_without_a_cone_point_in_reach():
    # the 4th lattice of random_lorentzian(random.Random(270), 3, False) has
    # no vector of positive square within +-2
    lat = make_lattice([[-4, 3, 3], [3, -4, 0], [3, 0, -4]])
    assert lat.signature() == (1, 2, 0)
    with pytest.raises(pytest.fail.Exception, match=r"within \+-2 .*\(-4, 3, 3\)"):
        cone_points(random.Random(1), lat, 1, 2)
    assert len(cone_points(random.Random(1), lat, 2, 3)) == 2


class TestPinnedResidues:
    """A pinned residue is read from the pairing row and the divisibility
    the caller holds: neither the walk nor ``classify`` reads a second
    ``divisibility``."""

    @staticmethod
    def count_divisibility(monkeypatch):
        """Count ``divisibility`` and ``class_divisibility`` calls together:
        each reads a divisibility."""
        calls = Counter()
        cls = lattice_module.IntegralLattice

        def counted(original):
            def wrapper(self, *args):
                calls["divisibility"] += 1
                return original(self, *args)
            return wrapper

        for name in ("divisibility", "class_divisibility"):
            monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
        return calls

    @pytest.mark.parametrize("tab", [QUARTIC_MANY_TABLE, QUARTIC_PINNED_TABLE])
    @pytest.mark.parametrize("bound", [F(4), F(15)])
    def test_walk(self, quartic, tab, bound, monkeypatch):
        want = enumerate_wall_classes(quartic, tab, (4, 4, -1), bound)
        assert want == enumerate_one_ellipsoid(quartic, tab, (4, 4, -1), bound)
        assert any(sig.disc_residue for _x, sig in want)  # pinned rows are read
        calls = self.count_divisibility(monkeypatch)
        assert enumerate_wall_classes(quartic, tab, (4, 4, -1), bound) == want
        assert calls["divisibility"] == 0

    def test_walk_reads_the_group_once_per_pinned_candidate(self, quartic, monkeypatch):
        """Each pinned candidate's ``residues`` reads the group, through the
        cache per Gram matrix, after the table check's one read: the walk
        computes no Smith form."""
        quartic.discriminant_group()  # warm-up: the group of this Gram matrix is cached
        misses = lattice_module._smith_form.cache_info().misses
        calls = Counter()
        cls = lattice_module.IntegralLattice
        for name in ("discriminant_group", "residues"):
            def counted(self, *args, name=name, original=getattr(cls, name), **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        reads, residues = [], []
        for bound in (F(4), F(15)):
            calls.clear()
            walls = enumerate_wall_classes(quartic, QUARTIC_PINNED_TABLE, (4, 4, -1), bound)
            reads.append(calls["discriminant_group"])
            residues.append(calls["residues"])
        assert len(walls) == 35
        assert reads == [16, 35] and residues == [15, 34], (reads, residues)
        assert lattice_module._smith_form.cache_info().misses == misses

    def test_walk_on_a_two_factor_group(self):
        """U + <-4> + <-4> has group Z/4 x Z/4: around (3, 1, 0, 0) the key
        (-4, 4) carries the residues (0, 1) and (1, 0), and (-8, 4) carries
        (1, 1) and (1, 3), each pinned on its own row.  The walk agrees with a
        box scan that reads residues by the two-pass oracle."""
        lat = make_lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -4, 0], [0, 0, 0, -4]])
        assert lat.discriminant_group().invariant_factors == (4, 4)
        tab = SignatureTable(orbits=tuple(
            OrbitSignature(name=f"m{-sq}d{d}r{''.join(map(str, r))}", square=sq, divisibility=d,
                           codimension=1, disc_residue=r)
            for sq, d, r in [(-4, 4, (0, 1)), (-4, 4, (1, 0)), (-8, 4, (1, 1)), (-8, 4, (1, 3))]))
        plain = orbit_rows([(-4, 4), (-8, 4)])
        rows = {o.key: o for o in tab.orbits}
        for bound in (F(2), F(4), F(8)):
            # every wall of the two keys has one of the four residues: rows[...] finds it
            want = [(x, rows[sig.square, sig.divisibility, discriminant_image_two_pass(lat, x)])
                    for x, sig in box_scan(lat, plain, (3, 1, 0, 0), bound)]
            walls = enumerate_wall_classes(lat, tab, (3, 1, 0, 0), bound)
            assert walls == want, bound
            assert {sig for _x, sig in walls} == set(tab.orbits), bound
        assert len(walls) == 48

    @pytest.mark.parametrize("pinned", [(27,), (45,), (-9,)])
    def test_unfolded_residue_rejected(self, quartic, table, pinned):
        """On Z/36 only the folded 9 of 9, 27, 45 and -9 can match: the others
        are rejected, naming the orbit and 9."""
        tab = SignatureTable(orbits=table.orbits + (OrbitSignature(
            name="b4r", square=-36, divisibility=4, codimension=2, disc_residue=pinned),))
        fixed = SignatureTable(orbits=table.orbits + (OrbitSignature(
            name="b4r", square=-36, divisibility=4, codimension=2, disc_residue=(9,)),))
        want = f"orbit 'b4r': disc_residue {list(pinned)} is not in folded form " \
            "and never matches; it should be [9]"
        a, b = fixtures.chamber_point(1), fixtures.chamber_point(4)
        for call in (lambda t: enumerate_wall_classes(quartic, t, (4, 4, -1), F(15)),
                     lambda t: factor_path(quartic, t, a, b, fixtures.PATH_BOUND),
                     lambda t: classify(quartic, t, (4, 0, -1))):
            with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
                call(tab)
            call(fixed)

    def test_unfolded_residue_stops_the_walk_before_any_match(self, quartic, table, monkeypatch):
        tab = SignatureTable(orbits=table.orbits + (OrbitSignature(
            name="b4r", square=-36, divisibility=4, codimension=2, disc_residue=(27,)),))
        monkeypatch.setattr(SignatureTable, "match", lambda *args: pytest.fail("matched"))
        a, b = fixtures.chamber_point(1), fixtures.chamber_point(4)
        for call in (lambda: enumerate_wall_classes(quartic, tab, (4, 4, -1), F(15)),
                     lambda: factor_path(quartic, tab, a, b, fixtures.PATH_BOUND)):
            with pytest.raises(PreconditionError, match="should be \\[9\\]"):
                call()

    @pytest.mark.parametrize("name", ["beta", "delta", "eps", "gamma"])
    def test_classify(self, quartic, named, name, monkeypatch):
        want = classify(quartic, QUARTIC_PINNED_TABLE, named[name])
        assert any(o.disc_residue for o in QUARTIC_PINNED_TABLE.orbits
                   if (o.square, o.divisibility) == (want.square, want.divisibility))
        calls = self.count_divisibility(monkeypatch)
        assert classify(quartic, QUARTIC_PINNED_TABLE, named[name]) == want
        assert calls["divisibility"] == 1


class TestPerSquareWalks:
    """Each table square walks its own ellipsoid on its sublattice L_d; the
    walls are ``==`` to the single-ellipsoid walk over the whole lattice."""

    @pytest.mark.parametrize("bound", [F(1, 2), F(2), F(4), F(8), F(15), F(7, 3), F(100)])
    def test_quartic_against_one_ellipsoid(self, quartic, table, bound):
        rng = random.Random(int(bound * 6))
        for base in [(4, 4, -1)] + cone_points(rng, quartic, 5, 5):
            for tab in (table, QUARTIC_MANY_TABLE):
                assert enumerate_wall_classes(quartic, tab, base, bound) == \
                    enumerate_one_ellipsoid(quartic, tab, base, bound)

    @pytest.mark.parametrize("bound", [400, 1600])
    def test_quartic_large_bounds(self, quartic, table, bound):
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), bound)
        assert walls == enumerate_one_ellipsoid(quartic, table, (4, 4, -1), bound)
        assert len(walls) == {400: 253, 1600: 586}[bound]

    @pytest.mark.parametrize("tab", [U_TABLE, U24_EVEN_TABLE])
    def test_u24_without_ambient_ideals(self, tab):
        rng = random.Random(24)
        walls = 0
        for base in [(3, 1, 0, 0), (4, 2, 1, 1)] + cone_points(rng, U24, 6, 4):
            for bound in (F(1), F(7, 3), F(8)):
                got = enumerate_wall_classes(U24, tab, base, bound)
                assert got == enumerate_one_ellipsoid(U24, tab, base, bound)
                walls += len(got)
        assert walls > 50

    def test_u24_even_table_walks_a_proper_sublattice(self):
        # L_2 = {x : G x = 0 mod 2} = 2Z + 2Z + Z + Z: index 4
        basis, _gram = _sublattice(U24.gram, None, 2)
        assert abs(linalg.determinant(basis)) == 4

    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_random_lorentzian(self, rank, ideals):
        rng = random.Random(31 * rank + ideals)
        for _ in range({3: 6, 4: 3, 5: 2}[rank]):
            lat, tab = random_lorentzian(rng, rank, ideals)
            for base in cone_points(rng, lat, 2, 2):
                bound = rng.choice([F(1, 2), F(1), F(2), F(7, 3)])
                assert enumerate_wall_classes(lat, tab, base, bound) == \
                    enumerate_one_ellipsoid(lat, tab, base, bound)


def walk_shapes(lattice, table, base, bound):
    """The shapes the prefix loops of a view meet, read off its walk set-up:
    (sign of G'_kk, G'_k,y0 == 0) per L_d, and "lo < 0" when some slice
    starts below y0 = 0.  G'_kk = 0 makes q(x) = s linear in z_k, and with
    G'_k,y0 = 0 as well L stays constant along each slice, so a slice with
    L = 0 scans its whole line."""
    p = primitive_rescale(_integral_cone_point(lattice, base)[0])[0]
    g, n = lattice.square(p), lattice.rank
    shapes = set()
    for d, squares in table.sublattices:
        basis, gram = _sublattice(lattice.gram, lattice.ambient_ideals, d)
        gp = linalg.mat_vec(linalg.transpose(basis), lattice.pairing_row(p))
        mt = _majorant(gp, gp, g, gram)
        k = min(range(n), key=lambda i: mt[i][i])
        free = [j for j in range(n) if j != k]
        shapes.add(((gram[k][k] > 0) - (gram[k][k] < 0), gram[k][free[0]] == 0))
        echelon = linalg._echelon([[mt[k][k] * mt[i][j] - mt[i][k] * mt[k][j] for j in free]
                                   for i in free])
        for s in squares:
            budget = mt[k][k] * floor(-s * g * (2 * Fraction(bound) + 1))
            if any(lo < 0 for _outer, lo, _hi in _ellipsoid_slices(echelon, budget)):
                shapes.add("lo < 0")
    return shapes


# U + <-2> with the hyperbolic plane on the outer coordinates: at base
# (1, 0, 1) the solved coordinate is z_0, with G'_00 = G'_01 = 0
U2 = make_lattice([[0, 0, 1], [0, -2, 0], [1, 0, 0]])
U2_TABLE = orbit_rows([(-2, 1), (-2, 2), (-4, 1), (-6, 1)])


class TestSteppedDiscriminant:
    """The prefix loop steps the discriminant of q(x) = s along y0 and
    roots it only where it is nonnegative.  Its walls are ``==`` to those of
    the single-ellipsoid walk, which solves every prefix afresh, on walks
    that meet every shape of the loop: G'_kk < 0, > 0 and = 0, G'_k,y0 = 0
    or not, and slices that start below y0 = 0."""

    def test_pinned_quartic_at_400(self, quartic):
        walls = enumerate_wall_classes(quartic, QUARTIC_PINNED_TABLE, (4, 4, -1), 400)
        assert walls == enumerate_one_ellipsoid(quartic, QUARTIC_PINNED_TABLE, (4, 4, -1), 400)
        assert len(walls) == 253
        assert any(sig.disc_residue is not None for _x, sig in walls)  # residues are read
        assert walk_shapes(quartic, QUARTIC_PINNED_TABLE, (4, 4, -1), 400) == \
            {(-1, False), (-1, True), "lo < 0"}

    def test_random_lorentzian(self):
        shapes = set()
        for rank, bounds in ((3, (F(7, 3), F(100))), (4, (F(7, 3), F(10))), (5, (F(1, 2), F(3)))):
            for ideals in (False, True):
                rng = random.Random(1000 + 10 * rank + ideals)
                for _ in range(2):
                    lat, tab = random_lorentzian(rng, rank, ideals)
                    for base, bound in itertools.product(cone_points(rng, lat, 2, 2), bounds):
                        assert enumerate_wall_classes(lat, tab, base, bound) == \
                            enumerate_one_ellipsoid(lat, tab, base, bound)
                        shapes |= walk_shapes(lat, tab, base, bound)
        assert shapes >= {(-1, False), (-1, True), (1, False), "lo < 0"}, shapes

    @pytest.mark.parametrize("lat, tab, bases", [
        (U24, U_TABLE, [(3, 1, 0, 0), (4, 2, 1, 1), (1, 7, 0, 1)]),
        (U24, U24_EVEN_TABLE, [(3, 1, 0, 0), (4, 2, 1, 1)]),
        (U2, U2_TABLE, [(1, 0, 1), (2, 1, 3), (3, 0, 1)])])
    def test_isotropic_solved_coordinate(self, lat, tab, bases):
        shapes = set()
        for base, bound in itertools.product(bases, (F(1, 2), F(4), F(100) if lat is U2 else F(8))):
            walls = enumerate_wall_classes(lat, tab, base, bound)
            assert walls == enumerate_one_ellipsoid(lat, tab, base, bound)
            shapes |= walk_shapes(lat, tab, base, bound)
        assert (0, False) in shapes and "lo < 0" in shapes, shapes

    def test_whole_line(self):
        # at base (1, 0, 1) the prefix (y1, y2) = (+-1, 0) has L = y2 = 0 and
        # Q = -2 y1^2 = -2: every z_0 of its slice is a root of square -2
        assert walk_shapes(U2, U2_TABLE, (1, 0, 1), 4) == {(0, True), "lo < 0"}
        walls = enumerate_wall_classes(U2, U2_TABLE, (1, 0, 1), 4)
        assert walls == enumerate_one_ellipsoid(U2, U2_TABLE, (1, 0, 1), 4)
        line = [x for x, _sig in walls if x[1:] in ((1, 0), (-1, 0))]
        assert len(line) > 1 and all(U2.square(x) == -2 for x in line)


class TestOneCandidatePath:
    """Every candidate, on a unit basis or not, is x = B z by integer dot
    products, and reads its divisibility and a pinned row's G x the same
    way: ``linalg.mat_vec`` and ``pairing_row`` run a fixed number of times
    per call, however many candidates the walk meets."""

    @pytest.mark.parametrize("tab", ["bundled", "pinned"])
    def test_no_mat_vec_per_candidate(self, quartic, table, tab, monkeypatch):
        tab = table if tab == "bundled" else QUARTIC_PINNED_TABLE
        calls = Counter()
        for owner, name in ((linalg, "mat_vec"), (lattice_module.IntegralLattice, "pairing_row")):
            def counted(*args, name=name, original=getattr(owner, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counted)
        per_bound = {}
        for bound in (15, 100):
            calls.clear()
            walls = enumerate_wall_classes(quartic, tab, (4, 4, -1), bound)
            per_bound[bound] = (len(walls), dict(calls))
        # the base's G X and q(X) and the walk's G p are integer dots, so
        # neither runs at all; 35 and 108 walls
        assert per_bound == {15: (35, {}), 100: (108, {})}


class TestPathWorkCounts:
    """factor_path builds Fractions and WallCrossings only for what it
    reports and calls no generic pairing: less the report's share (the
    coordinates of both endpoints and one t and one crossing per step),
    the counts are the same, none, on a path that accepts its first shift
    and on paths whose perturbation tries more than 64 candidates."""

    def work(self, monkeypatch, lattice, table, a, b, bound):
        factor_path(lattice, table, a, b, bound)  # fills the per-Gram and per-table caches
        calls = Counter()
        for owner, name, key in ((Fraction, "__new__", "Fraction"),
                                 (WallCrossing, "__init__", "WallCrossing"),
                                 (lattice_module.IntegralLattice, "pairing", "pairing"),
                                 (lattice_module.IntegralLattice, "square", "square"),
                                 (lattice_module.IntegralLattice, "pairing_row", "pairing_row")):
            def counted(*args, key=key, original=getattr(owner, name), **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        f = factor_path(lattice, table, a, b, bound)
        monkeypatch.undo()
        calls.subtract({"Fraction": 2 * lattice.rank + len(f.steps), "WallCrossing": len(f.steps)})
        return f, {key: n for key, n in calls.items() if n}

    def test_no_work_per_candidate(self, quartic, table, monkeypatch):
        a, b = (2, F(3, 2), -1), (1, 2, -1)
        f, first = self.work(monkeypatch, quartic, table, a, b, F(12))
        assert f.perturbed and f.a == a and f.b == (1 + F(1, 64), 2, -1)  # the first shift
        work = [first]
        for end in SECOND_PASS_ENDS:
            f, counts = self.work(monkeypatch, quartic, SECOND_PASS_TABLE, (1, 1, 0), end, F(8))
            assert f.a[0].denominator == 64 << (64 // 3)  # the second pass
            work.append(counts)
        assert work == [{}] * 4


class TestOnePairingRowPerPoint:
    """Each endpoint or base gets its pairing row G X once, from
    ``_integral_cone_point``; the walks and the perturbation read it."""

    def rows_built(self, monkeypatch, lattice, run):
        built = []
        monkeypatch.setattr(cone_module, "_sides", lambda rows, x: (
            built.append(x) if rows is lattice.gram else None) or _sides(rows, x))
        run()
        monkeypatch.undo()
        return len(built)

    def test_two_rows_per_factor_path_and_one_per_view(self, quartic, table, monkeypatch):
        chain = (fixtures.chamber_point(1), fixtures.chamber_point(4), fixtures.PATH_BOUND)
        perturbed = (fixtures.chamber_point(3), (F(3, 2), 1, -1), F(113, 15))
        assert factor_path(quartic, table, *perturbed).perturbed
        for a, b, bound in (chain, perturbed):
            assert self.rows_built(monkeypatch, quartic,
                                   lambda: factor_path(quartic, table, a, b, bound)) == 2
        assert self.rows_built(monkeypatch, quartic, lambda: enumerate_wall_classes(
            quartic, table, (8, 8, -2), 15)) == 1


class TestPerturbationBound:
    """When no shift of an endpoint is accepted, the error says how many
    of the 128 candidates left the region of the bound."""

    def test_a_tight_bound_is_named(self, quartic, table):
        a, b, bound = (2, F(3, 2), -1), (1, 1, 0), F(169, 96)
        assert quartic.pairing(a, b) ** 2 == bound * quartic.square(a) * quartic.square(b)
        with pytest.raises(PreconditionError, match=re.escape(
                "could not perturb an endpoint into general position: 124 of 128 candidates "
                "left the region of bound 169/96")):
            factor_path(quartic, table, a, b, bound)
        assert factor_path(quartic, table, a, b, bound * F(101, 100)).perturbed


class TestTiedCrossings:
    """When no shift of b is accepted because its crossings with the
    walls of a share a parameter, the error counts those candidates too."""

    def test_two_walls_one_parameter_is_named(self):
        # b lies on 6 walls of U+<-2>+<-4>; of its 128 candidates 6 stay on
        # a wall and 122 give two walls one crossing parameter
        a, b = (3, 1, 0, 0), (4, 2, 1, 1)
        assert sum(U24.pairing(x, b) == 0 for x, _ in segment_walls(U24, U_TABLE, a, b)) == 6
        with pytest.raises(PreconditionError, match="^" + re.escape(
                "could not perturb an endpoint into general position: 0 of 128 candidates "
                "left the region of bound 8, 122 gave two walls one crossing parameter") + "$"):
            factor_path(U24, U_TABLE, a, b, 8)


class TestNoMatrixProductPerPath:
    """A perturbation candidate is y, d and G y, and factor_path forms its
    side lists as dots of the wall classes with G a and G b: once the
    per-Gram caches are warm, a call multiplies no matrix."""

    def test_warm_calls_make_no_mat_mul(self, quartic, table, monkeypatch):
        chain = (fixtures.chamber_point(1), fixtures.chamber_point(4), fixtures.PATH_BOUND)
        perturbed = (fixtures.chamber_point(3), (F(3, 2), 1, -1), F(113, 15))
        for a, b, bound in (chain, perturbed):
            factor_path(quartic, table, a, b, bound)
        calls, mat_mul = [], linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
        assert not factor_path(quartic, table, *chain).perturbed
        assert factor_path(quartic, table, *perturbed).perturbed
        assert calls == []


class TestWallsAtAnyScale:
    """``_walls`` takes its points at any positive scale: fed g a and h b
    with rho = 0, or the view of g p with rho = B q(g p), it finds the
    walls of the primitive call."""

    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_scaled_rows_find_the_same_walls(self, rank, ideals):
        rng = random.Random(50 * rank + ideals)

        def walls(lat, tab, a, b, rho):
            ga, gb = _sides(lat.gram, a), _sides(lat.gram, b)
            return _walls(lat, tab, ga, gb, linalg.dot(a, gb), rho * linalg.dot(a, ga))

        segments = on_walls = 0
        for _ in range({3: 3, 4: 2, 5: 2}[rank]):
            lat, tab = random_lorentzian(rng, rank, ideals)
            points = [primitive_rescale(p)[0] for p in cone_points(rng, lat, 3, 2)]
            for p in list(points):  # and points on walls of the view around p
                for w, _sig in enumerate_wall_classes(lat, tab, p, F(1))[:2]:
                    x = project(lat, tuple(map(F, p)), w)
                    if lat.square(x) > 0:
                        points.append(primitive_rescale(x)[0])
            for p in points:
                g, bound = rng.randint(2, 6), rng.choice([F(1, 2), F(1), F(7, 3)])
                gp = tuple(g * c for c in p)
                assert walls(lat, tab, gp, gp, bound) == walls(lat, tab, p, p, bound)
            for a, b in itertools.product(points, repeat=2):
                if lat.pairing(a, b) <= 0:
                    continue
                g, h = rng.randint(2, 6), rng.randint(1, 6)
                found = walls(lat, tab, a, b, 0)
                assert walls(lat, tab, tuple(g * c for c in a), tuple(h * c for c in b), 0) \
                    == found
                segments += 1
                on_walls += any(lat.pairing(x, a) * lat.pairing(x, b) == 0 for x, _ in found)
        assert segments >= 10 and on_walls, (segments, on_walls)


class TestDistinctCrossings:
    """``_distinct_crossings`` on reduced integer pairs agrees with the set
    of Fraction parameters t = qa mb / (qa mb - qb ma) it replaced."""

    def test_against_fraction_parameters(self):
        rng = random.Random(29)
        verdicts = Counter()
        for _ in range(6000):
            ma, mb = rng.randint(1, 12), rng.randint(1, 12)
            pool = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 8))]
            sa, sb = [], []
            for _ in range(rng.randint(0, 5)):
                # a multiple k of a pool pair repeats its t, in either sign
                # order; zero sides are never crossings
                qa, qb = rng.choice(pool)
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                sa.append(k * qa)
                sb.append(k * qb)
            ts = [F(qa * mb, qa * mb - qb * ma) for qa, qb in zip(sa, sb) if qa * qb < 0]
            want = len(ts) == len(set(ts))
            assert _distinct_crossings(sa, ma, sb, mb) == want, (sa, ma, sb, mb)
            verdicts[want, len(ts) > 1, 0 in sa + sb] += 1
        assert all(verdicts[want, True, zero] > 50 for want in (True, False) for zero in (True, False))

    def test_both_sign_orders_of_one_parameter(self):
        # (3, -1) and (-6, 2) cross at one t, (3, -1) and (1, -3) do not
        assert not _distinct_crossings([3, -6], 1, [-1, 2], 1)
        assert _distinct_crossings([3, 1], 1, [-1, -3], 1)
        assert _distinct_crossings([0, 3, -2], 2, [5, 0, -1], 3)


class TestSharedSetUp:
    """The squares of one sublattice L_d share its walk set-up and walk it
    each with their own integer cap; the walls are ``==`` to the box scan
    and to the single-ellipsoid walk."""

    def test_groups(self, table):
        # on the quartic, -4 (d 4, 2) and -12 (d 2) share L_2
        assert table.sublattices == ((4, (-36,)), (2, (-12, -4)), (1, (-2,)))
        assert QUARTIC_PINNED_TABLE.sublattices == table.sublattices
        # the rank-4 benchmark table: every d_s = 1
        assert U_TABLE.sublattices == ((1, (-4, -2)),)
        assert U24_EVEN_TABLE.sublattices == ((2, (-8, -4)),)

    @pytest.mark.parametrize("lat, tab, bases", [
        (fixtures.quartic_lattice(), fixtures.orbit_table(), [(4, 4, -1), (4, 5, -1), (3, 4, -1)]),
        (fixtures.quartic_lattice(), QUARTIC_PINNED_TABLE, [(4, 4, -1), (4, 5, 1)]),
        (U24, U_TABLE, [(3, 1, 0, 0), (5, 5, -2, 0), (4, 2, 1, 1)]),
        (U24, U24_EVEN_TABLE, [(3, 1, 0, 0), (4, 2, 1, 1)])])
    @pytest.mark.parametrize("bound", [F(1, 2), F(7, 3), F(4)])
    def test_against_both_oracles(self, lat, tab, bases, bound):
        for base in bases:
            walls = enumerate_wall_classes(lat, tab, base, bound)
            assert walls == box_scan(lat, tab, base, bound)
            assert walls == enumerate_one_ellipsoid(lat, tab, base, bound)

    def test_pinned_residue_is_read(self, quartic):
        walls = enumerate_wall_classes(quartic, QUARTIC_PINNED_TABLE, (4, 4, -1), F(7, 3))
        assert any(sig.disc_residue for _x, sig in walls)

    @pytest.mark.parametrize("lat, tab, base, wall", [
        (fixtures.quartic_lattice(), fixtures.orbit_table(), (4, 5, -1), (0, 2, 1)),
        (fixtures.quartic_lattice(), fixtures.orbit_table(), (4, 5, -1), (0, 8, -3)),
        (U24, U_TABLE, (5, 5, -2, 0), (0, 2, 1, 0))])
    def test_wall_on_a_rational_boundary(self, lat, tab, base, wall):
        # 3 q(x, p)^2 = 7 |q(x)| q(p): the region of B = 7/3 holds the wall on
        # its boundary, and any smaller bound drops it
        assert 3 * lat.pairing(wall, base) ** 2 == 7 * -lat.square(wall) * lat.square(base)
        for bound, inside in ((F(7, 3), True), (F(7, 3) - F(1, 10 ** 9), False)):
            walls = enumerate_wall_classes(lat, tab, base, bound)
            assert (wall in {x for x, _sig in walls}) == inside
            assert walls == box_scan(lat, tab, base, bound)
            assert walls == enumerate_one_ellipsoid(lat, tab, base, bound)

    @pytest.mark.parametrize("rank", [3, 4])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_random_lorentzian(self, rank, ideals):
        rng = random.Random(400 + 10 * rank + ideals)
        shared = 0
        for _ in range(3):
            lat, tab = random_lorentzian(rng, rank, ideals)
            shared += any(len(squares) > 1 for _d, squares in tab.sublattices)
            for base in cone_points(rng, lat, 2, 2):
                bound = rng.choice([F(1, 2), F(1), F(7, 3)])
                walls = enumerate_wall_classes(lat, tab, base, bound)
                assert walls == box_scan(lat, tab, base, bound)
                assert walls == enumerate_one_ellipsoid(lat, tab, base, bound)
        assert shared


class TestSublattice:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_basis_is_the_divisibility_sublattice(self, rank, ideals):
        rng = random.Random(50 * rank + ideals)
        reach = {1: 12, 2: 4, 3: 2, 4: 1, 5: 1}[rank]
        box = [x for x in itertools.product(range(-reach, reach + 1), repeat=rank) if any(x)]
        for _ in range(2):
            gram = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    gram[i][j] = gram[j][i] = rng.randint(-6, 6)
            if linalg.determinant(gram) == 0:
                continue
            lat = make_lattice(gram, ambient_ideals=[rng.randint(1, 12) for _ in range(rank)]
                               if ideals else None)
            a = [[c * (i == j) for j in range(rank)] for i, c in enumerate(lat.ambient_ideals)] \
                if ideals else gram
            dm = linalg.smith_normal_form(a)[1]
            for d in range(1, 13):
                basis, gram_d = _sublattice(lat.gram, lat.ambient_ideals, d)
                assert gram_d == linalg.mat_mul(linalg.mat_mul(linalg.transpose(basis),
                                                               lat.gram), basis)
                assert abs(linalg.determinant(basis)) == \
                    prod(d // gcd(d, dm[i][i]) for i in range(rank))
                for x in box:
                    member = all(c.denominator == 1 for c in linalg.solve(basis, x))
                    assert member == (lat.divisibility(x) % d == 0), (gram, d, x)

    def test_cache_is_bounded_like_the_lattice_caches(self):
        assert _sublattice.cache_info().maxsize == \
            lattice_module._discriminant_group.cache_info().maxsize == 256


# (3, 3, 15): a group with three factors, whose transform mixes coordinates
NONCYCLIC = make_lattice([[6, 3, 0], [3, -6, 0], [0, 0, -3]])


class TestPinnedCoordinates:
    """Golden values of the coordinates the code reads lattices in.  A
    pinned ``disc_residue`` is read in the rows of ``transform``, so a
    change to the Smith form's pivot rule would change the meaning of
    every pinned table without an error; the walk basis of each L_d fixes
    the order in which a walk visits its points."""

    @pytest.mark.parametrize("lat, factors, transform", [
        (fixtures.quartic_lattice(), (36,), ((48, 8, -9),)),
        (U24, (2, 4), ((0, 0, -1, 0), (0, 0, 0, -1))),
        (NONCYCLIC, (3, 3, 15), ((1, 0, 0), (0, 0, -1), (2, 1, 0))),
    ])
    def test_discriminant_group(self, lat, factors, transform):
        disc = lat.discriminant_group()
        assert (disc.invariant_factors, disc.transform) == (factors, transform)

    def test_walk_bases_of_the_bundled_table(self, quartic, table):
        assert [d for d, _squares in table.sublattices] == [4, 2, 1]
        assert [_sublattice(quartic.gram, quartic.ambient_ideals, d)[0] for d in (4, 2, 1)] == [
            ((4, 0, 0), (0, 4, 0), (0, 0, 1)),
            ((2, 0, 0), (0, 2, 0), (0, 0, 1)),
            linalg.identity(3)]

    def test_walk_bases_of_u24(self):
        assert [d for d, _squares in U24_EVEN_TABLE.sublattices] == [2]
        assert [_sublattice(U24.gram, None, d)[0] for d in (1, 2, 4)] == [
            linalg.identity(4),
            ((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((0, 4, 0, 0), (4, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))]


def test_one_smith_form_per_gram_matrix(quartic, table, monkeypatch):
    """Call counts on cold caches: the discriminant group and every L_d of
    a lattice share one Smith form of G, and with ambient ideals L_d
    needs none."""
    calls = Counter()
    smith = linalg.smith_normal_form

    def counted(a):
        calls[linalg.mat(a)] += 1
        return smith(a)

    def cold(run):
        for module in (lattice_module, cone_module, render_module):
            for fn in vars(module).values():
                getattr(fn, "cache_clear", lambda: None)()
        calls.clear()
        run()
        return sum(calls.values())

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    base = (4, 4, -1)
    assert cold(lambda: enumerate_wall_classes(quartic, table, base, 15)) == 0
    assert cold(lambda: build_scene(quartic, table, base, 15)) == 1
    assert calls == {quartic.gram: 1}
    two = orbit_rows([(-4, 2), (-2, 1)])
    assert [d for d, _squares in two.sublattices] == [2, 1]
    assert cold(lambda: enumerate_wall_classes(U24, two, (2, 1, 0, 0), 4)) == 1
    assert cold(lambda: (U24.discriminant_group(), _sublattice(U24.gram, None, 2))) == 1
    assert lattice_module._smith_form.cache_info().maxsize == 256


def covering_bound(lattice, a, b):
    """The least integer bound >= 1 whose region around a covers b."""
    qab = lattice.pairing(a, b)
    return max(1, -(-qab * qab // (lattice.square(a) * lattice.square(b))))


def meets(lattice, x, a, b):
    return lattice.pairing(x, a) * lattice.pairing(x, b) <= 0


class TestSegmentWalls:
    """The walk of a segment [a, b] finds exactly the walls of the region
    around a that meet the closed segment, and ``_short_shift`` certifies
    only shifts that no wall off the endpoint meets."""

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_majorant_is_the_segment_form(self, rank):
        rng = random.Random(rank)
        for _ in range(3):
            lat, _tab = random_lorentzian(rng, rank, False)
            points = cone_points(rng, lat, 4, 3)
            for a, b in itertools.product(points, repeat=2):
                if lat.pairing(a, b) <= 0:
                    continue
                ga, gb, qab = lat.pairing_row(a), lat.pairing_row(b), lat.pairing(a, b)
                mt = _majorant(ga, gb, qab, lat.gram)
                assert all(linalg.determinant([r[:i] for r in mt[:i]]) > 0
                           for i in range(1, rank + 1))
                for _ in range(5):
                    x = [rng.randint(-4, 4) for _ in range(rank)]
                    assert linalg.dot(x, linalg.mat_vec(mt, x)) == \
                        2 * lat.pairing(x, a) * lat.pairing(x, b) - qab * lat.square(x)
            a = points[0]
            g, ga = lat.square(a), lat.pairing_row(a)
            assert _majorant(ga, ga, g, lat.gram) == \
                [[2 * gi * gj - g * gij for gj, gij in zip(ga, row)]
                 for gi, row in zip(ga, lat.gram)]

    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_random_lorentzian_against_the_region_walls(self, rank, ideals):
        rng = random.Random(90 * rank + ideals)
        segments = 0
        for _ in range({3: 4, 4: 3, 5: 2}[rank]):
            lat, tab = random_lorentzian(rng, rank, ideals)
            points = cone_points(rng, lat, 4, 3 if rank == 3 else 2)
            for a, b in itertools.product(points, repeat=2):
                if lat.pairing(a, b) <= 0 or covering_bound(lat, a, b) > 6:
                    continue
                walls = enumerate_wall_classes(lat, tab, a, covering_bound(lat, a, b))
                assert segment_walls(lat, tab, a, b) == \
                    [(x, sig) for x, sig in walls if meets(lat, x, a, b)]
                segments += 1
        assert segments >= 10

    @pytest.mark.parametrize("lat, tab, bound", [
        (fixtures.quartic_lattice(), fixtures.orbit_table(), F(8)),
        (U24, U_TABLE, F(3)), (U24, U24_EVEN_TABLE, F(3))])
    def test_segments_with_endpoints_on_walls(self, lat, tab, bound):
        rng = random.Random(lat.rank)
        for a, b in random_segments(lat, tab, rng, 40, bound, reach=3, den=3):
            a, b = integral(a)[0], integral(b)[0]
            walls = enumerate_wall_classes(lat, tab, a, bound)
            assert segment_walls(lat, tab, a, b) == \
                [(x, sig) for x, sig in walls if meets(lat, x, a, b)]

    @pytest.mark.parametrize("rank", [3, 4, 5])
    @pytest.mark.parametrize("ideals", [False, True])
    def test_short_shift_is_sound(self, rank, ideals):
        # x runs over cone points and their projections onto walls, y over
        # shifts D x + v; whenever the certificate holds, each wall of the
        # region around x that meets [x, y] passes through x
        rng = random.Random(70 * rank + ideals)
        held = through = refuted = 0
        for _ in range(2):
            lat, tab = random_lorentzian(rng, rank, ideals)
            s_max = -tab.squares[0]
            for p in cone_points(rng, lat, 3, 3 if rank == 3 else 2):
                xs = [p] + [project(lat, tuple(map(F, p)), w) for w, _ in
                            enumerate_wall_classes(lat, tab, p, F(2))[:3]]
                for x in (primitive_rescale(x)[0] for x in xs if lat.square(x) > 0):
                    for scale in (4, 64, 1024):
                        v = [rng.randint(-2, 2) for _ in range(rank)]
                        y = [scale * c + e for c, e in zip(x, v)]
                        q_x, q_y, q_xy = lat.square(x), lat.square(y), lat.pairing(x, y)
                        if q_y <= 0 or q_xy <= 0 or covering_bound(lat, x, y) > 6:
                            continue
                        met = [w for w, _ in enumerate_wall_classes(
                            lat, tab, x, covering_bound(lat, x, y)) if meets(lat, w, x, y)]
                        off = [w for w in met if lat.pairing(w, x) != 0]
                        if _short_shift(q_x, q_y, q_xy, q_x, s_max):
                            assert off == [], (lat.gram, x, y)
                            held += 1
                            through += len(met) > 0
                        refuted += len(off) > 0
        assert held and through and refuted, (held, through, refuted)
