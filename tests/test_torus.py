import inspect
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hkcone
from hkcone import linalg, torus
from hkcone.cli import main
from hkcone.errors import PreconditionError
from hkcone.torus import (MarkedFiber, TorusPoint, covering_radius, exact_point,
                          generators, orbit, orbit_density, orbit_size,
                          real_point, related, sigma_image)

F = Fraction


@pytest.fixture
def fiber():
    return MarkedFiber(exact_point(0, 0), exact_point(F(1, 3), 0),
                       exact_point(0, F(1, 2)))


def subgroup_order_oracle(t1, t2):
    """|<t1, t2>| in (Q/Z)^2 from the Smith form of [N t1 | N t2 | N I]."""
    n = 1
    for c in (t1.x, t1.y, t2.x, t2.y):
        n = n * c.denominator // math.gcd(n, c.denominator)
    m = [[int(t1.x * n), int(t2.x * n), n, 0],
         [int(t1.y * n), int(t2.y * n), 0, n]]
    _u, d, _v = linalg.smith_normal_form(m)
    return n * n // (d[0][0] * d[1][1])


class TestSigmaImage:
    def test_fixture_values(self, fiber):
        img = sigma_image(fiber, exact_point(0, 0))
        assert {(p.x, p.y) for p in img} == \
            {(F(1, 3), 0), (F(1, 3), F(1, 2)), (0, F(1, 2))}

    def test_degenerate_collapse(self):
        z = exact_point(0, 0)
        f = MarkedFiber(z, z, z)
        x = exact_point(F(1, 7), F(2, 7))
        assert sigma_image(f, x) == frozenset({x + z + z})
        assert len(sigma_image(f, x)) == 1

    def test_translation_equivariance(self, fiber):
        x = exact_point(F(1, 5), F(3, 7))
        c = exact_point(F(2, 9), F(1, 4))
        shifted = {p + c for p in sigma_image(fiber, x)}
        assert sigma_image(fiber, x + c) == frozenset(shifted)

    def test_three_elements_when_sums_distinct(self, fiber):
        assert len(sigma_image(fiber, exact_point(F(1, 11), F(5, 11)))) == 3

    def test_mode_mismatch(self, fiber):
        with pytest.raises(PreconditionError):
            sigma_image(fiber, real_point(0.5, 0.5))


class TestRealPoint:
    def test_coordinate_beyond_the_float_range_is_a_precondition(self):
        for x, y in [(F(10 ** 400), 0), (0, -10 ** 400)]:
            with pytest.raises(PreconditionError, match="too large for a real point"):
                real_point(x, y)

    def test_rationals_convert_as_float_does(self):
        assert real_point(F(7, 2), F(-1, 3)) == real_point(0.5, float(F(-1, 3)) % 1)


class TestModeFromCoordinates:
    def test_the_coordinate_type_sets_the_mode(self):
        assert TorusPoint(F(1, 2), F(0)).exact is True
        assert TorusPoint(0.5, 0.25).exact is False

    @pytest.mark.parametrize("x, y", [(F(1, 2), 0.5), (0.5, F(1, 2)), (0, 0), (True, 0.5)])
    def test_other_coordinates_rejected(self, x, y):
        with pytest.raises(PreconditionError, match=r"^coordinates must be two Fractions "
                                                    r"\(exact\) or two floats \(real\)$"):
            TorusPoint(x, y)

    def test_the_modes_stay_apart_in_eq_and_hash(self):
        exact, real = TorusPoint(F(0), F(0)), TorusPoint(0.0, 0.0)
        assert exact == exact_point(0, 0) and real == real_point(0, 0)
        assert exact != real and len({exact, real}) == 2

    def test_x_and_y_are_the_only_arguments(self):
        assert list(inspect.signature(real_point).parameters) == ["x", "y"]
        with pytest.raises(TypeError):
            TorusPoint(F(0), F(0), True)


class TestRelated:
    def test_generator_translates(self, fiber):
        x = exact_point(F(2, 7), F(3, 11))
        t1, t2, t3 = generators(fiber)
        for g in (t1, t2, t3):
            assert related(fiber, x, x + g)

    def test_shared_point_is_the_predicted_one(self, fiber):
        x = exact_point(F(2, 7), F(3, 11))
        t1 = generators(fiber)[0]
        shared = x + fiber.e1 + fiber.e2
        assert shared in sigma_image(fiber, x)
        assert shared in sigma_image(fiber, x + t1)

    def test_unrelated_translate(self):
        z = exact_point(0, 0)
        f = MarkedFiber(z, z, z)
        x = exact_point(F(1, 8), F(1, 8))
        assert not related(f, x, x + exact_point(F(1, 2), F(1, 2)))

    def test_real_mode_rejected(self):
        z = real_point(0, 0)
        f = MarkedFiber(z, z, z)
        with pytest.raises(PreconditionError):
            related(f, real_point(0.1, 0.2), real_point(0.3, 0.4))


class TestGenerators:
    def test_fixture(self, fiber):
        t1, t2, t3 = generators(fiber)
        assert (t1.x, t1.y) == (F(1, 3), 0)
        assert (t2.x, t2.y) == (F(2, 3), F(1, 2))
        assert (t3.x, t3.y) == (0, F(1, 2))

    def test_degenerate(self):
        z = exact_point(F(1, 5), F(1, 5))
        t1, t2, t3 = generators(MarkedFiber(z, z, z))
        assert (t1.x, t1.y) == (0, 0) and (t2.x, t2.y) == (0, 0)

    def test_sum_vanishes(self, fiber):
        t1, t2, t3 = generators(fiber)
        s = t1 + t2 + t3
        assert (s.x, s.y) == (0, 0)


class TestOrbit:
    def test_fixture_size_six(self, fiber):
        points = orbit(fiber, exact_point(0, 0), depth=3)
        assert len(points) == 6
        t1, t2, _ = generators(fiber)
        assert len(points) == subgroup_order_oracle(t1, t2)

    def test_depth_independent_in_exact_mode(self, fiber):
        x = exact_point(F(1, 9), 0)
        assert orbit(fiber, x, 1) == orbit(fiber, x, 10)

    def test_trivial_generators(self):
        z = exact_point(F(1, 4), F(1, 4))
        f = MarkedFiber(z, z, z)
        x = exact_point(F(1, 6), F(1, 6))
        points = orbit(f, x, 5)
        assert points == (x,)

    def test_oracle_on_random_fibers(self):
        rng = random.Random(23)
        for _ in range(40):
            pts = [exact_point(F(rng.randint(0, 5), rng.randint(1, 6)),
                               F(rng.randint(0, 5), rng.randint(1, 6)))
                   for _ in range(3)]
            f = MarkedFiber(*pts)
            t1, t2, _ = generators(f)
            x = exact_point(F(1, 7), F(2, 7))
            assert len(orbit(f, x, 2)) == subgroup_order_oracle(t1, t2)

    def test_translation_equivariance(self, fiber):
        x = exact_point(F(1, 9), F(2, 9))
        c = exact_point(F(3, 5), F(4, 5))
        left = {((p + c).x, (p + c).y) for p in orbit(fiber, x, 4)}
        right = {(p.x, p.y) for p in orbit(fiber, x + c, 4)}
        assert left == right

    def test_real_orbit_grows_with_depth(self):
        e0 = real_point(0, 0)
        e1 = real_point(math.sqrt(2), 0)
        e2 = real_point(math.sqrt(2), math.sqrt(3))
        f = MarkedFiber(e0, e1, e2)
        x = real_point(0, 0)
        n10 = len(orbit(f, x, 10))
        n20 = len(orbit(f, x, 20))
        assert n10 == 2 * 10 * 10 + 2 * 10 + 1  # no collisions at tolerance
        assert n20 > n10


class TestOrbitSize:
    def test_fixture(self, fiber):
        assert orbit_size(fiber, exact_point(0, 0), 3) == 6

    def test_equals_the_listed_orbit_on_random_fibers(self):
        rng = random.Random(31)
        for _ in range(320):
            def point():
                return exact_point(F(rng.randint(0, 7), rng.randint(1, 6)),
                                   F(rng.randint(0, 7), rng.randint(1, 6)))
            f = MarkedFiber(point(), point(), point())
            x, depth = point(), rng.randint(1, 4)
            size = orbit_size(f, x, depth)
            assert size == len(orbit(f, x, depth))
            t1, t2, _ = generators(f)
            assert size == subgroup_order_oracle(t1, t2)

    def test_large_torsion_order(self):
        z = exact_point(0, 0)
        f = MarkedFiber(z, exact_point(F(1, 1000), F(1, 999)), z)
        assert orbit_size(f, z, 1) == 999000

    def test_checks(self, fiber):
        with pytest.raises(PreconditionError, match="depth"):
            orbit_size(fiber, exact_point(0, 0), 0)
        with pytest.raises(PreconditionError, match="mixed"):
            orbit_size(fiber, real_point(0, 0), 1)
        z = real_point(0, 0)
        with pytest.raises(PreconditionError, match="exact mode"):
            orbit_size(MarkedFiber(z, real_point(0.5, 0), z), z, 1)


class TestCoveringRadius:
    def test_single_point(self):
        assert covering_radius([real_point(0, 0)], 10) == 0.5

    def test_full_grid(self):
        pts = [real_point(i / 10, j / 10) for i in range(10) for j in range(10)]
        assert covering_radius(pts, 10) <= 1 / 20

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            covering_radius([], 10)


def covering_radius_loops(points, grid):
    """The covering radius by plain loops over samples and points, with
    the same float formulas: |p - i/grid| wrapped by min(d, 1 - d)."""
    worst = 0.0
    for i in range(grid):
        for j in range(grid):
            nearest = math.inf
            for p in points:
                dx = abs(p.x - i / grid)
                dy = abs(p.y - j / grid)
                nearest = min(nearest, max(min(dx, 1.0 - dx), min(dy, 1.0 - dy)))
            worst = max(worst, nearest)
    return worst


class TestCoveringRadiusAgainstLoops:
    def test_random_point_sets(self):
        rng = random.Random(29)
        for grid in (1, 2, 3, 5, 8, 13, 16):
            for n in (1, 2, 7, 40):
                pts = [real_point(rng.random(), rng.random()) for _ in range(n)]
                assert covering_radius(pts, grid) == covering_radius_loops(pts, grid)

    def test_real_orbit(self):
        e1 = real_point(math.sqrt(2), 0)
        e2 = real_point(math.sqrt(2), math.sqrt(3))
        pts = orbit(MarkedFiber(real_point(0, 0), e1, e2), real_point(0.1, 0.7), 8)
        for grid in (1, 7, 12):
            assert covering_radius(pts, grid) == covering_radius_loops(pts, grid)

    def test_points_at_zero_and_near_one(self):
        below = math.nextafter(1.0, 0.0)
        sets = [
            [real_point(0, 0)],
            [real_point(below, below)],
            [real_point(0, below), real_point(below, 0)],
            [real_point(0.5, 0.5), real_point(below, 0.25), real_point(0.0, 0.75)],
            [real_point(1 - 1e-9, 1e-9), real_point(0.3, 1 - 1e-12)],
        ]
        for pts in sets:
            for grid in (1, 2, 4, 9):
                assert covering_radius(pts, grid) == covering_radius_loops(pts, grid)


def reduced(v):
    """v % 1.0, with the 1.0 that a tiny negative v rounds to taken as 0.0."""
    r = v % 1.0
    return 0.0 if r == 1.0 else r


def orbit_loops(fiber, x, depth):
    """The real orbit by the plain pair loop: points keyed by their
    coordinates rounded to 12 decimals, the first in (a, b) order kept."""
    t1, t2, _ = generators(fiber)
    seen = {}
    for a in range(-depth, depth + 1):
        for b in range(-(depth - abs(a)), depth - abs(a) + 1):
            px = reduced(x.x + a * t1.x + b * t2.x)
            py = reduced(x.y + a * t1.y + b * t2.y)
            seen.setdefault((round(px, 12) % 1.0, round(py, 12) % 1.0), (px, py))
    return tuple(TorusPoint(px, py) for px, py in sorted(seen.values()))


def covering_radius_cells(points, grid):
    """The covering radius by one numpy pass over all points per grid cell."""
    import numpy as np
    arr = np.asarray([(p.x, p.y) for p in points])
    samples = np.arange(grid) / grid
    dx = np.abs(arr[:, 0][None, :] - samples[:, None])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(arr[:, 1][None, :] - samples[:, None])
    dy = np.minimum(dy, 1.0 - dy)
    worst = 0.0
    for i in range(grid):
        for j in range(grid):
            worst = max(worst, float(np.min(np.maximum(dx[i], dy[j]))))
    return worst


SQRT = {"sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3), "sqrt5": math.sqrt(5)}


def irrational_fiber(s1, s2):
    return MarkedFiber(real_point(0, 0), real_point(SQRT[s1], 0),
                       real_point(SQRT[s1], SQRT[s2]))


class TestRealOrbitAgainstLoops:
    def test_irrational_fibers(self):
        rng = random.Random(31)
        for depth in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100):
            f = irrational_fiber(rng.choice(list(SQRT)), rng.choice(list(SQRT)))
            x = real_point(rng.random(), rng.random())
            assert orbit(f, x, depth) == orbit_loops(f, x, depth)
        marks = [real_point(rng.random(), rng.random()) for _ in range(3)]
        for depth in (1, 4, 30):
            x = real_point(rng.random(), rng.random())
            assert orbit(MarkedFiber(*marks), x, depth) == orbit_loops(MarkedFiber(*marks), x, depth)

    def test_closing_rational_fibers_merge(self):
        rng = random.Random(37)
        for _ in range(30):
            # denominators up to 4: at most 144 distinct points, fewer than
            # the 2 d^2 + 2 d + 1 translates once d >= 9
            marks = [real_point(F(rng.randint(0, 3), rng.randint(1, 4)),
                                F(rng.randint(0, 3), rng.randint(1, 4))) for _ in range(3)]
            f = MarkedFiber(*marks)
            x = real_point(F(rng.randint(0, 10), 11), rng.random())
            depth = rng.randint(9, 25)
            points = orbit(f, x, depth)
            assert points == orbit_loops(f, x, depth)
            assert len(points) <= 144

    def test_dyadic_coordinates_tie_in_the_rounding(self, monkeypatch):
        calls = []
        monkeypatch.setattr(torus, "round", lambda v, n: calls.append(v) or round(v, n),
                            raising=False)
        rng = random.Random(41)
        for _ in range(20):
            marks = [real_point(F(rng.randrange(8192), 8192), F(rng.randrange(8192), 8192))
                     for _ in range(3)]
            x = real_point(F(rng.randrange(8192), 8192), F(rng.randrange(8192), 8192))
            depth = rng.randint(1, 12)
            assert orbit(MarkedFiber(*marks), x, depth) == orbit_loops(MarkedFiber(*marks), x, depth)
        assert calls

    def test_scaled_fraction_near_one_half(self, monkeypatch):
        # x at 13 decimals ending in 5: x * 1e12 lies within 2**-12 of n + 1/2,
        # where the float product and the decimal rounding can disagree
        calls = []
        monkeypatch.setattr(torus, "round", lambda v, n: calls.append(v) or round(v, n),
                            raising=False)
        rng = random.Random(43)
        for _ in range(60):
            q = rng.choice((3, 5, 6, 7, 9, 10))
            f = MarkedFiber(real_point(0, 0), real_point(1 / q, 0), real_point(1 / q, 2 / q))
            x = real_point((rng.randrange(10 ** 12) + 0.5) / 1e12, rng.random())
            assert orbit(f, x, 6) == orbit_loops(f, x, 6)
        assert calls

    def test_keys_equal_round_in_the_band(self):
        import numpy as np
        rng = random.Random(47)
        values = np.array([(rng.randrange(10 ** 12) + 0.5 + rng.uniform(-1e-4, 1e-4)) / 1e12
                           for _ in range(2000)])
        want = [round(v, 12) % 1.0 for v in values.tolist()]
        assert torus._round12(values).tolist() == want
        # the rint of the float product alone gets some of them wrong
        assert (np.rint(values * 1e12) / 1e12).tolist() != want

    def test_orbit_density_of_cli_argvs(self, capsys):
        rng = random.Random(53)
        tokens = ["0", "1/2", "1/3", "-2/3", "1/10", "3/10", "-1/10", "5/8", "1/8192",
                  "sqrt2", "sqrt3", "sqrt5"]

        def point(text):
            xy = [SQRT[t] if t in SQRT else float(F(t)) for t in text.split(",")]
            return real_point(*xy)

        for _ in range(200):
            texts = [f"{rng.choice(tokens)},{rng.choice(tokens)}" for _ in range(4)]
            depth, grid = rng.randint(1, 30), rng.choice((1, 2, 3, 5, 8, 16, 32))
            f, x = MarkedFiber(*map(point, texts[:3])), point(texts[3])
            points = orbit_loops(f, x, depth)
            want = (len(points), covering_radius_cells(points, grid))
            assert orbit_density(f, x, depth, grid) == want
            argv = [f"--{k}={t}" for k, t in zip(("e0", "e1", "e2", "x"), texts)]
            assert main(["sigma-orbit", *argv, "--depth", str(depth), "--real",
                         "--grid", str(grid)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["size"], doc["covering_radius"]) == want

    def test_depth_100_covering_radius_against_cells(self):
        f = irrational_fiber("sqrt2", "sqrt3")
        x = real_point(F(3, 7), F(5, 7))
        points = orbit(f, x, 100)
        radius = covering_radius_cells(points, 32)
        assert covering_radius(points, 32) == radius
        assert orbit_density(f, x, 100, 32) == (20201, radius)

    def test_orbit_density_checks(self, fiber):
        real = irrational_fiber("sqrt2", "sqrt5")
        with pytest.raises(PreconditionError, match="real-mode"):
            orbit_density(fiber, exact_point(0, 0), 3, 8)
        with pytest.raises(PreconditionError, match="depth"):
            orbit_density(real, real_point(0, 0), 0, 0)
        with pytest.raises(PreconditionError, match="grid"):
            orbit_density(real, real_point(0, 0), 3, 0)


class TestReductionModOne:
    """A float a little below 0 gives v % 1.0 == 1.0; it is 0 mod 1."""

    def test_real_point(self):
        assert real_point(-1e-17, 0) == real_point(0, 0)

    def test_difference(self):
        d = real_point(0.3, 0) - real_point(0.30000000000000004, 0)
        assert (d.x, d.y) == (0.0, 0.0)

    def test_orbit(self):
        z = real_point(0, 0)
        f = MarkedFiber(z, z, real_point(0.1, 0))
        assert orbit(f, real_point(0.3, 0), 6) == orbit_loops(f, real_point(0.3, 0), 6)

    def test_cli(self, capsys):
        assert main(["sigma-orbit", "--e0=0,0", "--e1=0,0", "--e2=1/10,0", "--x=3/10,0",
                     "--depth", "6", "--real"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 10 and doc["covering_radius"] == 0.5


class TestSparseCoveringRadius:
    """Point sets so sparse that the search radius doubles past 1/grid."""

    @pytest.mark.parametrize("pts", [
        [(0.37, 0.81)],
        [(0.0, 0.0), (0.004, 0.001), (0.999, 0.002), (0.003, 0.9995)],
        [(0.5, 0.5), (0.51, 0.5)],
    ])
    @pytest.mark.parametrize("grid", [1, 2, 3, 7, 16, 32])
    def test_against_loops(self, pts, grid):
        points = [real_point(x, y) for x, y in pts]
        assert covering_radius(points, grid) == covering_radius_loops(points, grid)


class TestCoveringRadiusStartRadius:
    """The search starts at min(1/grid, N**-1/2) for N points; each case
    is checked with == against the loop and per-cell oracles."""

    def check(self, pts, grid):
        points = [real_point(x, y) for x, y in pts]
        want = covering_radius_loops(points, grid)
        assert covering_radius(points, grid) == want == covering_radius_cells(points, grid)

    @pytest.mark.parametrize("n, grid", [(50, 2), (200, 4), (300, 8), (30, 1), (5, 1)])
    def test_more_points_than_samples(self, n, grid):
        # N > grid**2: the start radius is below 1/grid
        rng = random.Random(81 + n)
        self.check([(rng.random(), rng.random()) for _ in range(n)], grid)

    @pytest.mark.parametrize("grid", [1, 3, 8, 16])
    def test_clusters_with_empty_gaps(self, grid):
        # far samples need several doublings from the small start radius
        rng = random.Random(82 + grid)
        pts = [(0.1 + 0.01 * rng.random(), 0.15 + 0.01 * rng.random()) for _ in range(300)]
        pts += [(0.62 + 0.005 * rng.random(), 0.7 + 0.005 * rng.random()) for _ in range(40)]
        self.check(pts, grid)

    @pytest.mark.parametrize("n, grid", [(2, 4), (10, 16), (60, 9)])
    def test_fewer_points_than_samples(self, n, grid):
        rng = random.Random(83 + n)
        self.check([(rng.random(), rng.random()) for _ in range(n)], grid)

    @pytest.mark.parametrize("grid", [1, 2, 5, 32])
    def test_single_point(self, grid):
        self.check([(0.3, 0.9)], grid)

    def test_orbit_density_checks_grid_before_the_orbit(self, monkeypatch):
        def no_orbit(*args):
            raise AssertionError("orbit built")
        monkeypatch.setattr(torus, "_real_orbit", no_orbit)
        real = irrational_fiber("sqrt2", "sqrt3")
        with pytest.raises(PreconditionError, match="^grid must be positive$"):
            orbit_density(real, real_point(0, 0), 100, 0)
        with pytest.raises(PreconditionError, match="^depth must be positive$"):
            orbit_density(real, real_point(0, 0), 0, 0)
        with pytest.raises(PreconditionError, match="real-mode"):
            orbit_density(MarkedFiber(exact_point(0, 0), exact_point(0, 0),
                                      exact_point(0, 0)), exact_point(0, 0), 3, 0)


class TestSizeCap:
    """A real orbit of more than REAL_SIZE_CAP points (2 d^2 + 2 d + 1 at
    depth d), or a grid of more samples, is an input fault, rejected
    before any array is built; no test here allocates a large array."""

    @pytest.fixture(autouse=True)
    def no_orbit(self, monkeypatch):
        def no_orbit(*args):
            raise MemoryError("orbit built")
        monkeypatch.setattr(torus, "_real_orbit", no_orbit)

    def test_edges(self):
        # depth 2235 gives 9,994,921 points and grid 3162 9,998,244 samples
        assert torus.REAL_SIZE_CAP == 10 ** 7
        real = irrational_fiber("sqrt2", "sqrt3")
        x = real_point(0, 0)
        for depth, grid in [(2235, 32), (100, 3162)]:
            with pytest.raises(MemoryError, match="orbit built"):
                orbit_density(real, x, depth, grid)
        with pytest.raises(MemoryError, match="orbit built"):
            orbit(real, x, 2235)
        with pytest.raises(PreconditionError, match="^--depth too large: 10003865 orbit points, "
                                                    "more than 10000000$"):
            orbit_density(real, x, 2236, 32)
        with pytest.raises(PreconditionError, match="^--depth too large"):
            orbit(real, x, 2236)
        with pytest.raises(PreconditionError, match="^--grid too large: 10004569 samples, "
                                                    "more than 10000000$"):
            orbit_density(real, x, 100, 3163)
        with pytest.raises(PreconditionError, match="^--grid too large"):
            covering_radius([x], 3163)

    def test_exact_mode_has_no_cap(self):
        exact = MarkedFiber(exact_point(0, 0), exact_point(F(1, 3), 0), exact_point(0, F(1, 2)))
        assert orbit_size(exact, exact_point(0, 0), 10 ** 6) == 6
        assert len(orbit(exact, exact_point(0, 0), 10 ** 6)) == 6

    @pytest.mark.parametrize("option, value", [("--depth", "100000"), ("--grid", "4000")])
    def test_cli_exits_2(self, option, value, capsys):
        argv = ["sigma-orbit", "--e0=0,0", "--e1=sqrt2,0", "--e2=0,sqrt3", "--x=0,0", "--real",
                option, value]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"hkcone: {option} too large: ")


def test_cli_import_leaves_numpy_out():
    src = str(Path(hkcone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, hkcone.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def covering_radius_columns(points, grid):
    """The column search that computed covering_radius before the square
    search: for the samples of column i only points with dx <= r can be
    nearest once some point lies within r; r starts at min(1/grid, N**-1/2)
    for N points and doubles for the samples still without one."""
    import numpy as np
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    samples = np.arange(grid) / grid
    worst = 0.0
    for s in samples:
        dx = np.abs(xs - s)
        dx = np.minimum(dx, 1.0 - dx)
        pending, r = samples, min(1.0 / grid, len(xs) ** -0.5)
        while len(pending):
            near = dx <= r
            if near.any():
                dy = np.abs(ys[near][None, :] - pending[:, None])
                dy = np.minimum(dy, 1.0 - dy)
                nearest = np.maximum(dx[near][None, :], dy).min(axis=1)
                done = (nearest <= r) | near.all()
                if done.any():
                    worst = max(worst, float(nearest[done].max()))
                pending = pending[~done]
            r *= 2
    return worst


class TestCoveringRadiusRegimes:
    """The square search against the loop, per-cell and column oracles,
    with ==, for N points and grid**2 samples in each regime.  A sample's
    square has half-side torus._reach(N); the samples it leaves unsettled
    take the column search."""

    def check_orbit(self, f, x, depth, grid, oracle):
        points = orbit_loops(f, x, depth)
        want = oracle(points, grid)
        assert covering_radius(points, grid) == want
        assert orbit_density(f, x, depth, grid) == (len(points), want)

    @pytest.mark.parametrize("depth, grid, oracle", [
        (20, 1, covering_radius_loops), (20, 4, covering_radius_loops),
        (60, 8, covering_radius_cells), (100, 16, covering_radius_cells),
    ])
    def test_many_more_points_than_samples(self, depth, grid, oracle):
        self.check_orbit(irrational_fiber("sqrt2", "sqrt5"), real_point(0.2, 0.9), depth, grid,
                         oracle)

    @pytest.mark.parametrize("depth, grid", [(22, 32), (30, 43), (45, 64)])
    def test_about_as_many_points_as_samples(self, depth, grid):
        self.check_orbit(irrational_fiber("sqrt3", "sqrt2"), real_point(F(5, 7), F(1, 7)), depth,
                         grid, covering_radius_cells)

    @pytest.mark.parametrize("depth, grid, oracle", [
        (1, 64, covering_radius_loops), (3, 64, covering_radius_loops),
        (5, 100, covering_radius_cells), (10, 128, covering_radius_cells),
    ])
    def test_many_fewer_points_than_samples(self, depth, grid, oracle):
        self.check_orbit(irrational_fiber("sqrt5", "sqrt3"), real_point(0.61, 0.05), depth, grid,
                         oracle)

    def test_closing_rational_fibers(self):
        rng = random.Random(91)
        for _ in range(12):
            marks = [real_point(F(rng.randint(0, 3), rng.randint(1, 4)),
                                F(rng.randint(0, 3), rng.randint(1, 4))) for _ in range(3)]
            x = real_point(F(rng.randint(0, 10), 11), rng.random())
            self.check_orbit(MarkedFiber(*marks), x, rng.randint(9, 20), rng.choice((8, 32, 64)),
                             covering_radius_cells)

    def test_an_orbit_on_one_line(self):
        # t2 = 0: the 2 d + 1 points share one y, and most samples are far from all of them
        f = MarkedFiber(real_point(0, 0), real_point(math.sqrt(2), 0), real_point(math.sqrt(2), 0))
        for grid in (4, 16, 32):
            self.check_orbit(f, real_point(0.3, 0.4), 40, grid, covering_radius_cells)

    @pytest.mark.parametrize("grid", [1, 8, 32])
    def test_clusters_with_empty_gaps(self, grid):
        # shaped like TestCoveringRadiusStartRadius, with enough points for small squares
        rng = random.Random(92 + grid)
        pts = [(0.1 + 0.01 * rng.random(), 0.15 + 0.01 * rng.random()) for _ in range(2000)]
        pts += [(0.62 + 0.005 * rng.random(), 0.7 + 0.005 * rng.random()) for _ in range(60)]
        pts += [(0.97 + 0.03 * rng.random(), 0.01 * rng.random()) for _ in range(40)]
        points = [real_point(x, y) for x, y in pts]
        assert covering_radius(points, grid) == covering_radius_cells(points, grid)

    @pytest.mark.parametrize("grid", [3, 7, 16])
    def test_points_on_sample_lines_and_square_edges(self, grid):
        # coordinates k/grid and k/grid +- r, each also one float to either side
        n = 5 * grid
        r = torus._reach(n)
        lines = []
        for k in range(grid):
            for v in (k / grid, k / grid + r, k / grid - r):
                lines += [v, math.nextafter(v, -1.0), math.nextafter(v, 2.0)]
        rng = random.Random(93 + grid)
        points = [real_point(rng.choice(lines), rng.choice(lines)) for _ in range(n)]
        assert covering_radius(points, grid) == covering_radius_loops(points, grid)

    @pytest.mark.parametrize("grid", [1, 2, 8, 16])
    def test_points_at_zero_and_just_below_one(self, grid):
        below = math.nextafter(1.0, 0.0)
        seam = [real_point(0, 0), real_point(below, below), real_point(0, below),
                real_point(below, 0), real_point(below, 0.5), real_point(0.5, below)]
        rng = random.Random(94 + grid)
        for extra in (0, 10, 200):
            points = seam + [real_point(rng.random(), rng.random()) for _ in range(extra)]
            assert covering_radius(points, grid) == covering_radius_cells(points, grid)
            assert covering_radius(seam[:1 + extra % 5], grid) == \
                covering_radius_loops(seam[:1 + extra % 5], grid)

    # (grid, sample column, q, p): q lies one float outside the square of
    # sample (column/grid, 0) along x though it is nearer than r, and p lies
    # inside it along y, between q's distance and r.  Without the margin the
    # square search would settle that sample at p's distance.
    @pytest.mark.parametrize("grid, column, q, p", [
        (23, 13, 0.5275641128789375, 0.03765327842541034),
        (25, 14, 0.5946410161513775, 0.0346410161513775),
    ])
    def test_the_margin_keeps_a_point_just_outside_a_square(self, grid, column, q, p):
        # two points on every other sample: those samples are at 0, and their
        # points lie 1/grid > r away from the lone sample's square
        others = [real_point(i / grid, j / grid) for i in range(grid) for j in range(grid)
                  if (i, j) != (column, 0)]
        points = 2 * others + [real_point(q, 0.0), real_point(column / grid, p)]
        r = torus._reach(len(points))
        assert 1 / grid > r > p > abs(q - column / grid)
        want = covering_radius_cells(points, grid)
        assert want == abs(q - column / grid)
        assert covering_radius(points, grid) == want

    def test_depth_150_against_the_column_search(self):
        f = irrational_fiber("sqrt3", "sqrt2")
        x = real_point(F(1, 7), F(4, 7))
        points = orbit(f, x, 150)
        want = covering_radius_columns(points, 256)
        assert covering_radius(points, 256) == want
        assert orbit_density(f, x, 150, 256) == (len(points), want)


class TestKeyOrderAndPointOrder:
    """The merge returns points in key order (12-decimal x, then y); two
    points whose x values differ by less than 1e-12 can share an x key with
    their y values the other way round, and then only `orbit` sorts them
    by (x, y)."""

    FIBER = MarkedFiber(real_point(0, 0), real_point(3e-13, -0.3),
                        real_point(math.sqrt(2), math.sqrt(3)))

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_orbit_sorts_by_x_then_y(self, depth):
        x = real_point(0.25, 0.5)
        t1, t2, _ = generators(self.FIBER)
        xs, ys = torus._real_orbit(x, t1, t2, depth)
        merged = list(zip(xs.tolist(), ys.tolist()))
        assert merged != sorted(merged)
        assert sorted(merged) == [(p.x, p.y) for p in orbit_loops(self.FIBER, x, depth)]
        assert orbit(self.FIBER, x, depth) == orbit_loops(self.FIBER, x, depth)

    @pytest.mark.parametrize("grid", [1, 4, 16])
    def test_orbit_density(self, grid):
        x = real_point(0.25, 0.5)
        points = orbit_loops(self.FIBER, x, 6)
        want = (len(points), covering_radius_cells(points, grid))
        assert orbit_density(self.FIBER, x, 6, grid) == want


CLUSTERED = MarkedFiber(real_point(0, 0), real_point(1e-6, 0), real_point(1e-6, 1e-6))


@pytest.mark.parametrize("f, depth, grid", [
    (irrational_fiber("sqrt2", "sqrt3"), 200, 500),
    # every orbit point within 1e-4 of x: the column search takes nearly
    # every sample, with all 20201 points near it
    (CLUSTERED, 100, 32),
])
def test_orbit_density_peak_memory(f, depth, grid):
    # REAL_SIZE_CAP's figures: at most 73 bytes per orbit point (before
    # merging) plus 11 bytes per grid sample, as tracemalloc sees numpy's buffers
    import tracemalloc
    x = real_point(0.1, 0.2)
    orbit_density(f, x, 3, 4)
    tracemalloc.start()
    try:
        orbit_density(f, x, depth, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 73 * (2 * depth * (depth + 1) + 1) + 11 * grid ** 2


def test_clustered_orbit_against_cells():
    x = real_point(0.1, 0.2)
    points = orbit_loops(CLUSTERED, x, 100)
    want = (len(points), covering_radius_cells(points, 32))
    assert orbit_density(CLUSTERED, x, 100, 32) == want
