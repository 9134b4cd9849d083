import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hkcone
from hkcone import linalg
from hkcone.errors import PreconditionError
from hkcone.torus import (MarkedFiber, covering_radius, exact_point,
                          generators, is_torsion, orbit, real_point, related,
                          sigma_image)

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
        e1 = real_point(math.sqrt(2), 0, irrational=True)
        e2 = real_point(math.sqrt(2), math.sqrt(3), irrational=True)
        f = MarkedFiber(e0, e1, e2)
        x = real_point(0, 0)
        n10 = len(orbit(f, x, 10))
        n20 = len(orbit(f, x, 20))
        assert n10 == 2 * 10 * 10 + 2 * 10 + 1  # no collisions at tolerance
        assert n20 > n10


class TestTorsion:
    def test_third(self):
        assert is_torsion(exact_point(F(1, 3), 0)) == (True, 3)

    def test_origin(self):
        assert is_torsion(exact_point(0, 0)) == (True, 1)

    def test_lcm(self):
        assert is_torsion(exact_point(F(1, 4), F(1, 6))) == (True, 12)

    def test_flagged_irrational(self):
        assert is_torsion(real_point(math.sqrt(2), 0, irrational=True)) == (False, None)

    def test_unflagged_real_rejected(self):
        with pytest.raises(PreconditionError):
            is_torsion(real_point(0.25, 0))


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
        e1 = real_point(math.sqrt(2), 0, irrational=True)
        e2 = real_point(math.sqrt(2), math.sqrt(3), irrational=True)
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


def test_cli_import_leaves_numpy_out():
    src = str(Path(hkcone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, hkcone.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
