"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import sqrt

import numpy as np

from hkcone import fixtures, linalg, mukai
from hkcone import symplectic as sp
from hkcone import torus
from hkcone.cone import enumerate_wall_classes, factor_path
from hkcone.errors import PreconditionError
from hkcone.lattice import mod_four_class
from hkcone.mbm import classify, dual_solve, primitive_rescale
from hkcone.render import build_scene, klein_coords, render_svg

F = Fraction

# frozen after one oracle run: measured 0.006719 at depth 100, grid 32
COVERING_RADIUS_TOL = 0.0075


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_orbit_invariant_table(quartic, table, named):
    with criterion(1, "orbit invariants of the seven named classes"):
        expected = {
            "delta": (-4, 4), "alpha": (-2, 1), "eps": (-4, 2),
            "beta": (-36, 4), "eta": (-36, 4), "zeta": (-36, 4),
            "gamma": (-12, 2),
        }
        t0 = time.monotonic()
        for name, (square, d) in expected.items():
            cls = named[name]
            assert quartic.square(cls) == square
            assert quartic.divisibility(cls) == d
            row = classify(quartic, table, cls)
            assert row is not None
            assert (row.square, row.divisibility) == (square, d)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_zeta_reconstruction(quartic, named):
    with criterion(2, "curve-class solve and primitive rescale, exact"):
        x = dual_solve(quartic, [(named["C"], 1), (named["F"], 3), (named["eps"], 1)])
        assert x == (1, 1, F(-5, 4))
        primitive, scale = primitive_rescale(x)
        assert primitive == (4, 4, -5)
        assert scale == 4
        assert primitive == named["zeta"]
        assert quartic.divisibility(named["zeta"]) == scale


def test_criterion_3_isotropic_cusps(quartic):
    with criterion(3, "isotropic cusps land on the Klein boundary"):
        f_cls = (0, 1, 0)
        other = (1, 1, -1)
        assert quartic.square(f_cls) == 0
        assert quartic.square(other) == 0
        for cusp in (f_cls, other):
            u, v = klein_coords(quartic, cusp)
            assert abs(u * u + v * v - 1.0) < 1e-9


def test_criterion_4_wall_enumeration_completeness(quartic, table, named):
    with criterion(4, "wall enumeration complete against the |c|<=40 box scan"):
        t0 = time.monotonic()
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), fixtures.ENUM_BOUND)
        classes = {x for x, _ in walls}
        for name in ("delta", "alpha", "eps", "beta", "eta", "zeta", "gamma"):
            assert named[name] in classes

        g_mat = np.array(quartic.gram, dtype=np.int64)
        p = np.array([4, 4, -1], dtype=np.int64)
        g = int(p @ g_mat @ p)
        gp = g_mat @ p
        r = np.arange(-40, 41, dtype=np.int64)
        x = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        s = np.einsum("ij,jk,ik->i", x, g_mat, x)
        t = x @ gp
        bound = fixtures.ENUM_BOUND
        region = bound.denominator * t * t <= bound.numerator * (-s) * g
        canon = np.zeros(len(x), dtype=bool)
        undecided = np.ones(len(x), dtype=bool)
        for col in range(3):
            canon |= undecided & (x[:, col] > 0)
            undecided &= x[:, col] == 0
        prim = np.gcd.reduce(np.abs(x), axis=1) == 1
        ideals = np.array(quartic.ambient_ideals, dtype=np.int64)
        div = np.gcd.reduce(np.abs(x) * ideals[None, :], axis=1)
        rows = {(o.square, o.divisibility): o.name for o in table.orbits}
        squares = np.array(sorted({o.square for o in table.orbits}), dtype=np.int64)
        oracle = []
        for i in np.nonzero(np.isin(s, squares) & region & canon & prim)[0]:
            key = (int(s[i]), int(div[i]))
            if key in rows:
                oracle.append((tuple(int(c) for c in x[i]), rows[key]))
        oracle.sort(key=lambda item: item[0])
        assert [(x_, sig.name) for x_, sig in walls] == oracle
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_flop_chain(quartic, table):
    with criterion(5, "chamber-1 to chamber-4 chain: 3 crossings, 2 groups"):
        a = fixtures.chamber_point(1)
        b = fixtures.chamber_point(4)
        f = factor_path(quartic, table, a, b, fixtures.PATH_BOUND)
        assert f.status == "ok"
        assert len(f.steps) == 3
        sigs = [(s.signature.square, s.signature.divisibility) for s in f.steps]
        assert sigs == [(-36, 4), (-12, 2), (-36, 4)]
        assert [s.codimension for s in f.steps] == [2, 3, 2]
        ts = [s.t for s in f.steps]
        assert ts == sorted(ts) and len(set(ts)) == 3
        assert all(0 < t < 1 for t in ts)
        assert f.groups == ((0, 1), (2,))


def test_criterion_6_mukai_local_model():
    with criterion(6, "local flop model: 1000 random points per k in 1..4"):
        rng = random.Random(2024)

        def rand_frac():
            return F(rng.randint(-9, 9), rng.randint(1, 6))

        for k in (1, 2, 3, 4):
            n = k + 1
            for _ in range(1000):
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
                m = mukai.make_point(u, phi)
                # membership invariants
                a = m.a
                assert all(all(c == 0 for c in row)
                           for row in linalg.mat_mul(a, a))
                assert linalg.rank(a) <= 1
                for j in range(n):
                    col = tuple(a[i][j] for i in range(n))
                    if any(col):
                        assert mukai.proportional(col, u)
                assert mukai.check_diagram(m)
                back = mukai.flop_dual(mukai.flop(m))
                assert mukai.proportional(back.u, m.u)
                assert back.a == m.a
            try:
                mukai.flop(mukai.make_point(tuple(int(i == 0) for i in range(n)),
                                            tuple(0 for _ in range(n))))
                raise AssertionError("zero section must be rejected")
            except PreconditionError:
                pass


def test_criterion_7_symplectic_rank_properties():
    with criterion(7, "10000 random subspaces satisfy the rank laws, exactly"):
        rng = random.Random(7_000)
        for _ in range(10_000):
            n = rng.randint(1, 6)
            dim = 2 * n
            space = sp.standard_space(n)
            m = rng.randint(1, dim)
            while True:
                rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(m)]
                if linalg.rank(rows) == m:
                    break
            w = sp.subspace(rows)
            r = sp.restriction_rank(space, w)
            assert r % 2 == 0
            assert 0 <= r <= w.dim
            pair_zero = all(linalg.dot(u, linalg.mat_vec(space.omega, v)) == 0
                            for u in w.basis for v in w.basis)
            assert sp.is_isotropic(space, w) == (r == 0) == pair_zero
            lower = w.dim - (dim - w.dim)
            assert r >= lower or not sp.is_coisotropic(space, w)
            assert (r == lower) == sp.is_coisotropic(space, w)
            if m > 1:
                w_sub = sp.subspace(rows[:rng.randint(1, m - 1)])
                assert sp.restriction_rank(space, w_sub) <= r
            while True:
                g = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
                if linalg.determinant(g) != 0:
                    break
            f = linalg.mat_mul(linalg.transpose(rows), g)
            assert sp.pullback_rank(space, f) == r


def test_criterion_8_sigma_orbit():
    with criterion(8, "orbit size 6 exactly; dense real orbit at depth 100"):
        fiber = torus.MarkedFiber(torus.exact_point(0, 0),
                                  torus.exact_point(F(1, 3), 0),
                                  torus.exact_point(0, F(1, 2)))
        x = torus.exact_point(F(2, 7), F(3, 7))
        points = torus.orbit(fiber, x, depth=5)
        assert len(points) == 6
        t1 = torus.generators(fiber)[0]
        assert torus.related(fiber, x, x + t1)
        shared = x + fiber.e1 + fiber.e2
        assert shared in torus.sigma_image(fiber, x)
        assert shared in torus.sigma_image(fiber, x + t1)

        rfiber = torus.MarkedFiber(
            torus.real_point(0, 0),
            torus.real_point(sqrt(2), 0),
            torus.real_point(sqrt(2), sqrt(3)))
        g1, g2, _ = torus.generators(rfiber)
        assert (abs(g1.x - sqrt(2) % 1) < 1e-15 and g1.y == 0)
        assert (g2.x == 0 and abs(g2.y - sqrt(3) % 1) < 1e-15)
        orb = torus.orbit(rfiber, torus.real_point(0, 0), depth=100)
        radius = torus.covering_radius(orb, grid=32)
        assert radius < COVERING_RADIUS_TOL
        assert radius < 0.05


def test_criterion_9_figure_reproduction(quartic, table, named):
    with criterion(9, "disk rendering: >=30 chords, residue colors, stable bytes"):
        def make():
            scene = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND)
            return scene, render_svg(scene)

        scene, doc = make()
        assert len(scene.walls) >= 30
        assert doc.count("<line") == len(scene.walls)
        residues = {ch.wall_class: ch.residue for ch in scene.walls}
        assert residues[named["alpha"]] == 0
        for name in ("delta", "beta", "eta", "zeta"):
            assert residues[named[name]] == 1
        for name in ("eps", "gamma"):
            assert residues[named[name]] == 2
        for cls, residue in residues.items():
            assert mod_four_class(quartic, cls) == residue
        color = {0: "#000000", 1: "#0000FF", 2: "#FF0000"}
        for ch in scene.walls:
            assert color[ch.residue] in doc
        _scene2, doc2 = make()
        assert doc2 == doc
