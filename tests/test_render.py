import hashlib
import math
import random
import xml.dom.minidom
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from hkcone import fixtures, linalg
from hkcone import lattice as lattice_module
from hkcone import render as render_module
from hkcone.cone import enumerate_wall_classes, factor_path
from hkcone.errors import PreconditionError
from hkcone.lattice import IntegralLattice, load_lattice, make_lattice, mod_four_class
from hkcone.mbm import classify, primitive_rescale, table_from_dict
from hkcone.rational import integral
from hkcone.render import (DiskScene, WallChord, _DiskFrame, _fmt, build_scene, klein_coords,
                           render_svg)

from test_lattice import discriminant_image, discriminant_image_two_pass

F = Fraction


def dist_point_segmentline(p, chord):
    (x1, y1), (x2, y2) = chord
    px, py = p
    dx, dy = x2 - x1, y2 - y1
    t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def chord_of(lattice, w):
    """The disk frame's chord of the wall of w, read on the primitive
    integral class of w as build_scene reads an enumerated wall."""
    return _DiskFrame(lattice).chord(primitive_rescale(w)[0])


@pytest.fixture(scope="module")
def tdiag(quartic):
    return quartic.diagonalize()


class TestKleinCoords:
    def test_isotropic_cusps_on_boundary(self, quartic):
        for cusp in [(0, 1, 0), (1, 1, -1)]:
            u, v = klein_coords(quartic, cusp)
            assert abs(u * u + v * v - 1.0) < 1e-9

    def test_interior_point_strictly_inside(self, quartic):
        u, v = klein_coords(quartic, (4, 4, -1))
        assert u * u + v * v < 1.0

    def test_diagonal_axis_maps_to_center(self, quartic, tdiag):
        t, _diag = tdiag
        axis = tuple(row[0] for row in t)
        num = [c.denominator for c in axis]
        scaled = tuple(c * max(num) for c in axis)
        assert klein_coords(quartic, scaled) == (0.0, 0.0)

    def test_component_normalization(self, quartic):
        p = klein_coords(quartic, (4, 4, -1))
        q = klein_coords(quartic, (-4, -4, 1))
        assert p == q

    def test_negative_square_rejected(self, quartic):
        with pytest.raises(PreconditionError):
            klein_coords(quartic, (0, 0, 1))


class TestWallChord:
    def test_delta_chord_matches_exact_isotropic_directions(self, quartic):
        # q(s C + t F) = -2 s^2 + 6 s t vanishes for F and 3C + F
        ends = chord_of(quartic, (0, 0, 1))
        oracle = sorted([klein_coords(quartic, (0, 1, 0)),
                         klein_coords(quartic, (3, 1, 0))])
        for got, want in zip(ends, oracle):
            assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-12

    def test_endpoints_on_circle(self, quartic, table):
        from hkcone.cone import enumerate_wall_classes
        for x, _sig in enumerate_wall_classes(quartic, table, (4, 4, -1), F(4)):
            for u, v in chord_of(quartic, x):
                assert abs(u * u + v * v - 1.0) < 1e-9

    def test_incidence_decided_by_exact_pairing(self, quartic):
        cusp_cls = (1, 1, -1)
        cusp = klein_coords(quartic, cusp_cls)
        assert quartic.pairing((0, 4, -3), cusp_cls) == 0
        assert dist_point_segmentline(cusp, chord_of(quartic, (0, 4, -3))) < 1e-6
        assert quartic.pairing((2, 0, -1), cusp_cls) != 0
        assert dist_point_segmentline(cusp, chord_of(quartic, (2, 0, -1))) > 1e-6

    def test_positive_square_rejected(self, quartic):
        with pytest.raises(PreconditionError):
            chord_of(quartic, (1, 1, 0))


def random_lorentzian_lattices(count, seed):
    """Random rank-3 integral lattices of signature (1, 2)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c, d, e, f = (rng.randint(-6, 6) for _ in range(6))
        lat = make_lattice([[a, b, c], [b, d, e], [c, e, f]])
        if linalg.determinant(lat.gram) != 0 and lat.signature() == (1, 2, 0):
            out.append(lat)
    return out


def random_classes(lattice, rng, count, keep):
    out = []
    while len(out) < count:
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        if any(x) and keep(lattice.square(x)):
            out.append(x)
    return out


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def oracle_chord(lattice, w):
    """Wall endpoints from the exact isotropic directions of w-perp.

    sympy finds a basis f1, f2 of the plane orthogonal to w and the roots
    s of q(s f1 + f2) = 0 (plus f1 itself when q(f1) = 0); the directions
    are mapped to the disk through linalg.invert(T) and evaluated to 30
    digits only at the end.
    """
    g = sympy.Matrix(lattice.gram)
    f1, f2 = (g * sympy.Matrix(w)).T.nullspace()
    a, b, c = (f1.T * g * f1)[0], (f1.T * g * f2)[0], (f2.T * g * f2)[0]
    s = sympy.Symbol("s")
    dirs = [root * f1 + f2 for root in sympy.solve(a * s ** 2 + 2 * b * s + c, s)]
    if a == 0:
        dirs.append(f1)
    assert len(dirs) == 2
    t, diag = lattice.diagonalize()
    tinv = sympy.Matrix([[rational(v) for v in row] for row in linalg.invert(t)])
    sx = sympy.sqrt(rational(-diag[1] / diag[0]))
    sy = sympy.sqrt(rational(-diag[2] / diag[0]))
    ends = []
    for direction in dirs:
        y = tinv * direction
        ends.append((float(sympy.N(y[1] / y[0] * sx, 30)),
                     float(sympy.N(y[2] / y[0] * sy, 30))))
    return sorted(ends)


def assert_chord_matches_oracle(lattice, w):
    for got, want in zip(chord_of(lattice, w), oracle_chord(lattice, w)):
        assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-12, (w, got, want)


class TestAgainstInverseOracle:
    """The polar-line chord and the orthogonal-basis coordinates against
    the route through linalg.invert(T) and exact isotropic directions."""

    def test_quartic_walls_at_b100(self, quartic, table):
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), F(100))
        assert len(walls) == 108
        for w, _sig in walls:
            assert_chord_matches_oracle(quartic, w)

    def test_first_perp_basis_vector_isotropic(self, quartic):
        # The first nullspace vector of w-perp is itself isotropic: the
        # case a quadratic in that basis degenerates to a linear equation.
        w = (0, 4, -3)
        f1, _f2 = linalg.nullspace((quartic.pairing_row(w),))
        assert quartic.square(f1) == 0
        assert_chord_matches_oracle(quartic, w)

    def test_random_lorentzian_walls(self):
        rng = random.Random(7)
        for lat in random_lorentzian_lattices(12, seed=5):
            for w in random_classes(lat, rng, 4, lambda q: q < 0):
                assert_chord_matches_oracle(lat, w)

    def test_klein_coords_equal_inverse_route(self, quartic):
        rng = random.Random(11)
        lattices = [quartic] + random_lorentzian_lattices(12, seed=5)
        for lat in lattices:
            points = random_classes(lat, rng, 4, lambda q: q >= 0)
            if lat is quartic:
                points += [(0, 1, 0), (1, 1, -1), (4, 4, -1)]
            frame = _DiskFrame(lat)
            tinv = linalg.invert(lat.diagonalize()[0])
            for x in points:
                y = linalg.mat_vec(tinv, x)
                big, m = integral(x)
                assert tuple(F(linalg.dot(big, r), m * frame.den) for r in frame.rows) == y
                assert klein_coords(lat, x) == (float(y[1] / y[0]) * frame.sx,
                                                float(y[2] / y[0]) * frame.sy)


def fraction_frame(lattice, x):
    """Coordinates z_i = q(x, t_i) / d_i in Fractions, the diagonal, sx, sy."""
    t, diag = lattice.diagonalize()
    z = tuple(lattice.pairing(x, column) / d for column, d in zip(zip(*t), diag))
    return z, diag, math.sqrt(float(-diag[1] / diag[0])), math.sqrt(float(-diag[2] / diag[0]))


def fraction_klein(lattice, x):
    """klein_coords by Fraction arithmetic, float() of each final ratio."""
    x = tuple(F(c) for c in x)
    assert lattice.square(x) >= 0
    (z0, z1, z2), _diag, sx, sy = fraction_frame(lattice, x)
    return (float(z1 / z0) * sx, float(z2 / z0) * sy)


def fraction_chord(lattice, w):
    """The chord by Fraction arithmetic: the same formulas, in the same
    float order, with float() of each exact quotient."""
    square = lattice.square(w)
    assert square < 0
    (z0, z1, z2), diag, sx, sy = fraction_frame(lattice, w)
    norm = -(diag[1] * z1 * z1 + diag[2] * z2 * z2) / diag[0]
    h = math.sqrt(float(-square / diag[0]))
    mx, my = float(z0 * z1 / norm) * sx, float(z0 * z2 / norm) * sy
    hx, hy = -float(z2 / norm) * sy * h, float(z1 / norm) * sx * h
    return tuple(sorted([(mx + hx, my + hy), (mx - hx, my - hy)]))


class TestAgainstFractionOracle:
    """The integer disk frame gives exactly (==) the floats of the
    Fraction route: each quotient is the same rational, and int / int and
    float(Fraction) are both correctly rounded."""

    def test_quartic_walls_at_b100(self, quartic, table):
        walls = enumerate_wall_classes(quartic, table, (4, 4, -1), F(100))
        assert len(walls) == 108
        for w, _sig in walls:
            assert chord_of(quartic, w) == fraction_chord(quartic, w), w

    def test_scene_at_b100(self, quartic, table):
        path = factor_path(quartic, table, fixtures.chamber_point(1),
                           fixtures.chamber_point(4), fixtures.PATH_BOUND)
        markers = [((4, 4, -1), "base"), ((1, 1, F(-1, 4)), "p")]
        cusps = [(0, 1, 0), (1, 1, -1)]
        scene = build_scene(quartic, table, (4, 4, -1), F(100),
                            markers=markers, cusps=cusps, path=(path.a, path.b))
        assert len(scene.walls) == 108
        for chord in scene.walls:
            assert chord.endpoints == fraction_chord(quartic, chord.wall_class)
        assert scene.cusps == tuple(fraction_klein(quartic, c) for c in cusps)
        ends = (fraction_klein(quartic, path.a), fraction_klein(quartic, path.b))
        assert scene.path == ends
        assert scene.markers == tuple((fraction_klein(quartic, x), label)
                                      for x, label in markers) + ((ends[0], "a"), (ends[1], "b"))

    def test_random_lorentzian_walls(self):
        rng = random.Random(13)
        lattices = random_lorentzian_lattices(12, seed=5)
        assert any(d.denominator > 1 for lat in lattices for d in lat.diagonalize()[1])
        for lat in lattices:
            for w in random_classes(lat, rng, 4, lambda q: q < 0):
                x = primitive_rescale(w)[0]
                assert chord_of(lat, w) == fraction_chord(lat, x), (lat.gram, w)
                # w/3 has the wall of w, read on the same primitive class
                third = tuple(F(c, 3) for c in w)
                assert chord_of(lat, third) == chord_of(lat, w), (lat.gram, w)

    def test_points(self, quartic):
        rng = random.Random(17)
        cases = [(quartic, [(0, 1, 0), (1, 1, -1), (4, 4, -1), (-4, -4, 1), (2, F(3, 2), -1)])]
        cases += [(lat, []) for lat in random_lorentzian_lattices(12, seed=5)]
        for lat, points in cases:
            points = points + random_classes(lat, rng, 6, lambda q: q >= 0)
            points += [tuple(F(c, 7) for c in x) for x in points[:3]]
            for x in points:
                assert klein_coords(lat, x) == fraction_klein(lat, x), (lat.gram, x)

    def test_boundary_cases_rejected(self, quartic):
        with pytest.raises(PreconditionError, match="negative square"):
            chord_of(quartic, (0, 1, 0))  # isotropic: h = 0
        with pytest.raises(PreconditionError, match="negative square"):
            _DiskFrame(quartic).chord((0, 0, 0))
        with pytest.raises(PreconditionError, match="infinity"):
            klein_coords(quartic, (0, 0, 0))
        with pytest.raises(PreconditionError, match="dimension"):
            chord_of(quartic, (0, 1))


class TestScene:
    def test_fixture_scene_colors(self, quartic, table, named):
        scene = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND)
        by_class = {ch.wall_class: ch.residue for ch in scene.walls}
        assert by_class[named["alpha"]] == 0
        for name in ("delta", "beta", "eta", "zeta"):
            assert by_class[named[name]] == 1
        for name in ("eps", "gamma"):
            assert by_class[named[name]] == 2

    def test_scene_wall_count(self, quartic, table):
        scene = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND)
        assert len(scene.walls) >= 30

    def test_marker_outside_disk_rejected(self):
        with pytest.raises(PreconditionError):
            DiskScene(markers=(((1.5, 0.0), "x"),))

    def test_rank_checked_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(render_module, "enumerate_wall_classes",
                            lambda *args: pytest.fail("the walls were enumerated"))
        lat = make_lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -4]])
        tab = table_from_dict({"orbits": [
            {"name": "a", "square": -2, "divisibility": 1, "codimension": 1}]})
        with pytest.raises(PreconditionError, match="^disk rendering needs a rank-3 lattice$"):
            build_scene(lat, tab, (3, 2, 0, 0), 6400)

    def test_chord_off_circle_rejected(self):
        with pytest.raises(PreconditionError):
            DiskScene(walls=(WallChord(endpoints=((0.5, 0.0), (0.0, 1.0)),
                                       residue=0, wall_class=(1, 0, 0)),))


class TestMarkersAreExact:
    """A marker or path end lies strictly inside the disk iff its square is
    positive, which the frame's integer H decides; cusps take square >= 0."""

    @staticmethod
    def isotropic(lattice):
        """The isotropic classes of the quartic with |c_i| <= 30:
        q(a, b, c) = -2a^2 + 6ab - 4c^2 = 0 fixes |c| from a and b."""
        box = range(-30, 31)
        cs = {(a, b): math.isqrt(max(6 * a * b - 2 * a * a, 0) // 4) for a in box for b in box}
        return sorted({x for (a, b), c in cs.items() for x in ((a, b, c), (a, b, -c))
                       if any(x) and c <= 30 and lattice.square(x) == 0})

    def test_isotropic_marks_rejected_as_markers_and_kept_as_cusps(self, quartic, table):
        iso = self.isotropic(quartic)
        assert len(iso) == 388
        scene = build_scene(quartic, table, (4, 4, -1), 1, cusps=iso)
        assert len(scene.cusps) == 388
        # the float radius^2 of these is below 1: only the exact test rejects them
        inside = [x for x, (u, v) in zip(iso, scene.cusps) if u * u + v * v < 1.0]
        assert len(inside) == 28 and (-25, -11, -10) in inside
        for x in inside:
            for kwargs in ({"markers": [(x, "iso")]}, {"path": ((4, 4, -1), x)},
                           {"path": (x, (4, 4, -1))}):
                with pytest.raises(PreconditionError, match="strictly inside the disk"):
                    build_scene(quartic, table, (4, 4, -1), 1, **kwargs)

    def test_far_interior_point_kept(self, quartic, table):
        far = (1, 10 ** 17, 0)
        assert quartic.square(far) == 599_999_999_999_999_998
        scene = build_scene(quartic, table, (4, 4, -1), 1, markers=[(far, "far")],
                            path=((4, 4, -1), far))
        (u, v), label = scene.markers[0]
        assert label == "far" and abs(u * u + v * v - 1.0) < 1e-15
        assert scene.path[1] == (u, v) and scene.markers[-1] == ((u, v), "b")
        assert "far</text>" in render_svg(scene)


def image_mod_four(lattice, x):
    """mod_four_class by the full discriminant image of x, per class: the
    oracle for the last row of the transform read once per lattice."""
    factors = lattice.discriminant_group().invariant_factors
    if factors and factors[-1] % 4:
        raise PreconditionError(
            f"residue mod 4 needs the last invariant factor divisible by 4; got {factors[-1]}")
    image = discriminant_image(lattice, x)
    if not image:
        return 0
    m = image[-1] % 4
    return min(m, (4 - m) % 4)


def error_text(fn, *args):
    with pytest.raises(PreconditionError) as info:
        fn(*args)
    return str(info.value)


def rows_table(*rows):
    return table_from_dict({"orbits": [
        {"name": f"r{i}", "square": s, "divisibility": d, "codimension": 2,
         **({} if r is None else {"disc_residue": r})}
        for i, (s, d, r) in enumerate(rows)]})


class TestColorsAgainstImageOracle:
    """A scene colors each wall from its table row's divisibility and the
    last row of the discriminant transform; the full image is the oracle."""

    @staticmethod
    def assert_colors_match(lat, tab, base, bound):
        scene = build_scene(lat, tab, base, bound)
        got = [(ch.wall_class, ch.residue) for ch in scene.walls]
        assert got == [(x, image_mod_four(lat, x)) for x, _sig in
                       enumerate_wall_classes(lat, tab, base, bound)]
        return Counter(residue for _x, residue in got)

    @pytest.mark.parametrize("bound", [2, 4, 15, 100])
    def test_seeded_quartic_views(self, quartic, table, bound):
        rng = random.Random(bound)
        bases = [(4, 4, -1)]
        while len(bases) < 4:
            b = tuple(rng.randint(-6, 6) for _ in range(3))
            if quartic.square(b) > 0 and quartic.pairing(b, (4, 4, -1)) > 0:
                bases.append(b)
        colors = Counter()
        for base in bases:
            colors += self.assert_colors_match(quartic, table, base, bound)
        assert set(colors) == {0, 1, 2}

    def test_table_that_pins_a_residue(self, quartic):
        # the quartic's group is Z/36: codim-2 and delta walls have image 9,
        # eps and codim-3 walls 18; one pinned row never matches
        tab = rows_table((-36, 4, [9]), (-4, 4, [9]), (-4, 2, [18]), (-12, 2, [0]), (-12, 2, None),
                    (-2, 1, None))
        walls = enumerate_wall_classes(quartic, tab, (4, 4, -1), 15)
        assert {sig.name for _x, sig in walls} == {"r0", "r1", "r2", "r4", "r5"}
        assert self.assert_colors_match(quartic, tab, (4, 4, -1), 15) == {1: 27, 2: 7, 0: 1}

    def test_trivial_group_colors_black(self):
        lat = make_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])  # unimodular
        assert lat.discriminant_group().invariant_factors == ()
        colors = self.assert_colors_match(lat, rows_table((-1, 1, None), (-2, 1, None)),
                                         (3, 1, 1), 15)
        assert set(colors) == {0} and colors[0] > 10

    def test_factor_not_divisible_by_four_keeps_its_text(self):
        lat = make_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])  # U + <-2>: Z/2
        tab = rows_table((-2, 2, None))
        x = (0, 0, 1)
        assert enumerate_wall_classes(lat, tab, (1, 1, 0), 4)[0][0] == x
        want = error_text(image_mod_four, lat, x)
        assert want == "residue mod 4 needs the last invariant factor divisible by 4; got 2"
        assert error_text(build_scene, lat, tab, (1, 1, 0), 4) == want
        assert error_text(mod_four_class, lat, x) == want

    def test_ideals_that_do_not_divide_the_pairing_row_keep_their_text(self, quartic):
        # ambient ideals [1, 1, 8]: (0, 0, 1) has divisibility 8 but G x = (0, 0, -4)
        lat = make_lattice(quartic.gram, quartic.basis_names, [1, 1, 8])
        tab = rows_table((-4, 8, None))
        x = (0, 0, 1)
        assert [w for w, _sig in enumerate_wall_classes(lat, tab, (4, 4, -1), 4)] == [x]
        want = error_text(image_mod_four, lat, x)
        assert want == "divisibility does not divide the pairing row"
        assert error_text(build_scene, lat, tab, (4, 4, -1), 4) == want
        assert error_text(mod_four_class, lat, x) == want

    def test_mod_four_class_on_random_lattices(self):
        rng = random.Random(23)
        compared = raised = 0
        for lat in random_lorentzian_lattices(60, 29):
            if rng.random() < 0.3:
                lat = make_lattice(lat.gram, ambient_ideals=[rng.choice((1, 2, 4)) for _ in range(3)])
            for x in random_classes(lat, rng, 10, lambda q: True):
                if math.gcd(*x) != 1:
                    continue
                try:
                    want = image_mod_four(lat, x)
                except PreconditionError as exc:
                    raised += 1
                    assert error_text(mod_four_class, lat, x) == str(exc)
                    continue
                compared += 1
                assert mod_four_class(lat, x) == want, (lat.gram, lat.ambient_ideals, x)
        assert compared > 100 and raised > 50


def test_scene_colors_do_no_per_wall_lattice_work(quartic, table, monkeypatch):
    """Call counts, not timings: the colors read the lattice once, not per wall."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((IntegralLattice, "residues"),
                        (IntegralLattice, "divisibility"), (lattice_module, "_discriminant_group")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    walls = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND).walls
    assert len(walls) >= 30
    # a color is one dot product with the group's last row, not a residue tuple;
    # the bundled table pins no residue
    assert calls["residues"] == 0, calls
    # the enumeration reads divisibilities through lattice.pairing_ideal, and
    # the scene reads the discriminant group once, through no cache of its own
    assert calls["divisibility"] == 0 and calls["_discriminant_group"] == 1, calls


class TestFrameCache:
    """The disk frame is built once per Gram matrix: equal lattices share
    it, and a lattice with another Gram matrix never reads a stale one."""

    def test_equal_lattices_loaded_separately(self, quartic, table):
        other = load_lattice(fixtures.fixture_path("k3_3_quartic.json"))
        assert other is not quartic and other.gram == quartic.gram
        assert render_module._disk_frame(other.gram) is render_module._disk_frame(quartic.gram)
        for bound in (F(4), fixtures.RENDER_BOUND):
            scene = build_scene(quartic, table, (4, 4, -1), bound)
            assert build_scene(other, table, (4, 4, -1), bound) == scene
            fresh = _DiskFrame(other)
            assert [ch.endpoints for ch in scene.walls] == \
                [fresh.chord(ch.wall_class) for ch in scene.walls]

    def test_another_gram_gets_its_own_frame(self, quartic):
        rng = random.Random(3)
        lattices = [quartic] + random_lorentzian_lattices(6, seed=9)
        points = [random_classes(lat, rng, 3, lambda q: q > 0) for lat in lattices]
        for _ in range(2):  # the second round reads the cached frames
            for lat, xs in zip(lattices, points):
                fresh = _DiskFrame(lat)
                assert [klein_coords(lat, x) for x in xs] == [fresh.point(x) for x in xs]
        frames = {id(render_module._disk_frame(lat.gram)) for lat in lattices}
        assert len(frames) == len(lattices)

    def test_cache_is_bounded_like_the_lattice_caches(self):
        assert render_module._disk_frame.cache_info().maxsize == \
            lattice_module._discriminant_group.cache_info().maxsize == 256


def outcome(fn, *args):
    """fn(*args), or the text of the PreconditionError it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


def image_oracle(lattice, x):
    """discriminant_image by the two-pass oracle: a degenerate lattice
    raises once the pairing row has passed its check."""
    try:
        image = discriminant_image_two_pass(lattice, x)
    except PreconditionError as exc:
        return str(exc)
    return "degenerate lattice" if linalg.determinant(lattice.gram) == 0 else image


def scene_oracle(lattice, tab, base, bound):
    """The scene colors by ``image_mod_four`` per wall, or the first error."""
    try:
        walls = enumerate_wall_classes(lattice, tab, base, bound)
        return [(x, image_mod_four(lattice, x)) for x, _sig in walls]
    except PreconditionError as exc:
        return str(exc)


def scene_colors(lattice, tab, base, bound):
    return [(ch.wall_class, ch.residue) for ch in build_scene(lattice, tab, base, bound).walls]


class TestOneResidueMap:
    """classify, discriminant_image, mod_four_class and the scene colors all
    read the one residue map of (G x, d); each agrees with its oracle in
    value or in error text."""

    def test_pairing_row_check_precedes_the_group(self):
        # degenerate, with ambient ideals: d(x) = 4 does not divide G x = (-2, 0)
        lat = make_lattice([[-2, 0], [0, 0]], ambient_ideals=[4, 1])
        x = (1, 0)
        want = "divisibility does not divide the pairing row"
        assert image_oracle(lat, x) == want
        assert error_text(discriminant_image, lat, x) == want
        assert error_text(classify, lat, rows_table((-2, 4, [0])), x) == want
        assert error_text(mod_four_class, lat, x) == "degenerate lattice"

    @staticmethod
    def random_lattices(rng, count):
        """Fixed lattices with a trivial group, a factor not divisible by 4
        and ideals that do not divide G x, then seeded ones of rank 1-4,
        some degenerate, some with ambient ideals."""
        quartic = fixtures.quartic_lattice()
        yield make_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        yield make_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        yield make_lattice(quartic.gram, ambient_ideals=[1, 1, 8])
        yield make_lattice([[-2, 0], [0, 0]], ambient_ideals=[4, 1])
        for _ in range(count):
            n = rng.choice((1, 2, 3, 3, 3, 4))
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-4, 4) if rng.random() < 0.7 else 0
            ideals = [rng.choice((1, 2, 4, 8)) for _ in range(n)] if rng.random() < 0.3 else None
            yield make_lattice(gram, ambient_ideals=ideals)

    def test_against_the_oracles_on_random_lattices(self):
        rng = random.Random(61)
        seen = Counter()
        for lat in self.random_lattices(rng, 150):
            degenerate = linalg.determinant(lat.gram) == 0
            if not degenerate:
                factors = lat.discriminant_group().invariant_factors
                seen["trivial group"] += not factors
                seen["factor not divisible by 4"] += bool(factors) and factors[-1] % 4 != 0
            pairs = {}
            for _ in range(12):
                x = tuple(rng.randint(-5, 5) for _ in range(lat.rank))
                if math.gcd(*x) != 1:
                    continue
                image = image_oracle(lat, x)
                assert outcome(discriminant_image, lat, x) == image, (lat, x)
                assert outcome(mod_four_class, lat, x) == outcome(image_mod_four, lat, x), (lat, x)
                seen["degenerate" if degenerate else "nondegenerate"] += 1
                seen["does not divide"] += image == "divisibility does not divide the pairing row"
                s, d = lat.square(x), outcome(lat.divisibility, x)
                if s >= 0:
                    continue
                if isinstance(d, int):
                    pairs.setdefault((s, d), image)
                else:  # classify raises d's text before it reads the table
                    d = 1
                pinned = list(image) if isinstance(image, tuple) else [0]
                tab = rows_table((s, d, pinned), (s, d, None))
                want = tab.orbits[0] if isinstance(image, tuple) else image
                assert outcome(classify, lat, tab, x) == want, (lat, x)
                seen["classified"] += 1
            if degenerate or lat.rank != 3 or lat.signature() != (1, 2, 0) or not pairs:
                continue
            base = next((v for v in (tuple(rng.randint(-3, 3) for _ in range(3))
                                     for _ in range(200)) if lat.square(v) > 0), None)
            if base is None:
                continue
            rows = [(s, d, None) for s, d in sorted(pairs)]
            (s, d), image = min(pairs.items())
            if isinstance(image, tuple):  # a pinned row: the walk reads residues too
                rows.append((s, d, list(image)))
            tab = rows_table(*rows)
            want = scene_oracle(lat, tab, base, 2)
            assert outcome(scene_colors, lat, tab, base, 2) == want, (lat, tab, base)
            seen["scene walls" if isinstance(want, list) else "scene errors"] += \
                len(want) if isinstance(want, list) else 1
        assert min(seen[k] for k in ("trivial group", "factor not divisible by 4", "degenerate",
                                     "does not divide", "classified", "scene errors")) >= 3, seen
        assert seen["scene walls"] > 100, seen


class TestSvg:
    def test_zero_prints_unsigned(self):
        assert _fmt(-0.0) == "0.0000000000"
        assert _fmt(-1e-13) == "0.0000000000"
        assert _fmt(1e-13) == "0.0000000000"
        assert _fmt(-1e-10) == "-0.0000000001"

    def test_empty_scene(self):
        doc = render_svg(DiskScene())
        assert doc.count("<circle") == 1
        assert "<line" not in doc

    def test_deterministic_bytes(self, quartic, table):
        scene1 = build_scene(quartic, table, (4, 4, -1), F(4))
        scene2 = build_scene(quartic, table, (4, 4, -1), F(4))
        assert render_svg(scene1) == render_svg(scene2)

    def test_wall_colors_in_output(self, quartic, table):
        scene = build_scene(quartic, table, (4, 4, -1), F(4))
        doc = render_svg(scene)
        assert doc.count("<line") == len(scene.walls)
        for color in ("#000000", "#0000FF", "#FF0000"):
            assert color in doc

    def test_path_polyline_crosses_three_chords(self, quartic, table):
        path = factor_path(quartic, table, fixtures.chamber_point(1),
                           fixtures.chamber_point(4), fixtures.PATH_BOUND)
        scene = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND,
                            path=(path.a, path.b))
        assert "<polyline" in render_svg(scene)

        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        a, b = scene.path
        crossings = sum(
            1 for ch in scene.walls
            if orient(a, b, ch.endpoints[0]) * orient(a, b, ch.endpoints[1]) < 0
            and orient(*ch.endpoints, a) * orient(*ch.endpoints, b) < 0)
        assert crossings == 3


class TestPathOverlay:
    # a golden: the bytes of render_svg for the chamber 1 -> 4 overlay at RENDER_BOUND
    SVG_SHA256 = "67e1edccb043cedd1ddda2edd1b79269612265385ef372de6725272f74089d52"

    def test_endpoint_pair_keeps_the_overlay(self, quartic, table):
        f = factor_path(quartic, table, fixtures.chamber_point(1),
                        fixtures.chamber_point(4), fixtures.PATH_BOUND)
        scene = build_scene(quartic, table, (4, 4, -1), fixtures.RENDER_BOUND, path=(f.a, f.b))
        assert scene.path == ((-0.1111111111111111, -0.6285393610547089),
                              (-0.6666666666666666, -0.5892556509887896))
        doc = render_svg(scene).encode("utf-8")
        assert (len(doc), hashlib.sha256(doc).hexdigest()) == (4904, self.SVG_SHA256)

    def test_path_that_is_not_a_pair_rejected(self, quartic, table):
        f = factor_path(quartic, table, fixtures.chamber_point(1),
                        fixtures.chamber_point(4), fixtures.PATH_BOUND)
        for path in ((f.a, f.b, f.a), (f.a,), f):
            with pytest.raises(PreconditionError, match="pair of endpoints"):
                build_scene(quartic, table, (4, 4, -1), F(2), path=path)


def test_marker_labels_are_escaped(quartic, table):
    label = "a<b&c>d"
    scene = build_scene(quartic, table, (4, 4, -1), F(2), markers=[((1, 1, F(-1, 4)), label)])
    doc = render_svg(scene)
    assert "a&lt;b&amp;c&gt;d" in doc
    texts = xml.dom.minidom.parseString(doc).getElementsByTagName("text")
    assert [t.firstChild.data for t in texts] == [label]
