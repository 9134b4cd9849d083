"""Klein-disk rendering of the projectivized positive cone.

With (T, d) = lattice.diagonalize() and t_i the columns of T, a class x
has coordinates z_i = q(x, t_i) / d_i in the orthogonal basis; that is
T^-1 x, since T^-1 = D^-1 T^t G, so nothing is inverted.  A ray maps to
(sx z1/z0, sy z2/z0) with sx = sqrt(-d1/d0), sy = sqrt(-d2/d0).  In the
Klein model geodesics are straight chords: the wall of w is the polar
line n.X = z0 of its coordinates, n = (sx z1, sy z2), and it meets the
unit circle at (z0 n +- h n_perp) / |n|^2 with
h^2 = |n|^2 - z0^2 = -q(w)/d0, exact and positive for every wall class.

The disk frame is built once per lattice (cached by Gram matrix): rows
R_i over one denominator L with z_i = (x . R_i) / L for integral x, the
nine entries of G t_i / d_i over their least common denominator, and
the numerators and denominators of -d1/d0 and -d2/d0, all integers.  A
wall costs three integer dot products and a few integer products.  All
incidence decisions are exact; floats only enter at the final quotients,
each one int / int (correctly rounded, so equal to float() of the same
Fraction), and in the square roots of the screen projection.  Whether a
marker or a path end lies strictly inside the disk is such a decision:
H < 0, a positive square, whatever its float radius.

Wall colors follow the discriminant residue mod 4: 0 black, +-1 blue,
2 red.  The enumerated table row of a wall carries its divisibility d,
so the color reads the pairing row Gx (integer dot products on the
enumerated class) and d: d must divide Gx, and one more dot product
with the group's last row gives the last residue, folded mod 4; the
group is read and its last factor checked once per scene
(``lattice.mod_four_reader``).  Marker labels are escaped as XML text.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .cone import enumerate_wall_classes
from .errors import PreconditionError, Record
from .lattice import IntegralLattice, make_lattice, mod_four_reader
from .mbm import SignatureTable
from .rational import integral

BOUNDARY_TOL = 1e-9
COLOR_OF_RESIDUE = {0: "#000000", 1: "#0000FF", 2: "#FF0000"}
PATH_COLOR = "#008800"
MARKER_COLOR = "#444444"


class WallChord(Record):
    endpoints: tuple[tuple[float, float], tuple[float, float]]
    residue: int
    wall_class: tuple[int, ...]


class DiskScene(Record):
    walls: tuple[WallChord, ...] = ()
    markers: tuple[tuple[tuple[float, float], str], ...] = ()
    cusps: tuple[tuple[float, float], ...] = ()
    path: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for chord in self.walls:
            for u, v in chord.endpoints:
                if abs(u * u + v * v - 1.0) > BOUNDARY_TOL:
                    raise PreconditionError("chord endpoints must lie on the unit circle")
        for (u, v), _label in self.markers:  # build_scene decides "strictly inside" exactly
            if u * u + v * v - 1.0 > BOUNDARY_TOL:
                raise PreconditionError("markers must lie in the unit disk")


class _DiskFrame:
    """The orthogonal basis of a rank-3 Lorentzian lattice, in integers.

    The rows R_i over one denominator L > 0 are G t_i / d_i, all nine
    entries through one ``rational.integral``, so z_i = a_i / (m L),
    a_i = X . R_i, for x = X / m with X integral; -d1/d0 = p1/q1 and
    -d2/d0 = p2/q2.  With P1 = p1 q2, P2 = p2 q1 and Q = q1 q2:
      |n|^2 = N / (Q L^2 m^2),  N = P1 a1^2 + P2 a2^2 > 0 for a wall,
      h^2 = |n|^2 - z0^2 = -q(x)/d0 = H / (Q L^2 m^2),  H = N - Q a0^2,
      z0 z1 / |n|^2 = Q a0 a1 / N,  z1 / |n|^2 = Q L a1 m / N,
    and likewise for z2 with a2; z1 / z0 = a1 / a0.  Each quotient is the
    exact rational of the Fraction formulas, over a positive integer
    denominator.
    """

    __slots__ = ("rows", "den", "p1", "p2", "q", "sx", "sy")

    def __init__(self, lattice: IntegralLattice):
        _require_rank_3(lattice)
        t, diag = lattice.diagonalize()
        if not (diag[0] > 0 and diag[1] < 0 and diag[2] < 0):
            raise PreconditionError("diagonalization must be Lorentzian, positive entry first")
        flat, self.den = integral([g / d for column, d in zip(zip(*t), diag)
                                   for g in lattice.pairing_row(column)])  # G t_i / d_i
        self.rows = flat[:3], flat[3:6], flat[6:]
        e1, e2 = -diag[1] / diag[0], -diag[2] / diag[0]
        self.p1 = e1.numerator * e2.denominator
        self.p2 = e2.numerator * e1.denominator
        self.q = e1.denominator * e2.denominator
        self.sx, self.sy = math.sqrt(float(e1)), math.sqrt(float(e2))

    def _polar(self, x):
        """a0, a1, a2, N and H of an integral vector x."""
        if len(x) != 3:
            raise PreconditionError("dimension mismatch")
        a0, a1, a2 = (x[0] * r[0] + x[1] * r[1] + x[2] * r[2] for r in self.rows)
        n = self.p1 * a1 * a1 + self.p2 * a2 * a2
        return a0, a1, a2, n, n - self.q * a0 * a0

    def chord(self, w):
        """Sorted ideal endpoints of the wall of an integral w."""
        a0, a1, a2, n, h2 = self._polar(w)
        if h2 <= 0:
            raise PreconditionError("wall classes have negative square")
        q, ql, sx, sy = self.q, self.q * self.den, self.sx, self.sy
        h = math.sqrt(h2 / (ql * self.den))
        # midpoint z0 n / |n|^2 and half-chord h n_perp / |n|^2
        mx, my = (q * a0 * a1) / n * sx, (q * a0 * a2) / n * sy
        hx, hy = -((ql * a2) / n) * sy * h, ((ql * a1) / n) * sx * h
        return tuple(sorted([(mx + hx, my + hy), (mx - hx, my - hy)]))

    def point(self, x, *, inside=False) -> tuple[float, float]:
        """Disk coordinates (sx z1/z0, sy z2/z0) of a rational x; with
        ``inside``, x must have positive square (H < 0): a marker."""
        a0, a1, a2, _n, h2 = self._polar(integral(x)[0])
        if h2 > 0:
            raise PreconditionError("point must have nonnegative square")
        if inside and h2 == 0:
            raise PreconditionError("markers must lie strictly inside the disk")
        if a0 == 0:
            raise PreconditionError("ray projects to infinity in the disk model")
        return a1 / a0 * self.sx, a2 / a0 * self.sy


def _require_rank_3(lattice: IntegralLattice):
    if lattice.rank != 3:
        raise PreconditionError("disk rendering needs a rank-3 lattice")


@functools.lru_cache(maxsize=256)  # keyed like lattice's caches: the frame reads only G
def _disk_frame(gram) -> _DiskFrame:
    return _DiskFrame(make_lattice(gram))


def klein_coords(lattice: IntegralLattice, x) -> tuple[float, float]:
    """Disk coordinates of a ray of nonnegative square.

    Interior points land strictly inside the unit circle, isotropic rays
    on it.  The ratios z1/z0 and z2/z0 are exact and do not depend on
    the sign of the representative.
    """
    return _disk_frame(lattice.gram).point(x)


def build_scene(lattice: IntegralLattice, table: SignatureTable, base, bound,
                markers=(), cusps=(), path=None) -> DiskScene:
    """Assemble the disk picture of all walls near a base point; a ``path``
    (a, b) of two endpoints adds the segment, its ends marked "a" and "b".
    Markers and path ends must have positive square, decided exactly."""
    _require_rank_3(lattice)  # before the walk, which any rank allows
    walls = enumerate_wall_classes(lattice, table, base, bound)
    frame = _disk_frame(lattice.gram)
    color = mod_four_reader(lattice) if walls else None
    chords = tuple(
        WallChord(endpoints=frame.chord(x),
                  residue=color([sum(map(mul, row, x)) for row in lattice.gram], sig.divisibility),
                  wall_class=x)
        for x, sig in walls
    )
    marks = tuple((frame.point(coords, inside=True), str(label)) for coords, label in markers)
    cusp_pts = tuple(frame.point(c) for c in cusps)
    polyline = None
    if path is not None:
        if not isinstance(path, (tuple, list)) or len(path) != 2:
            raise PreconditionError("path must be a pair of endpoints (a, b)")
        polyline = (frame.point(path[0], inside=True), frame.point(path[1], inside=True))
        marks = marks + ((polyline[0], "a"), (polyline[1], "b"))
    return DiskScene(walls=chords, markers=marks, cusps=cusp_pts, path=polyline)


def _fmt(x: float) -> str:
    """Ten decimals; a value that rounds to zero prints unsigned."""
    text = f"{x:.10f}"
    return text[1:] if text == "-0.0000000000" else text


def render_svg(scene: DiskScene) -> str:
    """Serialize the scene; identical scenes give byte-identical output."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.1 2.1">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#888888" stroke-width="0.004"/>',
    ]
    for chord in sorted(scene.walls, key=lambda ch: ch.wall_class):
        (x1, y1), (x2, y2) = chord.endpoints
        color = COLOR_OF_RESIDUE[chord.residue]
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" x2="{_fmt(x2)}" y2="{_fmt(-y2)}" '
            f'stroke="{color}" stroke-width="0.004"/>'
        )
    for (u, v) in scene.cusps:
        lines.append(f'  <circle cx="{_fmt(u)}" cy="{_fmt(-v)}" r="0.015" fill="#888888"/>')
    if scene.path is not None:
        pts = " ".join(f"{_fmt(u)},{_fmt(-v)}" for u, v in scene.path)
        lines.append(f'  <polyline points="{pts}" fill="none" stroke="{PATH_COLOR}" stroke-width="0.008"/>')
    for (u, v), label in scene.markers:
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(f'  <circle cx="{_fmt(u)}" cy="{_fmt(-v)}" r="0.012" fill="{MARKER_COLOR}"/>')
        lines.append(f'  <text x="{_fmt(u + 0.02)}" y="{_fmt(-v - 0.02)}" font-size="0.06" '
                     f'fill="{MARKER_COLOR}">{text}</text>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
