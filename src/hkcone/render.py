"""Klein-disk rendering of the projectivized positive cone.

With (T, d) = lattice.diagonalize() and t_i the columns of T, a class x
has coordinates z_i = q(x, t_i) / d_i in the orthogonal basis; that is
T^-1 x, since T^-1 = D^-1 T^t G, so nothing is inverted.  A ray maps to
(sx z1/z0, sy z2/z0) with sx = sqrt(-d1/d0), sy = sqrt(-d2/d0).  In the
Klein model geodesics are straight chords: the wall of w is the polar
line n.X = z0 of its coordinates, n = (sx z1, sy z2), and it meets the
unit circle at (z0 n +- h n_perp) / |n|^2 with
h^2 = |n|^2 - z0^2 = -q(w)/d0, exact and positive for every wall class.
All incidence decisions are made upstream in exact arithmetic; floats
only enter with the square roots of the final projection to screen
coordinates.

Wall colors follow the discriminant residue mod 4: 0 black, +-1 blue,
2 red.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cone import FlopFactorization, enumerate_wall_classes
from .errors import PreconditionError
from .lattice import IntegralLattice, mod_four_class
from .mbm import SignatureTable

BOUNDARY_TOL = 1e-9
COLOR_OF_RESIDUE = {0: "#000000", 1: "#0000FF", 2: "#FF0000"}
PATH_COLOR = "#008800"
MARKER_COLOR = "#444444"


@dataclass(frozen=True)
class WallChord:
    endpoints: tuple[tuple[float, float], tuple[float, float]]
    residue: int
    wall_class: tuple[int, ...]


@dataclass(frozen=True)
class DiskScene:
    walls: tuple[WallChord, ...] = ()
    markers: tuple[tuple[tuple[float, float], str], ...] = ()
    cusps: tuple[tuple[float, float], ...] = ()
    path: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for chord in self.walls:
            for u, v in chord.endpoints:
                if abs(u * u + v * v - 1.0) > BOUNDARY_TOL:
                    raise PreconditionError("chord endpoints must lie on the unit circle")
        for (u, v), _label in self.markers:
            if u * u + v * v >= 1.0:
                raise PreconditionError("markers must lie strictly inside the disk")


def _diagonal_frame(lattice: IntegralLattice):
    """Columns t_i of T, the diagonal d and the disk scales sx, sy."""
    t, diag = lattice.diagonalize()
    if len(diag) != 3:
        raise PreconditionError("disk rendering needs a rank-3 lattice")
    if not (diag[0] > 0 and diag[1] < 0 and diag[2] < 0):
        raise PreconditionError("diagonalization must be Lorentzian, positive entry first")
    sx = math.sqrt(float(-diag[1] / diag[0]))
    sy = math.sqrt(float(-diag[2] / diag[0]))
    return tuple(zip(*t)), diag, sx, sy


def _basis_coords(lattice: IntegralLattice, columns, diag, x) -> tuple[Fraction, ...]:
    """Exact coordinates z_i = q(x, t_i) / d_i of x in the orthogonal basis."""
    gx = lattice.pairing_row(x)
    return tuple(linalg.dot(t, gx) / d for t, d in zip(columns, diag))


def klein_coords(lattice: IntegralLattice, x) -> tuple[float, float]:
    """Disk coordinates of a ray of nonnegative square.

    Interior points land strictly inside the unit circle, isotropic rays
    on it.  The ratios z1/z0 and z2/z0 are exact and do not depend on
    the sign of the representative.
    """
    columns, diag, sx, sy = _diagonal_frame(lattice)
    coords = tuple(Fraction(c) for c in x)
    if lattice.square(coords) < 0:
        raise PreconditionError("point must have nonnegative square")
    z0, z1, z2 = _basis_coords(lattice, columns, diag, coords)
    if z0 == 0:
        raise PreconditionError("ray projects to infinity in the disk model")
    return (float(z1 / z0) * sx, float(z2 / z0) * sy)


def wall_chord(lattice: IntegralLattice, w) -> tuple[tuple[float, float], tuple[float, float]]:
    """Ideal endpoints of the wall of a negative-square class.

    The wall is the polar line n.X = z0 with n = (sx z1, sy z2); its
    endpoints are (z0 n +- h n_perp) / |n|^2, where |n|^2 and
    h^2 = -q(w)/d0 are exact.  Endpoints are sorted for determinism.
    """
    w = tuple(w)
    square = lattice.square(w)
    if square >= 0:
        raise PreconditionError("wall classes have negative square")
    columns, diag, sx, sy = _diagonal_frame(lattice)
    z0, z1, z2 = _basis_coords(lattice, columns, diag, w)
    norm = -(diag[1] * z1 * z1 + diag[2] * z2 * z2) / diag[0]
    h = math.sqrt(float(-square / diag[0]))
    # midpoint z0 n / |n|^2 and half-chord h n_perp / |n|^2
    mx, my = float(z0 * z1 / norm) * sx, float(z0 * z2 / norm) * sy
    hx, hy = -float(z2 / norm) * sy * h, float(z1 / norm) * sx * h
    return tuple(sorted([(mx + hx, my + hy), (mx - hx, my - hy)]))


def build_scene(lattice: IntegralLattice, table: SignatureTable, base, bound,
                markers=(), cusps=(), path: FlopFactorization | None = None) -> DiskScene:
    """Assemble the disk picture of all walls near a base point."""
    walls = enumerate_wall_classes(lattice, table, base, bound)
    chords = tuple(
        WallChord(endpoints=wall_chord(lattice, x),
                  residue=mod_four_class(lattice, x),
                  wall_class=x)
        for x, _sig in walls
    )
    marks = tuple((klein_coords(lattice, coords), str(label))
                  for coords, label in markers)
    cusp_pts = tuple(klein_coords(lattice, c) for c in cusps)
    polyline = None
    if path is not None:
        polyline = (klein_coords(lattice, path.a),
                    klein_coords(lattice, path.b))
        marks = marks + ((polyline[0], "a"), (polyline[1], "b"))
    return DiskScene(walls=chords, markers=marks, cusps=cusp_pts, path=polyline)


def _fmt(x: float) -> str:
    """Ten decimals; a value that rounds to zero prints unsigned."""
    text = f"{x:.10f}"
    return text[1:] if text == "-0.0000000000" else text


def render_svg(scene: DiskScene, out=None) -> str:
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
        lines.append(f'  <circle cx="{_fmt(u)}" cy="{_fmt(-v)}" r="0.012" fill="{MARKER_COLOR}"/>')
        lines.append(f'  <text x="{_fmt(u + 0.02)}" y="{_fmt(-v - 0.02)}" font-size="0.06" '
                     f'fill="{MARKER_COLOR}">{label}</text>')
    lines.append('</svg>')
    doc = "\n".join(lines) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    return doc
