"""Klein-disk rendering of the projectivized positive cone.

In the Klein model geodesics are straight chords, so every wall is a
single SVG line between its two ideal endpoints (the isotropic
directions orthogonal to the wall class).  All incidence decisions are
made upstream in exact arithmetic; floats only enter in the final
projection to screen coordinates.

Wall colors follow the discriminant residue mod 4: 0 black, +-1 blue,
2 red.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cone import FlopFactorization, enumerate_wall_classes
from .errors import InvariantError, PreconditionError
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


def _diagonal_frame(lattice: IntegralLattice, tdiag):
    t, diag = tdiag
    if len(diag) != 3:
        raise PreconditionError("disk rendering needs a rank-3 lattice")
    if not (diag[0] > 0 and diag[1] < 0 and diag[2] < 0):
        raise PreconditionError("diagonalization must be Lorentzian, positive entry first")
    tinv = linalg.invert(t)
    sx = math.sqrt(float(-diag[1] / diag[0]))
    sy = math.sqrt(float(-diag[2] / diag[0]))
    return tinv, sx, sy


def klein_coords(lattice: IntegralLattice, tdiag, x) -> tuple[float, float]:
    """Disk coordinates of a ray of nonnegative square.

    Interior points land strictly inside the unit circle, isotropic rays
    on it.  The representative is normalized to the positive component
    exactly, before any float appears.
    """
    tinv, sx, sy = _diagonal_frame(lattice, tdiag)
    coords = tuple(Fraction(c) for c in x)
    if lattice.square(coords) < 0:
        raise PreconditionError("point must have nonnegative square")
    y = linalg.mat_vec(tinv, coords)
    if y[0] == 0:
        raise PreconditionError("ray projects to infinity in the disk model")
    if y[0] < 0:
        y = tuple(-c for c in y)
    return (float(y[1] / y[0]) * sx, float(y[2] / y[0]) * sy)


def wall_chord(lattice: IntegralLattice, tdiag, w) -> tuple[tuple[float, float], tuple[float, float]]:
    """Ideal endpoints of the wall of a negative-square class.

    The orthogonal plane of w has signature (1,1); its two isotropic
    directions are the roots of an exact quadratic, projected to the
    boundary circle.  Endpoints are sorted for determinism.
    """
    w = tuple(w)
    if lattice.square(w) >= 0:
        raise PreconditionError("wall classes have negative square")
    tinv, sx, sy = _diagonal_frame(lattice, tdiag)
    f1, f2 = linalg.nullspace((lattice.pairing_row(w),))
    a = lattice.pairing(f1, f1)
    b = lattice.pairing(f1, f2)
    c = lattice.pairing(f2, f2)
    disc = b * b - a * c
    if disc <= 0:
        raise InvariantError("orthogonal plane of a negative class must be hyperbolic")
    if a == 0:
        roots = [(Fraction(1), Fraction(0)), (-c, 2 * b)]
        dirs = [tuple(s * p + t * q for p, q in zip(f1, f2)) for s, t in roots]
        dirs_f = [tuple(float(c) for c in d) for d in dirs]
    else:
        sq = math.sqrt(float(disc))
        af, bf = float(a), float(b)
        f1f = tuple(float(v) for v in f1)
        f2f = tuple(float(v) for v in f2)
        dirs_f = [tuple(((-bf + sign * sq) / af) * p + q for p, q in zip(f1f, f2f))
                  for sign in (1.0, -1.0)]
    tinv_f = tuple(tuple(float(v) for v in row) for row in tinv)
    out = []
    for d in dirs_f:
        y = [sum(r * c for r, c in zip(row, d)) for row in tinv_f]
        if y[0] < 0:
            y = [-v for v in y]
        out.append((y[1] / y[0] * sx, y[2] / y[0] * sy))
    out.sort()
    return tuple(out)


def build_scene(lattice: IntegralLattice, table: SignatureTable, base, bound,
                markers=(), cusps=(), path: FlopFactorization | None = None) -> DiskScene:
    """Assemble the disk picture of all walls near a base point."""
    tdiag = lattice.diagonalize()
    walls = enumerate_wall_classes(lattice, table, base, bound)
    chords = tuple(
        WallChord(endpoints=wall_chord(lattice, tdiag, x),
                  residue=mod_four_class(lattice, x),
                  wall_class=x)
        for x, _sig in walls
    )
    marks = tuple((klein_coords(lattice, tdiag, coords), str(label))
                  for coords, label in markers)
    cusp_pts = tuple(klein_coords(lattice, tdiag, c) for c in cusps)
    polyline = None
    if path is not None:
        polyline = (klein_coords(lattice, tdiag, path.a),
                    klein_coords(lattice, tdiag, path.b))
        marks = marks + ((polyline[0], "a"), (polyline[1], "b"))
    return DiskScene(walls=chords, markers=marks, cusps=cusp_pts, path=polyline)


def _fmt(x: float) -> str:
    return f"{x:.10f}"


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
