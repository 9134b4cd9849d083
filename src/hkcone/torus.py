"""Translation dynamics on the 2-torus behind the fiberwise correspondence.

A marked fiber carries three points e0, e1, e2; the degree-3
correspondence sends x to the three translates x + e_i + e_j (i != j),
and the induced relation is generated by translations by consecutive
differences of the marks.  Exact mode works in (Q/Z)^2, where every
point is torsion and orbits close up; real mode works in (R/Z)^2 with
double precision for density experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError


@dataclass(frozen=True, order=True)
class TorusPoint:
    x: Fraction | float
    y: Fraction | float
    exact: bool = True
    irrational: bool = False

    def __post_init__(self):
        if self.exact and not (isinstance(self.x, Fraction) and isinstance(self.y, Fraction)):
            raise PreconditionError("exact points need Fraction coordinates")
        if not (0 <= self.x < 1 and 0 <= self.y < 1):
            raise PreconditionError("coordinates must be reduced mod 1")

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        _same_mode(self, other)
        return TorusPoint((self.x + other.x) % 1, (self.y + other.y) % 1,
                          self.exact, self.irrational or other.irrational)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        _same_mode(self, other)
        return TorusPoint((self.x - other.x) % 1, (self.y - other.y) % 1,
                          self.exact, self.irrational or other.irrational)


def exact_point(x, y) -> TorusPoint:
    return TorusPoint(Fraction(x) % 1, Fraction(y) % 1, exact=True)


def real_point(x, y, irrational: bool = False) -> TorusPoint:
    return TorusPoint(float(x) % 1.0, float(y) % 1.0, exact=False, irrational=irrational)


def _same_mode(p: TorusPoint, q: TorusPoint):
    if p.exact != q.exact:
        raise PreconditionError("mixed exact/real torus points")


@dataclass(frozen=True)
class MarkedFiber:
    e0: TorusPoint
    e1: TorusPoint
    e2: TorusPoint

    def __post_init__(self):
        if len({self.e0.exact, self.e1.exact, self.e2.exact}) != 1:
            raise PreconditionError("marks must share a mode")

    @property
    def exact(self) -> bool:
        return self.e0.exact


def sigma_image(fiber: MarkedFiber, x: TorusPoint) -> frozenset[TorusPoint]:
    """The three translates {x + e0 + e1, x + e1 + e2, x + e2 + e0} as a set."""
    _same_mode(fiber.e0, x)
    return frozenset({
        x + fiber.e0 + fiber.e1,
        x + fiber.e1 + fiber.e2,
        x + fiber.e2 + fiber.e0,
    })


def related(fiber: MarkedFiber, x: TorusPoint, y: TorusPoint) -> bool:
    """True iff the correspondence images of x and y intersect (exact only)."""
    if not (fiber.exact and x.exact and y.exact):
        raise PreconditionError("the relation needs exact equality; use exact mode")
    return bool(sigma_image(fiber, x) & sigma_image(fiber, y))


def generators(fiber: MarkedFiber) -> tuple[TorusPoint, TorusPoint, TorusPoint]:
    """(e1-e0, e2-e1, e0-e2); their sum vanishes."""
    return (fiber.e1 - fiber.e0, fiber.e2 - fiber.e1, fiber.e0 - fiber.e2)


def is_torsion(p: TorusPoint):
    """(torsion?, order).  Exact points always are; order = lcm of denominators.

    Real points are torsion-free exactly when constructed with the
    irrationality flag; unflagged real points are rejected.
    """
    if p.exact:
        return True, lcm(p.x.denominator, p.y.denominator)
    if p.irrational:
        return False, None
    raise PreconditionError("real-mode torsion is undecidable without the irrationality flag")


def _closure(t1, t2):
    """The subgroup of (Q/Z)^2 generated by t1, t2, as coordinate pairs
    (all of finite order, so sums of t1 and t2 reach their negatives)."""
    group = frontier = {(Fraction(0), Fraction(0))}
    while frontier:
        frontier = {((gx + t.x) % 1, (gy + t.y) % 1)
                    for gx, gy in frontier for t in (t1, t2)} - group
        group = group | frontier
    return group


def orbit(fiber: MarkedFiber, x: TorusPoint, depth: int) -> tuple[TorusPoint, ...]:
    """Points x + a t1 + b t2 with |a| + |b| <= depth, sorted.

    In exact mode the generated subgroup is finite and the whole coset is
    returned, independent of depth.  Both modes work on coordinate pairs
    and build points only for the result.
    """
    if depth < 1:
        raise PreconditionError("depth must be positive")
    _same_mode(fiber.e0, x)
    t1, t2, _t3 = generators(fiber)
    if fiber.exact:
        pairs = {((x.x + gx) % 1, (x.y + gy) % 1) for gx, gy in _closure(t1, t2)}
        return tuple(TorusPoint(px, py, True, x.irrational) for px, py in sorted(pairs))
    irrational = x.irrational or t1.irrational or t2.irrational
    seen = {}
    for a in range(-depth, depth + 1):
        for b in range(-(depth - abs(a)), depth - abs(a) + 1):
            px = (x.x + a * t1.x + b * t2.x) % 1.0
            py = (x.y + a * t1.y + b * t2.y) % 1.0
            seen.setdefault((round(px, 12) % 1.0, round(py, 12) % 1.0), (px, py))
    return tuple(TorusPoint(px, py, exact=False, irrational=irrational)
                 for px, py in sorted(seen.values()))


def covering_radius(points, grid: int) -> float:
    """Worst distance from a grid sample to the nearest point (sup metric).

    Samples sit at (i/grid, j/grid); distances wrap around the torus.
    """
    pts = [(float(p.x), float(p.y)) for p in points]
    if not pts:
        raise PreconditionError("empty point set")
    if grid < 1:
        raise PreconditionError("grid must be positive")
    import numpy as np  # only this function needs it; keeps it out of CLI start-up
    arr = np.asarray(pts)
    samples = np.arange(grid) / grid
    dx = np.abs(arr[:, 0][None, :] - samples[:, None])
    dx = np.minimum(dx, 1.0 - dx)          # (grid, npoints)
    dy = np.abs(arr[:, 1][None, :] - samples[:, None])
    dy = np.minimum(dy, 1.0 - dy)
    worst = 0.0
    for i in range(grid):
        row = dx[i]
        for j in range(grid):
            nearest = np.min(np.maximum(row, dy[j]))
            worst = max(worst, float(nearest))
    return worst
