"""Translation dynamics on the 2-torus behind the fiberwise correspondence.

A marked fiber carries three points e0, e1, e2; the degree-3
correspondence sends x to the three translates x + e_i + e_j (i != j),
and the induced relation is generated by translations by consecutive
differences of the marks.  A point's mode is its coordinate type: Fractions
work exactly in (Q/Z)^2, where every point is torsion and orbits close
up; floats work in (R/Z)^2 with double precision for density experiments.

Real orbits are float64 coordinate arrays: one numpy core computes every
translate with the float operations of the scalar expression, merges
points that agree at 12 decimals exactly as round(v, 12) would, and
feeds both `orbit` (which builds the points) and `orbit_density` (size
and covering radius, no point objects).  The covering radius searches
each sample column outward from the point spacing and returns the float
of the full scan.  A real orbit of more than ``REAL_SIZE_CAP`` points, or
a grid of more samples, is rejected before anything is allocated.  numpy
is imported inside the real-mode functions, so importing the package
does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from itertools import combinations
from math import gcd, lcm

from .errors import PreconditionError, Record
from .rational import parse_frac

# The most orbit points (2 d^2 + 2 d + 1 at depth d, before merging) or
# grid samples (grid^2) that one real-mode call takes on.  A real orbit
# peaks at about 80 bytes per point (105 MB at depth 700), so the cap
# keeps a call near 1 GB; a larger input is rejected as a fault in the
# input before any array is allocated.  Exact mode allocates nothing by
# depth and has no cap.
REAL_SIZE_CAP = 10 ** 7


@total_ordering
class TorusPoint(Record):
    """Two Fractions make an exact point, two floats a real one; ``exact``
    is set from them, and compared, hashed and ordered on: the two modes
    never meet.  Points sort as (x, y, exact)."""
    x: Fraction | float
    y: Fraction | float
    exact: bool
    _derived = ("exact",)

    def __post_init__(self):
        kind = Fraction if isinstance(self.x, Fraction) else float
        if not (isinstance(self.x, kind) and isinstance(self.y, kind)):
            raise PreconditionError("coordinates must be two Fractions (exact) or two floats (real)")
        if not (0 <= self.x < 1 and 0 <= self.y < 1):
            raise PreconditionError("coordinates must be reduced mod 1")
        object.__setattr__(self, "exact", kind is Fraction)

    def __lt__(self, other):
        return self._key() < other._key() if other.__class__ is TorusPoint else NotImplemented

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        _same_mode(self, other)
        return TorusPoint(_mod1(self.x + other.x), _mod1(self.y + other.y))

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        _same_mode(self, other)
        return TorusPoint(_mod1(self.x - other.x), _mod1(self.y - other.y))


def _mod1(v):
    """v mod 1 in [0, 1), for a Fraction, a float or a float array.

    For a float v just below 0, v % 1.0 rounds up to 1.0, which is 0 mod 1.
    """
    r = v % 1
    return r - (r == 1)


def exact_point(x, y) -> TorusPoint:
    return TorusPoint(parse_frac(x) % 1, parse_frac(y) % 1)


def real_point(x, y) -> TorusPoint:
    return TorusPoint(_mod1(_real(x)), _mod1(_real(y)))


def _real(v) -> float:
    """float(v); a value beyond the float range is a fault in the input."""
    try:
        return float(v)
    except OverflowError:
        raise PreconditionError(f"coordinate {v} is too large for a real point") from None


def _same_mode(p: TorusPoint, q: TorusPoint):
    if p.exact != q.exact:
        raise PreconditionError("mixed exact/real torus points")


class MarkedFiber(Record):
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


def _closure(t1, t2):
    """The subgroup of (Q/Z)^2 generated by t1, t2, as coordinate pairs
    (all of finite order, so sums of t1 and t2 reach their negatives)."""
    group = frontier = {(Fraction(0), Fraction(0))}
    while frontier:
        frontier = {((gx + t.x) % 1, (gy + t.y) % 1)
                    for gx, gy in frontier for t in (t1, t2)} - group
        group = group | frontier
    return group


def _steps(fiber: MarkedFiber, x: TorusPoint, depth: int):
    """The translations (t1, t2) that generate the orbit of x."""
    if depth < 1:
        raise PreconditionError("depth must be positive")
    _same_mode(fiber.e0, x)
    t1, t2, _t3 = generators(fiber)
    return t1, t2


def orbit(fiber: MarkedFiber, x: TorusPoint, depth: int) -> tuple[TorusPoint, ...]:
    """Points x + a t1 + b t2 with |a| + |b| <= depth, sorted.

    In exact mode the generated subgroup is finite and the whole coset is
    returned, independent of depth.  Both modes work on coordinates and
    build points only for the result.
    """
    t1, t2 = _steps(fiber, x, depth)
    if fiber.exact:
        pairs = {((x.x + gx) % 1, (x.y + gy) % 1) for gx, gy in _closure(t1, t2)}
        return tuple(TorusPoint(px, py) for px, py in sorted(pairs))
    _check_depth(depth)
    xs, ys = _real_orbit(x, t1, t2, depth)
    return tuple(TorusPoint(px, py) for px, py in zip(xs.tolist(), ys.tolist()))


def orbit_size(fiber: MarkedFiber, x: TorusPoint, depth: int) -> int:
    """len(orbit(fiber, x, depth)) of an exact orbit, without listing it:
    N^2 / [Z^2 : L], N the lcm of the denominators of t1 and t2 and L spanned
    by (N, 0), (0, N), N t1, N t2; the index is the gcd of their 2 x 2 minors.
    """
    t1, t2 = _steps(fiber, x, depth)
    if not fiber.exact:
        raise PreconditionError("orbit size is counted in exact mode")
    n = lcm(t1.x.denominator, t1.y.denominator, t2.x.denominator, t2.y.denominator)
    rows = [(n, 0), (0, n)] + [(int(t.x * n), int(t.y * n)) for t in (t1, t2)]
    return n * n // gcd(*(p * s - q * r for (p, q), (r, s) in combinations(rows, 2)))


def orbit_density(fiber: MarkedFiber, x: TorusPoint, depth: int, grid: int) -> tuple[int, float]:
    """(size, covering radius) of a real orbit: len(orbit(...)) and
    covering_radius(orbit(...), grid), without a point object per point."""
    t1, t2 = _steps(fiber, x, depth)
    if fiber.exact:
        raise PreconditionError("orbit density is a real-mode measurement")
    _check_grid(grid)
    _check_depth(depth)
    xs, ys = _real_orbit(x, t1, t2, depth)
    return len(xs), _covering_radius(xs, ys, grid)


def _check_depth(depth: int):
    points = 2 * depth * (depth + 1) + 1
    if points > REAL_SIZE_CAP:
        raise PreconditionError(f"--depth too large: {points} orbit points, more than {REAL_SIZE_CAP}")


def _check_grid(grid: int):
    if grid < 1:
        raise PreconditionError("grid must be positive")
    if grid * grid > REAL_SIZE_CAP:
        raise PreconditionError(f"--grid too large: {grid * grid} samples, more than {REAL_SIZE_CAP}")


def _real_orbit(x: TorusPoint, t1: TorusPoint, t2: TorusPoint, depth: int):
    """Coordinate arrays (xs, ys) of the real orbit, sorted by (x, y).

    Points whose coordinates agree after rounding to 12 decimals are one
    point; the first in (a, b) order represents it.  Each coordinate is
    (x + a t) + b t' in this order, as a float expression would give it.
    """
    import numpy as np
    width = depth - np.abs(np.arange(-depth, depth + 1))
    counts = 2 * width + 1
    a = np.repeat(np.arange(-depth, depth + 1, dtype=float), counts)
    # b runs from -width to width within each a: index minus (group start + width)
    b = np.arange(len(a), dtype=float) - np.repeat(np.cumsum(counts) - counts + width, counts)
    xs = _mod1((x.x + a * t1.x) + b * t2.x)
    ys = _mod1((x.y + a * t1.y) + b * t2.y)
    kx, ky = _round12(xs), _round12(ys)
    order = np.lexsort((ky, kx))          # stable: (a, b) order within a key
    kx, ky = kx[order], ky[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])
    xs, ys = xs[order[first]], ys[order[first]]
    order = np.lexsort((ys, xs))
    return xs[order], ys[order]


def _round12(c):
    """round(v, 12) % 1.0 for every v of the array c, which lies in [0, 1).

    rint of the float product v * 1e12 (off by at most 2**-14 from the
    exact product below 2**40) picks the same integer as the exact
    decimal rounding unless the product's fraction is within 2**-12 of
    1/2; only those values go through round itself.
    """
    import numpy as np
    scaled = c * 1e12
    keys = np.rint(scaled) / 1e12
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= 2.0 ** -12
    keys[near_half] = [round(v, 12) for v in c[near_half].tolist()]
    return np.remainder(keys, 1.0)


def covering_radius(points, grid: int) -> float:
    """Worst distance from a grid sample to the nearest point (sup metric).

    Samples sit at (i/grid, j/grid); distances wrap around the torus.
    """
    pts = [(float(p.x), float(p.y)) for p in points]
    if not pts:
        raise PreconditionError("empty point set")
    _check_grid(grid)
    import numpy as np  # only the real-mode functions need it; keeps it out of CLI start-up
    xs, ys = np.asarray(pts).T
    return _covering_radius(xs, ys, grid)


def _covering_radius(xs, ys, grid: int) -> float:
    """covering_radius of the points (xs[k], ys[k]).

    For the samples of column i only points with dx <= r can be nearest
    once some point lies within r; r starts at min(1/grid, N**-1/2) for N
    points and doubles for the samples still without one.  Every distance
    is |p - s| wrapped by min(d, 1 - d): the float of a full scan.
    """
    import numpy as np
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
                done = (nearest <= r) | near.all()  # with every point in, exact at any r
                if done.any():
                    worst = max(worst, float(nearest[done].max()))
                pending = pending[~done]
            r *= 2
    return worst
