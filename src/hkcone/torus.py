"""Translation dynamics on the 2-torus behind the fiberwise correspondence.

A marked fiber carries three points e0, e1, e2; the degree-3
correspondence sends x to the three translates x + e_i + e_j (i != j),
and the induced relation is generated by translations by consecutive
differences of the marks.  A point's mode is its coordinate type: Fractions
work exactly in (Q/Z)^2, where every point is torsion and orbits close
up; floats work in (R/Z)^2 with double precision for density experiments.

Real orbits are float64 coordinate arrays: one numpy core computes every
translate with the float operations of the scalar expression, merges
points that agree at 12 decimals exactly as round(v, 12) would, by one
stable sort on that rounded key, and returns them in key order.  It
feeds both `orbit`, which sorts the points by (x, y) as it builds them,
and `orbit_density` (size and covering radius, neither of which reads
the order, and no point objects).  The covering radius pairs each point
with the grid samples within the point spacing of it on both axes; a
sample whose least distance is below that spacing, less a float margin,
is settled, and the few others (sparse or clustered orbits) take a
column search.  Either way it returns the float of the full scan.  A
real orbit of more than ``REAL_SIZE_CAP`` points, or a grid of more
samples, is rejected before anything is allocated.  numpy is imported
inside the real-mode functions, so importing the package does not load
it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from itertools import combinations
from math import gcd, inf, lcm

from .errors import PreconditionError, Record
from .rational import parse_frac

# The most orbit points (2 d^2 + 2 d + 1 at depth d, before merging) or
# grid samples (grid^2) that one real-mode call takes on.  As tracemalloc
# sees numpy's buffers, a real orbit peaks at 72 bytes per point (71 MB at
# depth 700, 720 MB at depth 2235) and its covering radius takes 10 bytes
# per sample (101 MB at grid 3162), so the cap keeps a call near 1 GB;
# tests/test_torus.py holds the peak to 73 bytes per point plus 11 per
# sample.  A larger input is rejected as a fault in the input before any
# array is allocated.  Exact mode allocates nothing by depth and has no
# cap.
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
    """v mod 1 in [0, 1), for a Fraction or a float.

    For a float v just below 0, v % 1.0 rounds up to 1.0, which is 0 mod 1.
    """
    r = v % 1
    return r - (r == 1)


def _mod1_array(v):
    """_mod1 of each entry of a float array.

    v % 1.0 is fmod(v, 1.0), which is exact, plus 1.0 when that is
    negative, rounded once; v - floor(v) rounds the same real number once,
    so it is the same float, and cheaper than numpy's remainder.
    """
    import numpy as np
    r = v - np.floor(v)
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
    """Points x + a t1 + b t2 with |a| + |b| <= depth, sorted by (x, y).

    In exact mode the generated subgroup is finite and the whole coset is
    returned, independent of depth.  Both modes work on coordinates and
    build points only for the result; real coordinates come merged in key
    order (_real_orbit) and are sorted by (x, y) here.
    """
    t1, t2 = _steps(fiber, x, depth)
    if fiber.exact:
        pairs = {((x.x + gx) % 1, (x.y + gy) % 1) for gx, gy in _closure(t1, t2)}
        return tuple(TorusPoint(px, py) for px, py in sorted(pairs))
    _check_depth(depth)
    xs, ys = _real_orbit(x, t1, t2, depth)
    return tuple(TorusPoint(px, py) for px, py in sorted(zip(xs.tolist(), ys.tolist())))


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
    covering_radius(orbit(...), grid), without a point object per point
    and without the (x, y) sort, which neither of them reads."""
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
    """Coordinate arrays (xs, ys) of the real orbit, in key order.

    A point's key is its coordinates rounded to 12 decimals; points with
    one key are one point, and the first in (a, b) order represents it.
    One stable sort on the key (x first, then y) puts each key's points
    next to each other in (a, b) order, and the merged points come back in
    key order, which is not always the order of (x, y).  Each coordinate
    is (x + a t) + b t' in this order, as a float expression would give it.
    """
    import numpy as np
    width = depth - np.abs(np.arange(-depth, depth + 1))
    counts = 2 * width + 1
    a = np.repeat(np.arange(-depth, depth + 1, dtype=float), counts)
    # b runs from -width to width within each a: index minus (group start + width)
    b = np.arange(len(a), dtype=float) - np.repeat(np.cumsum(counts) - counts + width, counts)
    xs = _mod1_array((x.x + a * t1.x) + b * t2.x)
    ys = _mod1_array((x.y + a * t1.y) + b * t2.y)
    del a, b                              # 16 bytes a point off the peak of the sort
    keys = np.empty(len(xs), dtype=complex)   # complex order is (real, imag)
    keys.real, keys.imag = _round12(xs), _round12(ys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return xs[order[first]], ys[order[first]]


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
    return keys - (keys == 1)             # keys lie in [0, 1]: % 1.0 only maps 1.0 to 0.0


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


# A sample's square holds about 6 points on average (_reach); its least
# distance settles the sample once below the half-side less _MARGIN, far
# above the few units of 2**-53 by which rounding moves a distance or a
# square's edge.  The square search pairs at most _PAIRS (point, sample)
# pairs at a time.
_MARGIN = 2.0 ** -40
_PAIRS = 1 << 14


def _reach(n: int) -> float:
    """Half-side r of a sample's square for n points: (2 r)^2 n = 6."""
    return min(0.25, (1.5 / n) ** 0.5)


def _covering_radius(xs, ys, grid: int) -> float:
    """covering_radius of the points (xs[k], ys[k]), by a square search.

    Each sample owns the square of half-side r = _reach(N) around it.  A
    point is paired with the samples whose square holds it: on each axis
    the indices ceil((c - r) grid) to floor((c + r) grid), mod grid, read
    off its coordinate c.  Each sample keeps the least distance over its
    pairs.  A point outside the square is at least r away on one axis, less
    rounding, so a least distance below r - _MARGIN is the sample's
    distance to the set; the samples it leaves unsettled (sparse or
    clustered point sets) take _column_search.  Every distance is |p - s|
    wrapped by min(d, 1 - d), the larger of the two axes: the float of a
    full scan.
    """
    import numpy as np
    samples = np.arange(grid) / grid
    r = _reach(len(xs))
    coord = np.tile(samples, 3)           # entry k + grid is sample k mod grid, for k >= -grid
    index = np.tile(np.arange(grid), 3)
    near = np.full(grid * grid, inf)      # sample (i, j) is entry i grid + j

    def span(c):  # per coordinate: its first sample (plus grid) and the count within r
        lo = np.ceil((c - r) * grid)
        count = np.minimum(np.floor((c + r) * grid) - lo + 1, grid)
        return lo.astype(np.intp) + grid, count.astype(np.intp)

    chunk = max(1, _PAIRS // min(grid, int(2 * r * grid) + 2))   # a step pairs <= _PAIRS
    for first in range(0, len(xs), chunk):
        cx, cy = xs[first:first + chunk], ys[first:first + chunk]
        (xlo, xn), (ylo, yn) = span(cx), span(cy)
        for step in range(int(xn.max())):
            m = np.flatnonzero(xn > step)          # points with a step-th sample column
            col = xlo[m] + step
            wx, base = _wrapped(cx[m], coord[col]), index[col] * grid
            n = yn[m]
            k = np.repeat(np.arange(len(m)), n)    # pair -> its point in m
            row = ylo[m][k] + np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)
            dist = np.maximum(wx[k], _wrapped(cy[m][k], coord[row]))
            np.minimum.at(near, base[k] + index[row], dist)
    near = near.reshape(grid, grid)
    settled = near < r - _MARGIN
    worst = float(np.max(near, where=settled, initial=0.0))
    return max(worst, _column_search(xs, ys, samples, ~settled))


def _wrapped(p, s):
    """|p - s| wrapped by min(d, 1 - d): the torus distance on one axis."""
    import numpy as np
    d = np.abs(p - s)
    return np.minimum(d, 1.0 - d, out=d)


def _column_search(xs, ys, samples, pending) -> float:
    """The largest distance from a sample (samples[i], samples[j]) with
    pending[i, j] to the points (xs[k], ys[k]).

    For the samples of column i only points with dx <= r can be nearest
    once some point lies within r; r starts at min(1/grid, N**-1/2) for N
    points and doubles for the samples still without one.  The samples of
    a column take those points a few rows at a time, at most _PAIRS pairs
    or one row.
    """
    import numpy as np
    worst = 0.0
    for i in np.flatnonzero(pending.any(axis=1)):
        dx = _wrapped(xs, samples[i])
        todo, r = samples[pending[i]], min(1.0 / len(samples), len(xs) ** -0.5)
        while len(todo):
            near = dx <= r
            if near.any():
                nx, ny = dx[near], ys[near]
                rows = max(1, _PAIRS // len(nx))
                nearest = np.concatenate([np.maximum(nx, _wrapped(ny, todo[k:k + rows, None]))
                                          .min(axis=1) for k in range(0, len(todo), rows)])
                done = (nearest <= r) | near.all()  # with every point in, exact at any r
                if done.any():
                    worst = max(worst, float(nearest[done].max()))
                todo = todo[~done]
            r *= 2
    return worst
