"""Wall enumeration in the positive cone and factorization of segments.

The positive cone of a Lorentzian lattice (signature (1, r-1)) splits the
vectors of positive square into two components.  Negative-square classes
recognized by a signature table cut the cone by orthogonal walls; a
segment between two cone points meets finitely many of them inside any
fixed compact region, and the crossings factor the corresponding
bimeromorphic map into flops, grouped so that every block carries
exactly one codimension-two crossing.

Enumeration visits the integer points of an ellipsoid, not of its
bounding box: every wall lies where a positive definite majorant is
bounded.  One coordinate is solved for exactly; the others walk the
projected ellipsoid Fincke-Pohst style (U. Fincke and M. Pohst, Math.
Comp. 44 (1985); H. Cohen, A Course in Computational Algebraic Number
Theory, 2.7.3), one of each +-pair, on linalg's Bareiss rows.  Per
prefix and table square the solved coordinate is the root of an integer
quadratic (or linear) equation, found by an ``isqrt`` perfect-square
test.  Segment work is in integers: each endpoint p becomes P / m once
(``rational.integral``), and its side list holds the pairings q(x, P)
with every enumerated wall x, dot products with the rows x^t G.  A zero
marks incidence; opposite signs a crossing, at
t = q(x, A) mb / (q(x, A) mb - q(x, B) ma).  A perturbed endpoint is
y / d, d = 64 m 2^h: a shift adds 1 to one y_j and column j of the rows
to the side list, and halving the shift doubles y, d and the side list.
Fractions are built only for the reported endpoints and t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt
from operator import mul

from . import linalg
from .errors import InvariantError, PreconditionError
from .lattice import IntegralLattice
from .mbm import OrbitSignature, SignatureTable, primitive_rescale
from .rational import frac_str, integral, vector_strs

STATUS_OK = "ok"
STATUS_DIVISORIAL = "leaves_birational_cone"
STATUS_REGULAR = "regular_in_codim_two"

_PERTURB_ATTEMPTS = 64


def _integral_cone_point(lattice: IntegralLattice, p) -> tuple[tuple[int, ...], int, int]:
    """(X, m, q(X)) with p = X / m, checked to have positive square."""
    x, m = integral(p)
    q = lattice.square(x)
    if q <= 0:
        raise PreconditionError("point must have positive square")
    return x, m, q


def as_cone_point(lattice: IntegralLattice, p) -> tuple[Fraction, ...]:
    """The coordinates of p as Fractions, checked to have positive square."""
    x, m, _q = _integral_cone_point(lattice, p)
    return tuple(Fraction(c, m) for c in x)


def component_sign(lattice: IntegralLattice, p) -> int:
    """Which component of the positive cone p lies in: +1 or -1.

    The tag is the pairing sign against a fixed positive reference vector
    derived from the diagonalization of the lattice.
    """
    _require_lorentzian(lattice)
    s = lattice.pairing(as_cone_point(lattice, p), lattice.positive_reference())
    return 1 if s > 0 else -1


@dataclass(frozen=True)
class WallCrossing:
    wall_class: tuple[int, ...]
    t: Fraction
    signature: OrbitSignature

    @property
    def codimension(self) -> int:
        return self.signature.codimension


@dataclass(frozen=True)
class FlopFactorization:
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    steps: tuple[WallCrossing, ...]
    groups: tuple[tuple[int, ...], ...]
    status: str
    perturbed: bool


def _require_lorentzian(lattice: IntegralLattice):
    sig = lattice.signature()
    if sig != (1, lattice.rank - 1, 0):
        raise PreconditionError(f"lattice must have signature (1, r-1); got {sig}")


def same_component(lattice: IntegralLattice, p, q_pt) -> bool:
    """True iff two positive-square points lie in the same cone component."""
    _require_lorentzian(lattice)
    return lattice.pairing(as_cone_point(lattice, p), as_cone_point(lattice, q_pt)) > 0


def _majorant(lattice: IntegralLattice, p) -> tuple[int, list[list[int]]]:
    """(g, g M) at a primitive integer cone point p, with g = q(p).

    M = 2 (Gp)(Gp)^t / g - G is the majorant: positive definite for a
    Lorentzian lattice, since it is g > 0 on p and -q > 0 on p-perp.
    Scaled by g it is an integer matrix.
    """
    g = int(lattice.square(p))
    gp = [int(v) for v in lattice.pairing_row(p)]
    return g, [[2 * gi * gj - g * gij for gj, gij in zip(gp, row)]
               for gi, row in zip(gp, lattice.gram)]


def _ellipsoid_slices(a, budget):
    """Integer y != 0 with y^t A y <= budget, one of each +-pair.

    A is a positive definite integer m x m matrix, m >= 1.  Yields
    (outer, lo, hi): the outer coordinates y[1:] and the range lo..hi
    of y[0] that completes them.  Of y and -y only the one whose last
    nonzero coordinate is positive is produced.

    The walk is Fincke-Pohst's, outermost coordinate first, on a
    fraction-free LDL^t: the Bareiss rows of A (``linalg._echelon``),
    where rows[i][i:] is d_{i-1} times the first row of the Schur
    complement S_i of A[:i,:i] and d_i = rows[i][i] = det A[:i+1,:i+1].
    With y[i+1:] fixed and V = d_i S_{i+1}(y[i+1:]), y[i] is in range
    iff (d_i y[i] + beta)^2 <= d_{i-1} (d_i budget - V), with d_{-1} = 1
    and beta = sum_{j>i} rows[i][j] y[j]; all node arithmetic is on
    integers.
    """
    m = len(a)
    rows, _pivots, _d, swaps, _scale = linalg._echelon(a)
    if swaps or any(rows[i][i] <= 0 for i in range(m)):  # Sylvester's criterion
        raise InvariantError("the ellipsoid matrix is not positive definite")
    y = [0] * m

    def walk(i, v, zero):
        row = rows[i]
        d = row[i]
        dp = rows[i - 1][i - 1] if i else 1
        beta = sum(row[j] * y[j] for j in range(i + 1, m))
        r = isqrt(dp * (d * budget - v))
        hi = (r - beta) // d
        lo = -((r + beta) // d)
        if zero:  # y[i+1:] = 0, so beta = 0: keep y[i] >= 0, and > 0 in y[0]
            lo = 0 if i else 1
        if i == 0:
            if lo <= hi:
                yield tuple(y[1:]), lo, hi
            return
        for yi in range(lo, hi + 1):
            y[i] = yi
            u = d * yi + beta
            yield from walk(i - 1, (u * u + dp * v) // d, zero and yi == 0)
        y[i] = 0

    return walk(m - 1, 0, True)


def enumerate_wall_classes(lattice: IntegralLattice, table: SignatureTable,
                           base, bound) -> list[tuple[tuple[int, ...], OrbitSignature]]:
    """All wall classes near the base point, sorted lexicographically.

    A class qualifies when it is primitive, one per +-pair with the first
    nonzero coordinate positive, its (square, divisibility[, residue])
    matches a table row, and q(x, base)^2 <= B |q(x)| q(base).  The
    search region is compact, so the output is complete.

    Every such x with q(x) = s < 0 has M(x) <= (2B + 1)|s| for the
    majorant M of ``_majorant``.  One coordinate x_k, the one whose
    lines through the ellipsoid are longest (least M_kk), is solved
    for; the other coordinates (the prefix) walk the projection of the
    ellipsoid, the Schur complement of M_kk, one of each +-pair.  Per
    prefix and table square, q(x) = s is the integer equation
    G_kk z^2 + 2 L z + Q - s = 0 in z = x_k, solved exactly by an
    ``isqrt`` perfect-square test and divisibility; when G_kk = 0 it
    is linear, and when L = 0 as well every z of the ellipsoid slice is
    tried.  Candidates then pass the region inequality, primitivity
    and the table match.
    """
    _require_lorentzian(lattice)
    bound = Fraction(bound)
    if bound <= 0:
        raise PreconditionError("bound must be positive")
    if not table.orbits:
        raise PreconditionError("signature table is empty")
    p = primitive_rescale(_integral_cone_point(lattice, base)[0])[0]
    squares = table.squares  # all negative: an OrbitSignature checks it
    g, mt = _majorant(lattice, p)
    gp = [int(v) for v in lattice.pairing_row(p)]
    bn, bd = bound.numerator, bound.denominator
    gram = lattice.gram
    n = lattice.rank
    cap = floor(g * (2 * bound + 1) * -squares[0])  # g M(x) <= cap, integer

    k = min(range(n), key=lambda i: mt[i][i])
    free = [j for j in range(n) if j != k]
    mkk, gkk = mt[k][k], gram[k][k]

    def roots(y, lin, quad):
        """(s, z) for each table square s and integer z with q(x) = s,
        x = y with z at k, where q(x) = G_kk z^2 + 2 lin z + quad."""
        out = []
        if gkk:
            d0 = lin * lin - gkk * quad
            for s in squares:
                disc = d0 + gkk * s
                if disc >= 0:
                    r = isqrt(disc)
                    if r * r == disc:
                        out += [(s, num // gkk) for num in {r - lin, -r - lin}
                                if num % gkk == 0]
        elif lin:
            out = [(s, (s - quad) // (2 * lin)) for s in squares
                   if (s - quad) % (2 * lin) == 0]
        elif quad in squares:
            # q(x) = quad on the whole line: scan the ellipsoid slice
            b = sum(mt[k][j] * v for j, v in zip(free, y))
            rest = sum(v * mt[i][j] * w for i, v in zip(free, y) for j, w in zip(free, y))
            top = mkk * (cap - rest) + b * b
            if top >= 0:
                r = isqrt(top)
                out = [(quad, z) for z in range(-((r + b) // mkk), (r - b) // mkk + 1)]
        return out

    found = []

    def emit(y, t, s, z):
        # t = q(x, p) less the x_k term
        t += gp[k] * z
        if bd * t * t > bn * (-s) * g:
            return
        x = [0] * n
        for j, v in zip(free, y):
            x[j] = v
        x[k] = z
        if next(c for c in x if c) < 0:
            x = [-c for c in x]
        x = tuple(x)
        if linalg.vec_content(x) != 1:
            return
        d = lattice.divisibility(x)
        row = table.match(s, d, lambda: lattice.discriminant_image(x))
        if row is not None:
            found.append((x, row))

    # the zero prefix: x = z e_k, one of +-z
    zero = (0,) * len(free)
    for s, z in roots(zero, 0, 0):
        if z > 0:
            emit(zero, 0, s, z)

    if free:
        schur = [[mkk * mt[i][j] - mt[i][k] * mt[k][j] for j in free] for i in free]
        gk = [gram[k][j] for j in free]
        gf = [[gram[i][j] for j in free] for i in free]
        pf = [gp[j] for j in free]
        g00, gk0, pf0 = gf[0][0], gk[0], pf[0]
        for outer, lo, hi in _ellipsoid_slices(schur, mkk * cap):
            # lin, quad and t of the prefix as polynomials in y0
            lin0 = sum(c * v for c, v in zip(gk[1:], outer))
            quad0 = sum(v * gf[i][j] * w for i, v in enumerate(outer, 1)
                        for j, w in enumerate(outer, 1))
            cross0 = 2 * sum(c * v for c, v in zip(gf[0][1:], outer))
            t0 = sum(c * v for c, v in zip(pf[1:], outer))
            for y0 in range(lo, hi + 1):
                y = (y0,) + outer
                for s, z in roots(y, lin0 + gk0 * y0, quad0 + y0 * (cross0 + g00 * y0)):
                    emit(y, t0 + pf0 * y0, s, z)
    found.sort(key=lambda item: item[0])
    return found


def crossing_parameter(lattice: IntegralLattice, x, a, b) -> Fraction | None:
    """Parameter of the wall of x on the segment a + t(b - a), if crossed.

    Returns q(x,a) / (q(x,a) - q(x,b)) when the pairings have strictly
    opposite signs, None otherwise (including an endpoint on the wall).
    Pure segment arithmetic: cone membership is the caller's concern.
    """
    qa, qb = lattice.pairing(x, a), lattice.pairing(x, b)
    return Fraction(qa, qa - qb) if qa * qb < 0 else None


def _covers(bound, qq, q_base, q_point) -> bool:
    # region inequality with the cone point in the wall slot:
    # q(base, y)^2 <= B q(base) q(y), given qq = q(base, y)
    return bound.denominator * qq * qq <= bound.numerator * q_base * q_point


def _sides(rows, x) -> list[int]:
    """q(w, x) for every wall row w^t G; a zero means x lies on that wall."""
    return [sum(map(mul, row, x)) for row in rows]


def _fix_endpoint(lattice, rows, bound, base, x, m, sides, ok):
    """Accumulate shifts until the endpoint x / m reaches general position.

    Shift k is eps e_j with j = k mod n and eps = 1/(64 m 2^h), h = k div n.
    Shifts compound: a point on several walls whose normals have
    disjoint coordinate support needs moves in more than one direction.
    The candidate is y / d with d = 64 m 2^h, so a shift adds 1 to y_j
    and column j of ``rows`` to its side list, and a halving doubles y,
    d and the side list.  It is accepted once it has positive square,
    keeps the original's component, stays in the region around ``base``
    (so the wall list stays complete), lies on no wall and on the
    original's side (``sides``) of every wall, and ``ok(side list, d)``
    holds; returns y, d and the side list.
    """
    y, d, cand = [64 * c for c in x], 64 * m, [64 * s for s in sides]
    q_base = lattice.square(base)
    for k in range(_PERTURB_ATTEMPTS):
        j = k % len(x)
        if k and not j:
            y, d, cand = [2 * c for c in y], 2 * d, [2 * s for s in cand]
        y[j] += 1
        cand = [s + row[j] for s, row in zip(cand, rows)]
        q_y = lattice.square(y)
        if q_y <= 0 or lattice.pairing(y, x) <= 0 \
                or not _covers(bound, lattice.pairing(base, y), q_base, q_y):
            continue
        if any(c == 0 or c * o < 0 for c, o in zip(cand, sides)):
            continue
        if ok(cand, d):
            return tuple(y), d, cand
    raise PreconditionError("could not perturb an endpoint into general position")


def _strict_crossings(walls, sa, ma, sb, mb):
    """Crossings of the walls with opposite sides at a = A/ma and b = B/mb,
    signed positive at a.  With the integer sides qa = q(x, A) and
    qb = q(x, B), t = q(x, a) / (q(x, a) - q(x, b)) = qa mb / (qa mb - qb ma)."""
    steps = []
    for (x, sig), qa, qb in zip(walls, sa, sb):
        if qa * qb < 0:
            if qa < 0:
                x = tuple(-c for c in x)
            u = qa * mb
            steps.append(WallCrossing(wall_class=x, t=Fraction(u, u - qb * ma), signature=sig))
    steps.sort(key=lambda s: (s.t, s.wall_class))
    return steps


def group_hu_yau(steps) -> tuple[tuple[int, ...], ...]:
    """Partition crossings into consecutive blocks, one codimension-2 each.

    The cut sits immediately before every codimension-2 step except the
    first; trailing steps join the final block.
    """
    if any(s.codimension == 1 for s in steps):
        raise PreconditionError("divisorial crossings cannot be grouped")
    codim2 = [i for i, s in enumerate(steps) if s.codimension == 2]
    if not codim2:
        raise PreconditionError("regular in codimension two: no codimension-2 crossing")
    cuts = codim2[1:] + [len(steps)]
    blocks = []
    start = 0
    for cut in cuts:
        blocks.append(tuple(range(start, cut)))
        start = cut
    return tuple(blocks)


def factor_path(lattice: IntegralLattice, table: SignatureTable, a, b,
                bound) -> FlopFactorization:
    """Factor the segment from a to b into its ordered wall crossings.

    Endpoints on a wall, or walls meeting the segment at a coincident
    parameter, are resolved by a deterministic perturbation of the
    offending endpoint; the perturbed endpoints are reported.
    """
    _require_lorentzian(lattice)
    bound = Fraction(bound)
    pa, da, q_a = _integral_cone_point(lattice, a)
    pb, db, q_b = _integral_cone_point(lattice, b)
    q_ab = lattice.pairing(pa, pb)
    if q_ab <= 0:
        raise PreconditionError("endpoints lie in different components of the positive cone")
    if bound < 1 or not _covers(bound, q_ab, q_a, q_b):
        raise PreconditionError("bound too small: the region does not cover the segment")

    walls = enumerate_wall_classes(lattice, table, pa, bound)
    rows = linalg.mat_mul([x for x, _sig in walls], lattice.gram)
    base = pa  # the region stays the one around the original a
    sa, sb = _sides(rows, pa), _sides(rows, pb)
    perturbed = False
    if 0 in sa:
        pa, da, sa = _fix_endpoint(lattice, rows, bound, base, pa, da, sa,
                                   lambda _s, _d: True)
        perturbed = True

    def b_ok(sides, d):
        ts = [s.t for s in _strict_crossings(walls, sa, da, sides, d)]
        return len(ts) == len(set(ts))

    if 0 in sb or not b_ok(sb, db):
        pb, db, sb = _fix_endpoint(lattice, rows, bound, base, pb, db, sb, b_ok)
        perturbed = True

    # No check that the crossings stay in the cone: pa and pb lie in one
    # component, so q(pa, pb) > 0 and q(t pa + (1-t) pb) = t^2 q(pa)
    # + (1-t)^2 q(pb) + 2t(1-t) q(pa, pb) > 0 for every t in [0, 1].
    steps = _strict_crossings(walls, sa, da, sb, db)
    ts = [s.t for s in steps]
    if len(ts) != len(set(ts)):
        raise InvariantError("crossing parameters must be distinct")

    if any(s.codimension == 1 for s in steps):
        status = STATUS_DIVISORIAL
    elif not any(s.codimension == 2 for s in steps):
        status = STATUS_REGULAR
    else:
        status = STATUS_OK
    groups = group_hu_yau(steps) if status == STATUS_OK else ()
    return FlopFactorization(a=tuple(Fraction(c, da) for c in pa),
                             b=tuple(Fraction(c, db) for c in pb), steps=tuple(steps), groups=groups,
                             status=status, perturbed=perturbed)


def same_chamber(lattice: IntegralLattice, table: SignatureTable, a, b, bound) -> bool:
    """True iff the segment from a to b crosses no wall."""
    return not factor_path(lattice, table, a, b, bound).steps


def factorization_report(f: FlopFactorization) -> dict:
    return {
        "a": vector_strs(f.a),
        "b": vector_strs(f.b),
        "perturbed": f.perturbed,
        "steps": [
            {
                "class": list(s.wall_class),
                "square": s.signature.square,
                "divisibility": s.signature.divisibility,
                "codimension": s.signature.codimension,
                "t": frac_str(s.t),
                "orbit": s.signature.name,
            }
            for s in f.steps
        ],
        "groups": [list(g) for g in f.groups],
        "status": f.status,
    }


def report_to_json(f: FlopFactorization) -> str:
    return json.dumps(factorization_report(f), indent=2) + "\n"
