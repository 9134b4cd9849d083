"""Wall enumeration in the positive cone and factorization of segments.

The positive cone of a Lorentzian lattice (signature (1, r-1)) splits the
vectors of positive square into two components.  Negative-square classes
recognized by a signature table cut the cone by orthogonal walls; a
segment between two cone points meets finitely many of them inside any
fixed compact region, and the crossings factor the corresponding
bimeromorphic map into flops, grouped so that every block carries
exactly one codimension-two crossing.

Enumeration visits the integer points of an ellipsoid, not of its
bounding box.  A region is q(x, a) q(x, b) <= rho |q(x)|, for cone
points a and b in one component and rho >= 0: a view around p is a = b =
p with rho = B q(p), and the walls that meet a segment [a, b] are those
of rho = 0, so ``--bound`` plays no part in a segment's search.  The walk
(``_walls``) reads a and b only through their pairing rows G a and G b
and q(a, b), at any positive scale: with rho = 0 the region does not
change when a or b is scaled, and a view of g p with rho = B q(g p) is
the view of p with rho = B q(p), so no point is made primitive first.
A wall x of square s in the region has F(x) = 2 q(x, a) q(x, b) -
q(a, b) q(x) <= (2 rho + q(a, b)) |s|, and F is positive definite
(``_majorant``).  Each
table square s has its own walk on a basis of L_d (``_sublattice``),
where d = d_s, the gcd of the divisibilities of the rows of s, divides
the divisibility; the squares of one d_s share the set-up on L_d.  One
coordinate is solved for exactly; the others walk the projected ellipsoid
Fincke-Pohst style (U. Fincke and M. Pohst, Math. Comp. 44 (1985); H.
Cohen, A Course in Computational Algebraic Number Theory, 2.7.3), one of
each +-pair, on linalg's Bareiss rows.  Along a slice of that walk the
discriminant of q(x) = s is a quadratic in the innermost coordinate y_0,
stepped by its differences; ``isqrt`` runs only where it is nonnegative,
as the perfect-square test of an exact root.  Segment work is in
integers: each endpoint p becomes P / m, with its row G P, once
(``_integral_cone_point``), and its side list holds the pairings
q(x, P) with every wall x of the segment, dot products of the wall
classes with G P.  A zero marks incidence;
opposite signs a crossing, at t = q(x, A) mb / (q(x, A) mb - q(x, B) ma);
whether those t are distinct is decided on the integer pairs in lowest
terms (``_distinct_crossings``).  A perturbed endpoint is y / d,
d = 64 m 2^h, and carries only y, d and G y: a shift y_j += 1 adds row
j of G to G y and halving the shift doubles all three
(``_fix_endpoint``).  q(y), q(x, y), q(base, y) and the side list are
dot products with G y, each formed only for a candidate that passed the
tests before it.  A shift of x to y needs no walk when an
integer certificate (``_short_shift``) shows that only walls through x
can meet [x, y]: those are walls of the segment, so the side list
decides; otherwise [x, y] is walked on G x, G y and q(x, y).
Fractions are built only for the reported endpoints and t.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
from operator import mul

from . import linalg
from .errors import InvariantError, PreconditionError, Record
from .lattice import IntegralLattice, _smith_form, pairing_ideal
from .mbm import OrbitSignature, SignatureTable
from .rational import frac_str, integral, parse_frac, vector_strs

STATUS_OK = "ok"
STATUS_DIVISORIAL = "leaves_birational_cone"
STATUS_REGULAR = "regular_in_codim_two"

_PERTURB_ATTEMPTS = 64


def _integral_cone_point(lattice: IntegralLattice, p) -> tuple[tuple[int, ...], int, list[int], int]:
    """(X, m, G X, q(X)) with p = X / m, checked for length and to have
    positive square.  G X, the pairing row of X, is the one the walks and
    the perturbation read: it is formed here, once per endpoint or base,
    and q(X) is its dot with X."""
    x, m = integral(p)
    gx = _sides(lattice.gram, lattice.check_length(x))
    q = sum(map(mul, x, gx))
    if q <= 0:
        raise PreconditionError("point must have positive square")
    return x, m, gx, q


class WallCrossing(Record):
    wall_class: tuple[int, ...]
    t: Fraction
    signature: OrbitSignature

    @property
    def codimension(self) -> int:
        return self.signature.codimension


class FlopFactorization(Record):
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


def _majorant(ga, gb, qab, gram) -> list[list[int]]:
    """ga gb^t + gb ga^t - q(a, b) G, the Gram matrix of the form
    F(x) = 2 q(x, a) q(x, b) - q(a, b) q(x), from ga = G a, gb = G b and
    q(a, b) in any basis: an integer matrix, positive definite when a and b
    lie in one component of the positive cone of a Lorentzian lattice.  On
    P = span(a, b) with q(a) = q(b) = 1 and C = q(a, b) >= 1 it is
    C (u^2 + v^2) + 2 u v at x = u a + v b, on P-perp it is -C q > 0, and
    the two do not mix.  At a = b = p it is 2 (Gp)(Gp)^t - q(p) G."""
    return [[gi * hj + hi * gj - qab * gij for gj, hj, gij in zip(ga, gb, row)]
            for gi, hi, row in zip(ga, gb, gram)]


@functools.lru_cache(maxsize=256)
def _sublattice(gram, ambient_ideals, d):
    """(B, B^t G B), B a basis of L_d = {x : d | divisibility(x)}.

    With ambient ideals a_i the divisibility is gcd_i(a_i x_i), so
    d | a_i x_i for each i and B = diag(d / gcd(d, a_i)); nothing is
    factored.  Otherwise it is the content of G x: with U G V = D the Smith
    form that ``lattice`` keeps once per Gram matrix, d | G x iff
    d / gcd(d, D_ii) divides (V^-1 x)_i, so B = V diag(d / gcd(d, D_ii)).
    B is I when every scale is 1.
    """
    n = len(gram)
    if ambient_ideals is None:
        _u, dm, v = _smith_form(gram)
        ideals = [dm[i][i] for i in range(n)]
    else:
        ideals, v = ambient_ideals, linalg.identity(n)
    scales = [d // gcd(d, a) for a in ideals]
    if scales == [1] * n:
        return linalg.identity(n), gram
    basis = tuple(tuple(c * e for c, e in zip(row, scales)) for row in v)
    return basis, linalg.mat_mul(linalg.mat_mul(linalg.transpose(basis), gram), basis)


def _ellipsoid_slices(echelon, budget):
    """Integer y != 0 with y^t A y <= budget, one of each +-pair.

    A is a positive definite integer m x m matrix, m >= 1, given by
    ``linalg._echelon(A)``.  Yields
    (outer, lo, hi): the outer coordinates y[1:] and the range lo..hi
    of y[0] that completes them.  Of y and -y only the one whose last
    nonzero coordinate is positive is produced.

    The walk is Fincke-Pohst's, outermost coordinate first, on a
    fraction-free LDL^t: the Bareiss rows of A, where rows[i][i:] is
    d_{i-1} times the first row of the Schur complement S_i of A[:i,:i]
    and d_i = rows[i][i] = det A[:i+1,:i+1].  With y[i+1:] fixed and
    V = d_i S_{i+1}(y[i+1:]), y[i] is in range iff
    (d_i y[i] + beta)^2 <= d_{i-1} (d_i budget - V), with d_{-1} = 1 and
    beta = sum_{j>i} rows[i][j] y[j]; all node arithmetic is on integers.
    """
    rows, _pivots, _d, swaps, _scale = echelon
    m = len(rows)
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
    search region is compact, so the output is complete: it is the
    ``_walls`` region of a = b = X, the integral base, and rho = B q(X).
    """
    _require_lorentzian(lattice)
    bound = parse_frac(bound)
    if bound <= 0:
        raise PreconditionError("bound must be positive")
    _check_table(lattice, table)
    _x, _m, gx, q = _integral_cone_point(lattice, base)
    return _walls(lattice, table, gx, gx, q, bound * q)


def _check_table(lattice, table):
    """Once per call, before any candidate is matched: the table has rows,
    and every pinned residue can match on this lattice."""
    if not table.orbits:
        raise PreconditionError("signature table is empty")
    table.check_residues(lattice)


def _walls(lattice, table, ra, rb, qab, rho) -> list[tuple[tuple[int, ...], OrbitSignature]]:
    """The wall classes x with q(x, a) q(x, b) <= rho |q(x)|, sorted
    lexicographically, for a and b integral in one component of the cone,
    given by their pairing rows ra = G a and rb = G b and by qab = q(a, b),
    and rational rho >= 0.

    A class qualifies when it is primitive, one per +-pair with the first
    nonzero coordinate positive, lies in the region and its (square,
    divisibility[, residue]) matches a table row; rb == ra (a view) reuses
    q(x, a).  Nothing is rescaled: a and b enter at any positive scale.
    With rho = 0 (a segment) scaling a or b scales both sides of the
    region by the same factor; a view of X = g p with rho = B q(X) scales
    them by g^2, the view of p with rho = B q(p).  The walls are the same,
    and so are the integer points of the ellipsoid below, since F(x) is an
    integer and cap is the floor of the scaled bound.

    Each table square s has its own walk: its walls have F(x) = 2 q(x, a)
    q(x, b) - q(a, b) q(x) <= cap = floor((2 rho + q(a, b)) |s|) for the
    positive definite F of ``_majorant``, and lie on L_d, d = d_s the gcd
    of the divisibilities of the rows of square s, so x = B z on the
    basis B of ``_sublattice``, with Gram matrix G' and majorant M'.
    One coordinate z_k, the one of least M'_kk, is solved for; the others
    (the prefix y = (y_0, outer)) walk the projection of the ellipsoid, the
    Schur complement of M'_kk, one of each +-pair, after the zero prefix,
    which keeps z_k > 0.  Per prefix, q(x) = s is G'_kk z_k^2 + 2 L z_k +
    Q - s = 0.  Along a slice L is linear and Q quadratic in y_0, so the
    discriminant L^2 - G'_kk (Q - s) is stepped along y_0 by its
    differences, two integer additions per prefix, and ``isqrt`` runs only
    where it is nonnegative; a perfect square r^2 gives the roots
    (-L +- r) / G'_kk that are integers.  When G'_kk = 0 the discriminant
    is L^2 and the root is (s - Q) / 2L; when L = 0 as well every z_k of
    the ellipsoid slice is tried.  A root passes the region inequality
    first, then x = B z, its sign, primitivity and the table match, all
    integer dot products (a pinned row reads ``lattice.residues`` of G x,
    whose group is cached per Gram matrix).  Set-up per L_d: B, G', M', k,
    the Schur complement's Bareiss rows and the prefix rows of G', B^t G a
    and B^t G b; per square: cap, lim; per slice: L, Q, q(x, a) and
    q(x, b) at y_0 = 0, and the discriminant's coefficients.
    """
    n = lattice.rank
    if n == 1:  # a rank-one Lorentzian lattice is positive definite: no wall
        return []
    view = rb == ra
    rn, rd = rho.numerator, rho.denominator
    origin, zero = (0,) * n, (0,) * (n - 2)
    found = []
    for d_s, squares in table.sublattices:  # all negative: an OrbitSignature checks it
        basis, gram = _sublattice(lattice.gram, lattice.ambient_ideals, d_s)
        ga = [sum(map(mul, col, ra)) for col in zip(*basis)]  # B^t G a
        gb = ga if view else [sum(map(mul, col, rb)) for col in zip(*basis)]
        mt = _majorant(ga, gb, qab, gram)
        k = min(range(n), key=lambda i: mt[i][i])
        free = [j for j in range(n) if j != k]
        mkk, gkk, gak, gbk = mt[k][k], gram[k][k], ga[k], gb[k]
        echelon = linalg._echelon([[mkk * mt[i][j] - mt[i][k] * mt[k][j] for j in free]
                                   for i in free])  # of the Schur complement
        # the prefix rows of G'_k., G', B^t G a and B^t G b, split at y_0
        (gk0, *gk1), (pa0, *pa1), (pb0, *pb1) = ([v[j] for j in free] for v in (gram[k], ga, gb))
        gf = [[gram[i][j] for j in free] for i in free]
        (g00, *g01), g11 = gf[0], [row[1:] for row in gf[1:]]
        c2 = gk0 * gk0 - gkk * g00  # the discriminant is c2 y0^2 + c1 y0 + c0
        for s in squares:
            cap = -s * (2 * rn + qab * rd) // rd  # M'(z) <= cap
            lim = -s * rn // rd  # the region: q(x, a) q(x, b) <= lim
            for outer, lo, hi in chain([(zero, 0, 0)], _ellipsoid_slices(echelon, mkk * cap)):
                # L = lin0 + gk0 y0, Q = quad0 + y0 (cross0 + g00 y0), and
                # q(x, a), q(x, b) are t0 + pa0 y0, u0 + pb0 y0 plus their z_k terms
                lin0 = sum(map(mul, gk1, outer))
                quad0 = sum(map(mul, outer, [sum(map(mul, row, outer)) for row in g11]))
                cross0 = 2 * sum(map(mul, g01, outer))
                t0 = sum(map(mul, pa1, outer))
                u0 = t0 if view else sum(map(mul, pb1, outer))
                c1 = 2 * lin0 * gk0 - gkk * cross0
                y0 = lo - 1  # the discriminant and its step at lo - 1
                delta = (c2 * y0 + c1) * y0 + lin0 * lin0 - gkk * (quad0 - s)
                step = c2 * (2 * y0 + 1) + c1
                for y0 in range(lo, hi + 1):
                    delta += step
                    step += 2 * c2
                    if delta < 0:
                        continue
                    lin = lin0 + gk0 * y0
                    if gkk:
                        root = isqrt(delta)
                        if root * root != delta:
                            continue
                        zs = [num // gkk for num in {root - lin, -root - lin} if num % gkk == 0]
                    elif lin:  # delta = L^2: 2 L z_k = s - Q
                        rem = s - quad0 - y0 * (cross0 + g00 * y0)
                        if rem % (2 * lin):
                            continue
                        zs = (rem // (2 * lin),)
                    elif quad0 + y0 * (cross0 + g00 * y0) == s:
                        # q(x) = s on the whole line: scan the ellipsoid slice, where
                        # mkk (cap - rest) + mid^2 = mkk cap - y^t schur y >= 0
                        # since y is a walked prefix
                        y = (y0,) + outer
                        mid = sum(mt[k][j] * v for j, v in zip(free, y))
                        rest = sum(v * mt[i][j] * w for i, v in zip(free, y) for j, w in zip(free, y))
                        root = isqrt(mkk * (cap - rest) + mid * mid)
                        zs = range(-((root + mid) // mkk), (root - mid) // mkk + 1)
                    else:
                        continue
                    for z in zs:
                        if z < 0 and not y0 and not any(outer):  # the zero prefix: z_k > 0
                            continue
                        t = t0 + pa0 * y0 + gak * z
                        if t * (t if view else u0 + pb0 * y0 + gbk * z) > lim:
                            continue
                        y = (y0,) + outer
                        y = y[:k] + (z,) + y[k:]
                        x = tuple(sum(map(mul, r, y)) for r in basis)  # B z
                        if x < origin:
                            x = tuple(-c for c in x)
                        if gcd(*x) != 1:
                            continue
                        div = pairing_ideal(lattice.gram, lattice.ambient_ideals, x)
                        if not div:  # x != 0, and a Lorentzian lattice is nondegenerate: a bug
                            raise InvariantError("a wall candidate pairs to zero with the whole lattice")
                        row = table.match(s, div, lambda: lattice.residues(
                            [sum(map(mul, r, x)) for r in lattice.gram], div))  # G x
                        if row is not None:
                            found.append((x, row))
    found.sort(key=lambda item: item[0])
    return found


def _covers(bound, qq, q_base, q_y) -> bool:
    # the region around base covers the cone point y: qq^2 <= B q(base) q(y),
    # qq = q(base, y)
    return bound.denominator * qq * qq <= bound.numerator * q_base * q_y


def _sides(rows, v) -> list[int]:
    """The dot of every row with v.  On wall classes w and v = G x it is
    the side list, q(w, x) per wall, where a zero means x lies on that
    wall; on the rows of G and v = x it is G x."""
    return [sum(map(mul, row, v)) for row in rows]


def _short_shift(q_x, q_y, q_xy, q_prim, s_max) -> bool:
    """True when only walls through x can meet the segment [x, y].

    x and y are cone points in one component, at any positive scales,
    with q_x = q(x), q_y = q(y), q_xy = q(x, y); q_prim = q(X) for the
    primitive integral X on the ray of x, and s_max = max |s| over the
    table squares.  A wall w of square s that meets [x, y] is no farther
    from x than y is: q(w, x)^2 / (|s| q(x)) <= D = q(x, y)^2 / (q(x) q(y))
    - 1 (sinh^2 of the distances).  If w is not through x, q(w, X) is a
    nonzero integer, so q(w, x)^2 / q(x) >= 1 / q(X) and |s| q(X) D >= 1;
    the test is the opposite inequality, cleared of denominators.
    """
    return (q_xy * q_xy - q_x * q_y) * s_max * q_prim < q_x * q_y


def _fix_endpoint(lattice, table, classes, bound, base, end, m, sides, other):
    """Accumulate shifts until the endpoint x / m reaches general position.

    ``base`` and ``end`` are the integral (X, G X) pairs of the region's
    base and of x, as ``_integral_cone_point`` gives them.
    Shift k is eps e_j with j = k mod n and eps = 1/(c m 2^h), h = k div n,
    c = 64.  Shifts compound: a point on several walls whose normals have
    disjoint coordinate support needs moves in more than one direction.
    They halve, so a wall within the first can reject them all; a second
    pass then starts again from x with c = 64 2^(attempts div n).
    The candidate is y / d with d = c m 2^h, and y, d and G y are all it
    carries: a shift y_j += 1 adds row j of the symmetric G to G y, and a
    halving doubles y, d and G y.  Everything it is judged by is a dot
    product with G y, formed in this order and only once the tests before
    have passed: q(y) > 0; q(x, y) > 0, the original's component;
    q(base, y), for the region around ``base``; the side list, which must
    have no zero and the original's sign on every wall; and, unless
    ``other`` is None (for a), crossings at distinct parameters against
    the other endpoint's (side list, denominator) = ``other``
    (``_distinct_crossings``).  Returns y, d and the
    side list.  When no candidate is accepted the error counts those that
    left the region and those that gave two walls one crossing parameter,
    so a bound too tight to perturb in, or such a tie, is named as the cause.

    ``classes`` are the wall classes of the segment x ends, and
    ``sides`` their pairings with x.  A wall that y lies on or that
    separates y from x meets [x, y], so when ``_short_shift`` shows that
    only walls through x do, the side list decides; otherwise the walls of
    [x, y] are walked on G x, G y and q(x, y) (the region of rho = 0 does
    not depend on the scales of x and y), and their pairings with x and y
    are dot products with G x and G y.  Either way y is judged against
    every wall of the (convex) region around ``base``, which holds x and y.
    """
    gram, (bx, gbase), (x, gx) = lattice.gram, base, end
    n, g = len(x), gcd(*x)
    q_x, q_base = sum(map(mul, x, gx)), sum(map(mul, bx, gbase))
    q_prim, s_max = q_x // (g * g), -table.squares[0]
    outside = tied = 0
    for scale in (64, 64 << (_PERTURB_ATTEMPTS // n)):
        y, d, gy = [scale * c for c in x], scale * m, [scale * c for c in gx]
        for k in range(_PERTURB_ATTEMPTS):
            j = k % n
            if k and not j:
                y, d, gy = [2 * c for c in y], 2 * d, [2 * c for c in gy]
            y[j] += 1
            gy = [c + e for c, e in zip(gy, gram[j])]  # G is symmetric: column j is row j
            q_y = sum(map(mul, y, gy))
            if q_y <= 0 or (q_xy := sum(map(mul, x, gy))) <= 0:
                continue
            if not _covers(bound, sum(map(mul, bx, gy)), q_base, q_y):
                outside += 1
                continue
            cand = _sides(classes, gy)
            if any(c == 0 or c * o < 0 for c, o in zip(cand, sides)):
                continue
            if other and not _distinct_crossings(*other, cand, d):
                tied += 1
                continue
            if _short_shift(q_x, q_y, q_xy, q_prim, s_max) or all(
                    tx == 0 != ty for tx, ty in (
                        (sum(map(mul, w, gx)), sum(map(mul, w, gy)))
                        for w, _sig in _walls(lattice, table, gx, gy, q_xy, 0))):
                return tuple(y), d, cand
    raise PreconditionError(f"could not perturb an endpoint into general position: {outside} of "
                            f"{2 * _PERTURB_ATTEMPTS} candidates left the region of bound "
                            f"{frac_str(bound)}, {tied} gave two walls one crossing parameter")


def _distinct_crossings(sa, ma, sb, mb) -> bool:
    """True when no two walls with opposite sides at a = A/ma and b = B/mb
    cross [a, b] at one t, from their integer sides as in
    ``_strict_crossings``: t = u / v with u = qa mb and v = qa mb - qb ma
    of one sign, compared as the pairs (|u|, |v|) / gcd(u, v)."""
    ts = [(abs(qa * mb), abs(qa * mb - qb * ma)) for qa, qb in zip(sa, sb) if qa * qb < 0]
    return len({(u // gcd(u, v), v // gcd(u, v)) for u, v in ts}) == len(ts)


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

    Only the walls that meet the closed segment are walked (``_walls``
    with rho = 0, on the endpoints' pairing rows); every other wall keeps
    one strict side at both ends, perturbed or not.  The bound sets no
    search: its region around a must cover b, and a perturbed endpoint
    must stay in that region.
    """
    _require_lorentzian(lattice)
    bound = parse_frac(bound)
    pa, da, ga, q_a = _integral_cone_point(lattice, a)
    pb, db, gb, q_b = _integral_cone_point(lattice, b)
    q_ab = sum(map(mul, pa, gb))
    if q_ab <= 0:
        raise PreconditionError("endpoints lie in different components of the positive cone")
    if bound < 1 or not _covers(bound, q_ab, q_a, q_b):
        raise PreconditionError("bound too small: the region does not cover the segment")
    _check_table(lattice, table)

    walls = _walls(lattice, table, ga, gb, q_ab, 0)
    classes = [x for x, _sig in walls]
    base = pa, ga  # the region stays the one around the original a
    sa, sb = _sides(classes, ga), _sides(classes, gb)
    perturbed = False
    if 0 in sa:
        pa, da, sa = _fix_endpoint(lattice, table, classes, bound, base, base, da, sa, None)
        perturbed = True
    if 0 in sb or not _distinct_crossings(sa, da, sb, db):
        pb, db, sb = _fix_endpoint(lattice, table, classes, bound, base, (pb, gb), db, sb, (sa, da))
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


def factorization_report(f: FlopFactorization) -> dict:
    return {
        "a": vector_strs(f.a),
        "b": vector_strs(f.b),
        "perturbed": f.perturbed,
        "steps": [
            {
                "class": list(s.wall_class),
                **s.signature.report_fields(),
                "t": frac_str(s.t),
                "orbit": s.signature.name,
            }
            for s in f.steps
        ],
        "groups": [list(g) for g in f.groups],
        "status": f.status,
    }
