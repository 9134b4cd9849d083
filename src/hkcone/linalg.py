"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples, vectors are tuples.  Entries are
Python ints or Fractions; no floating point anywhere in this module.

rank, determinant, invert, solve and nullspace share one elimination
core, _echelon: rows are scaled to integers, then reduced by
fraction-free Bareiss elimination (E. H. Bareiss, Math. Comp. 22, 1968),
optionally on to d times the reduced row echelon form.  It returns
(rows, pivots, d, sign, scale): the integer rows, the pivot columns, the
last pivot, the parity of the row swaps and the product of the row
scales.  Fractions are formed only from d at the end.
smith_normal_form (unimodular, over Z) and congruence_diagonalize
(symmetric, Lagrange) are not field elimination and keep their own loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import PreconditionError


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def dot(u, v):
    if len(u) != len(v):
        raise PreconditionError("dimension mismatch")
    return sum(map(mul, u, v))


def mat_vec(m, v):
    n = len(v)
    if any(len(row) != n for row in m):
        raise PreconditionError("dimension mismatch")
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    # every column of b has len(b) entries; with no columns nothing is paired
    if bt and any(len(ra) != len(b) for ra in a):
        raise PreconditionError("dimension mismatch")
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def vec_content(v) -> int:
    """gcd of an integer vector (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def _echelon(m, width=None, reduce=False):
    """Fraction-free (Bareiss) row echelon form of m.

    Each row holding a non-integer is first scaled to integers by the lcm
    of its denominators; ``scale`` is the product of those factors.  The
    integer rows are then eliminated over the first ``width`` columns
    (default: all), pivoting on the first nonzero entry at or below the
    current row, with every update divided exactly by the previous pivot.
    With ``reduce`` the entries above each pivot are cleared as well, so
    the pivot rows end as ``d`` times the reduced row echelon form.

    Returns ``(rows, pivots, d, sign, scale)``: the eliminated integer rows
    (pivot rows first), the pivot columns, the last pivot (1 if none), and
    the parity of the row swaps as +-1.  For square m of full rank,
    det(m) = sign * d / scale.
    """
    rows = []
    scale = 1
    for row in m:
        if all(isinstance(x, int) for x in row):
            rows.append(list(row))
        else:
            row = [Fraction(x) for x in row]
            s = lcm(*(x.denominator for x in row))
            scale *= s
            rows.append([x.numerator * (s // x.denominator) for x in row])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    d = sign = 1
    for c in range(ncols if width is None else width):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            # rows above hold earlier pivots and free columns left of c,
            # which must be rescaled too
            for j in range(0 if i < r else c + 1, ncols):
                row[j] = (row[j] * p - f * top[j]) // d
            row[c] = 0
        d = p
        pivots.append(c)
    return rows, pivots, d, sign, scale


def rank(m) -> int:
    return len(_echelon(m)[1])


def determinant(m):
    _rows, pivots, d, sign, scale = _echelon(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * d, scale)


def invert(m):
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots, d, _sign, _scale = _echelon(aug, width=n, reduce=True)
    if len(pivots) < n:
        raise PreconditionError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)


def solve(a, b):
    """Solve A x = b exactly for full-column-rank A (possibly overdetermined).

    Raises PreconditionError if the columns do not span (rank < ncols)
    or the system is inconsistent.
    """
    nrows = len(a)
    if nrows == 0:
        raise PreconditionError("empty system")
    ncols = len(a[0])
    if len(b) != nrows:
        raise PreconditionError("dimension mismatch")
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows, pivots, d, _sign, _scale = _echelon(aug, width=ncols, reduce=True)
    r = len(pivots)
    for row in rows[r:]:
        if row[ncols] != 0:
            raise PreconditionError("inconsistent system")
    if r < ncols:
        raise PreconditionError("underdetermined system")
    return tuple(Fraction(row[ncols], d) for row in rows[:r])


def nullspace(m):
    """Deterministic rational basis of the kernel of m (rows act on vectors)."""
    rows, pivots, d, _sign, _scale = _echelon(m, reduce=True)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(tuple(v))
    return tuple(basis)


def congruence_diagonalize(g):
    """Symmetric congruence T^t G T = diag by Lagrange's method.

    Pivot rule: first nonzero diagonal entry of the active block; if the
    active diagonal vanishes identically, add the column of the first
    nonzero off-diagonal pair (rank-2 hyperbolic split) to create one.
    Works for singular input; zero diagonal entries mark the radical.
    """
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def col_add(dst, src, f):
        for r in range(n):
            m[r][dst] += f * m[r][src]
        for r in range(n):
            m[dst][r] += f * m[src][r]
        for r in range(n):
            t[r][dst] += f * t[r][src]

    def col_swap(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            pair = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j]:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break
            col_add(pair[0], pair[1], Fraction(1))
            piv = pair[0]
        if piv != k:
            col_swap(k, piv)
        for j in range(k + 1, n):
            if m[k][j]:
                col_add(j, k, -m[k][j] / m[k][k])
    return mat(t), tuple(m[i][i] for i in range(n))


def smith_normal_form(a):
    """U A V = D with U, V unimodular and D diagonal, d_i >= 0, d_i | d_{i+1}.

    Pivot: minimal nonzero absolute value in the active block, ties broken
    by smallest row index then smallest column index.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, f):          # row_i += f * row_j
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):          # col_i += f * col_j
        for r in range(nrows):
            m[r][i] += f * m[r][j]
        for r in range(ncols):
            v[r][i] += f * v[r][j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(nrows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(m[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(nrows, ncols):
        best = find_pivot(t)
        if best is None:
            break
        while True:
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
                u[t] = [-x for x in u[t]]
            p = m[t][t]
            for i in range(t + 1, nrows):
                if m[i][t]:
                    row_op(i, t, -(m[i][t] // p))
            for j in range(t + 1, ncols):
                if m[t][j]:
                    col_op(j, t, -(m[t][j] // p))
            if all(m[i][t] == 0 for i in range(t + 1, nrows)) and \
               all(m[t][j] == 0 for j in range(t + 1, ncols)):
                # enforce divisibility of the remaining block by the pivot
                viol = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if m[i][j] % p:
                            viol = i
                            break
                    if viol is not None:
                        break
                if viol is None:
                    break
                row_op(t, viol, 1)
            best = find_pivot(t)
        t += 1

    return mat(u), mat(m), mat(v)
