"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples, vectors are tuples.  Entries are
Python ints or Fractions; no floating point anywhere in this module.

rank, determinant, invert, solve and nullspace share one elimination
core, _echelon: rows are scaled to integers, then reduced by
fraction-free Bareiss elimination (E. H. Bareiss, Math. Comp. 22, 1968),
optionally on to d times the reduced row echelon form.  It returns
(rows, pivots, d, swaps, scale): the integer rows, the pivot columns,
the last pivot, the number of row swaps and the product of the row
scales.  invert and solve read from the pivots whether one landed in
their augmented columns.  Without swaps the rows are the fraction-free
LDL^t that cone's Fincke-Pohst walk reads.  One Bareiss step,
_bareiss_step, does every exact-division update: _echelon calls it per
pivot, and congruence_diagonalize (Lagrange's pivot rule) calls it on
the integer rows of [cG | I] after the symmetric column operations its
pivots need.
smith_normal_form (over Z) keeps V by columns, so every step on U and V
is a whole-row operation; its entries follow rational.parse_int.  Every
core works in integers and forms Fractions only for what it returns.
Ragged matrices are rejected, and so are non-square ones where a square
one is needed.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import PreconditionError
from .rational import integral, parse_ints


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


def _width(m) -> int:
    """The common length of the rows of m (0 without rows)."""
    n = len(m[0]) if m else 0
    if any(len(row) != n for row in m):
        raise PreconditionError("ragged matrix")
    return n


def _order(m) -> int:
    """The size of the square matrix m."""
    n = len(m)
    if _width(m) != n:
        raise PreconditionError("matrix must be square")
    return n


def mat_mul(a, b):
    # every column of b has len(b) entries; with no columns nothing is paired
    if _width(b) and any(len(ra) != len(b) for ra in a):
        raise PreconditionError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def _bareiss_step(rows, r, c, d, reduce=False):
    """One fraction-free Bareiss step on the pivot p = rows[r][c]; returns p.

    Every row below r (with ``reduce``, every row but r) becomes
    ``(row * p - row[c] * rows[r]) // d``, divided exactly by d, the
    previous pivot, so column c ends at 0 off the pivot.  Rows below r
    are already 0 left of c, and only their columns right of c change.
    """
    top = rows[r]
    p = top[c]
    for i in range(0 if reduce else r + 1, len(rows)):
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        # rows above hold earlier pivots and free columns left of c,
        # which must be rescaled too
        for j in range(0 if i < r else c + 1, len(top)):
            row[j] = (row[j] * p - f * top[j]) // d
        row[c] = 0
    return p


def _echelon(m, reduce=False):
    """Fraction-free (Bareiss) row echelon form of m.

    Each row holding a non-integer is first scaled to integers by the lcm
    of its denominators; ``scale`` is the product of those factors.  The
    integer rows are then eliminated column by column, pivoting on the
    first nonzero entry at or below the current row, one _bareiss_step
    per pivot.  With ``reduce`` the entries above each pivot are cleared
    as well, so the pivot rows end as ``d`` times the reduced row echelon
    form.  Callers of an augmented matrix read from the pivots whether
    one landed in the augmented columns.

    Returns ``(rows, pivots, d, swaps, scale)``: the eliminated integer rows
    (pivot rows first), the pivot columns, the last pivot (1 if none), the
    number of row swaps and the scale.  For square m of full rank,
    det(m) = (-1)^swaps * d / scale.
    """
    nrows, ncols = len(m), _width(m)
    rows = []
    scale = 1
    for row in m:
        if not all(type(x) is int for x in row):
            row, s = integral(row)
            scale *= s
        rows.append(list(row))
    pivots = []
    d = 1
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        d = _bareiss_step(rows, r, c, d, reduce)
        pivots.append(c)
    return rows, pivots, d, swaps, scale


def rank(m) -> int:
    return len(_echelon(m)[1])


def determinant(m):
    n = _order(m)
    _rows, pivots, d, swaps, scale = _echelon(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(-d if swaps % 2 else d, scale)


def invert(m):
    n = _order(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots, d, _swaps, _scale = _echelon(aug, reduce=True)
    if pivots[:n] != list(range(n)):
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
    rows, pivots, d, _swaps, _scale = _echelon(aug, reduce=True)
    if ncols in pivots:
        raise PreconditionError("inconsistent system")
    r = len(pivots)
    if r < ncols:
        raise PreconditionError("underdetermined system")
    return tuple(Fraction(row[ncols], d) for row in rows[:r])


def nullspace(m):
    """Deterministic rational basis of the kernel of m (rows act on vectors)."""
    rows, pivots, d, _swaps, _scale = _echelon(m, reduce=True)
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
    active diagonal vanishes identically, add row and column j of the
    first nonzero pair (i, j) to row and column i (rank-2 hyperbolic
    split).  The rows below each pivot become their Schur complement, so
    the active block stays symmetric.  Works on the integer rows of
    [cG | I], c the lcm of G's denominators, by _bareiss_step, whose
    updates divide exactly by the previous pivot: row i ends as s_i times
    (c diag_i, t_i), s_i the last pivot above row i (1 for none) and t_i
    the i-th column of T, so Fractions are formed only at the end.  Works
    for singular input; zero diagonal entries mark the radical.
    """
    n = _order(g)
    flat, c = integral([x for row in g for x in row])
    rows = [list(flat[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    scales = [1]  # the rows from k on hold scales[k] times their rational values
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if rows[i][j]), None)
            if pair is None:  # the active block is zero
                break
            piv, j = pair
            rows[piv] = [x + y for x, y in zip(rows[piv], rows[j])]
            for row in rows[k:]:
                row[piv] += row[j]
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            for row in rows[k:]:
                row[k], row[piv] = row[piv], row[k]
        scales.append(_bareiss_step(rows, k, k, scales[-1]))
    scales += scales[-1:] * n  # a zero block keeps the last pivot
    return (mat(zip(*([Fraction(x, s) for x in row[n:]] for row, s in zip(rows, scales)))),
            tuple(Fraction(row[i], c * s) for i, (row, s) in enumerate(zip(rows, scales))))


def smith_normal_form(a):
    """U A V = D with U, V unimodular and D diagonal, d_i >= 0, d_i | d_{i+1}.

    Pivot: minimal nonzero absolute value in the active block, ties broken
    by smallest row index then smallest column index.  V is kept by
    columns (vt), so every step on U and V is a whole-row list operation.
    """
    nrows, ncols = len(a), _width(a)
    m = [list(parse_ints(row)) for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    vt = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    t = 0
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(m[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
            vt[t], vt[bj] = vt[bj], vt[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        p = m[t][t]
        for i in range(t + 1, nrows):
            if m[i][t]:  # row_i -= q row_t
                f = -(m[i][t] // p)
                m[i] = [x + f * y for x, y in zip(m[i], m[t])]
                u[i] = [x + f * y for x, y in zip(u[i], u[t])]
        live = [row for row in m if row[t]]  # rows with a zero in column t gain nothing
        for j in range(t + 1, ncols):
            if m[t][j]:  # col_j -= q col_t
                f = -(m[t][j] // p)
                for row in live:
                    row[j] += f * row[t]
                vt[j] = [x + f * y for x, y in zip(vt[j], vt[t])]
        if any(m[i][t] for i in range(t + 1, nrows)) or any(m[t][t + 1:]):
            continue
        # enforce divisibility of the remaining block by the pivot
        viol = next((i for i in range(t + 1, nrows) if any(x % p for x in m[i][t + 1:])), None)
        if viol is None:
            t += 1
        else:
            m[t] = [x + y for x, y in zip(m[t], m[viol])]
            u[t] = [x + y for x, y in zip(u[t], u[viol])]
    return mat(u), mat(m), mat(zip(*vt))
