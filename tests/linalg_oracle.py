"""An oracle for `hkcone.linalg`: its elimination core as it stood before
`_bareiss_step`, kept verbatim.

`_echelon` still takes the ``width`` switch, `invert` and `solve` still
stop before their augmented columns, and `congruence_diagonalize` still
runs its own Schur loop.  The module imports nothing from hkcone: the
entry rule of `rational.integral` is restated for the int and Fraction
entries the differential test feeds it, and `PreconditionError` is a
stand-in that the test compares by name and text.
"""

from fractions import Fraction
from math import lcm


class PreconditionError(ValueError):
    """Stands in for hkcone.errors.PreconditionError."""


def integral(x):
    """rational.integral for int and Fraction entries."""
    coords = tuple(c if type(c) is int else Fraction(c) for c in x)
    m = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (m // c.denominator) for c in coords), m


def mat(rows):
    return tuple(tuple(row) for row in rows)


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


def _echelon(m, width=None, reduce=False):
    """Fraction-free (Bareiss) row echelon form of m.

    Each row holding a non-integer is first scaled to integers by the lcm
    of its denominators; ``scale`` is the product of those factors.  The
    integer rows are then eliminated over the first ``width`` columns
    (default: all), pivoting on the first nonzero entry at or below the
    current row, with every update divided exactly by the previous pivot.
    With ``reduce`` the entries above each pivot are cleared as well, so
    the pivot rows end as ``d`` times the reduced row echelon form.

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
    for c in range(ncols if width is None else width):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
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
    rows, pivots, d, _swaps, _scale = _echelon(aug, width=n, reduce=True)
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
    rows, pivots, d, _swaps, _scale = _echelon(aug, width=ncols, reduce=True)
    r = len(pivots)
    for row in rows[r:]:
        if row[ncols] != 0:
            raise PreconditionError("inconsistent system")
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
    [cG | I], c the lcm of G's denominators, with every Schur step divided
    exactly by the previous pivot, as in _echelon: row i ends as s_i times
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
        p, d = rows[k][k], scales[-1]
        for row in rows[k + 1:]:
            f = row[k]
            row[k:] = [(x * p - f * y) // d for x, y in zip(row[k:], rows[k][k:])]
        scales.append(p)
    scales += scales[-1:] * n  # a zero block keeps the last pivot
    return (mat(zip(*([Fraction(x, s) for x in row[n:]] for row, s in zip(rows, scales)))),
            tuple(Fraction(row[i], c * s) for i, (row, s) in enumerate(zip(rows, scales))))
