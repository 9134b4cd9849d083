"""Oracle checks for the exact linear algebra kernel."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from hkcone import linalg
from hkcone.errors import PreconditionError


def minor_gcd(m, k):
    nr, nc = len(m), len(m[0])
    g = 0
    for rows in combinations(range(nr), k):
        for cols in combinations(range(nc), k):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = gcd(g, int(linalg.determinant(sub)))
    return g


def random_symmetric(rng, n, lim=6):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-lim, lim)
    return a


def test_smith_normal_form_against_determinantal_divisors():
    rng = random.Random(11)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        u, d, v = linalg.smith_normal_form(a)
        assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
        assert abs(linalg.determinant(u)) == 1
        assert abs(linalg.determinant(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        prev = 1
        for k in range(1, len(diag) + 1):
            dk = minor_gcd(a, k)
            assert diag[k - 1] == (0 if dk == 0 else dk // prev)
            if dk == 0:
                break
            prev = dk


def smith_normal_form_closures(a):
    """The Smith form with V by rows and per-entry row/column closures:
    the oracle for the whole-row implementation in linalg."""
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

    return linalg.mat(u), linalg.mat(m), linalg.mat(v)


def snf_cases(seed):
    """Seeded integer matrices for the Smith form: every shape from 1x1 to
    8x8 with sparse entries and some zero rows and columns, 12x12 of full
    rank and of rank 9, the 0x0 matrix, and 1xn and nx1 ones."""
    rng = random.Random(seed)
    yield []
    for _ in range(3800):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        lim = rng.choice((2, 9, 60))
        a = [[rng.randint(-lim, lim) if rng.random() < 0.8 else 0 for _ in range(nc)]
             for _ in range(nr)]
        if rng.random() < 0.3:
            a[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in a:
                row[j] = 0
        yield a
    for k in range(60):
        a = [[rng.randint(-40, 40) for _ in range(12)] for _ in range(12)]
        if k % 2:  # rank 9: three rows are combinations of others
            for i in (3, 7, 11):
                a[i] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                        for x, y in zip(a[i - 1], a[i - 2])]
        yield a
    for n in range(1, 71):
        yield [[rng.randint(-30, 30) for _ in range(n)]]
        yield [[rng.randint(-30, 30)] for _ in range(n)]


def test_smith_normal_form_equals_closure_oracle():
    count = 0
    for a in snf_cases(12):
        assert linalg.smith_normal_form(a) == smith_normal_form_closures(a), a
        count += 1
    assert count >= 4000
    assert linalg.smith_normal_form([]) == ((), (), ())


def test_smith_normal_form_against_sympy():
    rng = random.Random(13)
    for k in range(300):
        nr, nc = (12, 12) if k % 30 == 0 else (rng.randint(1, 6), rng.randint(1, 6))
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and k % 3 == 0:
            a[0] = [2 * x - y for x, y in zip(a[1], a[-1])]
        u, d, v = linalg.smith_normal_form(a)
        assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
        assert abs(linalg.determinant(u)) == 1 and abs(linalg.determinant(v)) == 1
        assert all(d[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
        want = tuple(int(f) for f in invariant_factors(sympy.Matrix(a)))
        assert tuple(d[i][i] for i in range(min(nr, nc))) == want


def test_smith_normal_form_pivot_rule_is_deterministic():
    a = [[4, 6], [6, 4]]
    u1 = linalg.smith_normal_form(a)
    u2 = linalg.smith_normal_form(a)
    assert u1 == u2


def congruence_diagonalize_closures(g):
    """Lagrange's congruence with per-entry column and row closures: the
    oracle for the whole-row implementation in linalg."""
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
    return linalg.mat(t), tuple(m[i][i] for i in range(n))


def congruence_cases(seed):
    """Seeded symmetric matrices of size 0 to 7: integer and rational
    entries, zero diagonal entries, all-zero diagonals (the hyperbolic
    split), singular ones P B P^t of lower rank, and the quartic Gram."""
    rng = random.Random(seed)
    yield []
    yield [[-2, 3, 0], [3, 0, 0], [0, 0, -4]]
    for k in range(5000):
        n = min(rng.randint(1, 7), rng.randint(1, 7))  # every size, most of them small
        if k % 4 == 3:  # rank at most n - 1
            r = rng.randint(0, n - 1)
            b = random_symmetric(rng, r, 3)
            p = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            a = [list(row) for row in linalg.mat_mul(linalg.mat_mul(p, b), linalg.transpose(p))] \
                if r else [[0] * n for _ in range(n)]
        else:
            a = random_symmetric(rng, n, rng.choice((1, 3, 9)))
        kind = k % 5
        for i in range(n):
            if kind == 0 or (kind == 1 and rng.random() < 0.5):
                a[i][i] = 0
        if k % 7 == 0:
            a = [[Fraction(x, 2) for x in row] for row in a]
        yield a
    yield from large_congruence_cases(seed + 1000)


def large_congruence_cases(seed):
    """Seeded symmetric matrices of size 1 to 7 with entries up to 10^12 in
    absolute value over denominators up to 10^6: far beyond the small cases,
    so every exact division of the integer Schur steps meets big pivots.
    Zero diagonals and singular P B P^t are among them."""
    rng = random.Random(seed)
    big = 10 ** 12
    for k in range(400):
        n = rng.randint(1, 7)
        if k % 4 == 3:  # rank at most n - 1
            r = rng.randint(0, n - 1)
            b = random_symmetric(rng, r, big)
            p = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            a = [list(row) for row in linalg.mat_mul(linalg.mat_mul(p, b), linalg.transpose(p))] \
                if r else [[0] * n for _ in range(n)]
        else:
            a = random_symmetric(rng, n, big)
        kind = k % 5
        for i in range(n):
            if kind == 0 or (kind == 1 and rng.random() < 0.5):
                a[i][i] = 0
        if k % 3:  # D^-1 A D^-1 keeps the rank and the zero diagonal
            q = [rng.randint(1, 10 ** 3) for _ in range(n)]
            a = [[Fraction(x, q[i] * q[j]) for j, x in enumerate(row)] for i, row in enumerate(a)]
        yield a


def test_large_congruence_cases_reach_their_sizes():
    cases = list(large_congruence_cases(1014))
    entries = [x for a in cases for row in a for x in row]
    assert {len(a) for a in cases} == set(range(1, 8))
    assert max(map(abs, entries)) > 10 ** 11
    assert max(Fraction(x).denominator for x in entries) > 10 ** 5
    assert sum(bool(a) and not any(a[i][i] for i in range(len(a))) for a in cases) >= 50
    assert sum(linalg.rank(a) < len(a) for a in cases) >= 80


def test_congruence_diagonalize_equals_closure_oracle():
    sizes = []
    zero_diagonal = singular = 0
    for a in congruence_cases(14):
        t, diag = congruence_diagonalize_closures(a)
        assert linalg.congruence_diagonalize(a) == (t, diag), a
        sizes.append(len(a))
        zero_diagonal += bool(a) and not any(a[i][i] for i in range(len(a)))
        singular += 0 in diag
    assert len(sizes) >= 5000 and set(sizes) == set(range(8))
    assert zero_diagonal >= 500 and singular >= 1000


def test_congruence_diagonalize_identity():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_symmetric(rng, n)
        t, diag = linalg.congruence_diagonalize(a)
        lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), a), t)
        assert lhs == tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
        assert linalg.determinant(t) != 0


def test_congruence_diagonalize_hyperbolic_split():
    t, diag = linalg.congruence_diagonalize([[0, 1], [1, 0]])
    assert sorted(1 if d > 0 else -1 for d in diag) == [-1, 1]


def test_rank_int_and_fraction_paths_agree():
    rng = random.Random(7)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        af = [[Fraction(x) for x in row] for row in a]
        assert linalg.rank(a) == linalg.rank(af)


def test_solve_roundtrip_and_errors():
    a = [[-2, 3, 0], [3, 0, 0], [6, 0, 4]]
    x = linalg.solve(a, (1, 3, 1))
    assert x == (1, 1, Fraction(-5, 4))
    with pytest.raises(PreconditionError):
        linalg.solve([[1, 0], [2, 0]], (1, 2))  # rank 1 < 2 columns
    with pytest.raises(PreconditionError):
        linalg.solve([[1, 0], [1, 0], [0, 1]], (1, 2, 0))  # inconsistent
    with pytest.raises(PreconditionError, match="inconsistent"):
        linalg.solve([[1, 1], [2, 2]], (1, 3))  # inconsistent wins over rank 1 < 2


def test_nullspace_is_kernel():
    rng = random.Random(3)
    for _ in range(100):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        basis = linalg.nullspace(a)
        assert len(basis) == nc - linalg.rank(a)
        for v in basis:
            assert all(x == 0 for x in linalg.mat_vec(a, v))


def test_invert():
    a = [[2, 1], [1, 1]]
    inv = linalg.invert(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    with pytest.raises(PreconditionError):
        linalg.invert([[1, 1], [1, 1]])


@pytest.mark.parametrize("fn", [linalg.determinant, linalg.invert])
def test_non_square_rejected(fn):
    # a 2x3 matrix has no determinant or inverse: its third column is not
    # dropped and the first 2x2 block is not read instead
    with pytest.raises(PreconditionError, match="matrix must be square"):
        fn([[1, 2, 3], [4, 5, 7]])
    with pytest.raises(PreconditionError, match="matrix must be square"):
        fn([[1, 2], [3, 4], [5, 6]])


class TestSmithFormEntries:
    """Smith-form entries follow the document-integer rule: an integral
    rational is its integer, anything else is a PreconditionError."""

    def test_non_integral_fraction_rejected(self):
        with pytest.raises(PreconditionError, match="not an integer"):
            linalg.smith_normal_form([[Fraction(1, 2), 0], [0, 3]])

    def test_float_rejected(self):
        with pytest.raises(PreconditionError, match="not a rational"):
            linalg.smith_normal_form([[1.7, 0], [0, 3]])

    def test_bool_rejected(self):
        with pytest.raises(PreconditionError):
            linalg.smith_normal_form([[True, 0], [0, 3]])

    def test_integral_rationals_and_numpy_ints_accepted(self):
        a = [[4, 6], [6, 4]]
        want = linalg.smith_normal_form(a)
        assert linalg.smith_normal_form([[Fraction(x) for x in row] for row in a]) == want
        got = linalg.smith_normal_form([[np.int64(x) for x in row] for row in a])
        assert got == want and all(type(x) is int for m in got for row in m for x in row)


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def random_cases(seed, count=300):
    """Integer and Fraction matrices of every shape from 1x1 to 6x6.

    About half have a row replaced by a multiple of another, so square
    cases include singular ones and all shapes include rank deficiency.
    """
    rng = random.Random(seed)
    for k in range(count):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rational = k % 2 == 1

        def entry():
            if rational and rng.random() < 0.6:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            return rng.randint(-6, 6)

        m = [[entry() for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(nr), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational else rng.randint(-3, 3)
            m[i] = [c * x for x in m[j]]
        yield m


def test_rank_determinant_against_sympy():
    singular = 0
    for m in random_cases(21):
        ref = sympy.Matrix(m)
        assert linalg.rank(m) == ref.rank()
        if len(m) == len(m[0]):
            det = linalg.determinant(m)
            assert type(det) is Fraction
            assert det == from_sympy(ref.det())
            singular += det == 0
    assert singular > 10


def test_invert_against_sympy():
    for m in random_cases(22):
        if len(m) != len(m[0]):
            continue
        ref = sympy.Matrix(m)
        if ref.det() == 0:
            with pytest.raises(PreconditionError, match="singular matrix"):
                linalg.invert(m)
            continue
        inv = linalg.invert(m)
        assert all(type(x) is Fraction for row in inv for x in row)
        assert inv == tuple(tuple(from_sympy(x) for x in ref.inv().row(i))
                            for i in range(len(m)))


def test_nullspace_against_sympy():
    for m in random_cases(23):
        basis = linalg.nullspace(m)
        assert all(type(x) is Fraction for v in basis for x in v)
        assert basis == tuple(tuple(from_sympy(x) for x in v)
                              for v in sympy.Matrix(m).nullspace())


def test_solve_against_sympy():
    rng = random.Random(24)
    seen = set()
    for m in random_cases(25):
        nc = len(m[0])
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            b = [sum(a * x for a, x in zip(row, x0)) for row in m]
        else:
            b = [rng.randint(-4, 4) for _ in m]
        ref, rhs = sympy.Matrix(m), sympy.Matrix(b)
        ref_rank = ref.rank()
        if ref.row_join(rhs).rank() > ref_rank:
            outcome = "inconsistent system"
        elif ref_rank < nc:
            outcome = "underdetermined system"
        else:
            outcome = "solved"
        seen.add(outcome)
        if outcome != "solved":
            with pytest.raises(PreconditionError, match=outcome):
                linalg.solve(m, b)
            continue
        x = linalg.solve(m, b)
        assert all(type(c) is Fraction for c in x)
        sol, params = ref.gauss_jordan_solve(rhs)
        assert params.shape[0] == 0
        assert x == tuple(from_sympy(c) for c in sol)
    assert seen == {"inconsistent system", "underdetermined system", "solved"}


def test_products_against_sympy():
    rng = random.Random(41)
    for _ in range(60):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
             for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        want = sympy.Matrix(a) * sympy.Matrix(b)
        got = linalg.mat_mul(a, b)
        assert [[sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
                 else c for c in row] for row in got] == want.tolist()
        assert linalg.mat_vec(a, v) == tuple(linalg.dot(row, v) for row in a)
        assert linalg.dot(v, v) == sum(c * c for c in v)


def test_products_reject_dimension_mismatch():
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        linalg.dot((1, 2), (1, 2, 3))
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        linalg.mat_vec(((1, 2), (3, 4, 5)), (1, 2))
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        linalg.mat_mul(((1, 2), (3, 4)), ((1, 0), (0, 1), (1, 1)))
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        linalg.mat_mul(((1, 2), (3,)), ((1, 0), (0, 1)))
    # with no columns in b nothing is paired: an empty product per row
    assert linalg.mat_mul(((1, 2),), ()) == ((),)


class TestRaggedMatrices:
    """A matrix whose rows differ in length is rejected, not truncated."""

    def test_rank(self):
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.rank([[1], [0, 1]])

    def test_mat_mul_rows_of_b(self):
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.mat_mul([[1, 0], [0, 1]], [[1, 2], [3]])

    def test_determinant_and_smith_form(self):
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.determinant([[1, 2], [3]])
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.smith_normal_form([[1, 2], [3]])

    def test_elimination_entry_points(self):
        for fn in (linalg.invert, linalg.nullspace):
            with pytest.raises(PreconditionError, match="ragged"):
                fn([[1, 2], [3]])
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.solve([[1, 2], [3]], (1, 1))
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.rank([[Fraction(1, 2), 1], [1]])

    def test_congruence_diagonalize(self):
        with pytest.raises(PreconditionError, match="ragged"):
            linalg.congruence_diagonalize([[1, 2], [2]])
        with pytest.raises(PreconditionError, match="square"):
            linalg.congruence_diagonalize([[1, 2, 0], [2, 1, 0]])
