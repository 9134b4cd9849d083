"""Oracle checks for the exact linear algebra kernel."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy

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


def test_smith_normal_form_pivot_rule_is_deterministic():
    a = [[4, 6], [6, 4]]
    u1 = linalg.smith_normal_form(a)
    u2 = linalg.smith_normal_form(a)
    assert u1 == u2


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
