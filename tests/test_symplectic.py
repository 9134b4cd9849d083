import random
from fractions import Fraction

import pytest
import sympy

from hkcone import linalg, symplectic
from hkcone.errors import PreconditionError
from hkcone.symplectic import (is_coisotropic, is_isotropic, pullback_rank, restriction_rank,
                               standard_space, subspace, symplectic_space)

F = Fraction


@pytest.fixture(autouse=True)
def fresh_form_cache():
    # each test counts its own work, whatever ranks earlier tests cached
    symplectic._form_rank.cache_clear()


def random_subspace(rng, dim, m):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(m)]
        if linalg.rank(rows) == m:
            return subspace(rows)


class TestRestrictionRank:
    def test_symplectic_pair(self):
        s = standard_space(2)
        assert restriction_rank(s, subspace([[1, 0, 0, 0], [0, 0, 1, 0]])) == 2

    def test_lagrangian(self):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert restriction_rank(s, w) == 0
        assert is_isotropic(s, w)

    def test_coisotropic_equality_case(self):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert restriction_rank(s, w) == 2  # dim - codim
        assert is_coisotropic(s, w)

    def test_dependent_basis_rejected(self):
        with pytest.raises(PreconditionError):
            subspace([[1, 0, 0, 0], [2, 0, 0, 0]])

    def test_ragged_basis_rejected(self):
        with pytest.raises(PreconditionError, match="ragged"):
            subspace([[1], [1, 0]])

    def test_ragged_map_rejected(self):
        with pytest.raises(PreconditionError, match="ragged"):
            pullback_rank(standard_space(1), [[1, 0], [0]])

    @pytest.mark.parametrize("omega, message", [
        ([[0]], "dimension must be even and positive"),
        ([], "dimension must be even and positive"),
        ([[0, 1, 0], [-1, 0, 0]], "omega must be square"),
        ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0]], "omega must be square"),
        ([[0, 1], [1, 0]], "omega must be antisymmetric"),
        ([[1, 1], [-1, 0]], "omega must be antisymmetric"),
        ([[0, 0], [0, 0]], "omega must be nondegenerate"),
    ], ids=["odd", "empty", "non-square", "ragged", "symmetric", "diagonal", "degenerate"])
    def test_omega_error_texts(self, omega, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            symplectic_space(omega)

    def test_degenerate_omega_rejected(self):
        with pytest.raises(PreconditionError):
            symplectic_space([[0, 0], [0, 0]])
        with pytest.raises(PreconditionError):
            symplectic_space([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

    def test_standard_space_is_built_once_per_dimension(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "determinant",
                            lambda m, det=linalg.determinant: calls.append(m) or det(m))
        first = standard_space(6)
        calls.clear()
        assert standard_space(6) is first
        assert calls == []
        assert standard_space(6).omega == symplectic_space(first.omega).omega
        assert len(calls) == 1  # a space built from a form still checks it
        with pytest.raises(PreconditionError, match="^omega must be nondegenerate$"):
            symplectic.SymplecticSpace(omega=((0, 0), (0, 0)))


class TestIsotropicCoisotropic:
    def test_lagrangian_is_both(self):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert is_isotropic(s, w) and is_coisotropic(s, w)

    def test_full_space(self):
        s = standard_space(2)
        w = subspace([[int(i == j) for j in range(4)] for i in range(4)])
        assert is_coisotropic(s, w)
        assert restriction_rank(s, w) == 4

    def test_isotropic_iff_all_pairings_vanish(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(1, 5)
            w = random_subspace(rng, 2 * n, rng.randint(1, 2 * n))
            s = standard_space(n)
            all_zero = all(
                linalg.dot(u, linalg.mat_vec(s.omega, v)) == 0
                for u in w.basis for v in w.basis)
            assert is_isotropic(s, w) == all_zero


class TestCoisotropicDefinition:
    def test_against_sympy_perp(self):
        """is_coisotropic agrees with W^perp <= W, W^perp computed by sympy."""
        rng = random.Random(13)
        verdicts = []
        for k in range(300):
            n = rng.randint(1, 4)
            dim = 2 * n
            if k % 2:
                # a random form omega = P^t J P with P invertible
                while True:
                    p = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
                    if linalg.determinant(p) != 0:
                        break
                j = standard_space(n).omega
                s = symplectic_space(linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), j), p))
            else:
                s = standard_space(n)
            # sparse small entries make isotropic and coisotropic W common
            while True:
                rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)]
                        for _ in range(rng.randint(1, dim))]
                if linalg.rank(rows) == len(rows):
                    break
            w = subspace(rows)
            basis = sympy.Matrix(rows)
            perp = (basis * sympy.Matrix(s.omega)).nullspace()
            contained = all(basis.col_join(v.T).rank() == len(rows) for v in perp)
            assert is_coisotropic(s, w) == contained
            verdicts.append(contained)
        assert 50 < sum(verdicts) < 250


class TestPullback:
    def test_inclusion_equals_restriction(self):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 0, 1, 0]])
        f = linalg.transpose(w.basis)  # columns are the basis vectors
        assert pullback_rank(s, f) == restriction_rank(s, w)

    def test_zero_map(self):
        s = standard_space(2)
        assert pullback_rank(s, [[0, 0]] * 4) == 0

    def test_precomposition_with_automorphism(self):
        rng = random.Random(15)
        s = standard_space(3)
        for _ in range(50):
            w = random_subspace(rng, 6, rng.randint(1, 6))
            m = w.dim
            # random invertible m x m precomposition
            while True:
                g = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
                if linalg.determinant(g) != 0:
                    break
            f = linalg.mat_mul(linalg.transpose(w.basis), g)
            assert pullback_rank(s, f) == restriction_rank(s, w)


class TestInvariance:
    def test_basis_change_of_subspace(self):
        rng = random.Random(18)
        s = standard_space(3)
        for _ in range(50):
            w = random_subspace(rng, 6, rng.randint(1, 6))
            m = w.dim
            while True:
                g = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
                if linalg.determinant(g) != 0:
                    break
            w2 = subspace(linalg.mat_mul(g, w.basis))
            assert restriction_rank(s, w2) == restriction_rank(s, w)
            assert is_coisotropic(s, w2) == is_coisotropic(s, w)

    def test_symplectic_automorphism(self):
        rng = random.Random(19)
        n = 2
        s = standard_space(n)
        for _ in range(30):
            # generators of the symplectic group: diag(A, A^-T) and a shear
            while True:
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                if abs(linalg.determinant(a)) == 1:
                    break
            ainvt = linalg.transpose(linalg.invert(a))
            g = [[a[i][j] if i < n and j < n else
                  ainvt[i - n][j - n] if i >= n and j >= n else 0
                  for j in range(2 * n)] for i in range(2 * n)]
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            b = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]  # symmetric
            shear = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
            for i in range(n):
                for j in range(n):
                    shear[i][n + j] = b[i][j]
            for phi in (g, shear):
                # verify phi preserves omega, then invariance of the rank
                lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(phi), s.omega), phi)
                assert lhs == s.omega
                w = random_subspace(rng, 2 * n, rng.randint(1, 2 * n))
                moved = subspace(linalg.mat_mul(w.basis, linalg.transpose(phi)))
                assert restriction_rank(s, moved) == restriction_rank(s, w)

    def test_monotonicity(self):
        rng = random.Random(20)
        s = standard_space(3)
        for _ in range(80):
            w = random_subspace(rng, 6, rng.randint(2, 6))
            k = rng.randint(1, w.dim - 1)
            sub_rows = w.basis[:k]
            w_sub = subspace(sub_rows)
            assert restriction_rank(s, w_sub) <= restriction_rank(s, w)


def oracle_rank(space, m):
    """rank(m^t omega m) by two full matrix products and one elimination."""
    return linalg.rank(linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(space.omega, m)))


def random_fraction(rng, lo=-3, hi=3):
    return F(rng.randint(lo, hi), rng.randint(1, 3))


def random_invertible(rng, n, entry):
    while True:
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if linalg.determinant(m) != 0:
            return m


def random_antisymmetric_space(rng, dim):
    """A nondegenerate antisymmetric omega with random Fraction entries."""
    while True:
        upper = [[random_fraction(rng) if j > i else F(0) for j in range(dim)]
                 for i in range(dim)]
        omega = [[upper[i][j] - upper[j][i] for j in range(dim)] for i in range(dim)]
        if linalg.determinant(omega) != 0:
            return symplectic_space(omega)


def constructed_rows(rng, n, k, fractions):
    """k independent rows spanning a subspace of (Q^2n, J) with known type.

    For k <= n a subspace of the Lagrangian graph {(x, Bx)}, B symmetric,
    so isotropic; for k > n that Lagrangian plus k - n of the f_i, so
    coisotropic (its complement lies in the Lagrangian).  The rows are a
    random invertible recombination of the spanning vectors.
    """
    entry = (lambda: random_fraction(rng)) if fractions else (lambda: rng.randint(-2, 2))
    b = [[entry() for _ in range(n)] for _ in range(n)]
    b = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
    graph = [[int(i == j) for j in range(n)] + list(b[i]) for i in range(n)]
    fs = [[0] * n + [int(i == j) for j in range(n)] for i in rng.sample(range(n), max(0, k - n))]
    span = graph[:k] if k <= n else graph + fs
    return linalg.mat_mul(random_invertible(rng, k, entry), span)


def check_against_oracle(s, w):
    m = linalg.transpose(w.basis)
    rank = oracle_rank(s, m)
    k = w.dim
    assert restriction_rank(s, w) == rank
    assert is_isotropic(s, w) == (rank == 0)
    assert is_coisotropic(s, w) == (rank == 2 * k - s.dim)
    assert pullback_rank(s, m) == rank
    return rank


class TestFastPathsAgainstOracle:
    """The pairing loop and the rank-bound shortcuts against rank(m^t omega m)."""

    def test_random_subspaces(self):
        rng = random.Random(71)
        for n in range(1, 7):
            dim = 2 * n
            spaces = [standard_space(n), random_antisymmetric_space(rng, dim)]
            for k in range(1, dim + 1):
                for s in spaces:
                    for fractions in (False, True):
                        entry = (lambda: random_fraction(rng, -2, 2)) if fractions \
                            else (lambda: rng.choice((0, 0, 1, -1, 2)))
                        while True:
                            rows = [[entry() for _ in range(dim)] for _ in range(k)]
                            if linalg.rank(rows) == k:
                                break
                        check_against_oracle(s, subspace(rows))

    def test_constructed_isotropic_and_coisotropic(self):
        rng = random.Random(72)
        for n in range(1, 7):
            dim = 2 * n
            j = standard_space(n).omega
            p = random_invertible(rng, dim, lambda: random_fraction(rng, -2, 2))
            # omega = P^t J P pairs u, v as J pairs P u, P v: carry rows by P^-1
            s_p = symplectic_space(linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), j), p))
            p_inv_t = linalg.transpose(linalg.invert(p))
            for k in range(1, dim + 1):
                # both entry kinds up to dim 8; above, Fraction entries at odd k
                for fractions in (False, True) if n < 5 else (bool(k % 2),):
                    rows = constructed_rows(rng, n, k, fractions)
                    for s, basis in ((standard_space(n), rows), (s_p, linalg.mat_mul(rows, p_inv_t))):
                        w = subspace(basis)
                        rank = check_against_oracle(s, w)
                        assert is_isotropic(s, w) == (k <= n)
                        assert is_coisotropic(s, w) == (k >= n)
                        assert rank == 2 * max(0, k - n)

    def test_rank_deficient_pullbacks(self):
        rng = random.Random(73)
        for n in range(1, 7):
            dim = 2 * n
            for s in (standard_space(n), random_antisymmetric_space(rng, dim)):
                for cols in range(1, dim + 3):
                    for inner in {0, rng.randrange(min(dim, cols))}:
                        # f = A B has rank at most inner < cols
                        a = [[random_fraction(rng) for _ in range(inner)] for _ in range(dim)]
                        b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
                        f = linalg.mat_mul(a, b) if inner else [[0] * cols for _ in range(dim)]
                        assert pullback_rank(s, f) == oracle_rank(s, f)

    @pytest.mark.parametrize("n, width, k", [
        (3, 4, 1), (3, 4, 3), (3, 4, 4), (3, 8, 2), (3, 8, 3), (3, 8, 5),
        (1, 1, 1), (2, 6, 1), (2, 6, 2), (2, 6, 3)])
    def test_wrong_length_basis(self, n, width, k):
        # 2k below, at and above dim: the check comes before any shortcut
        s = standard_space(n)
        w = subspace([[int(i == j) for j in range(width)] for i in range(k)])
        for predicate in (restriction_rank, is_isotropic, is_coisotropic):
            with pytest.raises(PreconditionError,
                               match="^basis vectors must lie in the ambient space$"):
                predicate(s, w)


class TestWorkCounts:
    """Isotropy and coisotropy at 2k <= dim run no elimination."""

    def test_no_elimination_where_the_bound_settles(self, monkeypatch):
        rng = random.Random(74)
        cases = []
        for n in range(1, 7):
            s = random_antisymmetric_space(rng, 2 * n)
            for k in range(1, 2 * n + 1):
                w = random_subspace(rng, 2 * n, k)
                cases.append((s, w, oracle_rank(s, linalg.transpose(w.basis))))
        def no_rank(m):
            raise AssertionError("linalg.rank called")
        monkeypatch.setattr(linalg, "rank", no_rank)
        for s, w, rank in cases:
            assert is_isotropic(s, w) == (rank == 0)
            if 2 * w.dim <= s.dim:
                assert is_coisotropic(s, w) == (rank == 2 * w.dim - s.dim)
            else:
                with pytest.raises(AssertionError, match="linalg.rank called"):
                    is_coisotropic(s, w)

    def count_mat_vec(self, monkeypatch):
        calls = []
        mat_vec = linalg.mat_vec

        def counted(m, v):
            calls.append(v)
            return mat_vec(m, v)
        monkeypatch.setattr(linalg, "mat_vec", counted)
        return calls

    def test_form_rank_pairs_each_unordered_pair_once(self, monkeypatch):
        rng = random.Random(75)
        calls = self.count_mat_vec(monkeypatch)
        for n in range(1, 7):
            s = standard_space(n)
            for k in range(1, 2 * n + 1):
                w = random_subspace(rng, 2 * n, k)
                del calls[:]
                symplectic._form_rank(s, w.basis)
                assert len(calls) == k - 1

    def test_isotropy_stops_at_the_first_nonzero_pairing(self, monkeypatch):
        calls = self.count_mat_vec(monkeypatch)
        s = standard_space(3)
        w = subspace([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0],
                      [0, 0, 1, 0, 0, 0]])
        assert not is_isotropic(s, w)
        assert len(calls) == 1


class TestFormReuse:
    """The restricted form is built once per (space, subspace)."""

    def test_rank_then_coisotropy_eliminate_once(self, monkeypatch):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # 2 dim W > dim
        again = subspace(w.basis)
        calls = []
        monkeypatch.setattr(linalg, "rank", lambda m, rank=linalg.rank: calls.append(m) or rank(m))
        assert restriction_rank(s, w) == 2
        assert is_coisotropic(s, w)
        assert calls == [[[0, 0, 1], [0, 0, 0], [-1, 0, 0]]]  # one restricted form
        assert restriction_rank(standard_space(2), again) == 2  # an equal key shares it
        assert len(calls) == 1

    def test_cache_is_bounded(self):
        s = standard_space(1)
        for a in range(100):
            restriction_rank(s, subspace([[1, a]]))
        info = symplectic._form_rank.cache_info()
        assert info.maxsize == 64 and info.currsize == 64

    def test_list_entries_are_kept_as_tuples(self):
        # the cache keys on the space and the basis, so both must hash
        s = symplectic.SymplecticSpace(omega=[[0, 1], [-1, 0]])
        w = symplectic.Subspace(basis=[[1, 0], [0, 1]])
        assert s.omega == ((0, 1), (-1, 0)) and w.basis == ((1, 0), (0, 1))
        assert restriction_rank(s, w) == 2 and is_coisotropic(s, w)
        assert pullback_rank(s, [[1, 0], [0, 1]]) == 2
