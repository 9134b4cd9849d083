import random
from fractions import Fraction

import pytest
import sympy

from hkcone import linalg
from hkcone.errors import PreconditionError
from hkcone.symplectic import (is_coisotropic, is_isotropic, mbm_rank_identity,
                               pullback_rank, restriction_rank, standard_space,
                               subspace, symplectic_space)

F = Fraction


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


class TestMbmIdentity:
    def test_codim_two_case(self):
        s = standard_space(4)  # dim 8
        w = subspace([
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
        ])
        res = mbm_rank_identity(s, w, 2)
        assert res.holds and res.reason is None

    def test_lagrangian_case(self):
        s = standard_space(3)
        w = subspace([[int(i == j) for j in range(6)] for i in range(3)])
        res = mbm_rank_identity(s, w, 3)
        assert res.holds

    def test_kernel_mismatch_reported(self):
        s = standard_space(2)
        w = subspace([[1, 0, 0, 0], [0, 0, 1, 0]])  # rank 2, kernel 0
        res = mbm_rank_identity(s, w, 1)
        assert not res.holds and "kernel" in res.reason


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
