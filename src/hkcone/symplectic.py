"""Rank of a symplectic form restricted to subspaces, exactly.

_form_rank gives rank(m^t omega m).  On a subspace W with basis rows R
(m = R^t) it is even, at most dim W, and at least dim W - codim W with
equality exactly for coisotropic W, since
rank(omega|_W) = dim W - dim(W cap W^perp) and dim W^perp = codim W.
is_coisotropic tests that equality instead of computing W^perp.  Entries
follow rational.parse_exact (ints stay ints); ranks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import PreconditionError
from .rational import parse_exact


@dataclass(frozen=True)
class SymplecticSpace:
    omega: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.omega)
        if n == 0 or n % 2:
            raise PreconditionError("dimension must be even and positive")
        if any(len(row) != n for row in self.omega):
            raise PreconditionError("omega must be square")
        if any(x != -y for row, col in zip(self.omega, zip(*self.omega)) for x, y in zip(row, col)):
            raise PreconditionError("omega must be antisymmetric")
        if linalg.determinant(self.omega) == 0:
            raise PreconditionError("omega must be nondegenerate")

    @property
    def dim(self) -> int:
        return len(self.omega)


def standard_space(n: int) -> SymplecticSpace:
    """Standard form on dimension 2n: omega(e_i, f_i) = 1."""
    dim = 2 * n
    omega = [[0] * dim for _ in range(dim)]
    for i in range(n):
        omega[i][n + i] = 1
        omega[n + i][i] = -1
    return SymplecticSpace(omega=linalg.mat(omega))


def symplectic_space(omega) -> SymplecticSpace:
    return SymplecticSpace(omega=tuple(map(parse_exact, omega)))


@dataclass(frozen=True)
class Subspace:
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.basis:
            raise PreconditionError("subspace needs at least one basis vector")
        if linalg.rank(self.basis) != len(self.basis):
            raise PreconditionError("basis vectors must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace(vectors) -> Subspace:
    return Subspace(basis=tuple(map(parse_exact, vectors)))


def _form_rank(space: SymplecticSpace, m) -> int:
    """rank(m^t omega m), the rank of omega pulled back along the columns of m."""
    return linalg.rank(linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(space.omega, m)))


def restriction_rank(space: SymplecticSpace, w: Subspace) -> int:
    """Rank of omega restricted to W; always even."""
    if any(len(v) != space.dim for v in w.basis):
        raise PreconditionError("basis vectors must lie in the ambient space")
    return _form_rank(space, linalg.transpose(w.basis))


def is_isotropic(space: SymplecticSpace, w: Subspace) -> bool:
    return restriction_rank(space, w) == 0


def is_coisotropic(space: SymplecticSpace, w: Subspace) -> bool:
    """True iff W contains its omega-orthogonal complement.

    That holds exactly when rank(omega|_W) = dim W - codim W, the lower
    bound on the restriction rank.
    """
    return restriction_rank(space, w) == 2 * w.dim - space.dim


def pullback_rank(space: SymplecticSpace, f) -> int:
    """Rank of f^* omega for a linear map into the space (columns = images)."""
    f = tuple(map(parse_exact, f))
    if len(f) != space.dim:
        raise PreconditionError("map must land in the ambient space")
    return _form_rank(space, f)


class MbmRankCheck(NamedTuple):
    holds: bool
    reason: str | None


def mbm_rank_identity(space: SymplecticSpace, w: Subspace,
                      ambient_codim: int) -> MbmRankCheck:
    """Check rank(omega|_W) = dim - 2 codim for a locus-type subspace.

    Applies when the kernel of omega|_W has dimension exactly
    ambient_codim; otherwise the precondition failure is reported.
    """
    r = restriction_rank(space, w)
    kernel_dim = w.dim - r
    if kernel_dim != ambient_codim:
        return MbmRankCheck(False, f"kernel dimension {kernel_dim} != codimension {ambient_codim}")
    return MbmRankCheck(r == space.dim - 2 * ambient_codim, None)
