"""Rank of a symplectic form restricted to subspaces, exactly.

_form_rank gives rank(m^t omega m), pairing the columns of m once per
unordered pair: the form is antisymmetric.  On a subspace W it is even, at
most dim W, and at least dim W - codim W with equality exactly for
coisotropic W, as rank(omega|_W) = dim W - dim(W cap W^perp), dim W^perp =
codim W.  So isotropy is the vanishing of the pairings, and coisotropy is
read off that bound: false for 2 dim W < dim, isotropy at equality, a rank
only above it.  The restricted form and its rank are built once per
(space, vectors): _form_rank keeps the last 64, so restriction_rank and
is_coisotropic on one subspace make one.  Entries follow
rational.parse_exact; ranks are exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .errors import PreconditionError, Record
from .rational import parse_exact


class SymplecticSpace(Record):
    omega: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", linalg.mat(self.omega))  # hashed by _form_rank
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


@functools.lru_cache(maxsize=64, typed=True)  # typed: n = 2.0 still raises, as before
def standard_space(n: int) -> SymplecticSpace:
    """Standard form on dimension 2n: omega(e_i, f_i) = 1; one frozen space per n."""
    dim = 2 * n
    omega = [[0] * dim for _ in range(dim)]
    for i in range(n):
        omega[i][n + i] = 1
        omega[n + i][i] = -1
    return SymplecticSpace(omega=linalg.mat(omega))


def symplectic_space(omega) -> SymplecticSpace:
    return SymplecticSpace(omega=tuple(map(parse_exact, omega)))


class Subspace(Record):
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", linalg.mat(self.basis))  # hashed by _form_rank
        if not self.basis:
            raise PreconditionError("subspace needs at least one basis vector")
        if linalg.rank(self.basis) != len(self.basis):
            raise PreconditionError("basis vectors must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace(vectors) -> Subspace:
    return Subspace(basis=tuple(map(parse_exact, vectors)))


def _pairings(space: SymplecticSpace, vectors):
    """(i, j, omega(u_i, u_j)) for i < j, lazily: one mat_vec per u_j, j > 0."""
    for j in range(1, len(vectors)):
        omega_u = linalg.mat_vec(space.omega, vectors[j])
        for i in range(j):
            yield i, j, linalg.dot(vectors[i], omega_u)


@functools.lru_cache(maxsize=64)
def _form_rank(space: SymplecticSpace, vectors) -> int:
    """rank(m^t omega m), m with the vectors as columns: omega pulled back along m."""
    form = [[0] * len(vectors) for _ in vectors]
    for i, j, v in _pairings(space, vectors):
        form[i][j], form[j][i] = v, -v
    return linalg.rank(form)


def _basis(space: SymplecticSpace, w: Subspace):
    if any(len(v) != space.dim for v in w.basis):
        raise PreconditionError("basis vectors must lie in the ambient space")
    return w.basis


def restriction_rank(space: SymplecticSpace, w: Subspace) -> int:
    """Rank of omega restricted to W; always even."""
    return _form_rank(space, _basis(space, w))


def is_isotropic(space: SymplecticSpace, w: Subspace) -> bool:
    """True iff omega vanishes on W; stops at the first nonzero pairing."""
    return not any(v for _i, _j, v in _pairings(space, _basis(space, w)))


def is_coisotropic(space: SymplecticSpace, w: Subspace) -> bool:
    """True iff W contains its omega-orthogonal complement, that is iff
    rank(omega|_W) = dim W - codim W, the lower bound on the rank."""
    excess = 2 * len(_basis(space, w)) - space.dim
    if excess > 0:
        return restriction_rank(space, w) == excess
    return excess == 0 and is_isotropic(space, w)


def pullback_rank(space: SymplecticSpace, f) -> int:
    """Rank of f^* omega for a linear map into the space (columns = images)."""
    f = tuple(map(parse_exact, f))
    if len(f) != space.dim:
        raise PreconditionError("map must land in the ambient space")
    if any(len(row) != len(f[0]) for row in f):
        raise PreconditionError("ragged matrix")
    return _form_rank(space, linalg.transpose(f))
