"""Exact local model of the Mukai flop on rank-one square-zero matrices.

Points are pairs ([u], A) with u a nonzero vector of V, A an
endomorphism with image inside the line of u and A^2 = 0.  Contraction
forgets u; the flop sends such a pair to ([ker A], A^t) on the dual
side.  Everything is exact rational arithmetic; projective data is
compared by proportionality (vanishing 2x2 minors), never normal forms.
An optional tuple of transverse-slice coordinates rides along untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import PreconditionError


def _qvec(v):
    v = tuple(Fraction(c) for c in v)
    if not v:
        raise PreconditionError("empty vector")
    return v


def _qmat(m):
    return tuple(tuple(Fraction(c) for c in row) for row in m)


def proportional(v, w) -> bool:
    """True iff nonzero v, w span the same line (all 2x2 minors vanish)."""
    if all(c == 0 for c in v) or all(c == 0 for c in w):
        raise PreconditionError("zero vector has no direction")
    n = len(v)
    return all(v[i] * w[j] == v[j] * w[i] for i in range(n) for j in range(i + 1, n))


def _check_member(u, a):
    n = len(u)
    if all(c == 0 for c in u):
        raise PreconditionError("u must be nonzero")
    if len(a) != n or any(len(row) != n for row in a):
        raise PreconditionError("matrix size must match dim V")
    # A = u c^t exactly when A maps into the line of u; then A^2 = (c.u) A
    c = _kernel_covector(u, a)
    if any(a[i][j] != u[i] * c[j] for i in range(n) for j in range(n)):
        raise PreconditionError("image of A must lie in the line of u")
    if linalg.dot(c, u) != 0:
        raise PreconditionError("A^2 must vanish")


@dataclass(frozen=True)
class MukaiPoint:
    u: tuple[Fraction, ...]
    a: tuple[tuple[Fraction, ...], ...]
    slice_coords: tuple[Fraction, ...] = ()

    def __post_init__(self):
        _check_member(self.u, self.a)

    @property
    def k(self) -> int:
        return len(self.u) - 1


@dataclass(frozen=True)
class DualMukaiPoint:
    phi: tuple[Fraction, ...]
    b: tuple[tuple[Fraction, ...], ...]
    slice_coords: tuple[Fraction, ...] = ()

    def __post_init__(self):
        _check_member(self.phi, self.b)

    @property
    def k(self) -> int:
        return len(self.phi) - 1


def mukai_point(u, a, slice_coords=()) -> MukaiPoint:
    return MukaiPoint(u=_qvec(u), a=_qmat(a),
                      slice_coords=tuple(Fraction(c) for c in slice_coords))


def make_point(u, phi, slice_coords=()) -> MukaiPoint:
    """([u], u phi^t) for a covector phi vanishing on u; phi = 0 gives the zero section."""
    u = _qvec(u)
    phi = tuple(Fraction(c) for c in phi)
    if len(phi) != len(u):
        raise PreconditionError("u and phi must have the same length")
    if all(c == 0 for c in u):
        raise PreconditionError("u must be nonzero")
    if linalg.dot(phi, u) != 0:
        raise PreconditionError("phi must vanish on u")
    a = tuple(tuple(ui * pj for pj in phi) for ui in u)
    return MukaiPoint(u=u, a=a, slice_coords=tuple(Fraction(c) for c in slice_coords))


def contract(point: MukaiPoint):
    """Project to the nilpotent cone: forget the marked line."""
    return point.a


def contract_dual(point: DualMukaiPoint):
    return point.b


def _kernel_covector(u, a):
    """The covector c with A = u c^t when A maps into the line of u != 0."""
    i0 = next(i for i, c in enumerate(u) if c)
    return tuple(Fraction(a[i0][j]) / u[i0] for j in range(len(u)))


def flop(point: MukaiPoint) -> DualMukaiPoint:
    """([u], A) -> ([ker A], A^t); undefined on the zero section."""
    if not any(any(row) for row in point.a):
        raise PreconditionError("flop is undefined on the zero section")
    phi = _kernel_covector(point.u, point.a)
    return DualMukaiPoint(phi=phi, b=linalg.transpose(point.a),
                          slice_coords=point.slice_coords)


def flop_dual(point: DualMukaiPoint) -> MukaiPoint:
    """Inverse direction, identifying the double dual with V."""
    if not any(any(row) for row in point.b):
        raise PreconditionError("flop is undefined on the zero section")
    u = _kernel_covector(point.phi, point.b)
    return MukaiPoint(u=u, a=linalg.transpose(point.b),
                      slice_coords=point.slice_coords)


def check_diagram(point: MukaiPoint) -> bool:
    """Contract after flopping equals the adjoint of contracting directly."""
    return contract_dual(flop(point)) == linalg.transpose(contract(point))
