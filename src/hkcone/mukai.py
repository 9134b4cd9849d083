"""Exact local model of the Mukai flop on rank-one square-zero matrices.

A point of T*P^k is a pair (u, phi) with u != 0 and phi(u) = 0: its
matrix A = u phi^t maps into the line of u and squares to zero; phi = 0 is
the zero section.  Contraction forgets u.  The flop reads the same pair
from the other side, ([phi], phi u^t) with matrix A^t (S. Mukai, Invent.
Math. 77, 1984).  Every point checks its pair once, when built, on the
integral forms (U, m) and (W, n) of its two vectors (rational.integral):
lengths, a nonzero marked vector and one integer dot product.  It keeps
the forms, and its matrix is built from them once, on first read, with
entries U_i W_j / (m n).  A flop relabels the checked pair and its
forms: it checks nothing again (only the zero section) and re-derives no
covector.  Floats, bools and strings are rejected, naming
the vector; ``make_point`` parses strings.  Everything is exact;
projective data is compared by proportionality (vanishing 2x2 minors),
never normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import PreconditionError, Record
from .rational import integral, parse_frac


def _qvec(v):
    return tuple(map(parse_frac, v))


def proportional(v, w) -> bool:
    """True iff nonzero v, w span the same line (all 2x2 minors vanish).

    The minors are taken on the integral forms of v and w, which span
    the same lines.
    """
    (v, _), (w, _) = integral(v), integral(w)
    if len(v) != len(w):
        raise PreconditionError(f"v and w must have the same length; got {len(v)} and {len(w)}")
    if all(c == 0 for c in v) or all(c == 0 for c in w):
        raise PreconditionError("zero vector has no direction")
    n = len(v)
    return all(v[i] * w[j] == v[j] * w[i] for i in range(n) for j in range(i + 1, n))


def _check_pair(marked, cov, names):
    """The one membership test, on the integral forms (rational.integral)
    of marked and cov: marked != 0 and cov(marked) = 0 is one integer dot
    product.  Returns the two forms."""
    forms = []
    for v, name in zip((marked, cov), names):
        try:
            for c in v:
                if isinstance(c, str):  # make_point parses strings; a point takes numbers
                    raise PreconditionError(f"not a rational: {c!r}")
            forms.append(integral(v))
        except PreconditionError as exc:
            raise PreconditionError(f"{name}: {exc}") from exc
    (marked, _), (cov, _) = forms
    if len(cov) != len(marked):
        raise PreconditionError("{} and {} must have the same length".format(*names))
    if not any(marked):
        raise PreconditionError("{} must be nonzero".format(*names))
    if linalg.dot(cov, marked) != 0:
        raise PreconditionError("{1} must vanish on {0}".format(*names))
    return tuple(forms)


def _outer(forms):
    """v w^t from the integral forms (V, m) of v and (W, n) of w: V_i W_j / (m n)."""
    (v, m), (w, n) = forms
    d = m * n
    return tuple(tuple(Fraction(vi * wj, d) for wj in w) for vi in v)


class MukaiPoint(Record):
    """([u], u phi^t) on T*P^k.  ``forms``, the integral forms of u and phi,
    is kept beside the fields, so it is neither compared nor shown."""
    u: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", _check_pair(self.u, self.phi, ("u", "phi")))

    @cached_property
    def a(self):
        return _outer(self.forms)


class DualMukaiPoint(Record):
    """([phi], phi u^t) on the dual side T*P^k dual; ``forms`` as for MukaiPoint, phi's first."""
    phi: tuple[Fraction, ...]
    u: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", _check_pair(self.phi, self.u, ("phi", "u")))

    @cached_property
    def b(self):
        return _outer(self.forms)


def _relabel(cls, point):
    """cls on the pair of a checked point of the other side, its forms
    swapped: the dot product and lengths are the same, and the caller has
    checked that the new marked vector is nonzero."""
    new = object.__new__(cls)
    for name, value in (("u", point.u), ("phi", point.phi), ("forms", point.forms[::-1])):
        object.__setattr__(new, name, value)
    return new


def make_point(u, phi) -> MukaiPoint:
    """([u], u phi^t) for a covector phi vanishing on u; phi = 0 gives the zero section."""
    return MukaiPoint(_qvec(u), _qvec(phi))


def flop(point: MukaiPoint) -> DualMukaiPoint:
    """([u], u phi^t) -> ([phi], phi u^t); undefined on the zero section."""
    if not any(point.phi):
        raise PreconditionError("flop is undefined on the zero section")
    return _relabel(DualMukaiPoint, point)


def flop_dual(point: DualMukaiPoint) -> MukaiPoint:
    """Inverse direction, identifying the double dual with V."""
    if not any(point.u):
        raise PreconditionError("flop is undefined on the zero section")
    return _relabel(MukaiPoint, point)


def check_diagram(point: MukaiPoint) -> bool:
    """Contract after flopping equals the adjoint of contracting directly."""
    return flop(point).b == linalg.transpose(point.a)
