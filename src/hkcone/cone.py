"""Wall enumeration in the positive cone and factorization of segments.

The positive cone of a Lorentzian lattice (signature (1, r-1)) splits the
vectors of positive square into two components.  Negative-square classes
recognized by a signature table cut the cone by orthogonal walls; a
segment between two cone points meets finitely many of them inside any
fixed compact region, and the crossings factor the corresponding
bimeromorphic map into flops, grouped so that every block carries
exactly one codimension-two crossing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import linalg
from .errors import InvariantError, PreconditionError
from .lattice import IntegralLattice, _vec
from .mbm import OrbitSignature, SignatureTable, primitive_rescale
from .rational import frac_str, vector_strs

STATUS_OK = "ok"
STATUS_DIVISORIAL = "leaves_birational_cone"
STATUS_REGULAR = "regular_in_codim_two"

_PERTURB_ATTEMPTS = 64


@dataclass(frozen=True)
class ConePoint:
    """A rational vector of exactly positive square."""

    coords: tuple[Fraction, ...]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


def as_cone_point(lattice: IntegralLattice, p) -> ConePoint:
    if isinstance(p, ConePoint):
        return p
    coords = tuple(Fraction(c) for c in _vec(p))
    if lattice.square(coords) <= 0:
        raise PreconditionError("point must have positive square")
    return ConePoint(coords)


def component_sign(lattice: IntegralLattice, p) -> int:
    """Which component of the positive cone p lies in: +1 or -1.

    The tag is the pairing sign against a fixed positive reference vector
    derived from the diagonalization of the lattice.
    """
    p = as_cone_point(lattice, p)
    ref = lattice.positive_reference()
    s = lattice.pairing(p.coords, ref)
    return 1 if s > 0 else -1


@dataclass(frozen=True)
class WallCrossing:
    wall_class: tuple[int, ...]
    t: Fraction
    signature: OrbitSignature

    @property
    def codimension(self) -> int:
        return self.signature.codimension


@dataclass(frozen=True)
class FlopFactorization:
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    steps: tuple[WallCrossing, ...]
    groups: tuple[tuple[int, ...], ...]
    status: str
    perturbed: bool


def _require_lorentzian(lattice: IntegralLattice):
    sig = lattice.signature()
    if sig != (1, lattice.rank - 1, 0):
        raise PreconditionError(f"lattice must have signature (1, r-1); got {sig}")


def same_component(lattice: IntegralLattice, p, q_pt) -> bool:
    """True iff two positive-square points lie in the same cone component."""
    _require_lorentzian(lattice)
    p = as_cone_point(lattice, p)
    q_pt = as_cone_point(lattice, q_pt)
    return lattice.pairing(p.coords, q_pt.coords) > 0


def _isqrt_frac(x: Fraction) -> int:
    """Largest integer n with n^2 <= x (x >= 0)."""
    return isqrt(x.numerator // x.denominator)


def _canonical_box(bounds):
    """Nonzero integer vectors in the box, first nonzero coordinate positive."""
    n = len(bounds)
    cur = [0] * n

    def rec(i, all_zero):
        if i == n:
            if not all_zero:
                yield tuple(cur)
            return
        m = bounds[i]
        start = 0 if all_zero else -m
        for v in range(start, m + 1):
            cur[i] = v
            yield from rec(i + 1, all_zero and v == 0)
        cur[i] = 0

    yield from rec(0, True)


def enumeration_box(lattice: IntegralLattice, base, bound: Fraction,
                    squares) -> tuple[int, ...]:
    """Per-coordinate bounds containing every candidate wall class.

    Splitting x against the base point p, the region inequality
    q(x,p)^2 <= B |q(x)| q(p) together with a fixed square q(x) = s
    bounds the positive definite majorant 2 q(x,p)^2/q(p) - q(x) by
    (2B + 1) max|s|, and the box follows from the inverse of the
    majorant's Gram matrix.
    """
    p = primitive_rescale(as_cone_point(lattice, base).coords)[0]
    g = int(lattice.square(p))
    gp = [int(v) for v in lattice.pairing_row(p)]
    cap = (2 * Fraction(bound) + 1) * max(abs(s) for s in squares)
    n = lattice.rank
    majorant = [[Fraction(2 * gp[i] * gp[j], g) - lattice.gram[i][j]
                 for j in range(n)] for i in range(n)]
    inv = linalg.invert(majorant)
    return tuple(_isqrt_frac(cap * inv[i][i]) for i in range(n))


def enumerate_wall_classes(lattice: IntegralLattice, table: SignatureTable,
                           base, bound) -> list[tuple[tuple[int, ...], OrbitSignature]]:
    """All wall classes near the base point, sorted lexicographically.

    A class qualifies when it is primitive, one per +-pair with the first
    nonzero coordinate positive, its (square, divisibility[, residue])
    matches a table row, and q(x, base)^2 <= B |q(x)| q(base).  The
    search region is compact, so the output is complete.
    """
    _require_lorentzian(lattice)
    bound = Fraction(bound)
    if bound <= 0:
        raise PreconditionError("bound must be positive")
    if not table.orbits:
        raise PreconditionError("signature table is empty")
    base = as_cone_point(lattice, base)

    p = primitive_rescale(base.coords)[0]
    g = int(lattice.square(p))
    gp = [int(v) for v in lattice.pairing_row(p)]
    squares = set(table.squares)
    bn, bd = bound.numerator, bound.denominator
    gram = lattice.gram
    n = lattice.rank

    found = []
    for x in _canonical_box(enumeration_box(lattice, base, bound, squares)):
        s = 0
        for i in range(n):
            row = gram[i]
            acc = 0
            for j in range(n):
                acc += row[j] * x[j]
            s += x[i] * acc
        if s not in squares:
            continue
        t = sum(xi * gpi for xi, gpi in zip(x, gp))
        if bd * t * t > bn * (-s) * g:
            continue
        if linalg.vec_content(x) != 1:
            continue
        d = lattice.divisibility(x)
        row = table.match(s, d, lambda v=x: lattice.discriminant_image(v))
        if row is not None:
            found.append((x, row))
    found.sort(key=lambda item: item[0])
    return found


def _coords(p):
    return p.coords if isinstance(p, ConePoint) else tuple(Fraction(c) for c in _vec(p))


def crossing_parameter(lattice: IntegralLattice, x, a, b) -> Fraction | None:
    """Parameter of the wall of x on the segment a + t(b - a), if crossed.

    Returns q(x,a) / (q(x,a) - q(x,b)) when the pairings have strictly
    opposite signs, None otherwise (including an endpoint on the wall).
    Pure segment arithmetic: cone membership is the caller's concern.
    """
    qa = lattice.pairing(x, _coords(a))
    qb = lattice.pairing(x, _coords(b))
    if (qa > 0 and qb < 0) or (qa < 0 and qb > 0):
        return Fraction(qa, qa - qb)
    return None


def _covers(lattice, bound, base, point) -> bool:
    # region inequality with the cone point in the wall slot:
    # q(base, y)^2 <= B q(base) q(y)
    qq = lattice.pairing(base, point)
    return qq * qq <= bound * lattice.square(base) * lattice.square(point)


def _separated(lattice, walls, p, q_pt) -> bool:
    """Some enumerated wall has strictly opposite pairing signs at p and q_pt."""
    for x, _sig in walls:
        sp = lattice.pairing(x, p)
        sq = lattice.pairing(x, q_pt)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            return True
    return False


def _perturbation_shifts(coords):
    """Shifts eps * e_j, j cycling over basis directions, eps halving.

    eps starts at 1/(64 D) with D the lcm of the original coordinate
    denominators.
    """
    n = len(coords)
    d = lcm(*(Fraction(c).denominator for c in coords))
    eps0 = Fraction(1, 64 * d)
    for k in range(_PERTURB_ATTEMPTS):
        yield k % n, eps0 / (2 ** (k // n))


def _fix_endpoint(lattice, walls, bound, base, original, extra_ok):
    """Accumulate shifts until the endpoint reaches general position.

    Shifts compound: a point sitting on several walls whose normals have
    disjoint coordinate support needs moves in more than one direction.
    A candidate is accepted once it has positive square, keeps the
    original's component, stays inside the enumerated region (so the
    wall list remains complete), avoids every wall, is not separated
    from the original point by any wall, and passes the caller's extra
    predicate.
    """
    current = list(original)
    for j, eps in _perturbation_shifts(original):
        current[j] += eps
        cand = tuple(current)
        if lattice.square(cand) <= 0:
            continue
        if lattice.pairing(cand, original) <= 0:
            continue
        if not _covers(lattice, bound, base, cand):
            continue
        if any(lattice.pairing(x, cand) == 0 for x, _ in walls):
            continue
        if _separated(lattice, walls, original, cand):
            continue
        if not extra_ok(cand):
            continue
        return cand
    raise PreconditionError("could not perturb an endpoint into general position")


def _strict_crossings(lattice, walls, a, b):
    steps = []
    for x, sig in walls:
        qa = lattice.pairing(x, a)
        qb = lattice.pairing(x, b)
        if qa < 0 and qb > 0:
            x = tuple(-c for c in x)
            qa, qb = -qa, -qb
        if qa > 0 and qb < 0:
            steps.append(WallCrossing(wall_class=x, t=Fraction(qa, qa - qb), signature=sig))
    steps.sort(key=lambda s: (s.t, s.wall_class))
    return steps


def group_hu_yau(steps) -> tuple[tuple[int, ...], ...]:
    """Partition crossings into consecutive blocks, one codimension-2 each.

    The cut sits immediately before every codimension-2 step except the
    first; trailing steps join the final block.
    """
    if any(s.codimension == 1 for s in steps):
        raise PreconditionError("divisorial crossings cannot be grouped")
    codim2 = [i for i, s in enumerate(steps) if s.codimension == 2]
    if not codim2:
        raise PreconditionError("regular in codimension two: no codimension-2 crossing")
    cuts = codim2[1:] + [len(steps)]
    blocks = []
    start = 0
    for cut in cuts:
        blocks.append(tuple(range(start, cut)))
        start = cut
    return tuple(blocks)


def factor_path(lattice: IntegralLattice, table: SignatureTable, a, b,
                bound) -> FlopFactorization:
    """Factor the segment from a to b into its ordered wall crossings.

    Endpoints on a wall, or walls meeting the segment at a coincident
    parameter, are resolved by a deterministic perturbation of the
    offending endpoint; the perturbed endpoints are reported.
    """
    _require_lorentzian(lattice)
    bound = Fraction(bound)
    a = as_cone_point(lattice, a)
    b = as_cone_point(lattice, b)
    if lattice.pairing(a.coords, b.coords) <= 0:
        raise PreconditionError("endpoints lie in different components of the positive cone")
    if bound < 1 or not _covers(lattice, bound, a.coords, b.coords):
        raise PreconditionError("bound too small: the region does not cover the segment")

    walls = enumerate_wall_classes(lattice, table, a, bound)

    pa, pb = a.coords, b.coords
    perturbed = False
    if any(lattice.pairing(x, pa) == 0 for x, _ in walls):
        pa = _fix_endpoint(lattice, walls, bound, a.coords, pa, lambda _c: True)
        perturbed = True

    def b_ok(cand):
        ts = [crossing_parameter(lattice, x, pa, cand) for x, _ in walls]
        ts = [t for t in ts if t is not None]
        return len(ts) == len(set(ts))

    if any(lattice.pairing(x, pb) == 0 for x, _ in walls) or not b_ok(pb):
        pb = _fix_endpoint(lattice, walls, bound, a.coords, pb, b_ok)
        perturbed = True

    # No check that the crossings stay in the cone: pa and pb lie in one
    # component, so q(pa, pb) > 0 and q(t pa + (1-t) pb) = t^2 q(pa)
    # + (1-t)^2 q(pb) + 2t(1-t) q(pa, pb) > 0 for every t in [0, 1].
    steps = _strict_crossings(lattice, walls, pa, pb)
    ts = [s.t for s in steps]
    if len(ts) != len(set(ts)):
        raise InvariantError("crossing parameters must be distinct")

    if any(s.codimension == 1 for s in steps):
        status = STATUS_DIVISORIAL
    elif not any(s.codimension == 2 for s in steps):
        status = STATUS_REGULAR
    else:
        status = STATUS_OK
    groups = group_hu_yau(steps) if status == STATUS_OK else ()
    return FlopFactorization(a=pa, b=pb, steps=tuple(steps), groups=groups,
                             status=status, perturbed=perturbed)


def same_chamber(lattice: IntegralLattice, table: SignatureTable, a, b, bound) -> bool:
    """True iff the segment from a to b crosses no wall."""
    return not factor_path(lattice, table, a, b, bound).steps


def factorization_report(f: FlopFactorization) -> dict:
    return {
        "a": vector_strs(f.a),
        "b": vector_strs(f.b),
        "perturbed": f.perturbed,
        "steps": [
            {
                "class": list(s.wall_class),
                "square": s.signature.square,
                "divisibility": s.signature.divisibility,
                "codimension": s.signature.codimension,
                "t": frac_str(s.t),
                "orbit": s.signature.name,
            }
            for s in f.steps
        ],
        "groups": [list(g) for g in f.groups],
        "status": f.status,
    }


def report_to_json(f: FlopFactorization) -> str:
    return json.dumps(factorization_report(f), indent=2) + "\n"
