"""Wall enumeration in the positive cone and factorization of segments.

The positive cone of a Lorentzian lattice (signature (1, r-1)) splits the
vectors of positive square into two components.  Negative-square classes
recognized by a signature table cut the cone by orthogonal walls; a
segment between two cone points meets finitely many of them inside any
fixed compact region, and the crossings factor the corresponding
bimeromorphic map into flops, grouped so that every block carries
exactly one codimension-two crossing.

Enumeration scans the canonical half of the box from ``enumeration_box``
(first nonzero coordinate positive) as one flat product per position of
that coordinate.  Segment work computes, once per endpoint, its side
list: the pairings q(x, p) with every enumerated wall x.  A zero marks
incidence; opposite signs mark separation and a crossing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, isqrt, lcm

from . import linalg
from .errors import InvariantError, PreconditionError
from .lattice import IntegralLattice
from .mbm import OrbitSignature, SignatureTable, primitive_rescale
from .rational import frac_str, vector_strs

STATUS_OK = "ok"
STATUS_DIVISORIAL = "leaves_birational_cone"
STATUS_REGULAR = "regular_in_codim_two"

_PERTURB_ATTEMPTS = 64


def as_cone_point(lattice: IntegralLattice, p) -> tuple[Fraction, ...]:
    """The coordinates of p as Fractions, checked to have positive square."""
    coords = tuple(Fraction(c) for c in p)
    if lattice.square(coords) <= 0:
        raise PreconditionError("point must have positive square")
    return coords


def component_sign(lattice: IntegralLattice, p) -> int:
    """Which component of the positive cone p lies in: +1 or -1.

    The tag is the pairing sign against a fixed positive reference vector
    derived from the diagonalization of the lattice.
    """
    _require_lorentzian(lattice)
    s = lattice.pairing(as_cone_point(lattice, p), lattice.positive_reference())
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
    return lattice.pairing(as_cone_point(lattice, p), as_cone_point(lattice, q_pt)) > 0


def _canonical_box(bounds):
    """Nonzero integer vectors in the box, first nonzero coordinate positive.

    Grouped by the position k of the first nonzero coordinate: zeros
    before it, 1..bounds[k] at it, the full range after it.
    """
    for k in range(len(bounds)):
        yield from product(*([(0,)] * k), range(1, bounds[k] + 1),
                           *(range(-b, b + 1) for b in bounds[k + 1:]))


def enumeration_box(lattice: IntegralLattice, base, bound: Fraction,
                    squares) -> tuple[int, ...]:
    """Per-coordinate bounds containing every candidate wall class.

    Splitting x against the base point p, the region inequality
    q(x,p)^2 <= B |q(x)| q(p) together with a fixed square q(x) = s
    bounds the positive definite majorant 2 q(x,p)^2/q(p) - q(x) by
    (2B + 1) max|s|, and the box follows from the inverse of the
    majorant's Gram matrix.
    """
    p = primitive_rescale(as_cone_point(lattice, base))[0]
    g = int(lattice.square(p))
    gp = [int(v) for v in lattice.pairing_row(p)]
    cap = (2 * Fraction(bound) + 1) * max(abs(s) for s in squares)
    n = lattice.rank
    majorant = [[Fraction(2 * gp[i] * gp[j], g) - lattice.gram[i][j]
                 for j in range(n)] for i in range(n)]
    inv = linalg.invert(majorant)
    return tuple(isqrt(floor(cap * inv[i][i])) for i in range(n))


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

    p = primitive_rescale(base)[0]
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


def crossing_parameter(lattice: IntegralLattice, x, a, b) -> Fraction | None:
    """Parameter of the wall of x on the segment a + t(b - a), if crossed.

    Returns q(x,a) / (q(x,a) - q(x,b)) when the pairings have strictly
    opposite signs, None otherwise (including an endpoint on the wall).
    Pure segment arithmetic: cone membership is the caller's concern.
    """
    qa, qb = lattice.pairing(x, a), lattice.pairing(x, b)
    return Fraction(qa, qa - qb) if qa * qb < 0 else None


def _covers(lattice, bound, base, point) -> bool:
    # region inequality with the cone point in the wall slot:
    # q(base, y)^2 <= B q(base) q(y)
    qq = lattice.pairing(base, point)
    return qq * qq <= bound * lattice.square(base) * lattice.square(point)


def _sides(lattice, walls, p) -> list:
    """q(x, p) for every enumerated wall x; a zero means p lies on that wall."""
    gp = lattice.pairing_row(p)
    return [sum(xi * gi for xi, gi in zip(x, gp)) for x, _sig in walls]


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


def _fix_endpoint(lattice, walls, bound, base, original, sides, extra_ok):
    """Accumulate shifts until the endpoint reaches general position.

    Shifts compound: a point sitting on several walls whose normals have
    disjoint coordinate support needs moves in more than one direction.
    A candidate is accepted once it has positive square, keeps the
    original's component, stays inside the enumerated region (so the
    wall list remains complete), avoids every wall, is not separated
    from the original point (side list ``sides``) by any wall, and its
    side list passes the caller's predicate; returns both.
    """
    current = list(original)
    for j, eps in _perturbation_shifts(original):
        current[j] += eps
        cand = tuple(current)
        if lattice.square(cand) <= 0 or lattice.pairing(cand, original) <= 0 \
                or not _covers(lattice, bound, base, cand):
            continue
        cand_sides = _sides(lattice, walls, cand)
        if any(c == 0 or c * o < 0 for c, o in zip(cand_sides, sides)):
            continue
        if extra_ok(cand_sides):
            return cand, cand_sides
    raise PreconditionError("could not perturb an endpoint into general position")


def _strict_crossings(walls, sa, sb):
    """Crossings of the walls with opposite sides at a and b, signed positive at a."""
    steps = []
    for (x, sig), qa, qb in zip(walls, sa, sb):
        if qa * qb < 0:
            if qa < 0:
                x = tuple(-c for c in x)
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
    if lattice.pairing(a, b) <= 0:
        raise PreconditionError("endpoints lie in different components of the positive cone")
    if bound < 1 or not _covers(lattice, bound, a, b):
        raise PreconditionError("bound too small: the region does not cover the segment")

    walls = enumerate_wall_classes(lattice, table, a, bound)

    pa, pb = a, b
    sa, sb = _sides(lattice, walls, a), _sides(lattice, walls, b)
    perturbed = False
    if 0 in sa:
        pa, sa = _fix_endpoint(lattice, walls, bound, a, a, sa, lambda _s: True)
        perturbed = True

    def b_ok(sides):
        ts = [s.t for s in _strict_crossings(walls, sa, sides)]
        return len(ts) == len(set(ts))

    if 0 in sb or not b_ok(sb):
        pb, sb = _fix_endpoint(lattice, walls, bound, a, b, sb, b_ok)
        perturbed = True

    # No check that the crossings stay in the cone: pa and pb lie in one
    # component, so q(pa, pb) > 0 and q(t pa + (1-t) pb) = t^2 q(pa)
    # + (1-t)^2 q(pb) + 2t(1-t) q(pa, pb) > 0 for every t in [0, 1].
    steps = _strict_crossings(walls, sa, sb)
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
