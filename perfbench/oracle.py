"""Output checks that share no code with hkcone.

Wall lists come from a chunked numpy scan of a box that contains every
candidate (the criterion-4 oracle, with the box derived from the region
inequality in floating point plus a margin).  Factor-path reports are
recomputed from that wall list with exact rational arithmetic written
here.  SNF, rank and determinant are compared with sympy.  Local-model
outputs are held to the laws of acceptance criteria 6 and 7.

Every `check_*` function returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fstr(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- exact helpers

def pair(gram, x, y):
    return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram))


def int_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def mat_mul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def primitive(coords) -> tuple[tuple[int, ...], Fraction]:
    fr = [Fraction(c) for c in coords]
    den = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints), Fraction(den, g)


def divisibility(gram, ideals, x) -> int:
    vals = ([a * c for a, c in zip(ideals, x)] if ideals is not None
            else [sum(g * c for g, c in zip(row, x)) for row in gram])
    g = 0
    for v in vals:
        g = gcd(g, int(v))
    return g


# ---------------------------------------------------------------- wall scan

def box_bounds(gram, base, bound, squares, margin=0):
    """Coordinate bounds of the majorant ellipsoid, in floating point."""
    p, _ = primitive(base)
    g_mat = np.array(gram, dtype=float)
    pv = np.array(p, dtype=float)
    gp = g_mat @ pv
    g = float(pv @ gp)
    major = 2.0 * np.outer(gp, gp) / g - g_mat
    cap = (2.0 * float(Fraction(bound)) + 1.0) * max(abs(s) for s in squares)
    inv = np.linalg.inv(major)
    return [int(math.floor(math.sqrt(cap * inv[i, i]))) + margin for i in range(len(gram))]


def search_volume(gram, base, bound, squares) -> int:
    """Number of canonical box points: the work a box scan has to do."""
    n = 1
    for b in box_bounds(gram, base, bound, squares):
        n *= 2 * b + 1
    return n // 2


def scan_walls(gram, ideals, rows, base, bound):
    """Sorted [(class, row)] of canonical primitive wall classes in the region.

    rows: table rows as dicts with name/square/divisibility/codimension
    and no pinned residue.
    """
    bound = Fraction(bound)
    squares = sorted({r["square"] for r in rows})
    by_key = {(r["square"], r["divisibility"]): r for r in rows}
    n = len(gram)
    box = box_bounds(gram, base, bound, squares, margin=2)
    p, _ = primitive(base)
    g_mat = np.array(gram, dtype=np.int64)
    pv = np.array(p, dtype=np.int64)
    gp = g_mat @ pv
    g = int(pv @ gp)
    ideal_arr = None if ideals is None else np.array(ideals, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[np.arange(-b, b + 1, dtype=np.int64) for b in box[1:]],
                                indexing="ij"), axis=-1).reshape(-1, n - 1)
    sq = np.array(squares, dtype=np.int64)
    hits = []
    for first in range(0, box[0] + 1):
        x = np.concatenate([np.full((len(rest), 1), first, dtype=np.int64), rest], axis=1)
        if first == 0:
            canon = np.zeros(len(x), dtype=bool)
            undecided = np.ones(len(x), dtype=bool)
            for col in range(1, n):
                canon |= undecided & (x[:, col] > 0)
                undecided &= x[:, col] == 0
            x = x[canon]
        s = np.einsum("ij,jk,ik->i", x, g_mat, x)
        t = x @ gp
        keep = np.isin(s, sq) & (bound.denominator * t * t <= bound.numerator * (-s) * g)
        x, s = x[keep], s[keep]
        keep = np.gcd.reduce(np.abs(x), axis=1) == 1
        x, s = x[keep], s[keep]
        if ideal_arr is not None:
            div = np.gcd.reduce(np.abs(x) * ideal_arr[None, :], axis=1)
        else:
            div = np.gcd.reduce(np.abs(x @ g_mat), axis=1)
        for i in range(len(x)):
            row = by_key.get((int(s[i]), int(div[i])))
            if row is not None:
                hits.append((tuple(int(c) for c in x[i]), row))
    hits.sort(key=lambda item: item[0])
    return hits


# ---------------------------------------------------------------- CLI parsing

def argv_options(argv) -> tuple[str, dict]:
    """(command, {option: value or [values]}) for an hkcone argv."""
    repeat = {"--pair", "--cusp", "--mark"}
    opts: dict = {}
    it = iter(argv[1:])
    for key in it:
        if key == "--real":
            opts[key] = True
            continue
        value = next(it)
        if key in repeat:
            opts.setdefault(key, []).append(value)
        else:
            opts[key] = value
    return argv[0], opts


def vector(text):
    return tuple(Fraction(c.strip()) for c in text.split(","))


def point_arg(text):
    if "," in text:
        return vector(text)
    return tuple(Fraction(c) for c in load_json(text)["point"])


def lattice_doc(path):
    doc = load_json(path)
    return doc["gram"], doc.get("ambient_ideals")


# ---------------------------------------------------------------- cone checks

def wall_entry(x, row):
    return {"class": list(x), "square": row["square"], "divisibility": row["divisibility"],
            "codimension": row["codimension"], "orbit": row["name"]}


def check_enumerate(opts, result) -> list[str]:
    gram, ideals = lattice_doc(opts["--lattice"])
    rows = load_json(opts["--table"])["orbits"]
    walls = scan_walls(gram, ideals, rows, vector(opts["--base"]), Fraction(opts["--bound"]))
    if result["exit"] != 0:
        return [f"exit code {result['exit']}"]
    got = json.loads(result["stdout"])["walls"]
    want = [wall_entry(x, row) for x, row in walls]
    if got != want:
        return [f"wall list differs from the box scan: {len(got)} walls, expected {len(want)}"]
    return []


def check_classify(opts, result) -> list[str]:
    gram, ideals = lattice_doc(opts["--lattice"])
    rows = load_json(opts["--table"])["orbits"]
    x = tuple(int(c) for c in vector(opts["--class"]))
    s = pair(gram, x, x)
    d = divisibility(gram, ideals, x)
    row = next((r for r in rows if (r["square"], r["divisibility"]) == (s, d)), None)
    want = {"orbit": None} if row is None else {
        "orbit": row["name"], "square": s, "divisibility": d, "codimension": row["codimension"]}
    if result["exit"] != 0 or json.loads(result["stdout"]) != want:
        return [f"classify output differs: expected {want}"]
    return []


def solve_exact(rows, rhs):
    """Unique solution of a square or overdetermined full-rank system."""
    import sympy
    b = sympy.Matrix([sympy.Rational(f.numerator, f.denominator) for f in rhs])
    sol, params = sympy.Matrix(rows).gauss_jordan_solve(b)
    if params.shape[0]:
        raise ValueError("underdetermined")
    return tuple(Fraction(int(v.p), int(v.q)) for v in sol)


def check_dual_solve(opts, result) -> list[str]:
    gram, _ = lattice_doc(opts["--lattice"])
    names = {k: tuple(v) for k, v in load_json(opts["--classes"]).items()}
    rows, rhs = [], []
    for spec in opts["--pair"]:
        key, _, value = spec.partition("=")
        cls = names[key]
        rows.append([sum(c * g for c, g in zip(cls, col)) for col in zip(*gram)])
        rhs.append(Fraction(value))
    x = solve_exact(rows, rhs)
    prim, scale = primitive(x)
    want = {"vector": [fstr(v) for v in x], "primitive": list(prim), "scale": fstr(scale)}
    if result["exit"] != 0 or json.loads(result["stdout"]) != want:
        return [f"dual-solve output differs: expected {want}"]
    return []


def _covered(gram, bound, base, point):
    qq = pair(gram, base, point)
    return qq * qq <= bound * pair(gram, base, base) * pair(gram, point, point)


def expected_crossings(gram, walls, a, b):
    """Sorted (t, class normalized toward a, row) for strict sign changes."""
    out = []
    for x, row in walls:
        qa, qb = pair(gram, x, a), pair(gram, x, b)
        if qa < 0 < qb:
            x, qa, qb = tuple(-c for c in x), -qa, -qb
        if qa > 0 > qb:
            out.append((Fraction(qa, qa - qb), x, row))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def check_factor_path(opts, result) -> list[str]:
    gram, ideals = lattice_doc(opts["--lattice"])
    rows = load_json(opts["--table"])["orbits"]
    a0, b0 = point_arg(opts["--from"]), point_arg(opts["--to"])
    bound = Fraction(opts["--bound"])
    walls = scan_walls(gram, ideals, rows, a0, bound)
    rep = json.loads(result["stdout"])
    a = tuple(Fraction(c) for c in rep["a"])
    b = tuple(Fraction(c) for c in rep["b"])
    errors = []
    if rep["perturbed"] != (a != a0 or b != b0):
        errors.append("perturbed flag does not match the reported endpoints")
    for orig, moved in ((a0, a), (b0, b)):
        if moved == orig:
            continue
        if pair(gram, moved, moved) <= 0 or pair(gram, moved, orig) <= 0:
            errors.append("perturbed endpoint left the cone component")
        if not _covered(gram, bound, a0, moved):
            errors.append("perturbed endpoint left the enumerated region")
        if expected_crossings(gram, walls, orig, moved):
            errors.append("a wall separates a perturbed endpoint from the original")
    if any(pair(gram, x, a) == 0 or pair(gram, x, b) == 0 for x, _ in walls):
        errors.append("a reported endpoint lies on a wall")
    want = expected_crossings(gram, walls, a, b)
    steps = rep["steps"]
    if len(steps) != len(want):
        errors.append(f"{len(steps)} steps, the scan finds {len(want)}")
    ts = [Fraction(s["t"]) for s in steps]
    if any(not 0 < t < 1 for t in ts) or any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
        errors.append("crossing parameters are not strictly increasing in (0, 1)")
    for s, (t, x, row) in zip(steps, want):
        if (tuple(s["class"]), Fraction(s["t"])) != (x, t) or s["orbit"] != row["name"] or \
           (s["square"], s["divisibility"], s["codimension"]) != \
           (row["square"], row["divisibility"], row["codimension"]):
            errors.append(f"step {s} differs from the scan ({list(x)}, t={fstr(t)})")
            break
    codims = [row["codimension"] for _, _, row in want]
    if any(c == 1 for c in codims):
        status = "leaves_birational_cone"
    elif 2 not in codims:
        status = "regular_in_codim_two"
    else:
        status = "ok"
    if rep["status"] != status:
        errors.append(f"status {rep['status']}, expected {status}")
    groups = rep["groups"]
    if status == "ok":
        flat = [i for grp in groups for i in grp]
        if flat != list(range(len(steps))) or \
           any(sum(codims[i] == 2 for i in grp) != 1 for grp in groups) or \
           any(codims[grp[0]] != 2 for grp in groups[1:]):
            errors.append("groups are not consecutive blocks with one codimension-2 step each")
    elif groups:
        errors.append("groups reported for a status other than ok")
    if result["exit"] != (0 if status == "ok" else 2):
        errors.append(f"exit code {result['exit']} for status {status}")
    return errors


_LINE = re.compile(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" '
                   r'y2="([-0-9.]+)" stroke="(#[0-9A-F]{6})"')
# The quartic discriminant group is Z/36 (see `disk_chart`), so the mod-4
# colour of a wall is fixed by the order of x/d(x), which is d(x).
_COLOUR_OF_DIVISIBILITY = {1: "#000000", 2: "#FF0000", 4: "#0000FF"}


@functools.lru_cache(maxsize=None)
def disk_chart(gram):
    """(T, sx, sy): a disk point (u, v) is the ray T (1, u/sx, v/sy).

    T diagonalizes the form by symmetric elimination on the leading
    pivots (an LDL^t factorization), with the positive entry moved first.
    """
    import sympy
    from sympy.matrices.normalforms import invariant_factors
    g = sympy.Matrix(gram)
    if tuple(int(f) for f in invariant_factors(g, domain=sympy.ZZ)) != (1, 1, 36):
        raise ValueError("colour law needs discriminant group Z/36")
    low, diag = g.LDLdecomposition(hermitian=False)
    t = low.T.inv()
    d = [diag[i, i] for i in range(3)]
    pos = next(i for i in range(3) if d[i] > 0)
    order = [pos] + [i for i in range(3) if i != pos]
    t = t[:, order]
    d = [d[i] for i in order]
    tf = np.array([[float(t[i, j]) for j in range(3)] for i in range(3)])
    return tf, math.sqrt(float(-d[1] / d[0])), math.sqrt(float(-d[2] / d[0]))


def check_render(opts, result) -> list[str]:
    gram, ideals = lattice_doc(opts["--lattice"])
    rows = load_json(opts["--table"])["orbits"]
    walls = scan_walls(gram, ideals, rows, vector(opts["--base"]), Fraction(opts["--bound"]))
    doc = result["file"]
    errors = []
    if result["exit"] != 0 or not doc.startswith("<?xml") or not doc.endswith("</svg>\n"):
        return ["render-cone did not write a complete SVG"]
    lines = _LINE.findall(doc)
    if len(lines) != len(walls):
        return [f"{len(lines)} chords, the scan finds {len(walls)} walls"]
    tf, sx, sy = disk_chart(tuple(map(tuple, gram)))
    g_arr = np.array(gram, dtype=float)
    for (x1, y1, x2, y2, colour), (w, _row) in zip(lines, walls):
        if colour != _COLOUR_OF_DIVISIBILITY[divisibility(gram, ideals, w)]:
            errors.append(f"wall {list(w)} has colour {colour}")
        gw = g_arr @ np.array(w, dtype=float)
        for u, v in ((float(x1), -float(y1)), (float(x2), -float(y2))):
            if abs(u * u + v * v - 1.0) > 1e-8:
                errors.append(f"chord endpoint of {list(w)} is off the circle")
            ray = tf @ np.array([1.0, u / sx, v / sy])
            scale = np.linalg.norm(ray)
            if abs(ray @ gw) > 1e-6 * scale * np.linalg.norm(gw) or \
               abs(ray @ g_arr @ ray) > 1e-6 * scale * scale * np.abs(g_arr).max():
                errors.append(f"chord of {list(w)} does not end on its wall's ideal points")
        if errors:
            break
    cusps = doc.count('r="0.015"')
    marks = doc.count('r="0.012"')
    want_marks = len(opts.get("--mark", [])) + (2 if "--path" in opts else 0)
    if cusps != len(opts.get("--cusp", [])) or marks != want_marks or \
       ("<polyline" in doc) != ("--path" in opts):
        errors.append("cusps, markers or path overlay missing")
    return errors


# ---------------------------------------------------------------- small CLI commands

def check_mukai_flop(opts, result) -> list[str]:
    u, phi = vector(opts["--u"]), vector(opts["--phi"])
    a = [[ui * pj for pj in phi] for ui in u]
    want = {"phi": [fstr(c) for c in phi],
            "Astar": [[fstr(c) for c in row] for row in transpose(a)]}
    if result["exit"] != 0 or json.loads(result["stdout"]) != want:
        return [f"mukai-flop output differs: expected {want}"]
    return []


def check_symp_rank(opts, result) -> list[str]:
    omega = [[Fraction(c) for c in row] for row in load_json(opts["--omega"])["omega"]]
    basis = [[Fraction(c) for c in row] for row in load_json(opts["--basis"])["basis"]]
    r = int_rank(mat_mul(mat_mul(basis, omega), transpose(basis)))
    m, dim = len(basis), len(omega)
    want = {"rank": r, "isotropic": r == 0, "coisotropic": r == 2 * m - dim}
    if result["exit"] != 0 or json.loads(result["stdout"]) != want:
        return [f"symp-rank output differs: expected {want}"]
    return []


_IRRATIONAL = {"sqrt2": math.sqrt(2), "sqrt3": math.sqrt(3), "sqrt5": math.sqrt(5)}


def _torus_coords(text, real):
    parts = [p.strip() for p in text.split(",")]
    if real:
        return tuple((_IRRATIONAL[p] if p in _IRRATIONAL else float(Fraction(p))) % 1.0
                     for p in parts)
    return tuple(Fraction(p) % 1 for p in parts)


def covering_radius(px, py, grid):
    samples = np.arange(grid) / grid
    dx = np.abs(px[None, :] - samples[:, None])
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(py[None, :] - samples[:, None])
    dy = np.minimum(dy, 1.0 - dy)
    worst = 0.0
    for i in range(grid):
        worst = max(worst, float(np.max(np.min(np.maximum(dx[i][None, :], dy), axis=1))))
    return worst


def check_sigma_orbit(opts, result) -> list[str]:
    real = "--real" in opts
    e0, e1, e2, x = (_torus_coords(opts[k], real) for k in ("--e0", "--e1", "--e2", "--x"))
    depth = int(opts["--depth"])
    out = json.loads(result["stdout"])
    if result["exit"] != 0:
        return [f"exit code {result['exit']}"]
    gens = [tuple((p - q) % 1 for p, q in zip(s, t)) for s, t in ((e1, e0), (e2, e1), (e0, e2))]
    if not real:
        group = {(Fraction(0), Fraction(0))}
        frontier = list(group)
        steps = gens[:2] + [tuple((-c) % 1 for c in g) for g in gens[:2]]
        while frontier:
            frontier = [k for k in {((gx + sx_) % 1, (gy + sy_) % 1)
                                    for gx, gy in frontier for sx_, sy_ in steps} if k not in group]
            group.update(frontier)
        want = {"size": len(group), "finite": True,
                "generators": [[fstr(g[0]), fstr(g[1])] for g in gens]}
        return [] if out == want else [f"sigma-orbit output differs: expected {want}"]
    # Real mode with two irrational generators on separate axes: every
    # point x + a t1 + b t2 with |a| + |b| <= depth is distinct.
    t1, t2 = gens[0], gens[1]
    ab = [(a, b) for a in range(-depth, depth + 1)
          for b in range(-(depth - abs(a)), depth - abs(a) + 1)]
    px = np.array([(x[0] + a * t1[0] + b * t2[0]) % 1.0 for a, b in ab])
    py = np.array([(x[1] + a * t1[1] + b * t2[1]) % 1.0 for a, b in ab])
    errors = []
    if out["size"] != len(ab) or out["finite"] is not False:
        errors.append(f"orbit size {out['size']}, expected {len(ab)} and not finite")
    for got, g in zip(out["generators"], gens):
        if any(abs(float(c) - w) > 1e-12 for c, w in zip(got, g)):
            errors.append("generators differ")
    radius = covering_radius(px, py, int(opts.get("--grid", 32)))
    if abs(out["covering_radius"] - radius) > 1e-12 or radius >= 0.05:
        errors.append(f"covering radius {out['covering_radius']}, expected {radius}")
    return errors


CLI_CHECKS = {
    "classify": check_classify,
    "dual-solve": check_dual_solve,
    "enumerate-walls": check_enumerate,
    "factor-path": check_factor_path,
    "render-cone": check_render,
    "mukai-flop": check_mukai_flop,
    "symp-rank": check_symp_rank,
    "sigma-orbit": check_sigma_orbit,
}


# ---------------------------------------------------------------- library ops

def check_symp(op, out) -> list[str]:
    """Criterion-7 laws, with the rank recomputed independently."""
    dim = 2 * op["n"]
    rows = op["rows"]
    m = len(rows)
    omega = [[0] * dim for _ in range(dim)]
    for i in range(op["n"]):
        omega[i][op["n"] + i], omega[op["n"] + i][i] = 1, -1
    gram_w = mat_mul(mat_mul(rows, omega), transpose(rows))
    r = int_rank(gram_w)
    pair_zero = all(v == 0 for row in gram_w for v in row)
    want = {"rank": r, "isotropic": pair_zero, "coisotropic": r == 2 * m - dim, "pullback": r}
    errors = [] if out == want else [f"symplectic ranks {out}, expected {want}"]
    if r % 2 or not 0 <= r <= m:
        errors.append("restriction rank violates the parity or size law")
    return errors


def check_mukai(op, out) -> list[str]:
    """Criterion-6 laws for a point ([u], u phi^t), its flop and back."""
    u = [Fraction(c) for c in op["u"]]
    phi = [Fraction(c) for c in op["phi"]]
    n = len(u)
    a = [[ui * pj for pj in phi] for ui in u]
    errors = []
    got_a = [[Fraction(c) for c in row] for row in out["a"]]
    if got_a != a:
        errors.append("make_point matrix is not u phi^t")
    if any(v != 0 for row in mat_mul(a, a) for v in row) or int_rank(a) > 1:
        errors.append("A^2 != 0 or rank A > 1")
    phi_out = [Fraction(c) for c in out["flop_phi"]]
    if [[ui * pj for pj in phi_out] for ui in u] != a:
        errors.append("flop covector does not recover A")
    if [[Fraction(c) for c in row] for row in out["flop_b"]] != transpose(a):
        errors.append("flop matrix is not A^t")
    back_u = [Fraction(c) for c in out["back_u"]]
    if any(back_u[i] * u[j] != back_u[j] * u[i] for i in range(n) for j in range(n)):
        errors.append("flop_dual(flop(p)) changed the line of u")
    if [[Fraction(c) for c in row] for row in out["back_a"]] != a:
        errors.append("flop_dual(flop(p)) changed A")
    if out["diagram"] is not True:
        errors.append("check_diagram is false")
    return errors


def check_matrix(op, out) -> list[str]:
    """SNF, rank and determinant against sympy; solve/nullspace by substitution."""
    from sympy import ZZ
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.matrices import DomainMatrix
    m = op["m"]
    n = len(m)
    dm = DomainMatrix([[ZZ(v) for v in row] for row in m], (n, n), ZZ)
    rank = dm.convert_to(ZZ.get_field()).rank()
    det = int(dm.det())
    factors = [int(f) for f in invariant_factors(dm.to_Matrix(), domain=ZZ)]
    factors += [0] * (n - len(factors))
    u, d, v = out["u"], out["d"], out["v"]
    errors = []
    if [d[i][i] for i in range(n)] != factors or \
       any(d[i][j] for i in range(n) for j in range(n) if i != j):
        errors.append("Smith form differs from sympy's invariant factors")
    if mat_mul(mat_mul(u, m), v) != d:
        errors.append("U A V != D")
    for t in (u, v):
        if abs(int(DomainMatrix([[ZZ(x) for x in row] for row in t], (n, n), ZZ).det())) != 1:
            errors.append("transform is not unimodular")
    if out["rank"] != rank or Fraction(out["det"]) != det:
        errors.append(f"rank/det {out['rank']}/{out['det']}, sympy {rank}/{det}")
    if rank == n:
        x = [Fraction(c) for c in out["solve"]]
        if [sum(a * xi for a, xi in zip(row, x)) for row in m] != op["b"]:
            errors.append("solve: A x != b")
    else:
        basis = [[Fraction(c) for c in vec] for vec in out["nullspace"]]
        if len(basis) != n - rank or int_rank(basis) != len(basis) or \
           any(sum(a * vi for a, vi in zip(row, vec)) for vec in basis for row in m):
            errors.append("nullspace is not a kernel basis")
    return errors


def check_lorentz(op, out) -> list[str]:
    """Discriminant group against sympy, inertia by eigenvalues, classification by hand."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    gram = op["gram"]
    factors = [int(f) for f in invariant_factors(Matrix(gram), domain=ZZ) if f > 1]
    eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
    sig = [int((eig > 0).sum()), int((eig < 0).sum()), 0]
    want_rows = []
    for x in op["classes"]:
        s, d = pair(gram, x, x), divisibility(gram, None, x)
        row = next((r for r in op["table"]["orbits"]
                    if (r["square"], r["divisibility"]) == (s, d)), None)
        want_rows.append(None if row is None else row["name"])
    errors = []
    if out["factors"] != factors:
        errors.append(f"invariant factors {out['factors']}, sympy {factors}")
    if out["signature"] != sig:
        errors.append(f"signature {out['signature']}, expected {sig}")
    if out["rows"] != want_rows:
        errors.append(f"classification {out['rows']}, expected {want_rows}")
    return errors


LIB_CHECKS = {"symp": check_symp, "mukai": check_mukai, "matrix": check_matrix,
              "lorentz": check_lorentz}


def check(op, result) -> list[str]:
    """Failure messages for one op's recorded result."""
    if "error" in result:
        return [f"raised {result['error']}"]
    try:
        if op["kind"] == "cli":
            command, opts = argv_options(op["argv"])
            return CLI_CHECKS[command](opts, result)
        return LIB_CHECKS[op["kind"]](op, result["value"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"output could not be checked: {exc!r}"]
