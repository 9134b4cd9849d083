"""Seeded op lists for the three workloads.

An op is a JSON-able dict.  `{"kind": "cli", "argv": [...]}` runs
`hkcone.cli.main(argv)` in-process; the other kinds (`symp`, `mukai`,
`matrix`, `lorentz`) are batches of public library calls run by
`worker.py`.  Generation never imports hkcone: walls needed to place
endpoints come from the oracle's numpy scan.  The same workload and
seed always give the same op list and the same input files.

Path-chain segments and cone-render views are drawn by stratified
sampling on search volume (canonical box points a box scan must visit,
which enumeration cost follows): a fixed count per volume band, in the
proportions of a histogram of unbanded seeded draws.  The counts keep a
run's total work nearly the same from seed to seed, while the mix
follows what the generator draws when left alone.

    python3 perfbench/workloads.py

recomputes both histograms.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

FX = "src/hkcone/fixtures"
QUARTIC = f"{FX}/k3_3_quartic.json"
TABLE = f"{FX}/mbm.json"
BASE = (4, 4, -1)
PATH_BOUND = 8          # README bound of the bundled chamber chain
PATH_BOUND_CAP = 16     # largest bound a path-chain segment may need
# B = 400 (10 s per op at the seed) is left out so that a pass stays near
# 8 s and every run times each op at least twice.
RENDER_BOUNDS = (15, 100)

# Search-volume histograms of HISTOGRAM_DRAWS unbanded draws, as
# histogram() gives them: (lowest volume, highest volume, draws).  The
# heavy tail beyond the last band is left out of the workloads (cone-render
# runs the big searches): 239 views (12 %) at 64k-8.2M box points and 114
# segments (6 %) at 256k-11.6M.
HISTOGRAM_DRAWS = 2000
VIEW_HISTOGRAM = ((2_828, 4_000, 15), (4_000, 5_657, 557), (5_657, 8_000, 343),
                  (8_000, 11_314, 265), (11_314, 16_000, 170), (16_000, 22_627, 142),
                  (22_627, 32_000, 82), (32_000, 45_255, 108), (45_255, 64_000, 79))
PATH_HISTOGRAM = ((8_000, 11_314, 254), (11_314, 16_000, 489), (16_000, 22_627, 303),
                  (22_627, 32_000, 243), (32_000, 45_255, 194), (45_255, 64_000, 130),
                  (64_000, 90_510, 94), (90_510, 128_000, 81), (128_000, 181_019, 58),
                  (181_019, 256_000, 40))
# Local render-cone views at VIEW_BOUND, so that cone-render's op_p50_ms
# and op_p90_ms are quantiles of many samples rather than the time of
# one heavy op.
VIEWS = 128
VIEW_BOUND = 4
PATH_SEGMENTS = 100     # with the README ops and the chain, 108 ops a pass
# One rank-4 search whose base is drawn in a fixed volume band, so that
# its cost does not change with the seed.
RANK4_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -4]]
RANK4_BOUND = 24
RANK4_BAND = (200_000, 260_000)

WORKLOADS = ("cone-render", "path-chain", "local-models")


def _csv(v) -> str:
    return ",".join(oracle.fstr(c) for c in v)


def _write(rundir: Path, name: str, doc) -> str:
    path = rundir / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path.as_posix()


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def readme_ops(rundir: Path) -> list[dict]:
    """The README's CLI examples, run once per pass in every workload.

    They touch all nine layers, so every layer's traced self time is
    measured on every workload.  Enumeration and rendering run at the
    bound 2 of the README's enumerate-walls example, and the chamber
    chain is left to path-chain, to keep the cone share of local-models
    small.
    """
    omega = _write(rundir, "omega.json", {"omega": [[0, 0, 1, 0], [0, 0, 0, 1],
                                                    [-1, 0, 0, 0], [0, -1, 0, 0]]})
    basis = _write(rundir, "basis.json", {"basis": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    path = _write(rundir, "path.json", {"a": ["2", "3/2", "-1"], "b": ["1", "2", "-5/4"],
                                        "status": "ok", "perturbed": False})
    lat = ("--lattice", QUARTIC)
    both = lat + ("--table", TABLE)
    return [
        cli("classify", *both, "--class", "4,0,-1"),
        cli("dual-solve", *lat, "--classes", f"{FX}/named_classes.json",
            "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"),
        cli("enumerate-walls", *both, "--base", "4,4,-1", "--bound", "2"),
        cli("render-cone", *both, "--base", "4,4,-1", "--bound", "2",
            "--out", (rundir / "readme.svg").as_posix(),
            "--cusp", "0,1,0", "--cusp", "1,1,-1", "--path", path),
        cli("mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"),
        cli("symp-rank", "--omega", omega, "--basis", basis),
        cli("sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2", "--x", "0,0",
            "--depth", "5"),
    ]


# ---------------------------------------------------------------- quartic points

class Quartic:
    def __init__(self):
        doc = oracle.load_json(QUARTIC)
        self.gram = doc["gram"]
        self.ideals = doc["ambient_ideals"]
        self.rows = oracle.load_json(TABLE)["orbits"]
        self.squares = sorted({r["square"] for r in self.rows})

    def q(self, x, y):
        return oracle.pair(self.gram, x, y)

    def in_cone(self, x) -> bool:
        return self.q(x, x) > 0 and self.q(x, BASE) > 0

    def needed_bound(self, a, b):
        """Smallest integer bound >= PATH_BOUND whose region covers the segment."""
        need = Fraction(self.q(a, b) ** 2) / (self.q(a, a) * self.q(b, b))
        return max(PATH_BOUND, math.ceil(need))


def _cone_point(rng: random.Random, lat: Quartic):
    while True:
        d = rng.randint(1, 6)
        x = (Fraction(rng.randint(1, 5 * d), d), Fraction(rng.randint(1, 5 * d), d),
             Fraction(rng.randint(-5 * d, 5 * d), d))
        if lat.in_cone(x):
            return x


def stratified(histogram, total: int):
    """(lowest, highest, count) per band, counts in proportion to the
    histogram's draws and summing to total (largest remainder)."""
    draws = sum(n for _, _, n in histogram)
    quotas = [Fraction(total * n, draws) for _, _, n in histogram]
    counts = [math.floor(q) for q in quotas]
    for i in sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])[:total - sum(counts)]:
        counts[i] += 1
    return [(lo, hi, c) for (lo, hi, _), c in zip(histogram, counts)]


# ---------------------------------------------------------------- cone-render

def _rank4_files(rundir: Path):
    lattice = _write(rundir, "rank4.json", {"basis_names": ["e", "f", "r", "s"],
                                            "gram": RANK4_GRAM})
    rows = [{"name": f"m{-sq}d{d}", "square": sq, "divisibility": d,
             "codimension": 1 if sq == -2 else 2}
            for sq, ds in ((-2, (1, 2)), (-4, (1, 2, 4))) for d in ds]
    table = _write(rundir, "rank4_table.json", {"orbits": rows})
    return lattice, table


def rank4_base(rng: random.Random):
    """A base ray of U+<-2>+<-4> whose search volume at RANK4_BOUND is in band."""
    while True:
        v = tuple(rng.randint(-6, 6) for _ in range(4))
        if oracle.pair(RANK4_GRAM, v, v) <= 0 or oracle.pair(RANK4_GRAM, v, (1, 1, 0, 0)) <= 0:
            continue
        vol = oracle.search_volume(RANK4_GRAM, v, RANK4_BOUND, (-2, -4))
        if RANK4_BAND[0] <= vol < RANK4_BAND[1]:
            return v


def _view_base(rng: random.Random, lat: Quartic, band=None):
    """A view base whose search volume at VIEW_BOUND is in band (any if None)."""
    while True:
        base = _cone_point(rng, lat)
        if band is None or \
           band[0] <= oracle.search_volume(lat.gram, base, VIEW_BOUND, lat.squares) < band[1]:
            return base


def cone_render(rng: random.Random, rundir: Path) -> list[dict]:
    both = ("--lattice", QUARTIC, "--table", TABLE)
    ops = []
    for bound in RENDER_BOUNDS:
        ops.append(cli("enumerate-walls", *both, "--base", _csv(BASE), "--bound", bound))
        ops.append(cli("render-cone", *both, "--base", _csv(BASE), "--bound", bound,
                       "--out", (rundir / f"cone-{bound}.svg").as_posix()))
    lat = Quartic()
    for lo, hi, count in stratified(VIEW_HISTOGRAM, VIEWS):
        for _ in range(count):
            base = _view_base(rng, lat, (lo, hi))
            ops.append(cli("render-cone", *both, "--base", _csv(base), "--bound", VIEW_BOUND,
                           "--out", (rundir / f"view-{len(ops)}.svg").as_posix()))
    lattice, table = _rank4_files(rundir)
    ops.append(cli("enumerate-walls", "--lattice", lattice, "--table", table,
                   "--base", _csv(rank4_base(rng)), "--bound", RANK4_BOUND))
    rng.shuffle(ops)
    return readme_ops(rundir) + ops


# ---------------------------------------------------------------- path-chain

def _project(lat: Quartic, p, w):
    """p moved along w onto the wall w-perp."""
    f = Fraction(lat.q(p, w), lat.q(w, w))
    return tuple(pi - f * wi for pi, wi in zip(p, w))


def _two_wall_point(rng: random.Random, lat: Quartic, a, walls):
    """An integral ray on two walls at once, close enough to a."""
    g = lat.gram
    cands = []
    for i, (x, _) in enumerate(walls):
        for y, _ in walls[i + 1:]:
            if lat.q(x, x) * lat.q(y, y) - lat.q(x, y) ** 2 <= 0:
                continue
            gx = [sum(r * c for r, c in zip(row, x)) for row in g]
            gy = [sum(r * c for r, c in zip(row, y)) for row in g]
            r = (gx[1] * gy[2] - gx[2] * gy[1], gx[2] * gy[0] - gx[0] * gy[2],
                 gx[0] * gy[1] - gx[1] * gy[0])
            if lat.q(r, a) < 0:
                r = tuple(-c for c in r)
            if lat.in_cone(r) and lat.needed_bound(a, r) <= PATH_BOUND_CAP:
                cands.append(r)
    return rng.choice(cands) if cands else None


def _segment(rng: random.Random, lat: Quartic, mode: str, band=None):
    """(a, b, bound) with the search volume of (a, bound) in band (any if None)."""
    lo, hi = band or (0, math.inf)
    while True:
        a = _cone_point(rng, lat)
        b = _cone_point(rng, lat)
        bound = lat.needed_bound(a, b)
        # Loose band test before the wall scan; the exact one follows the projection.
        if bound > PATH_BOUND_CAP or \
           not lo // 2 <= oracle.search_volume(lat.gram, a, bound, lat.squares) < 2 * hi:
            continue
        if mode != "free":
            walls = oracle.scan_walls(lat.gram, lat.ideals, lat.rows, a, bound)
            if mode == "two-walls":
                b = _two_wall_point(rng, lat, a, walls)
                if b is None:
                    continue
            else:
                crossing = oracle.expected_crossings(lat.gram, walls, a, b)
                if not crossing:
                    continue
                w = rng.choice(crossing)[1]
                if mode == "b-on-wall":
                    b = _project(lat, b, w)
                else:
                    a = _project(lat, a, w)
            if not (lat.in_cone(a) and lat.in_cone(b)) or \
               lat.needed_bound(a, b) > PATH_BOUND_CAP:
                continue
        bound = lat.needed_bound(a, b)
        if lo <= oracle.search_volume(lat.gram, a, bound, lat.squares) < hi:
            return a, b, bound


# Endpoint placement, cycled over the segments of each band: half free,
# the rest on one enumerated wall (either end) or on two walls at once.
PATH_MODES = ("free", "b-on-wall", "free", "a-on-wall", "free", "two-walls")


def path_chain(rng: random.Random, rundir: Path) -> list[dict]:
    lat = Quartic()
    both = ("--lattice", QUARTIC, "--table", TABLE)
    segments = []
    for lo, hi, count in stratified(PATH_HISTOGRAM, PATH_SEGMENTS):
        for i in range(count):
            a, b, bound = _segment(rng, lat, PATH_MODES[i % len(PATH_MODES)], (lo, hi))
            segments.append(cli("factor-path", *both, "--from", _csv(a), "--to", _csv(b),
                                "--bound", bound))
    rng.shuffle(segments)
    chain = cli("factor-path", *both, "--from", f"{FX}/chamber1.json", "--to",
                f"{FX}/chamber4.json", "--bound", PATH_BOUND)
    return readme_ops(rundir) + [chain] + segments


# ---------------------------------------------------------------- local-models

# The matrices are the slowest sixth of the ops, so op_p90_ms falls in
# the middle of their group rather than on its edge.
SYMP_PER_SHAPE = 6       # subspaces per (dim, subspace dim) pair, dims 2..12
MUKAI_PER_K = 50         # points per k in 1..4
MATRICES = 120           # 12 x 12 integer matrices, a quarter rank-deficient
LORENTZ_PER_RANK = 40    # lattices per rank in 3..5
SIGMA_ORBITS = 4         # real orbits at depth 100


def _symp_op(rng: random.Random, n: int, m: int) -> dict:
    dim = 2 * n
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(m)]
        if oracle.int_rank(rows) == m:
            break
    while True:
        g = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        if oracle.int_rank(g) == m:
            break
    f = oracle.mat_mul(oracle.transpose(rows), g)
    return {"kind": "symp", "n": n, "rows": rows, "f": f}


def _mukai_op(rng: random.Random, k: int) -> dict:
    def rand_frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    n = k + 1
    while True:
        u = [rand_frac() for _ in range(n)]
        if any(u):
            break
    while True:
        raw = [rand_frac() for _ in range(n)]
        shift = sum(p * q for p, q in zip(raw, u)) / sum(c * c for c in u)
        phi = [p - shift * c for p, c in zip(raw, u)]
        if any(phi):
            break
    return {"kind": "mukai", "u": [oracle.fstr(c) for c in u],
            "phi": [oracle.fstr(c) for c in phi]}


def _matrix_op(rng: random.Random, deficient: bool) -> dict:
    n = 12
    if deficient:
        k = rng.randint(8, 11)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        m = oracle.mat_mul(left, right)
    else:
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return {"kind": "matrix", "m": m, "b": [rng.randint(-9, 9) for _ in range(n)]}


def _lorentz_op(rng: random.Random, rank: int) -> dict:
    """A random nondegenerate Lorentzian Gram matrix, classes and a table."""
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        if (eig > 1e-9).sum() == 1 and (eig < -1e-9).sum() == rank - 1:
            break
    classes = []
    while len(classes) < 4:
        x = [rng.randint(-3, 3) for _ in range(rank)]
        if math.gcd(*x) == 1 and oracle.pair(g, x, x) < 0 and \
           oracle.divisibility(g, None, x) > 0:
            classes.append(x)
    rows, keys = [], set()
    for x in classes[:2]:
        key = (oracle.pair(g, x, x), oracle.divisibility(g, None, x))
        if key not in keys:
            keys.add(key)
            rows.append({"name": f"o{len(rows)}", "square": key[0], "divisibility": key[1],
                         "codimension": 1 + len(rows)})
    return {"kind": "lorentz", "gram": g, "classes": classes, "table": {"orbits": rows}}


def _sigma_op(rng: random.Random) -> dict:
    s1, s2 = rng.choice(("sqrt2", "sqrt3", "sqrt5")), rng.choice(("sqrt2", "sqrt3", "sqrt5"))
    x = f"{rng.randint(0, 6)}/7,{rng.randint(0, 6)}/7"
    return cli("sigma-orbit", "--e0", "0,0", "--e1", f"{s1},0", "--e2", f"{s1},{s2}",
               "--x", x, "--depth", "100", "--real")


def local_models(rng: random.Random, rundir: Path) -> list[dict]:
    ops = []
    for n in range(1, 7):
        for m in range(1, 2 * n + 1):
            ops += [_symp_op(rng, n, m) for _ in range(SYMP_PER_SHAPE)]
    for k in range(1, 5):
        ops += [_mukai_op(rng, k) for _ in range(MUKAI_PER_K)]
    ops += [_matrix_op(rng, i % 4 == 3) for i in range(MATRICES)]
    for rank in (3, 4, 5):
        ops += [_lorentz_op(rng, rank) for _ in range(LORENTZ_PER_RANK)]
    ops += [_sigma_op(rng) for _ in range(SIGMA_ORBITS)]
    rng.shuffle(ops)
    return readme_ops(rundir) + ops


GENERATORS = {"cone-render": cone_render, "path-chain": path_chain,
              "local-models": local_models}


def generate(workload: str, seed: int, rundir: Path) -> list[dict]:
    """The op list of one workload; writes its input files into rundir."""
    rundir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), rundir)


# ---------------------------------------------------------------- histograms

def _band(volume: int) -> tuple[int, int]:
    """The half-octave band [1000 * 2^(k/2), 1000 * 2^((k+1)/2)) holding volume."""
    k = max(0, math.floor(2 * math.log2(volume / 1000)))
    return round(1000 * 2 ** (k / 2)), round(1000 * 2 ** ((k + 1) / 2))


def histogram(workload: str, draws: int = HISTOGRAM_DRAWS):
    """Search volumes of unbanded seeded draws, counted in half-octave bands.

    Views are drawn as cone-render draws them, segments as path-chain
    draws them, with the endpoint modes cycled in the same way.
    """
    rng = random.Random(f"histogram:{workload}")
    lat = Quartic()
    counts = {}
    for i in range(draws):
        if workload == "cone-render":
            vol = oracle.search_volume(lat.gram, _view_base(rng, lat), VIEW_BOUND, lat.squares)
        else:
            a, _, bound = _segment(rng, lat, PATH_MODES[i % len(PATH_MODES)])
            vol = oracle.search_volume(lat.gram, a, bound, lat.squares)
        band = _band(vol)
        counts[band] = counts.get(band, 0) + 1
    return [(lo, hi, counts[lo, hi]) for lo, hi in sorted(counts)]


if __name__ == "__main__":
    os.chdir(oracle.ROOT)
    for name in ("cone-render", "path-chain"):
        print(name, "search-volume histogram of", HISTOGRAM_DRAWS, "draws")
        for lo, hi, n in histogram(name):
            print(f"  {lo:>9} {hi:>9} {n:>5}")
