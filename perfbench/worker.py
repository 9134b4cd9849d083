"""Run one workload's op list in a fresh interpreter and record what happened.

    python3 perfbench/worker.py SPEC OUT --seconds S [--spans PATH]

SPEC holds {"ops": [...]} from workloads.py.  Without --spans the op list
runs in passes until the next pass would overrun S seconds (at least one
pass); with --spans the wrappers of spans.py are installed and exactly
one pass runs, whose spans are written to PATH.  OUT receives the pass
times, per-op times, per-op local yardstick times (yardstick.py), the
first pass's outputs with their sha256, the ops whose output changed
between passes, and ru_maxrss.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hkcone.cli  # noqa: E402  (timed ops must not pay the import)
import yardstick  # noqa: E402
from hkcone import lattice, linalg, mbm, mukai, symplectic as sp  # noqa: E402


YARDSTICK_EVERY_S = 0.1


def plain(value):
    """JSON-able form of a library result: Fractions become "p/q" strings."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value}"
    return [plain(v) for v in value]


def run_cli(op):
    out_path = None
    argv = op["argv"]
    if "--out" in argv:
        out_path = Path(argv[argv.index("--out") + 1])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = hkcone.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "file_path": out_path}


def run_symp(op):
    space = sp.standard_space(op["n"])
    w = sp.subspace(op["rows"])
    return {"rank": sp.restriction_rank(space, w), "isotropic": sp.is_isotropic(space, w),
            "coisotropic": sp.is_coisotropic(space, w),
            "pullback": sp.pullback_rank(space, op["f"])}


def run_mukai(op):
    point = mukai.make_point([Fraction(c) for c in op["u"]], [Fraction(c) for c in op["phi"]])
    image = mukai.flop(point)
    back = mukai.flop_dual(image)
    return {"a": point.a, "flop_phi": image.phi, "flop_b": image.b, "back_u": back.u,
            "back_a": back.a, "diagram": mukai.check_diagram(point)}


def run_matrix(op):
    m = op["m"]
    u, d, v = linalg.smith_normal_form(m)
    out = {"u": u, "d": d, "v": v, "rank": linalg.rank(m), "det": linalg.determinant(m)}
    if out["rank"] == len(m):
        out["solve"] = linalg.solve(m, op["b"])
    else:
        out["nullspace"] = linalg.nullspace(m)
    return out


def run_lorentz(op):
    lat = lattice.make_lattice(op["gram"])
    table = mbm.table_from_dict(op["table"])
    disc = lat.discriminant_group()
    rows = [mbm.classify(lat, table, x) for x in op["classes"]]
    return {"factors": disc.invariant_factors, "signature": lat.signature(),
            "rows": [None if r is None else r.name for r in rows]}


LIB = {"symp": run_symp, "mukai": run_mukai, "matrix": run_matrix, "lorentz": run_lorentz}


def finish(op, raw) -> dict:
    """Serialize an op's raw result after its clock has stopped."""
    if op["kind"] == "cli":
        path = raw.pop("file_path")
        if path is not None:
            raw["file"] = path.read_text(encoding="utf-8") if path.exists() else ""
        return raw
    return {"value": {k: plain(v) for k, v in raw.items()}}


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()


def run_pass(ops, tracer=None):
    """(per-op seconds, per-op local yardstick seconds, per-op results).

    The yardstick is timed before the first op, after the last, and after
    any op that ends YARDSTICK_EVERY_S or more after the previous
    yardstick; an op's local yardstick time is the mean of the samples
    on either side of it.
    """
    clock = time.perf_counter
    times, results, before, yard = [], [], [], [yardstick.measure()]
    last = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = clock()
        try:
            raw = run_cli(op) if op["kind"] == "cli" else LIB[op["kind"]](op)
        except Exception as exc:  # an op that raises is recorded as failed, the run goes on
            raw = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = clock()
        times.append(t1 - t0)
        results.append(raw)
        before.append(len(yard) - 1)
        if t1 - last >= YARDSTICK_EVERY_S or i == len(ops) - 1:
            yard.append(yardstick.measure())
            last = clock()
    local = [(yard[k] + yard[k + 1]) / 2 for k in before]
    return times, local, [r if "error" in r else finish(op, r) for op, r in zip(ops, results)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="trace one pass and write its spans here")
    args = parser.parse_args(argv)
    ops = json.loads(Path(args.spec).read_text(encoding="utf-8"))["ops"]

    tracer = None
    if args.spans:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    pass_s, op_s, yard_s, outputs, sha, changed = [], [], [], None, None, set()
    started = time.perf_counter()
    while True:
        times, local, results = run_pass(ops, tracer)
        pass_s.append(sum(times))
        op_s.append(times)
        yard_s.append(local)
        digests = [digest(r) for r in results]
        if outputs is None:
            outputs, sha = results, digests
        else:
            changed.update(i for i, (a, b) in enumerate(zip(sha, digests)) if a != b)
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed * (len(pass_s) + 1) / len(pass_s) > args.seconds:
            break

    doc = {"pass_s": pass_s, "op_s": op_s, "yard_s": yard_s, "outputs": outputs, "sha256": sha,
           "changed": sorted(changed),
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.summary()
        doc["counters"] = tracer.counters
        tracer.dump(args.spans)
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
