"""hkcone benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The op list is generated from the seed
(workloads.py) and executed by a fresh interpreter (worker.py) for about
S seconds; the outputs are then checked by oracle.py, outside the timed
region.  Times are scaled by a yardstick timed beside them (yardstick.py).
With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 a second, traced
worker runs one pass and the object carries the per-layer metrics.  A
fuller result file, with seed, git hash, Python version, nproc and one
sha256 per op output, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170

# A shell user of the CLI pays this on every call: a fresh interpreter
# importing hkcone.cli and loading the bundled fixtures.
SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import hkcone.cli
from hkcone import fixtures
fixtures.quartic_lattice(); fixtures.orbit_table(); fixtures.named_classes()
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_hash() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def time_child(code: str) -> float:
    """Wall seconds of a fresh interpreter running code."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait(timeout=...) polls in steps of up to 50 ms, which would round
    # the time up; a timer kills a hung child instead.
    guard = threading.Timer(60, child.kill)
    guard.start()
    status = child.wait()
    elapsed = time.perf_counter() - t0
    guard.cancel()
    if status != 0:
        raise subprocess.CalledProcessError(status, child.args)
    return elapsed


def measure_setup(yardstick) -> list[tuple[float, float]]:
    """(seconds, start-up gauge seconds) of SETUP_RUNS fresh interpreters."""
    return [(time_child(SETUP_CODE), time_child(yardstick.START_CODE))
            for _ in range(SETUP_RUNS)]


def run_worker(rundir: Path, seconds: float, traced: bool) -> dict:
    out = rundir / ("traced.json" if traced else "untraced.json")
    cmd = [sys.executable, str(HERE / "worker.py"), str(rundir / "spec.json"), str(out),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--spans", str(rundir / "spans.tsv")]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def percentile(values, q: int) -> float:
    """q-th percentile by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def verify(ops, run: dict, oracle) -> tuple[dict[int, list[str]], int, int]:
    """Per-op failures of one worker run, attempted and failed counts."""
    failures = {}
    for i, op in enumerate(ops):
        errors = oracle.check(op, run["outputs"][i])
        if i in run["changed"]:
            errors.append("output changed between passes")
        if errors:
            failures[i] = errors
    passes = len(run["pass_s"])
    return failures, len(ops) * passes, len(failures) * passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hkcone benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hkcone" / "__init__.py").is_file():
        return fail(f"no hkcone sources under {ROOT / 'src'}; run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(HERE))
    import oracle
    import spans
    import workloads
    import yardstick
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    rundir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    t0 = time.perf_counter()
    ops = workloads.generate(args.workload, args.seed, rundir.relative_to(ROOT))
    gen_s = time.perf_counter() - t0
    (rundir / "spec.json").write_text(json.dumps({"ops": ops}), encoding="utf-8")

    setup = measure_setup(yardstick)
    run = run_worker(rundir, args.seconds, traced=False)
    failures, attempted, failed = verify(ops, run, oracle)

    def scaled(seconds, yard):
        return seconds * yardstick.NOMINAL_S / yard

    # An op's time is the median over the passes of its time scaled by
    # the yardstick, which takes out the drift of the machine's speed;
    # run_s is the sum of these times.
    op_s = [statistics.median(scaled(t, y) for t, y in zip(times, yards))
            for times, yards in zip(zip(*run["op_s"]), zip(*run["yard_s"]))]
    op_ms = [1000.0 * t for t in op_s]
    run_s = sum(op_s)
    wall_run_s = sum(min(times) for times in zip(*run["op_s"]))
    end_to_end = {
        "setup_s": (statistics.median(t * yardstick.START_NOMINAL_S / g for t, g in setup), "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (percentile(op_ms, 50), "ms"),
        "op_p90_ms": (percentile(op_ms, 90), "ms"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git": git_hash(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "generate_s": gen_s, "setup_samples_s": setup,
        "passes": len(run["pass_s"]), "pass_s": run["pass_s"], "ops_per_pass": len(ops),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "sha256": run["sha256"],
    }
    metrics = result["end_to_end"]

    if args.trace:
        traced = run_worker(rundir, args.seconds, traced=True)
        for i, (a, b) in enumerate(zip(run["sha256"], traced["sha256"])):
            if a != b:
                failures.setdefault(i, []).append("traced output differs from untraced")
                failed += 1
        attempted += len(ops)
        per_layer = spans.layer_metrics(traced["layers"], traced["counters"],
                                        traced["pass_s"][0], wall_run_s)
        # The machine's speed during the untraced run, as the yardstick saw it.
        per_layer["bench.yardstick_ms"] = 1000.0 * statistics.median(
            y for yards in run["yard_s"] for y in yards)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in per_layer.items()}
        result.update(per_layer=metrics, layer_map=spans.LAYER_MAP,
                      spans_file=(rundir / "spans.tsv").relative_to(ROOT).as_posix())

    result.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted,
                  failures={str(i): e for i, e in failures.items()})
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for i, errors in sorted(failures.items()):
        print(f"op {i} failed: {'; '.join(errors)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
