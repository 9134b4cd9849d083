"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the default test collection (the file name does not start
with test_) so the repository's suite does not pay for them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path and imports hkcone)
import workloads  # noqa: E402

import hkcone  # noqa: E402
from hkcone import cone, fixtures, linalg  # noqa: E402
from hkcone.errors import PreconditionError  # noqa: E402

@pytest.fixture
def small_path_chain(monkeypatch):
    monkeypatch.setattr(workloads, "PATH_SEGMENTS", 8)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(oracle.ROOT)


def sample_ops(tmp_path):
    """A few ops of every kind: README commands, cone, segments, local models."""
    ops = workloads.readme_ops(tmp_path)
    ops.append(workloads.cli("enumerate-walls", "--lattice", workloads.QUARTIC, "--table",
                             workloads.TABLE, "--base", "4,4,-1", "--bound", "15"))
    ops.append(workloads.cli("factor-path", "--lattice", workloads.QUARTIC, "--table",
                             workloads.TABLE, "--from", "2,3/2,-1", "--to", "1,2,-5/4",
                             "--bound", "8"))
    local = workloads.local_models(workloads.random.Random(5), tmp_path)
    kinds = {}
    for op in local:
        kinds.setdefault(op["kind"], op)
    return ops + list(kinds.values())


def test_wrapping_leaves_outputs_byte_identical(tmp_path):
    ops = sample_ops(tmp_path)
    _, yards, plain_results = worker.run_pass(ops)
    assert len(yards) == len(ops) and all(y > 0 for y in yards)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, traced_results = worker.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert [worker.digest(r) for r in traced_results] == [worker.digest(r) for r in plain_results]
    summary = tracer.summary()
    assert {name.split(".")[0] for name in summary} == set(spans.LAYERS)
    assert all(entry["self_s"] >= 0 for entry in summary.values())


def test_wrappers_rebind_everywhere_and_restore(tmp_path):
    original = cone.enumerate_wall_classes
    original_method = hkcone.IntegralLattice.divisibility
    tracer = spans.Tracer()
    tracer.install()
    try:
        from hkcone import render
        assert render.enumerate_wall_classes is cone.enumerate_wall_classes is not original
        assert hkcone.enumerate_wall_classes is cone.enumerate_wall_classes
        assert hkcone.IntegralLattice.divisibility is not original_method
        lat, table = fixtures.quartic_lattice(), fixtures.orbit_table()
        with pytest.raises(PreconditionError, match="bound must be positive"):
            cone.enumerate_wall_classes(lat, table, (4, 4, -1), 0)
        with pytest.raises(PreconditionError, match="singular matrix"):
            linalg.invert(((1, 2), (2, 4)))
    finally:
        tracer.uninstall()
    assert cone.enumerate_wall_classes is original
    assert hkcone.IntegralLattice.divisibility is original_method


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("linalg.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("cone.outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    total = tracer.end[0] - tracer.start[0]
    assert summary["linalg.inner"]["calls"] == 3
    assert summary["cone.outer"]["self_s"] + summary["linalg.inner"]["self_s"] == \
        pytest.approx(total)


def fake_run(ops, outputs):
    return {"outputs": outputs, "changed": [], "pass_s": [1.0]}


def test_dropped_wall_raises_fail_ratio(tmp_path):
    ops = sample_ops(tmp_path)[7:9]          # enumerate-walls B=15, factor-path
    _, _, results = worker.run_pass(ops)
    failures, attempted, failed = run.verify(ops, fake_run(ops, results), oracle)
    assert failed == 0 and attempted == 2

    doc = json.loads(results[0]["stdout"])
    doc["walls"].pop(len(doc["walls"]) // 2)
    planted = dict(results[0], stdout=json.dumps(doc))
    failures, attempted, failed = run.verify(ops[:1], fake_run(ops, [planted]), oracle)
    assert failed / attempted == 1.0
    assert "box scan" in failures[0][0]

    report = json.loads(results[1]["stdout"])
    report["steps"].pop()
    planted = dict(results[1], stdout=json.dumps(report))
    failures, _, failed = run.verify(ops[1:], fake_run(ops, [planted]), oracle)
    assert failed == 1


def test_oracle_scan_matches_criterion_4_box():
    doc = oracle.load_json(workloads.QUARTIC)
    rows = oracle.load_json(workloads.TABLE)["orbits"]
    walls = oracle.scan_walls(doc["gram"], doc["ambient_ideals"], rows, (4, 4, -1),
                              fixtures.ENUM_BOUND)
    lat, table = fixtures.quartic_lattice(), fixtures.orbit_table()
    want = cone.enumerate_wall_classes(lat, table, (4, 4, -1), fixtures.ENUM_BOUND)
    assert [(x, r["name"]) for x, r in walls] == [(x, s.name) for x, s in want]


def read_tree(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload, tmp_path, small_path_chain):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "b")
    strip = [json.dumps(op).replace(str(tmp_path / "b"), str(tmp_path / "a")) for op in again]
    assert [json.dumps(op) for op in first] == strip
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert [json.dumps(op) for op in other] != \
        [json.dumps(op).replace(str(tmp_path / "a"), str(tmp_path / "c")) for op in first]


@pytest.mark.parametrize("workload, table", [("cone-render", workloads.VIEW_HISTOGRAM),
                                             ("path-chain", workloads.PATH_HISTOGRAM)])
def test_band_counts_follow_the_measured_histogram(workload, table):
    measured = workloads.histogram(workload)
    assert sum(n for _, _, n in measured) == workloads.HISTOGRAM_DRAWS
    assert list(table) == measured[:len(table)]


def test_stratified_counts_are_proportional():
    counts = workloads.stratified(workloads.PATH_HISTOGRAM, 100)
    assert sum(c for _, _, c in counts) == 100
    draws = sum(n for _, _, n in workloads.PATH_HISTOGRAM)
    for (_, _, c), (_, _, n) in zip(counts, workloads.PATH_HISTOGRAM):
        assert abs(c - 100 * n / draws) < 1
