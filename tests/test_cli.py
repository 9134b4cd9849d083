import contextlib
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_dispatch
from hkcone import cli, fixtures
from hkcone.cli import build_parser, main


LAT = fixtures.fixture_path("k3_3_quartic.json")
TAB = fixtures.fixture_path("mbm.json")
NAMED = fixtures.fixture_path("named_classes.json")
CH1 = fixtures.fixture_path("chamber1.json")
CH4 = fixtures.fixture_path("chamber4.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hkcone", *args],
                          capture_output=True, text=True)


class TestClassify:
    def test_beta(self, capsys):
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "orbit": "codim2", "square": -36, "divisibility": 4, "codimension": 2}

    def test_unknown_orbit_is_null(self, capsys):
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "1,0,-1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"orbit": None}

    def test_precondition_exit_2(self, capsys):
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "0,1,0"])
        assert rc == 2

    def test_fractional_class_exit_2(self, capsys):
        # 9/2 is rejected, not truncated to 4 (which would classify 4,0,-1)
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "9/2,0,-1"])
        assert rc == 2
        assert "'9/2'" in capsys.readouterr().err

    def test_missing_file_exit_1(self):
        rc = main(["classify", "--lattice", "/nonexistent.json", "--table", TAB,
                   "--class", "4,0,-1"])
        assert rc == 1

    def test_orbit_row_without_name_exit_2(self, tmp_path, capsys):
        tab = tmp_path / "table.json"
        tab.write_text(json.dumps({"orbits": [
            {"square": -4, "divisibility": 4, "codimension": 1}]}))
        rc = main(["classify", "--lattice", LAT, "--table", str(tab), "--class", "4,0,-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tab) in err and "'name'" in err
        assert "malformed" not in err


    def test_numeric_orbit_name_exit_2(self, tmp_path, capsys):
        tab = tmp_path / "table.json"
        tab.write_text(json.dumps({"orbits": [
            {"name": 3, "square": -36, "divisibility": 4, "codimension": 2}]}))
        rc = main(["classify", "--lattice", LAT, "--table", str(tab), "--class", "4,0,-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tab) in err and "orbit 0" in err and "'name'" in err

    def test_disc_residue_of_wrong_length_exit_2(self, tmp_path, capsys):
        # the quartic's discriminant group is Z/36: one nontrivial factor
        tab = tmp_path / "table.json"
        tab.write_text(json.dumps({"orbits": [
            {"name": "codim2", "square": -36, "divisibility": 4, "codimension": 2,
             "disc_residue": [1, 2, 3]}]}))
        rc = main(["classify", "--lattice", LAT, "--table", str(tab), "--class", "4,0,-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'codim2'" in err and "3 entries" in err and "1 nontrivial factors" in err

    @pytest.mark.parametrize("pinned", [[27], [45], [-9]])
    def test_disc_residue_not_folded_exit_2(self, tmp_path, capsys, pinned):
        # Z/36: 27 (what unfolded residues return), 45 and -9 all fold to 9
        tab = tmp_path / "table.json"
        tab.write_text(json.dumps({"orbits": [
            {"name": "codim2", "square": -36, "divisibility": 4, "codimension": 2,
             "disc_residue": pinned}]}))
        for argv in (["classify", "--class", "4,0,-1"],
                     ["enumerate-walls", "--base", "4,4,-1", "--bound", "15"]):
            rc = main([*argv, "--lattice", LAT, "--table", str(tab)])
            assert rc == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "'codim2'" in err and str(pinned) in err and "should be [9]" in err
        tab.write_text(json.dumps({"orbits": [
            {"name": "codim2", "square": -36, "divisibility": 4, "codimension": 2,
             "disc_residue": [9]}]}))
        assert main(["classify", "--lattice", LAT, "--table", str(tab), "--class", "4,0,-1"]) == 0
        assert json.loads(capsys.readouterr().out)["orbit"] == "codim2"

    def test_malformed_pinned_table_exits_2_for_every_class(self, tmp_path, capsys):
        # a pinned residue of the wrong length is rejected whether the class
        # matches its row (4,0,-1), an unpinned row (1,0,0) or no row (0,0,1)
        tab = tmp_path / "table.json"
        tab.write_text(json.dumps({"orbits": [
            {"name": "a", "square": -36, "divisibility": 4, "codimension": 2,
             "disc_residue": [1, 2]},
            {"name": "b", "square": -2, "divisibility": 1, "codimension": 1}]}))
        for argv in (["classify", "--class", "4,0,-1"], ["classify", "--class", "1,0,0"],
                     ["classify", "--class", "0,0,1"],
                     ["enumerate-walls", "--base", "4,4,-1", "--bound", "15"]):
            assert main([*argv, "--lattice", LAT, "--table", str(tab)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("hkcone: orbit 'a': disc_residue has 2 entries, but the "
                           "discriminant group has 1 nontrivial factors\n")


class TestBooleansAreNotNumbers:
    """JSON true and false are rejected wherever a document holds a number."""

    @pytest.mark.parametrize("kind, doc, key", [
        ("lattice", {"gram": [[True, 0], [0, -1]]}, "'gram'"),
        ("table", {"orbits": [{"name": "b", "square": -36, "divisibility": True,
                               "codimension": 2}]}, "'divisibility'"),
        ("point", {"point": [True, 0, 0]}, "'point'"),
        ("classes", {"yes": [True, 0, 0]}, "'yes'"),
    ])
    def test_exit_2_names_file_and_key(self, tmp_path, capsys, kind, doc, key):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        files = {"lattice": LAT, "table": TAB, "point": CH1, "classes": NAMED, kind: str(path)}
        if kind == "classes":
            argv = ["dual-solve", "--lattice", LAT, "--classes", files["classes"],
                    "--pair", "yes=1", "--pair", "F=3", "--pair", "delta=0"]
        else:
            argv = ["factor-path", "--lattice", files["lattice"], "--table", files["table"],
                    "--from", files["point"], "--to", CH4, "--bound", "8"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert "malformed" not in err


class TestDualSolve:
    def test_curve_class(self, capsys):
        rc = main(["dual-solve", "--lattice", LAT, "--classes", NAMED,
                   "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "vector": ["1", "1", "-5/4"], "primitive": [4, 4, -5], "scale": "4"}

    def test_inline_vector_constraint(self, capsys):
        rc = main(["dual-solve", "--lattice", LAT,
                   "--pair", "C=-2", "--pair", "F=3", "--pair", "delta=0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["primitive"] == [1, 0, 0]

    def test_unknown_name_exit_2(self):
        rc = main(["dual-solve", "--lattice", LAT, "--pair", "nope=1"])
        assert rc == 2

    def test_fractional_inline_class_exit_2(self, capsys):
        rc = main(["dual-solve", "--lattice", LAT,
                   "--pair", "1/2,0,0=1", "--pair", "F=3", "--pair", "delta=0"])
        assert rc == 2
        assert "'1/2'" in capsys.readouterr().err

    def test_fractional_named_class_exit_2(self, tmp_path, capsys):
        named = tmp_path / "classes.json"
        named.write_text(json.dumps({"half": ["1/2", 0, 0]}))
        rc = main(["dual-solve", "--lattice", LAT, "--classes", str(named),
                   "--pair", "half=1", "--pair", "F=3", "--pair", "delta=0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(named) in err and "'half'" in err
        assert "malformed" not in err


class TestFactorPath:
    def test_chamber_fixtures(self, capsys):
        rc = main(["factor-path", "--lattice", LAT, "--table", TAB,
                   "--from", CH1, "--to", CH4, "--bound", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert len(doc["steps"]) == 3
        assert doc["groups"] == [[0, 1], [2]]
        assert doc["perturbed"] is False

    def test_degenerate_path_exit_2_with_report(self, capsys):
        rc = main(["factor-path", "--lattice", LAT, "--table", TAB,
                   "--from", CH1, "--to", CH1, "--bound", "8"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.out)["status"] == "regular_in_codim_two"

    def test_inline_points(self, capsys):
        rc = main(["factor-path", "--lattice", LAT, "--table", TAB,
                   "--from", "1,1,-1/4", "--to", "1,1,-3/5", "--bound", "8"])
        assert rc == 2  # one codimension-3 crossing only
        doc = json.loads(capsys.readouterr().out)
        assert [s["orbit"] for s in doc["steps"]] == ["codim3"]


class TestMukaiFlop:
    def test_worked_point(self, capsys):
        rc = main(["mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "phi": ["0", "1"], "Astar": [["0", "0"], ["1", "0"]]}

    def test_zero_section_exit_2(self):
        assert main(["mukai-flop", "--u", "1,0", "--phi", "0,0"]) == 2

    def test_k_mismatch_exit_2(self):
        assert main(["mukai-flop", "--k", "2", "--u", "1,0", "--phi", "0,1"]) == 2

    @pytest.mark.parametrize("k", ["0", "-1", "-2"])
    def test_k_below_1_exit_2_by_name(self, capsys, k):
        # T*P^k needs k >= 1: at k = 0 every point is the zero section
        assert main(["mukai-flop", f"--k={k}", "--u", "1", "--phi", "1"]) == 2
        assert capsys.readouterr().err == f"hkcone: --k must be at least 1 (T*P^k for k >= 1), got {k}\n"


class TestSympRank:
    def test_roundtrip(self, tmp_path, capsys):
        omega = tmp_path / "omega.json"
        basis = tmp_path / "basis.json"
        omega.write_text(json.dumps({"omega": [
            [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]}))
        basis.write_text(json.dumps({"basis": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
        rc = main(["symp-rank", "--omega", str(omega), "--basis", str(basis)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 0, "isotropic": True, "coisotropic": True}

    def test_missing_omega_exit_2(self, tmp_path, capsys):
        omega = tmp_path / "omega.json"
        basis = tmp_path / "basis.json"
        omega.write_text(json.dumps({"form": [[0, 1], [-1, 0]]}))
        basis.write_text(json.dumps({"basis": [[1, 0]]}))
        rc = main(["symp-rank", "--omega", str(omega), "--basis", str(basis)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(omega) in err and "'omega'" in err
        assert "malformed" not in err

    def test_ragged_basis_exit_2_names_file_and_key(self, tmp_path, capsys):
        omega = tmp_path / "omega.json"
        basis = tmp_path / "basis.json"
        omega.write_text(json.dumps({"omega": [[0, 1], [-1, 0]]}))
        basis.write_text(json.dumps({"basis": [[1, 0], [1]]}))
        rc = main(["symp-rank", "--omega", str(omega), "--basis", str(basis)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(basis) in err and "'basis'" in err and "different lengths" in err
        assert "internal error" not in err


class TestSigmaOrbit:
    def test_exact_fixture(self, capsys):
        rc = main(["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2",
                   "--x", "0,0", "--depth", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 6 and doc["finite"] is True
        assert doc["generators"][0] == ["1/3", "0"]

    @pytest.mark.parametrize("e1, size", [
        ("1/1000,1/999", 999000),
        ("1e-20,0", 10 ** 20),
    ])
    def test_exact_size_without_listing_the_orbit(self, capsys, e1, size):
        start = time.perf_counter()
        rc = main(["sigma-orbit", "--e0", "0,0", "--e1", e1, "--e2", "0,0", "--x", "0,0"])
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["size"] == size

    def test_real_mode_with_irrational_tokens(self, capsys):
        rc = main(["sigma-orbit", "--e0", "0,0", "--e1", "sqrt2,0",
                   "--e2", "sqrt2,sqrt3", "--x", "0,0", "--depth", "10",
                   "--real", "--grid", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finite"] is False
        assert doc["size"] == 221
        assert doc["covering_radius"] < 0.5

    @pytest.mark.parametrize("e0, e1, e2, finite", [
        ("sqrt2,sqrt3", "sqrt2,sqrt3", "sqrt2,sqrt3", None),  # three zero generators
        ("sqrt2,0", "sqrt2,1/2", "sqrt2,1/3", None),  # equal roots cancel
        ("0,0", "1/3,0", "0,1/2", None),
        ("0,0", "sqrt2,0", "sqrt2,sqrt3", False),  # the benchmark's marks
        ("sqrt2,0", "sqrt3,0", "sqrt2,0", False),  # sqrt3 - sqrt2
        ("0,sqrt5", "0,sqrt5", "1/2,sqrt5", None),
    ])
    def test_real_mode_finite_from_the_tokens(self, capsys, e0, e1, e2, finite):
        rc = main(["sigma-orbit", "--e0", e0, "--e1", e1, "--e2", e2, "--x", "0,0",
                   "--real", "--depth", "5", "--grid", "4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["finite"] is finite

    @pytest.mark.parametrize("grid", ["4", "32", "0", "-3"])
    def test_grid_without_real_exit_2(self, capsys, grid):
        rc = main(["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2",
                   "--x", "0,0", "--grid", grid])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "hkcone: --grid sets the covering-radius grid of --real; " \
            "exact mode has none\n"

    def test_real_coordinate_beyond_the_float_range_exit_2(self, capsys):
        rc = main(["sigma-orbit", "--e0", "0,0", "--e1", "1e400,0", "--e2", "0,1/2",
                   "--x", "0,0", "--real"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "too large for a real point" in err and "internal error" not in err


class TestRender:
    def test_writes_svg(self, tmp_path):
        out = tmp_path / "cone.svg"
        rc = main(["render-cone", "--lattice", LAT, "--table", TAB,
                   "--base", "4,4,-1", "--bound", "4", "--out", str(out),
                   "--cusp", "0,1,0", "--cusp", "1,1,-1"])
        assert rc == 0
        doc = out.read_text()
        assert doc.startswith("<?xml") and "<line" in doc

    def test_path_overlay(self, tmp_path, capsys):
        rep = tmp_path / "path.json"
        rc = main(["factor-path", "--lattice", LAT, "--table", TAB,
                   "--from", CH1, "--to", CH4, "--bound", "8", "--out", str(rep)])
        assert rc == 0
        out = tmp_path / "cone.svg"
        rc = main(["render-cone", "--lattice", LAT, "--table", TAB,
                   "--base", "4,4,-1", "--bound", "8", "--out", str(out),
                   "--path", str(rep)])
        assert rc == 0
        assert "<polyline" in out.read_text()

    def test_path_report_without_b_exit_2(self, tmp_path, capsys):
        rep = tmp_path / "path.json"
        rep.write_text(json.dumps({"a": ["1", "1", "-1/4"], "status": "ok"}))
        rc = main(["render-cone", "--lattice", LAT, "--table", TAB,
                   "--base", "4,4,-1", "--bound", "4", "--out", str(tmp_path / "cone.svg"),
                   "--path", str(rep)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(rep) in err and "'b'" in err
        assert "malformed" not in err

    def test_path_report_with_bad_entry_exit_2(self, tmp_path, capsys):
        rep = tmp_path / "path.json"
        rep.write_text(json.dumps({"a": ["1", "x", "0"], "b": ["1", "1", "0"]}))
        rc = main(["render-cone", "--lattice", LAT, "--table", TAB,
                   "--base", "4,4,-1", "--bound", "4", "--out", str(tmp_path / "cone.svg"),
                   "--path", str(rep)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(rep) in err and "'a'" in err


    @pytest.mark.parametrize("mark, rc", [
        ("-25,-11,-10:iso", 2),  # isotropic, though its float radius^2 is below 1
        ("1,100000000000000000,0:far", 0),  # square 599,999,999,999,999,998
    ])
    def test_marker_placed_by_its_square(self, tmp_path, capsys, mark, rc):
        assert main(["render-cone", "--lattice", LAT, "--table", TAB, "--base", "4,4,-1",
                     "--bound", "4", "--out", str(tmp_path / "cone.svg"),
                     f"--mark={mark}"]) == rc
        err = capsys.readouterr().err
        assert ("strictly inside the disk" in err) == (rc == 2) and "internal error" not in err


WRITE_COMMANDS = {
    "render-cone": ["render-cone", "--lattice", LAT, "--table", TAB, "--base", "4,4,-1",
                    "--bound", "4", "--cusp", "0,1,0"],
    "enumerate-walls": ["enumerate-walls", "--lattice", LAT, "--table", TAB, "--base", "4,4,-1",
                        "--bound", "2"],
}


@pytest.mark.parametrize("argv", WRITE_COMMANDS.values(), ids=WRITE_COMMANDS.keys())
class TestOutFile:
    """--out is written in place and truncated to the new length."""

    @staticmethod
    def expected(argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out.encode("utf-8")

    def test_longer_file_ends_with_exactly_the_new_bytes(self, tmp_path, capsys, argv):
        want = self.expected(argv, capsys)
        out = tmp_path / "out"
        out.write_bytes(want[:100] + b"#" * (len(want) + 4096))
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert capsys.readouterr() == ("", "")

    def test_stdout_has_the_bytes_of_the_file(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert self.expected(argv, capsys) == out.read_bytes()

    def test_dev_null_exit_0(self, capsys, argv):
        assert main(argv + ["--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_directory_exit_1(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hkcone: ") and "internal error" not in err

    def test_new_file_gets_the_mode_of_open(self, tmp_path, argv):
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    @pytest.mark.parametrize("failure, code", [(OSError(errno.ENOSPC, "No space left on device"), 1),
                                               (KeyboardInterrupt(), None)],
                             ids=["enospc", "interrupt"])
    def test_failed_write_leaves_no_old_tail(self, tmp_path, capsys, argv, monkeypatch,
                                             failure, code):
        want = self.expected(argv, capsys)
        out = tmp_path / "out"
        out.write_bytes(b"#" * (len(want) + 4096))
        real_write, writes = os.write, []

        def write_a_prefix_then_fail(fd, data):
            if writes:
                raise failure
            writes.append(real_write(fd, data[:100]))
            return writes[-1]

        monkeypatch.setattr(os, "write", write_a_prefix_then_fail)
        if code is None:
            with pytest.raises(type(failure)):
                main(argv + ["--out", str(out)])
        else:
            assert main(argv + ["--out", str(out)]) == code
            assert "No space left on device" in capsys.readouterr().err
        assert writes == [100] and out.read_bytes() == b""

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_pipe(self, capsys, argv):
        want = self.expected(argv, capsys)
        fresh = run_cli(*argv, "--out", "/dev/stdout")  # stdout is a pipe: nothing to truncate
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert fresh.stdout.encode("utf-8") == want


class TestDeterminism:
    def test_byte_identical_invocations(self):
        args = ["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"]
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.encode() == r2.stdout.encode()

    def test_render_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            rc = main(["render-cone", "--lattice", LAT, "--table", TAB,
                       "--base", "4,4,-1", "--bound", "4", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSharedParser:
    """In-process calls of main share one parser; repeated, omitted and
    rejected options leave nothing behind for the next call."""

    def test_calls_match_fresh_processes(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        both = ["--lattice", LAT, "--table", TAB, "--base", "4,4,-1", "--bound", "4"]
        three = ["dual-solve", "--lattice", LAT, "--classes", NAMED,
                 "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"]
        calls = [
            three,
            ["dual-solve", "--lattice", LAT, "--pair", "C=-2", "--pair", "F=3"],
            ["render-cone", *both, "--mark", "4,4,-1:base", "--mark", "1,1,-1/4",
             "--cusp", "0,1,0", "--cusp", "1,1,-1"],
            ["render-cone", "--lattice", LAT, "--mark", "4,4,-1"],  # usage error
            ["render-cone", *both],
            three,
        ]

        def with_out(argv, name):
            """render-cone writes its SVG only to --out: one file per run."""
            if argv[0] != "render-cone":
                return argv, None
            return argv + ["--out", str(tmp_path / name)], tmp_path / name

        for i, argv in enumerate(calls):
            mine, mine_svg = with_out(argv, f"main-{i}.svg")
            try:
                rc = main(mine)
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            theirs, fresh_svg = with_out(argv, f"fresh-{i}.svg")
            fresh = run_cli(*theirs)
            assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            if mine_svg is not None:
                assert mine_svg.exists() == fresh_svg.exists() == (rc == 0)
                assert rc or mine_svg.read_bytes() == fresh_svg.read_bytes(), argv

    def test_a_patched_handler_runs(self, monkeypatch, capsys):
        argv = ["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"]
        assert main(argv) == 0  # the parser is built and cached
        capsys.readouterr()
        monkeypatch.setattr(cli, "_cmd_classify", lambda args: 7)
        assert main(argv) == 7
        assert capsys.readouterr().out == ""


README_SVG_B15 = "39d92a3866e525826b6f60d4650685aa8c8edc783cbf2d632836a60e9ebc83b6"


class TestGoldenSvg:
    """The README render-cone command, byte for byte."""

    @staticmethod
    def render_argv(tmp_path, bound):
        rep = tmp_path / "path.json"
        assert main(["factor-path", "--lattice", LAT, "--table", TAB,
                     "--from", CH1, "--to", CH4, "--bound", "8", "--out", str(rep)]) == 0
        return ["render-cone", "--lattice", LAT, "--table", TAB, "--base", "4,4,-1",
                "--bound", bound, "--cusp", "0,1,0", "--cusp", "1,1,-1", "--path", str(rep)]

    @pytest.mark.parametrize("bound, digest", [
        ("15", README_SVG_B15),
        ("100", "a1f872aae9ae6cfd0e0b25f6f85040c4e2d780d34913c3473f7093907c4975f8"),
    ])
    def test_readme_render_cone(self, tmp_path, bound, digest):
        out = tmp_path / "cone.svg"
        assert main(self.render_argv(tmp_path, bound) + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_readme_render_cone_to_stdout(self, tmp_path):
        # without --out the document goes to stdout, the same bytes
        fresh = run_cli(*self.render_argv(tmp_path, "15"))
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert hashlib.sha256(fresh.stdout.encode("utf-8")).hexdigest() == README_SVG_B15


class TestGoldenReports:
    """The README classify, enumerate-walls and factor-path stdout, byte for byte."""

    @pytest.mark.parametrize("argv, size, digest", [
        (["classify", "--class", "4,0,-1"], 82,
         "8567147fe598b44b4a68a6a2120694ed9e46fd59ab5a51d84d891bb5895c5796"),
        (["enumerate-walls", "--base", "4,4,-1", "--bound", "2"], 1833,
         "d17b018612c9b2452f11ee241c12a549fbeee0b345ccc6635bf6f481fe8b437c"),
        (["factor-path", "--from", CH1, "--to", CH4, "--bound", "8"], 768,
         "b890b694df98a20a968deb83ad3758e0a89ed5b2a175af80bf66663502754c80"),
    ], ids=["classify", "enumerate-walls", "factor-path"])
    def test_readme_stdout(self, capsys, argv, size, digest):
        assert main([argv[0], "--lattice", LAT, "--table", TAB, *argv[1:]]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


class TestExitCodes:
    def test_internal_error_exit_3(self, monkeypatch, capsys):
        def broken(path):
            raise KeyError("gram")

        monkeypatch.setattr(cli, "load_lattice", broken)
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "hkcone: internal error: KeyError: 'gram'\n"
        assert "malformed" not in err

    def test_out_of_memory_exit_1(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_lattice", exhausted)
        rc = main(["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "hkcone: out of memory\n"
        assert "internal error" not in err


class TestDispatch:
    """An argv that starts with a subcommand's name is parsed by that
    subcommand's parser alone, with what the full parser would print."""

    def test_both_routes_agree_on_the_corpus(self):
        assert cli_dispatch.mismatches() == []

    def test_a_subcommand_argv_skips_the_full_parser(self, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(build_parser(), "parse_args", full)
        assert main(["mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"]) == 0
        with pytest.raises(AssertionError, match="the full parser ran"):
            main(["mukai"])

    def test_extra_arguments_are_the_full_parsers_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mukai-flop", "--u", "1,0", "--phi", "0,1", "x", "--y"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: hkcone [-h]") and "{classify," in err
        assert err.endswith("hkcone: error: unrecognized arguments: x --y\n")


_TEXT = st.text(st.characters() | st.characters(categories=("Cs",))
                | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600'), max_size=8)
_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
           | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
           | _TEXT)
_JSON = st.recursive(
    _SCALAR | st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4) | st.lists(_TEXT, max_size=4)
    | st.lists(st.integers() | st.booleans(), max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=16)


class TestJsonWriter:
    """`cli._dumps` is json.dumps(obj, indent=2), byte for byte."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(value=_JSON)
    def test_equals_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [object(), {"a": [1, {2, 3}]}, [b"x"], (1, {"k": 1j})])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            cli._dumps(value)

    @pytest.mark.parametrize("argv", [
        ["classify", "--lattice", LAT, "--table", TAB, "--class", "4,0,-1"],
        ["classify", "--lattice", LAT, "--table", TAB, "--class", "1,0,-1"],
        ["dual-solve", "--lattice", LAT, "--classes", NAMED,
         "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"],
        ["enumerate-walls", "--lattice", LAT, "--table", TAB, "--base", "4,4,-1", "--bound", "2"],
        ["factor-path", "--lattice", LAT, "--table", TAB, "--from", CH1, "--to", CH4,
         "--bound", "8"],
        ["factor-path", "--lattice", LAT, "--table", TAB, "--from", CH1, "--to", CH1,
         "--bound", "8"],
        ["mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"],
        ["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2", "--x", "0,0"],
        ["sigma-orbit", "--e0", "0,0", "--e1", "sqrt2,0", "--e2", "sqrt2,sqrt3", "--x", "0,0",
         "--depth", "5", "--real"],
    ], ids=lambda argv: argv[0])
    def test_readme_commands_write_json_dumps(self, capsys, argv):
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_symp_rank_writes_json_dumps(self, tmp_path, capsys):
        omega, basis = tmp_path / "omega.json", tmp_path / "basis.json"
        omega.write_text('{"omega": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]}')
        basis.write_text('{"basis": [[1, 0, 0, 0], [0, 1, 0, 0]]}')
        assert main(["symp-rank", "--omega", str(omega), "--basis", str(basis)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


_BOTH = ["--lattice", LAT, "--table", TAB]
# one call per document option; the document under test is "{doc}"
DOCUMENT_ARGVS = {
    "--lattice": ["classify", "--lattice", "{doc}", "--table", TAB, "--class", "4,0,-1"],
    "--table": ["classify", "--lattice", LAT, "--table", "{doc}", "--class", "4,0,-1"],
    "--from": ["factor-path", *_BOTH, "--from", "{doc}", "--to", CH4, "--bound", "8"],
    "--classes": ["dual-solve", "--lattice", LAT, "--classes", "{doc}", "--pair", "C=1"],
    "--omega": ["symp-rank", "--omega", "{doc}", "--basis", "{omega}"],
    "--basis": ["symp-rank", "--omega", "{omega}", "--basis", "{doc}"],
    "--path": ["render-cone", *_BOTH, "--base", "4,4,-1", "--bound", "4", "--path", "{doc}"],
}


class TestNotUtf8Document:
    """An input file that is not UTF-8 JSON exits 1 with a message that
    names the file, for every option that reads a document."""

    @staticmethod
    def run(tmp_path, option, data: bytes) -> tuple:
        doc, omega = tmp_path / "doc.json", tmp_path / "omega.json"
        doc.write_bytes(data)
        omega.write_text('{"omega": [[0, 1], [-1, 0]]}')
        argv = [a.format(doc=doc, omega=omega) for a in DOCUMENT_ARGVS[option]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue(), str(doc)

    @pytest.mark.parametrize("option", DOCUMENT_ARGVS)
    @pytest.mark.parametrize("data", [
        '{"basis_names": ["\xe9"]}'.encode("latin-1"),
        '{"gram": [[2]]}'.encode("utf-16"),
    ], ids=["latin-1", "utf-16"])
    def test_exit_1_names_the_file(self, tmp_path, option, data):
        rc, out, err, doc = self.run(tmp_path, option, data)
        assert (rc, out) == (1, "")
        assert err.startswith(f"hkcone: {doc}: 'utf-8' codec can't decode byte 0x")
        assert "internal error" not in err

    @pytest.mark.parametrize("option", DOCUMENT_ARGVS)
    def test_not_json_exit_1_names_the_file(self, tmp_path, option):
        rc, out, err, doc = self.run(tmp_path, option, b"{")
        assert (rc, out) == (1, "")
        assert err == (f"hkcone: {doc}: Expecting property name enclosed in double quotes:"
                       " line 1 column 2 (char 1)\n")


GRAM = [[-2, 3, 0], [3, 0, 0], [0, 0, -4]]


class TestLatticeDocument:
    @pytest.mark.parametrize("doc, key", [
        ({"gram": [[2, 1], [1, "x"]]}, "'gram'"),
        ({"gram": [[2, 1], [1, 2.0]]}, "'gram'"),
        ({"gram": [[2, 1], [1, "1/2"]]}, "'gram'"),
        ({"gram": 5}, "'gram'"),
        ({"gram": [[2, 1], [1]]}, "gram"),
        ({"gram": [[2, 1], [0, -2]]}, "gram"),
        ({"basis_names": ["a", "b"]}, "'gram'"),
        ({"gram": GRAM, "basis_names": "abc"}, "'basis_names'"),
        ({"gram": GRAM, "basis_names": ["C", "F", 3]}, "'basis_names'"),
        ({"gram": GRAM, "basis_names": ["C", "F"]}, "basis_names"),
        ({"gram": GRAM, "ambient_ideals": [1, 1, "x"]}, "'ambient_ideals'"),
        ({"gram": GRAM, "ambient_ideals": [1, 1, 0]}, "ambient_ideals"),
        ({"gram": GRAM, "fujiki_constant": "x"}, "'fujiki_constant'"),
        ([GRAM], "'gram'"),
        ({"gram": GRAM, "basis_names": ["C", "C", "delta"]}, "basis_names"),
    ])
    def test_bad_entry_exit_2_names_file_and_key(self, tmp_path, capsys, doc, key):
        lat = tmp_path / "lattice.json"
        lat.write_text(json.dumps(doc))
        rc = main(["classify", "--lattice", str(lat), "--table", TAB, "--class", "4,0,-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(lat) in err and key in err
        assert "malformed" not in err

    def test_integer_entries_follow_the_document_rule(self, tmp_path, capsys):
        lat = tmp_path / "lattice.json"
        lat.write_text(json.dumps({"gram": [["-2", 3, 0], [3, "0", 0], [0, 0, "-8/2"]],
                                   "basis_names": ["C", "F", "delta"],
                                   "ambient_ideals": [1, "1", 4]}))
        rc = main(["classify", "--lattice", str(lat), "--table", TAB, "--class", "4,0,-1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["orbit"] == "codim2"


def _fixture_doc(name):
    with open(fixtures.fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


# the documents the fuzzed commands read, by name
FUZZ_DOCS = {
    "lattice": _fixture_doc("k3_3_quartic.json"),
    "table": _fixture_doc("mbm.json"),
    "classes": _fixture_doc("named_classes.json"),
    "from": _fixture_doc("chamber1.json"),
    "to": _fixture_doc("chamber2.json"),
    "path": {"a": ["2", "3/2", "-1"], "b": ["1", "2", "-5/4"]},
    "omega": {"omega": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]},
    "basis": {"basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
}

# every subcommand, exiting 0 as written; an argument that names a
# document above stands for that document's file
FUZZ_COMMANDS = [
    ["classify", "--lattice", "lattice", "--table", "table", "--class", "4,0,-1"],
    ["dual-solve", "--lattice", "lattice", "--classes", "classes",
     "--pair", "C=1", "--pair", "F=3", "--pair", "eps=1"],
    ["enumerate-walls", "--lattice", "lattice", "--table", "table",
     "--base", "4,4,-1", "--bound", "2"],
    ["factor-path", "--lattice", "lattice", "--table", "table",
     "--from", "from", "--to", "to", "--bound", "8"],
    ["render-cone", "--lattice", "lattice", "--table", "table", "--base", "4,4,-1",
     "--bound", "4", "--path", "path", "--mark", "4,4,-1:base", "--cusp", "1,1,-1"],
    ["mukai-flop", "--k", "2", "--u", "1,0,0", "--phi", "0,1,0"],
    ["symp-rank", "--omega", "omega", "--basis", "basis"],
    ["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2", "--x", "0,0",
     "--depth", "3"],
    ["sigma-orbit", "--e0", "0,0", "--e1", "sqrt2,0", "--e2", "0,1/2", "--x", "0,0",
     "--depth", "3", "--grid", "4", "--real"],
]

# wrong types, booleans, floats, nulls, non-integral and undefined
# rationals, negative and zero numbers, empty, short and ragged arrays
BAD_JSON = ["x", "1/2", "1/0", True, False, 1.5, None, {}, [], -1, 0, [1, 2], [[1], [2, 3]]]
# the same for option values; every number is small, so no value asks
# for a long computation
BAD_ARGS = ["", "x", "1/2", "1.5", "true", "0", "-1", "1,2", "1,2,3,4", "0,0,0",
            "1,1,-1", "1/0,1", ",", "sqrt2", "C=1/2", "=1", "4,4,-1:"]


def _paths(doc, prefix=()):
    """The location of every value in a JSON document, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value, delete):
    """A copy of doc with the value at path replaced, or deleted."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def fuzz_case(draw):
    """(argv, documents): one command with one or two mutations; a
    document is a JSON value, unparsable bytes or missing (None)."""
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    docs = {name: FUZZ_DOCS[name] for name in argv if name in FUZZ_DOCS}
    for _ in range(draw(st.integers(1, 2))):
        if docs and draw(st.booleans()):
            name = draw(st.sampled_from(sorted(docs)))
            if not isinstance(docs[name], (dict, list)):
                continue
            path = draw(st.sampled_from(list(_paths(docs[name]))))
            action = draw(st.sampled_from(["replace"] * 5 + ["delete"] * 2 + ["not json", "missing"]))
            if action == "not json":
                docs[name] = b"{"
            elif action == "missing":
                docs[name] = None
            else:
                delete = action == "delete" and bool(path)
                docs[name] = _mutate(docs[name], path, draw(st.sampled_from(BAD_JSON)), delete)
        else:  # a file option is only dropped: its file is mutated above
            values = [i for i in range(2, len(argv), 2) if argv[i] not in FUZZ_DOCS]
            if values and draw(st.integers(0, 5)):
                argv[draw(st.sampled_from(values))] = draw(st.sampled_from(BAD_ARGS))
            else:
                i = draw(st.sampled_from(range(2, len(argv), 2)))
                del argv[i - 1:i + 1]
    return argv, docs


class TestBoundaryFuzz:
    """Malformed documents and option values are input faults: main exits
    0, 1 or 2, never 3, and raises nothing.  An argparse usage error counts
    as the exit code it raises, as it does for the console script."""

    @pytest.fixture(scope="class")
    def tmp(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=250, derandomize=True, deadline=None, database=None)
    @given(case=fuzz_case())
    def test_exit_codes(self, tmp, case):
        argv, docs = case
        files = {name: tmp / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            files[name].unlink(missing_ok=True)
            if doc is not None:
                files[name].write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        argv = [str(files.get(a, a)) for a in argv] + ["--out", str(tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2), (argv, docs, err.getvalue())


class TestDimensionMismatch:
    """A point or class of the wrong length exits 2 with a message that
    names the option, or the file and key, and both counts."""

    CASES = {
        "from-file": (["factor-path", "--table", TAB, "--from", "{point}", "--to", CH4,
                       "--bound", "8"], "{point}: 'point'"),
        "from-inline": (["factor-path", "--table", TAB, "--from", "2,3", "--to", CH4,
                         "--bound", "8"], "--from"),
        "to-inline": (["factor-path", "--table", TAB, "--from", CH1, "--to", "1,2,-5/4,0",
                       "--bound", "8"], "--to"),
        "classes": (["dual-solve", "--classes", "{classes}", "--pair", "C=1"],
                    "{classes}: 'C'"),
        "pair": (["dual-solve", "--pair", "1,0=1"], "--pair"),
        "path": (["render-cone", "--table", TAB, "--base", "4,4,-1", "--bound", "4",
                  "--path", "{path}"], "{path}: 'a'"),
        "render-base": (["render-cone", "--table", TAB, "--base", "4,4", "--bound", "4"],
                        "--base"),
        "enumerate-base": (["enumerate-walls", "--table", TAB, "--base", "4,4",
                            "--bound", "4"], "--base"),
        "mark": (["render-cone", "--table", TAB, "--base", "4,4,-1", "--bound", "4",
                  "--mark", "1,1:M"], "--mark"),
        "cusp": (["render-cone", "--table", TAB, "--base", "4,4,-1", "--bound", "4",
                  "--cusp", "1,1"], "--cusp"),
        "class": (["classify", "--table", TAB, "--class", "4,0"], "--class"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_names_where_and_counts(self, tmp_path, capsys, case):
        files = {"point": {"point": ["2", "3/2"]}, "classes": {"C": [1, 0]},
                 "path": {"a": ["1", "1"], "b": ["1", "1", "-1/4"]}}
        names = {}
        for key, doc in files.items():
            names[key] = str(tmp_path / f"{key}.json")
            (tmp_path / f"{key}.json").write_text(json.dumps(doc))
        argv, where = self.CASES[case]
        argv = [a.format(**names) for a in argv]
        rc = main([argv[0], "--lattice", LAT, *argv[1:], "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        got = 4 if case == "to-inline" else 2
        assert err == f"hkcone: {where.format(**names)}: dimension mismatch: " \
                      f"expected 3 coordinates, got {got}\n"
