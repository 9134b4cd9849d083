"""The package and the CLI load a module only when something uses it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkcone
from hkcone import fixtures

# The public names of hkcone, by home module.
HOMES = {
    "errors": ["PreconditionError"],
    "lattice": ["DiscriminantGroup", "IntegralLattice", "lattice_from_dict", "load_lattice",
                "make_lattice", "mod_four_class"],
    "mbm": ["OrbitSignature", "SignatureTable", "classify", "dual_solve", "load_table",
            "primitive_rescale", "table_from_dict"],
    "cone": ["FlopFactorization", "WallCrossing", "enumerate_wall_classes", "factor_path",
             "factorization_report", "group_hu_yau"],
    "mukai": ["DualMukaiPoint", "MukaiPoint", "check_diagram", "flop", "flop_dual", "make_point",
              "proportional"],
    "symplectic": ["SymplecticSpace", "Subspace", "is_coisotropic", "is_isotropic",
                   "pullback_rank", "restriction_rank", "standard_space", "subspace",
                   "symplectic_space"],
    "torus": ["MarkedFiber", "TorusPoint", "covering_radius", "exact_point", "generators",
              "orbit", "real_point", "related", "sigma_image"],
    "render": ["DiskScene", "WallChord", "build_scene", "klein_coords", "render_svg"],
}
NAMES = sorted(name for names in HOMES.values() for name in names)

SRC = str(Path(hkcone.__file__).resolve().parent.parent)
FX = os.path.dirname(fixtures.fixture_path("k3_3_quartic.json"))
LATTICE = ["--lattice", f"{FX}/k3_3_quartic.json"]
TABLE = LATTICE + ["--table", f"{FX}/mbm.json"]
BASE = {"errors", "cli", "rational", "lattice", "linalg"}


def test_all_lists_the_public_names():
    assert len(NAMES) == 50
    assert sorted(hkcone.__all__) == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items() for n in names])
def test_each_name_is_its_home_modules(module, name):
    home = __import__(f"hkcone.{module}", fromlist=[name])
    assert getattr(hkcone, name) is getattr(home, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hkcone import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name():
    with pytest.raises(AttributeError, match="^module 'hkcone' has no attribute 'nope'$"):
        hkcone.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hkcone import nope", {})


def test_dir_lists_the_public_names():
    assert set(NAMES) <= set(dir(hkcone))


def loaded(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter on hkcone's sources; it prints JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_what_every_lattice_command_reads():
    got = loaded("import json, sys; import hkcone.cli; print(json.dumps(sorted("
                 "m for m in sys.modules if m.startswith('hkcone') or m == 'numpy')))")
    assert got == sorted({"hkcone"} | {f"hkcone.{m}" for m in BASE})


MAIN = """
import contextlib, io, json, sys
import hkcone.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = hkcone.cli.main(sys.argv[1:])
added = sorted(m for m in set(sys.modules) - before if m.startswith("hkcone") or m == "numpy")
print(json.dumps({"code": code, "added": added}))
"""

SIGMA = ["sigma-orbit", "--e0", "0,0", "--e1", "1/3,0", "--e2", "0,1/2", "--x", "0,0",
         "--depth", "5"]


def readme_commands(tmp):
    """The README's CLI examples, each with the modules it alone loads."""
    (tmp / "omega.json").write_text(json.dumps({"omega": [[0, 1], [-1, 0]]}))
    (tmp / "basis.json").write_text(json.dumps({"basis": [[1, 0]]}))
    return [
        (["classify", *TABLE, "--class", "4,0,-1"], {"mbm"}),
        (["dual-solve", *LATTICE, "--classes", f"{FX}/named_classes.json", "--pair", "C=1",
          "--pair", "F=3", "--pair", "eps=1"], {"mbm"}),
        (["enumerate-walls", *TABLE, "--base", "4,4,-1", "--bound", "2"], {"mbm", "cone"}),
        (["factor-path", *TABLE, "--from", f"{FX}/chamber1.json", "--to",
          f"{FX}/chamber4.json", "--bound", "8"], {"mbm", "cone"}),
        (["render-cone", *TABLE, "--base", "4,4,-1", "--bound", "15", "--cusp", "0,1,0",
          "--cusp", "1,1,-1"], {"mbm", "cone", "render"}),
        (["mukai-flop", "--k", "1", "--u", "1,0", "--phi", "0,1"], {"mukai"}),
        (["symp-rank", "--omega", str(tmp / "omega.json"), "--basis", str(tmp / "basis.json")],
         {"symplectic"}),
        (SIGMA, {"torus"}),
        (SIGMA + ["--real"], {"torus", "numpy"}),
    ]


def test_each_subcommand_loads_only_its_modules(tmp_path):
    for argv, modules in readme_commands(tmp_path):
        got = loaded(MAIN, *argv)
        want = sorted(m if m == "numpy" else f"hkcone.{m}" for m in modules)
        assert got == {"code": 0, "added": want}, argv


# Records derive from errors.Record, not dataclasses: `import dataclasses`
# and the inspect it loads cost every shell call several milliseconds.
STDLIB = """
import contextlib, io, json, sys
import hkcone.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = hkcone.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code, "loaded": sorted({"dataclasses", "inspect"} & set(sys.modules))}))
"""


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    assert loaded(STDLIB) == {"code": 0, "loaded": []}
    # numpy loads inspect itself, so sigma-orbit --real is held to dataclasses alone
    assert loaded("import json, sys, numpy; print(json.dumps('inspect' in sys.modules))")
    for argv, modules in readme_commands(tmp_path):
        got = loaded(STDLIB, *argv)
        held = {"dataclasses"} if "numpy" in modules else {"dataclasses", "inspect"}
        assert got["code"] == 0 and not held & set(got["loaded"]), argv
