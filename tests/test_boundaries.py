"""Boundary checks that no other test reaches, each pinned by its message."""

import json
import re

import pytest

from hkcone import cone, fixtures, linalg, mbm, mukai, render, symplectic
from hkcone.cli import main
from hkcone.errors import PreconditionError
from hkcone.lattice import IntegralLattice, make_lattice

QUARTIC = fixtures.quartic_lattice()
TABLE = fixtures.orbit_table()
ROW = {"name": "a", "square": -2, "divisibility": 1, "codimension": 1}


@pytest.mark.parametrize("call, message", [
    (lambda: cone.enumerate_wall_classes(QUARTIC, TABLE, (0, 0, 1), 2),
     "point must have positive square"),
    (lambda: IntegralLattice(gram=(), basis_names=()), "rank must be >= 1"),
    (lambda: linalg.solve([], []), "empty system"),
    (lambda: linalg.solve([[1, 0]], [1, 2]), "dimension mismatch"),
    (lambda: mbm.OrbitSignature(**{**ROW, "divisibility": 0}),
     "orbit 'a': divisibility and codimension must be positive"),
    (lambda: mbm.OrbitSignature(**{**ROW, "codimension": 0}),
     "orbit 'a': divisibility and codimension must be positive"),
    (lambda: mbm.dual_solve(QUARTIC, []), "no constraints"),
    (lambda: mbm.table_from_dict([ROW]), "signature-table document needs an 'orbits' list"),
    (lambda: mukai.proportional((0, 0), (1, 2)), "zero vector has no direction"),
    # signature (2, 1): a positive second entry
    (lambda: render.klein_coords(make_lattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), (1, 0, 0)),
     "diagonalization must be Lorentzian, positive entry first"),
    (lambda: symplectic.subspace(()), "subspace needs at least one basis vector"),
    (lambda: symplectic.pullback_rank(symplectic.symplectic_space([[0, 1], [-1, 0]]),
                                      [[1, 0], [0, 1], [0, 0]]),
     "map must land in the ambient space"),
])
def test_message(call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()


def test_rank_one_lattice_has_no_wall():
    # positive definite: no class has negative square
    table = mbm.table_from_dict({"orbits": [ROW]})
    assert cone.enumerate_wall_classes(make_lattice([[2]]), table, (1,), 2) == []


def test_classes_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([1, 2]))
    rc = main(["dual-solve", "--lattice", fixtures.fixture_path("k3_3_quartic.json"),
               "--classes", str(classes), "--pair", "C=1"])
    assert rc == 2
    assert capsys.readouterr().err == f"hkcone: {classes}: expected an object of named classes\n"
