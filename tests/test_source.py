"""Checks on the package source itself."""

import ast
from pathlib import Path

import hkcone

SRC = Path(hkcone.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so no check in the package may rest on one
    modules = sorted(SRC.rglob("*.py"))
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(modules) >= 10
    assert found == []
