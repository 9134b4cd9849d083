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


def _bounded(decorator) -> bool:
    """True for lru_cache(maxsize=<int literal>), under any import name."""
    if not isinstance(decorator, ast.Call):
        return False
    sizes = [kw.value for kw in decorator.keywords if kw.arg == "maxsize"] + decorator.args[:1]
    return any(isinstance(v, ast.Constant) and type(v.value) is int for v in sizes)


def test_caches_are_bounded():
    # a cache without an integer maxsize grows for as long as the process lives
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name in ("cache", "lru_cache") and not _bounded(dec):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_private_helpers_are_referenced():
    # an underscore helper that nothing in the package names is dead code
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    found = [f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.endswith("__")
             and node.name not in used]
    assert found == []
