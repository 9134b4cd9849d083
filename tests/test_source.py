"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

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


def _bounded(call) -> bool:
    """True for a call lru_cache(maxsize=<int literal>), under any import name."""
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return any(isinstance(v, ast.Constant) and type(v.value) is int for v in sizes)


def _unbounded_caches(tree) -> list[int]:
    """Line numbers where ``cache`` or ``lru_cache`` is named other than as
    a call with an integer maxsize: a bare decorator, cache(f),
    lru_cache(maxsize=None)(f) or an alias all escape a bound."""
    bounded = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _bounded(node)}
    return [node.lineno for node in ast.walk(tree)
            if (node.attr if isinstance(node, ast.Attribute) else
                getattr(node, "id", None)) in ("cache", "lru_cache") and id(node) not in bounded]


def test_caches_are_bounded():
    # a cache without an integer maxsize grows for as long as the process lives
    found = [f"{path.relative_to(SRC)}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []


@pytest.mark.parametrize("source, lines", [
    ("@functools.lru_cache(maxsize=256)\ndef f(x):\n    return x\n", []),
    ("@lru_cache(64)\ndef f(x):\n    return x\n", []),
    ("g = functools.lru_cache(maxsize=8)(f)\n", []),
    ("from functools import cache, lru_cache\n", []),
    ("@functools.cache\ndef f(x):\n    return x\n", [1]),
    ("@functools.lru_cache\ndef f(x):\n    return x\n", [1]),
    ("@lru_cache(maxsize=None)\ndef f(x):\n    return x\n", [1]),
    ("g = functools.cache(f)\n", [1]),
    ("g = cache(f)\n", [1]),
    ("g = functools.lru_cache(maxsize=None)(f)\n", [1]),
    ("g = functools.lru_cache()(f)\n", [1]),
    ("memo = functools.lru_cache\ng = memo(maxsize=8)(f)\n", [1]),
])
def test_cache_check_sees_every_form(source, lines):
    assert _unbounded_caches(ast.parse(source)) == lines


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


def _named(tree) -> set[str]:
    """Names a module uses in code: Name and Attribute nodes and import
    aliases.  Strings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _caller_trees():
    """The package modules, then the acceptance criteria and the benchmark:
    the code whose calls keep a name, a method or a parameter alive."""
    root = SRC.parent.parent
    callers = [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
    assert len(callers) > 1
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in [*sorted(SRC.rglob("*.py")), *callers]}


def test_public_names_have_callers():
    # a public def or class is kept for the CLI, an acceptance criterion or
    # a benchmark op, directly or through the package; one that only unit
    # tests name is dead.  The bundled-data loaders in fixtures/ are
    # exempt: they serve the tests and the README's fixture_path example.
    trees = _caller_trees()
    used = set().union(*map(_named, trees.values()))
    found = [f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
             for path, tree in trees.items() if path.parent == SRC for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in used]
    assert found == []


def test_public_methods_have_callers():
    # a public method or property of a package class that no caller names
    # as an attribute is dead, like an uncalled public def
    trees = _caller_trees()
    used = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    found = [f"{path.relative_to(SRC)}:{node.lineno} {cls.name}.{node.name}"
             for path, tree in trees.items() if path.is_relative_to(SRC)
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("_") and node.name not in used]
    assert found == []


def _defaulted(func, method: bool):
    """(name, position) of each defaulted parameter of func; position is
    None for keyword-only ones and does not count self for a method."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and positional else 0
    first = len(positional) - len(args.defaults)
    return [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first] + \
        [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_defaulted_parameters_are_passed():
    # a parameter that every call leaves at its default is a setting
    # nobody sets: the default belongs in the body
    trees = _caller_trees()
    calls = {}  # callee name -> (most positional arguments, keywords)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else \
                    getattr(node.func, "id", None)
                most, keywords = calls.get(name, (0, set()))
                calls[name] = (max(most, len(node.args)),
                               keywords | {kw.arg for kw in node.keywords})
    found = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                most, keywords = calls.get(func.name, (0, set()))
                found += [f"{path.relative_to(SRC)}:{func.lineno} {func.name}({name})"
                          for name, pos in _defaulted(func, id(func) in methods)
                          if name not in keywords and (pos is None or pos >= most)]
    assert found == []
