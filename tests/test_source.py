"""Checks over the package source itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vetoflow"


def package_trees() -> list[tuple[str, ast.Module]]:
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lp.py" in modules
    return [
        (str(path.relative_to(PACKAGE)),
         ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in modules
    ]


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so an invariant must raise
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library():
    # numpy, scipy and networkx serve the tests and benchmarks only
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {root}" for root in roots
                if root not in sys.stdlib_module_names and root != "vetoflow"
            ]
    assert found == []


def test_no_function_in_the_package_calls_itself():
    # a recursion depth that grows with the input lets a hostile instance
    # reach RecursionError; methods are matched through self and cls
    found = []
    for name, tree in package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                direct = isinstance(callee, ast.Name) and callee.id == fn.name
                method = (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                          and isinstance(callee.value, ast.Name)
                          and callee.value.id in ("self", "cls"))
                if direct or method:
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert found == []
