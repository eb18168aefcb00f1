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


def test_no_private_name_is_imported_from_another_module():
    # a leading underscore keeps a format, such as the LP's tableau rows,
    # behind the module that owns it; the tests hold to that as well
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    trees = package_trees() + [(path.name, ast.parse(path.read_text(encoding="utf-8")))
                               for path in tests]
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "vetoflow":
                continue
            found += [
                f"{name}:{node.lineno} {alias.name}" for alias in node.names
                if alias.name.startswith("_")
                and not (alias.name.startswith("__") and alias.name.endswith("__"))
            ]
    assert found == []
