"""Checks over the package source itself."""

import ast
import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vetoflow"


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


def test_every_import_in_a_module_is_used():
    # an import nothing reads is dead code, and the benchmark's tracer must
    # find its bindings in the modules that call them, not in kept imports;
    # ``__init__`` imports to re-export
    found = []
    for name, tree in package_trees():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {bound}" for bound, line in imported.items()
                  if bound not in used]
    assert found == []


def test_only_the_matching_module_reads_a_cut_off_a_flow():
    # ``FlowNetwork.cut`` chooses between the subset-sum scan and Dinic; a
    # module that reads ``.solve()[1].cut()`` itself would bypass that choice
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if (name != "matching.py" and isinstance(node, ast.Attribute) and node.attr == "cut"
                    and isinstance(node.value, ast.Subscript)
                    and isinstance(node.value.value, ast.Call)
                    and isinstance(node.value.value.func, ast.Attribute)
                    and node.value.value.func.attr == "solve"):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_trace_target_exists():
    # the benchmark's tracer replaces these bindings by name; one that moved
    # or was renamed makes a traced run fail with "trace target ... is missing"
    path = ROOT / "bench" / "tracing.py"
    tracing = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracing))
    missing = []
    for _, owners, attr, _ in tracing.TARGETS:
        for owner in owners:
            if attr not in vars(importlib.import_module(f"vetoflow.{owner}")):
                missing.append(f"{owner}.{attr}")
    for _, owner, cls, attr, _ in tracing.METHOD_TARGETS:
        if attr not in vars(getattr(importlib.import_module(f"vetoflow.{owner}"), cls)):
            missing.append(f"{owner}.{cls}.{attr}")
    assert tracing.TARGETS and tracing.METHOD_TARGETS
    assert missing == []


def test_the_public_names_resolve_once_in_sorted_order():
    # a stale entry, such as a renamed class, fails ``from vetoflow import *``
    vetoflow = importlib.import_module("vetoflow")
    names = vetoflow.__all__
    assert [n for n in names if not hasattr(vetoflow, n)] == []
    assert len(names) == len(set(names))
    assert names == sorted(names)
