"""Checks over the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vetoflow"


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so an invariant must raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lp.py" in modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
