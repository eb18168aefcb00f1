"""The committed mutant list cannot rot silently: every old text still
occurs exactly once in its module, and every test it names exists.  The
mutants themselves run with ``python3 tests/mutants.py``."""

import re

from mutants import MUTANTS, ROOT, SRC


def test_each_mutant_rewrites_one_exact_text_that_its_named_tests_exist_for():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert (SRC / m.module).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node
