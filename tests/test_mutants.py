"""The opt-in mutation table stays applicable to the source tree.

tests/mutants.py runs its mutants by hand; here only its table is
checked, so a refactor that moves a snippet or renames a test shows in
the suite instead of in the next manual run.
"""

import importlib.util
from pathlib import Path


def _mutants():
    path = Path(__file__).with_name("mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_row_applies():
    mutants = _mutants()
    assert mutants.MUTANTS
    assert mutants.table_errors() == []


def test_a_broken_row_is_reported():
    mutants = _mutants()
    good = mutants.MUTANTS[0]
    mutants.MUTANTS[:] = [
        good._replace(snippet="no such source text"),
        good._replace(tests=(good.tests[0] + "_renamed",
                             "tests/no_such_file.py::test_x")),
    ]
    errors = mutants.table_errors()
    assert len(errors) == 3
    assert "occurs 0 times" in errors[0]
    assert all("no test" in e for e in errors[1:])
