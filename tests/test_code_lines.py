"""The code-line rule of tests/code_lines.py, checked on a small source."""

import importlib.util
from pathlib import Path

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line


def f(x):
    """Function docstring."""
    # a comment line

    y = (x +
         1)
    s = """a string that is
not a docstring"""
    return y, s


class C:
    """Class docstring,
    on two lines."""
    a = 1
'''


def _code_lines():
    path = Path(__file__).with_name("code_lines.py")
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, def, the two lines of y, the two of s, return, class, a
    assert _code_lines().code_lines(SOURCE) == 9


def test_code_lines_counts_the_package(capsys):
    assert _code_lines().main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split()[0] == "total"
    assert int(rows[-1].split()[1]) == sum(int(r.split()[1])
                                           for r in rows[:-1])
