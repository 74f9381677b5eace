"""Opt-in mutation check: every mutant below must fail its named tests.

Run by hand from anywhere in the repository:

    python tests/mutants.py

For each row of MUTANTS, src/ is copied to a temporary directory, the
row's snippet (which must occur exactly once in its file) is replaced,
and the row's tests run against the copy in one sequential pytest
subprocess.  A mutant survives when those tests pass.  Every named test
first runs once on an unmutated copy, where it must pass.  The script
names each survivor and exits 1 if any mutant survives (2 if the table
or the unmutated run is broken).  A survivor needs a test that kills it.

pytest does not collect this file, so the tier-1 suite is unchanged.
Reference: DeMillo, Lipton and Sayward, "Hints on test data selection",
Computer 11 (1978).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str         # path under src/
    snippet: str      # exact source text, present once in the file
    replacement: str
    tests: tuple      # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("sign of S's numerator", "dbarkit/expr.py",
           "S = exp(div(neg(add(1, Z)), sub(1, Z)))",
           "S = exp(div(add(1, Z), sub(1, Z)))",
           ("tests/test_expr.py::test_inner_function_is_its_closed_form",)),
    Mutant("b and d swapped in mobius", "dbarkit/expr.py",
           "return div(add(mul(a, arg), b), add(mul(c, arg), d))",
           "return div(add(mul(a, arg), d), add(mul(c, arg), b))",
           ("tests/test_expr.py::test_mobius_is_its_closed_form",)),
    Mutant("antisymmetric sign in _obstruction", "dbarkit/corona.py",
           "num = dbx[k] * np.conj(fv[j]) - dbx[j] * np.conj(fv[k])",
           "num = dbx[k] * np.conj(fv[j]) + dbx[j] * np.conj(fv[k])",
           ("tests/test_corona.py::test_koszul_entry_matches_hand_formula",)),
    Mutant("|D| >= 1/2 certificate", "dbarkit/bezout.py",
           "if dmin < 0.5:", "if dmin < 0.0:",
           ("tests/test_bezout.py::test_quotient_fits_refuses_a_small_denominator",)),
    Mutant("SCREEN_SLACK below 1", "dbarkit/bezout.py",
           "SCREEN_SLACK = 1 + 1e-9", "SCREEN_SLACK = 0.5",
           ("tests/test_bezout.py::test_screened_ladder_matches_full_node_ladder",)),
    Mutant("domination slack dropped", "dbarkit/division.py",
           "if (a > b + 1e-9 * max(slack_ref, 1.0)).any():",
           "if (a > b).any():",
           ("tests/test_corona.py::test_g12_singleton_is_principal_division",
            "tests/test_division.py::"
            "test_extension_power_seven_under_weak_domination")),
    Mutant("ring window without its + 2", "dbarkit/division.py",
           "math.ceil(max(radii) / h) + 2)", "math.ceil(max(radii) / h))",
           ("tests/test_division.py::"
            "test_windowed_rings_match_the_full_grid_rule",)),
]


def source_copy(tmp: str, mutant=None) -> Path:
    """src/ copied under tmp, with the mutant's substitution applied."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / mutant.file
        text = path.read_text()
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return src


def tests_pass(src: Path, tests) -> bool:
    """True when the tests pass against the package under src; one
    sequential pytest process, stopped at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / "src" / m.file).read_text().count(m.snippet)
        if count != 1:
            print(f"{m.name}: snippet occurs {count} times in {m.file}")
            return 2
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if not tests_pass(source_copy(tmp), named):
            print("the named tests fail on the unmutated source")
            return 2
    survivors = []
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            survived = tests_pass(source_copy(tmp, m), m.tests)
        print(f"{'SURVIVED' if survived else 'killed':8}  {m.name}")
        if survived:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: "
              + "; ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
