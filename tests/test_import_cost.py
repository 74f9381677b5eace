"""Importing the package stays cheap: the FFT comes from scipy.fft, and
scipy.signal, whose import alone cost about as much as all the rest of
the package's, is never loaded; nor are mpmath and sympy, which only
the tests use as oracles."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after_import(modules) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys, dbarkit, dbarkit.cli; "
            f"print([m for m in {list(modules)!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


def test_import_does_not_load_scipy_signal():
    assert _loaded_after_import(["scipy.signal"]) == "[]"


def test_import_does_not_load_the_test_oracles():
    assert _loaded_after_import(["mpmath", "sympy"]) == "[]"
