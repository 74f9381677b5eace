"""Importing the package stays cheap: the FFT comes from scipy.fft, and
scipy.signal, whose import alone cost about as much as all the rest of
the package's, is never loaded."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_signal():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys, dbarkit, dbarkit.cli; "
            "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
