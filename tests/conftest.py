import os

# one BLAS thread, set before numpy loads: the acceptance lines printed
# in the terminal summary are then comparable across runs (with two
# threads criterion 2 moves at roundoff)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from dbarkit.bezout import PolyZZbar
from dbarkit.domains import Disk, build_mask


@pytest.fixture(scope="session")
def disk_mask_64():
    return build_mask(Disk(0j, 1.0), h=1 / 64)


@pytest.fixture
def poly_calls(monkeypatch):
    """One entry per PolyZZbar.__call__ made while the test runs."""
    calls = []
    call = PolyZZbar.__call__
    monkeypatch.setattr(PolyZZbar, "__call__",
                        lambda self, z: calls.append(1) or call(self, z))
    return calls


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)


class AcceptanceLog:
    """Collects one verdict line per acceptance criterion; the terminal
    summary hook prints them after the run, past output capture."""

    def __init__(self):
        self.lines = []

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        return ok


_ACCEPTANCE = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE.lines:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE.lines:
            terminalreporter.write_line(line)
