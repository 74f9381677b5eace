"""Traced memory peaks of the Pompeiu and division stages at one spacing.

Run by hand from the repository root, with dbarkit importable (an
editable install, or PYTHONPATH=src):

    python tests/peak_memory.py [N]

prints, for h = 1/N (default N = 256) on the unit disk, the tracemalloc
peak of each stage in MB: the kernel spectrum's build (its cache
cleared first), pompeiu on the sampled constant 1, the pou-route and
poly-route corona_solve on (z^2, (1-z)^2), g_power_solve (g^5) and
g12_solve (g^12) on (z^2, z^3) with g = z^2, with the benchmark's
inputs, one DivisionProblem of z^N/conj(z) with its C1
certificates at N = 3 and 2, as the sharpness battery makes them, and
sample_field of (1 - z)^4.
Each solve runs on a warm kernel cache, so its peak is the solve's
own; a stage's inputs (the mask too) are made before its trace
starts.  Margins follow the acceptance ladders: max(3, round(0.15 / h))
cells.  pytest does not
collect this file; tests/test_peak_memory.py runs it on a small grid
and checks the bounds at h = 1/256.
"""

import sys
import tracemalloc

from dbarkit import cauchy, corona, division
from dbarkit.domains import Disk, build_mask
from dbarkit.expr import Const, Z, add, conj, div, intpow, mul, sub

DISK = Disk(0j, 1.0)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stages(h: float) -> list:
    """(stage name, call) for each stage at spacing h, inputs made.

    Run in order: the first call clears the kernel cache and builds
    the spectrum that the solves after it reuse."""
    margin = max(3, int(round(0.15 / h)))
    mask = build_mask(DISK, h=h)
    grid = mask.grid
    field = cauchy.sample_field(Const(1.0), mask)
    one = Const(1.0)
    denom = add(one, mul(Z, conj(Z)))
    quartic = [intpow(Z, 2), intpow(sub(one, Z), 2)]
    g, fs = intpow(Z, 2), [intpow(Z, 2), intpow(Z, 3)]
    xs = [div(one, denom), div(conj(Z), denom)]
    quartic_power = intpow(sub(one, Z), 4)
    hs = [conj(intpow(Z, 2)), conj(intpow(Z, 3))]

    def build():
        cauchy._kernel_spectrum.cache_clear()
        cauchy._kernel_spectrum(grid.ny, grid.nx, h)

    def divide_c1():
        record = division.DivisionProblem.build(Z, conj(Z), mask=mask)
        record.certify(3, "C1")
        record.certify(2, "C1")

    return [
        ("kernel build", build),
        ("pompeiu", lambda: cauchy.pompeiu(field)),
        ("pou corona_solve", lambda: corona.corona_solve(
            quartic, DISK, h=h, route="pou", margin=margin, mask=mask)),
        ("poly corona_solve", lambda: corona.corona_solve(
            quartic, DISK, h=h, route="poly", margin=margin, mask=mask)),
        ("g^5 g_power_solve", lambda: corona.g_power_solve(
            g, fs, xs, DISK, h=h, margin=margin, mask=mask)),
        ("g^12 g12_solve", lambda: corona.g12_solve(
            g, fs, hs, DISK, h=h, margin=margin, mask=mask)),
        ("divide C1", divide_c1),
        ("sample_field", lambda: cauchy.sample_field(quartic_power, mask)),
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    n = int(argv[0]) if argv else 256
    print(f"h = 1/{n}")
    for name, call in stages(1 / n):
        print(f"{name:20} {traced_peak(call) / 1e6:8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
