"""Traced memory peaks of the Pompeiu and division stages
(tests/peak_memory.py).

At h = 1/256 the bounds hold with room: the kernel spectrum's build
traces 12.1 MB, pompeiu 11.2 MB and the pou-route corona_solve 36.4 MB.
The full-period lattice, with its (py, px) work array and full cached
spectrum, traced 36.4, 26.6 and 52.4 MB; pompeiu traced 17.5 MB while
it held its masked copy of the field through the whole convolution,
and 13.2 MB while its result was a second array beside the (py, nx)
work array.  The pou-route corona_solve traced 39.7 MB while the
obstruction, the assembly, the skew contraction and the residual
formed full-grid products and the dbar sups differenced the whole
grid.  g_power_solve (g^5) and g12_solve (g^12) trace 49.7 MB; they
traced 56.3 MB before those strips, and 61.9 and 77.7 MB while they
held their set-up arrays (sum x_j f_j; the sampled h_j, sum h_j f_j
and the division's k) through the correction.  The poly-route corona_solve on the quartic pair traces
83.7 MB; it traced 237.9 MB while the fit ladder held one degree-16
power table over every Inside node, and its conjugate.  The division
record of z^N/conj(z) with its C1 certificates at N = 3 and 2 traces
13.1 MB; it traced 19.6 MB while it sampled f and g as full-grid
fields, scattered f^N/g to the grid for its sup and kept the away
nodes' coordinates.  sample_field of (1 - z)^4 traces 9.5 MB in node
blocks; it traced 14.2 MB while it evaluated every Inside node in one
call, on one coordinate array.
"""

import importlib.util
from pathlib import Path


def _probe():
    path = Path(__file__).with_name("peak_memory.py")
    spec = importlib.util.spec_from_file_location("peak_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_prints_every_stage(capsys):
    assert _probe().main(["16"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "h = 1/16"
    assert [r[:20].strip() for r in rows[1:]] == [
        "kernel build", "pompeiu", "pou corona_solve", "poly corona_solve",
        "g^5 g_power_solve", "g^12 g12_solve", "divide C1", "sample_field"]
    assert all(float(r.split()[-2]) > 0 for r in rows[1:])


def test_pompeiu_stages_stay_under_their_bounds_at_h_1_256():
    probe = _probe()
    peaks = {name: probe.traced_peak(call)
             for name, call in probe.stages(1 / 256)}
    bounds = {"kernel build": 25e6, "pompeiu": 15.5e6, "pou corona_solve": 40e6,
              "poly corona_solve": 110e6, "g^5 g_power_solve": 60e6,
              "g^12 g12_solve": 65e6, "divide C1": 16e6,
              "sample_field": 12e6}
    assert {name: peak for name, peak in peaks.items()
            if peak >= bounds[name]} == {}
