"""The benchmark tracer patches dbarkit by name; every name it lists
must still resolve, or a rename would silently drop a layer from
`perfbench/run.py --trace 1`.  Its counters also read attributes of
arguments and results (`args[0].upper`, `result.probes`,
`result.inside`), so one small traced pass checks that they still
count."""

import importlib
import importlib.util
from pathlib import Path

from dbarkit import corona, division, geometry
from dbarkit.domains import Disk
from dbarkit.expr import Const, Z, conj, sub

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolves(home, name) -> bool:
    if "." in name:
        # methods are patched on the class that defines them
        cls_name, meth = name.split(".")
        return meth in vars(getattr(home, cls_name, object))
    return callable(getattr(home, name, None))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.TARGETS.items()
               for name in names
               if not _resolves(importlib.import_module(f"dbarkit.{layer}"), name)]
    assert missing == []


def test_traced_pass_counts():
    # called through the modules, so the calls go through the patches
    disk = Disk(0j, 1.0)
    with _load_tracer().Tracer("bench.pass") as tr:
        corona.corona_solve([sub(Const(1.0), Z), Z], disk, h=1 / 32)
        division.certify_class(Z, conj(Z), 3, disk, "C1", h=1 / 64)
        geometry.l_probe(disk, 1.0 + 0j, h=1 / 32)
    metrics = tr.layer_metrics()
    assert metrics["corona.dbar_entries"] == 1
    assert metrics["division.probes"] == 3
    assert metrics["geometry.calls"] == 1
