"""The benchmark tracer patches dbarkit by name; every name it lists
must still resolve, or a rename would silently drop a layer from
`perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolves(home, name) -> bool:
    if "." in name:
        # methods are patched on the class that defines them
        cls_name, meth = name.split(".")
        return meth in vars(getattr(home, cls_name, object))
    return callable(getattr(home, name, None))


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TARGETS.items()
               for name in names
               if not _resolves(importlib.import_module(f"dbarkit.{layer}"), name)]
    assert missing == []
