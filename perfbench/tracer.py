"""Outside-in tracer: spans around the public functions of each dbarkit
module, installed by patching module attributes from the benchmark's
own code.  Nothing under src/ changes.

A wrapped function records one span [name, start, end, parent index]
per outermost call.  A call made while a function of the same re-entry
group is already open (the recursive and mutually recursive Wirtinger
rules, the Faa di Bruno enumeration) runs unwrapped inside the open
span.  Spans stay in memory; the caller writes them out once, at the
end of the run.
"""

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Traced functions per layer.  Expression constructors (add, mul, ...)
# and small helpers are left out on purpose: the symbolic rules call
# them millions of times, and their cost is charged to the caller.
TARGETS = {
    "domains": ["build_mask", "connected_components", "interior_shrunk",
                "dump_mask", "load_mask"],
    "expr": ["ComplexExpr.eval", "evaluate", "wirtinger_d", "wirtinger_dbar",
             "parse_expr", "directional_limit_probe"],
    "cauchy": ["sample_field", "exact_cell_integral", "fftconvolve",
               "pompeiu", "dbar_fd", "d_fd", "dbar_fd_onesided",
               "verify_dbar_solution", "dbar_convergence"],
    "bezout": ["PolyZZbar.__call__", "q_fields", "weierstrass_fit",
               "bezout_poly", "partition_of_unity", "bezout_pou",
               "generalized_division"],
    "corona": ["koszul_F", "solve_dbar_matrix", "corona_solve",
               "corona_convergence", "g_power_solve", "g12_solve",
               "koszul_cancellation"],
    "division": ["divide", "certify_class", "derivative_bound_scan",
                 "multi_division_continuous", "multi_division_c1",
                 "quotient_extension_lemma"],
    "faa": ["enumerate_multi_indices", "coefficient", "compose_derivative",
            "taylor_expand", "taylor_oracle"],
    "geometry": ["interior_shortest_path", "l_probe", "spiral_growth_probe",
                 "taylor_remainder_fit", "disk_chain_quotient_demo"],
    "cli": ["main", "run", "refinement_study", "sharpness_battery"],
}
LAYERS = tuple(TARGETS) + ("bench",)
REENTRY_GROUP = {"expr.wirtinger_d": "expr.wirtinger",
                 "expr.wirtinger_dbar": "expr.wirtinger"}

# every per-layer metric, in report order; every workload reports all
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("domains.calls", "count"), ("domains.nodes", "count"),
       ("expr.eval_calls", "count"), ("expr.eval_points", "count"),
       ("expr.eval_tree_nodes", "count"), ("expr.derive_calls", "count"),
       ("cauchy.sample_s", "s"), ("cauchy.pompeiu_s", "s"),
       ("cauchy.kernel_s", "s"), ("cauchy.kernel_cells", "count"),
       ("cauchy.fft_s", "s"), ("cauchy.fft_calls", "count"),
       ("cauchy.fd_s", "s"),
       ("bezout.fit_s", "s"), ("bezout.fit_calls", "count"),
       ("bezout.poly_eval_s", "s"), ("bezout.poly_eval_points", "count"),
       ("corona.koszul_s", "s"), ("corona.dbar_entries", "count"),
       ("division.certify_calls", "count"), ("division.probes", "count"),
       ("geometry.calls", "count"), ("faa.calls", "count"),
       ("cli.runs", "count"), ("cli.csv_bytes", "count"),
       ("bench.wall_s", "s"), ("bench.overhead_s", "s")])

# inclusive span time summed over these functions
INCLUSIVE = {
    "cauchy.sample_s": ("cauchy.sample_field",),
    "cauchy.pompeiu_s": ("cauchy.pompeiu",),
    "cauchy.kernel_s": ("cauchy.exact_cell_integral",),
    "cauchy.fft_s": ("cauchy.fftconvolve",),
    "cauchy.fd_s": ("cauchy.dbar_fd", "cauchy.d_fd", "cauchy.dbar_fd_onesided"),
    "bezout.fit_s": ("bezout.weierstrass_fit",),
    "bezout.poly_eval_s": ("bezout.PolyZZbar.__call__",),
    "corona.koszul_s": ("corona.koszul_F",),
}

# span counts summed over these functions
CALLS = {
    "expr.eval_calls": ("expr.ComplexExpr.eval",),
    "expr.derive_calls": ("expr.wirtinger_d", "expr.wirtinger_dbar"),
    "cauchy.fft_calls": ("cauchy.fftconvolve",),
    "bezout.fit_calls": ("bezout.weierstrass_fit",),
    "division.certify_calls": ("division.certify_class",),
    "cli.runs": ("cli.run",),
}


def _tree_size(node, memo):
    """Nodes one evaluation visits; a shared subtree counts once per use."""
    key = id(node)
    if key not in memo:
        size = 1
        for name in ("arg", "num", "den", "base"):
            child = getattr(node, name, None)
            if child is not None:
                size += _tree_size(child, memo)
        for name in ("terms", "factors"):
            for child in getattr(node, name, ()):
                size += _tree_size(child, memo)
        memo[key] = size
    return memo[key]


def _csv_size(argv) -> int:
    """Bytes of the CSV that `dbarkit.cli.main(argv)` wrote."""
    argv = list(argv)
    if "--out" not in argv:
        return 0
    path = Path(argv[argv.index("--out") + 1]) / f"{argv[0]}.csv"
    return path.stat().st_size if path.is_file() else 0


class Tracer:
    """Spans and counts of one traced pass; patches dbarkit while entered."""

    def __init__(self, root: str):
        self.spans = [[root, 0.0, 0.0, -1]]
        self.counts = defaultdict(int)
        self._stack = [0]
        self._open = defaultdict(int)
        self._patches = []
        # tree sizes by node id; the evaluated roots are pinned so that
        # no memoized id is reused by a later tree
        self._sizes = {}
        self._pins = []

    def _count(self, qual, args, result):
        if qual == "expr.ComplexExpr.eval":
            self.counts["expr.eval_points"] += int(np.size(args[1]))
            if id(args[0]) not in self._sizes:
                self._pins.append(args[0])
            self.counts["expr.eval_tree_nodes"] += _tree_size(args[0], self._sizes)
        elif qual == "bezout.PolyZZbar.__call__":
            self.counts["bezout.poly_eval_points"] += int(np.size(args[1]))
        elif qual == "cauchy.exact_cell_integral":
            self.counts["cauchy.kernel_cells"] += int(np.size(args[0]))
        elif qual == "domains.build_mask":
            self.counts["domains.nodes"] += int(result.inside.size)
        elif qual == "corona.solve_dbar_matrix":
            self.counts["corona.dbar_entries"] += len(args[0].upper)
        elif qual == "division.certify_class":
            self.counts["division.probes"] += len(result.probes)
        elif qual == "cli.main":
            self.counts["cli.csv_bytes"] += _csv_size(args[0])

    def _wrap(self, qual, fn):
        spans, stack, opened = self.spans, self._stack, self._open
        group = REENTRY_GROUP.get(qual, qual)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if opened[group]:
                return fn(*args, **kwargs)
            opened[group] += 1
            span = [qual, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                opened[group] -= 1
            self._count(qual, args, result)
            return result

        return traced

    def __enter__(self):
        """Wrap every target under every name a dbarkit module binds it
        to, then open the root span."""
        for layer in TARGETS:
            __import__(f"dbarkit.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if name == "dbarkit" or name.startswith("dbarkit.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"dbarkit.{layer}"]
            for name in names:
                qual = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patches.append((cls, meth, cls.__dict__[meth]))
                    setattr(cls, meth, self._wrap(qual, cls.__dict__[meth]))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(qual, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        self.spans[0][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.spans[0][2] = time.perf_counter()
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._sizes.clear()
        self._pins.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this pass.  A span's self time is its
        duration minus its children's, so the self times of all layers
        add up to the root span, bench.wall_s."""
        spans = self.spans
        child_time = defaultdict(float)
        for qual, start, end, parent in spans[1:]:
            child_time[parent] += end - start
        out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
        incl = defaultdict(float)
        calls = defaultdict(int)
        for index, (qual, start, end, _) in enumerate(spans):
            layer = qual.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start) - child_time[index]
            incl[qual] += end - start
            calls[qual] += 1
            if f"{layer}.calls" in out:
                out[f"{layer}.calls"] += 1
        for metric, quals in INCLUSIVE.items():
            out[metric] = sum(incl[q] for q in quals)
        for metric, quals in CALLS.items():
            out[metric] = sum(calls[q] for q in quals)
        out.update(self.counts)
        out["bench.wall_s"] = spans[0][2] - spans[0][1]
        return out


def dump_spans(tracers, path):
    """Write every span of every traced pass as one JSON line:
    pass, name, start, end, parent index within the pass."""
    with open(path, "w") as fh:
        for number, tracer in enumerate(tracers):
            for qual, start, end, parent in tracer.spans:
                fh.write(json.dumps([number, qual, start, end, parent]) + "\n")
