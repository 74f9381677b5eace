"""dbarkit benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload corona_ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  The untraced run (--trace 0) measures
set-up time in fresh processes, then repeats passes of the workload
for about --seconds seconds and reports the end-to-end metrics; the
traced run (--trace 1) alternates untraced and traced passes and
reports the per-layer metrics of the median traced pass.  Every pass
checks its outputs.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and FFT threads: one, and recorded in the output.  scipy.fft
# already defaults to one worker; THREADS pins the BLAS behind numpy.
THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 3
WORKLOAD_NAMES = ("corona_ladder", "pompeiu_ladder", "probe_battery")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=20260817)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import dbarkit, build the inputs, print 'ready'")
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median over SETUP_RUNS fresh processes of the time from launch to
    'inputs built' (interpreter start, imports, input construction)."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe"],
                stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def outcome_key(results):
    """Everything a pass checked, as text (repr keeps NaN comparable)."""
    return [(label, repr(outcome)) for label, _, _, outcome in results]


def summarize(results, wall, finest):
    ops = [ok for _, _, _, outcome in results for ok, _ in outcome]
    return {"wall": wall,
            "finest": sum(r[2] for r in results if r[1] == finest),
            "attempted": len(ops), "failed": sum(1 for ok in ops if not ok)}


def report_failures(results):
    for label, _, _, outcome in results:
        for ok, values in outcome:
            if not ok:
                print(f"FAILED {label}: {str(values)[:300]}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dbarkit" / "__init__.py").is_file():
        print(f"no dbarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))

    if args.setup_probe:
        import workloads
        workloads.build_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    import workloads
    from tracer import PER_LAYER, Tracer, dump_spans
    inputs = workloads.build_inputs(args.workload, args.seed)
    finest = workloads.FINEST[args.workload]
    workdir = OUT / f"work-{os.getpid()}"

    def timed_pass():
        t0 = time.perf_counter()
        results = workloads.run_pass(args.workload, inputs, workdir)
        return results, time.perf_counter() - t0

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(timed_pass())
        if len(untraced) == 1:
            # later passes add allocator fragmentation, not work, so the
            # peak is read before the number of passes can matter
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            with Tracer("bench.pass") as tracer:
                traced.append(timed_pass())
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round / 2 >= args.seconds:
            break

    passes = untraced + traced
    stats = [summarize(r, wall, finest) for r, wall in passes]
    attempted = sum(s["attempted"] for s in stats)
    failed = sum(s["failed"] for s in stats)
    for results, _ in passes:
        report_failures(results)
    reference = outcome_key(passes[0][0])
    deterministic = all(outcome_key(r) == reference for r, _ in passes[1:])
    if not deterministic:
        print("checked outputs differ between passes", file=sys.stderr)
    correct = failed == 0 and deterministic

    walls = [s["wall"] for s in stats[:len(untraced)]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)}"
          f"{f' + {len(traced)} traced' if traced else ''}  "
          f"BLAS/FFT threads {THREADS}  nproc {os.cpu_count()}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g} "
          f"(operations failed / attempted)")
    if args.trace:
        layer = [t.layer_metrics() for t in tracers]
        order = sorted(range(len(layer)), key=lambda i: layer[i]["bench.wall_s"])
        chosen = layer[order[(len(order) - 1) // 2]]
        chosen["bench.overhead_s"] = (
            statistics.median(t["bench.wall_s"] for t in layer)
            - statistics.median(walls))
        OUT.mkdir(parents=True, exist_ok=True)
        dump_spans(tracers, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": chosen[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "finest_level_s": {
                "value": statistics.median(s["finest"] for s in stats),
                "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def pin_environment():
    """Set the thread count before numpy loads.  A fixed hash seed fixes
    set and dict order, and with it the allocation order that peak
    memory depends on (random seeds spread it by ~10%); it only takes
    effect at interpreter start, hence the re-exec."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
