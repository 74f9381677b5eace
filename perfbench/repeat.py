"""Repeat the benchmark over seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads corona_ladder,probe_battery \
        --seeds 1-10 [--trace 0|1] [--seconds 25] [--json FILE]

Runs `perfbench/run.py` once per (workload, seed), one at a time, and
prints per metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  --json writes the
same summary, every run's values and the environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import THREADS  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"],
                  f"{result['failed']}/{result['attempted']}",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1,
                             "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
            print(f"  {workload} {name}: median {med:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] spread {metrics[name]['spread']:.4f}")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.json:
        environment = {"python": platform.python_version(),
                       "numpy": version("numpy"), "scipy": version("scipy"),
                       "nproc": os.cpu_count(), "blas_threads": int(THREADS),
                       "fft_workers": 1, "machine": platform.machine()}
        args.json.write_text(json.dumps(
            {"environment": environment, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
