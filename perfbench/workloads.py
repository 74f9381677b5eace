"""The three benchmark workloads: inputs, passes and correctness checks.

A pass is a list of steps run one after another by one client.  Each
step makes one or more operations (a solve, a probe or a config run);
an operation fails if it raises or misses the tolerance that its
acceptance criterion states.  Tolerances are the shipped acceptance
contracts (tests/test_acceptance.py); residuals are recomputed here from
the returned fields and independently evaluated generators instead of
being read back from the solver.

corona_ladder and pompeiu_ladder are deterministic and ignore the seed.
probe_battery draws its 200 chain-rule trials and the seed of the
faa_verify config run from it.
"""

import configparser
import contextlib
import io
import math
import shutil
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
from scipy import ndimage

import dbarkit.cauchy as cauchy
import dbarkit.cli as cli
import dbarkit.corona as corona
import dbarkit.division as division
import dbarkit.domains as domains
import dbarkit.faa as faa
import dbarkit.geometry as geometry
from dbarkit.expr import Const, Z, add, conj, div, intpow, mul, sub

FINEST = {"corona_ladder": 1 / 128, "pompeiu_ladder": 1 / 512,
          "probe_battery": 1 / 512}
CORONA_LEVELS = (1 / 32, 1 / 64, 1 / 128)
ROUNDTRIP_LEVELS = (1 / 64, 1 / 128, 1 / 256, 1 / 512)
POU_LEVELS = (1 / 128, 1 / 256, 1 / 512)
POWER_LEVELS = (1 / 64, 1 / 128, 1 / 256)
CHAIN_TRIALS = 200


def margin(h):
    """Shrink margin of the acceptance ladders: 0.15 physical, >= 3 cells."""
    return max(3, int(round(0.15 / h)))


def slope(hs, values):
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


def residual(sol, fvals, target):
    """sup over Inside nodes of |sum_j u_j f_j - target|, from sol.u."""
    z = sol.mask.coords(sol.mask.inside)
    total = sum(u.values[sol.mask.inside] * f for u, f in zip(sol.u, fvals(z)))
    return float(np.abs(total - target(z)).max())


def shrunk(mask, cells):
    """Nodes at Chebyshev distance >= cells from the complement of Inside."""
    return ndimage.binary_erosion(mask.inside, structure=np.ones((3, 3), bool),
                                  iterations=cells, border_value=0)


# One timed step at grid spacing h (None: no grid); run() returns one
# (ok, values) pair for each of its ops operations.
Step = namedtuple("Step", "label h ops run")


# ---------------------------------------------------------- corona_ladder

def corona_inputs(seed):
    one = Const(1.0)
    return {
        "disk": domains.Disk(0j, 1.0),
        "pairs": [
            ("(1-z, z)", [sub(one, Z), Z], lambda z: [1 - z, z]),
            ("(z^2, (1-z)^2)", [intpow(Z, 2), intpow(sub(one, Z), 2)],
             lambda z: [z ** 2, (1 - z) ** 2]),
        ],
    }


def corona_steps(inp, workdir):
    steps = []
    for label, fs, fvals in inp["pairs"]:
        dbars = []

        def solve(h, fs=fs, fvals=fvals, dbars=dbars):
            sol = corona.corona_solve(fs, inp["disk"], h=h, margin=margin(h))
            res = residual(sol, fvals, np.ones_like)
            dbars.append(sol.dbar_sup)
            ok = res <= 1e-6
            if h == CORONA_LEVELS[-1]:
                ok &= slope(CORONA_LEVELS, dbars) >= 0.9
            return [(ok, (res, sol.dbar_sup))]

        for h in CORONA_LEVELS:
            steps.append(Step(f"corona poly {label} h={h:g}", h, 1,
                              lambda h=h, solve=solve: solve(h)))
    return steps


# --------------------------------------------------------- pompeiu_ladder

def pompeiu_inputs(seed):
    one = Const(1.0)
    fs = [intpow(Z, 2), intpow(Z, 3)]
    denom = add(one, mul(Z, conj(Z)))
    return {
        "disk": domains.Disk(0j, 1.0),
        # datum f, closed-form Cauchy transform of f on the unit disk
        "data": [("1", np.ones_like, np.conj),
                 ("conj(z)", np.conj, lambda z: np.conj(z) ** 2 / 2),
                 ("z conj(z)", lambda z: z * np.conj(z),
                  lambda z: z * np.conj(z) ** 2 / 2)],
        "quartic": [intpow(Z, 2), intpow(sub(one, Z), 2)],
        "quartic_vals": lambda z: [z ** 2, (1 - z) ** 2],
        "g": intpow(Z, 2),
        "fs": fs,
        "fs_vals": lambda z: [z ** 2, z ** 3],
        "xs": [div(one, denom), div(conj(Z), denom)],
        "hs": [conj(intpow(Z, 2)), conj(intpow(Z, 3))],
    }


def pompeiu_steps(inp, workdir):
    disk = inp["disk"]
    steps = []
    for label, f, closed in inp["data"]:
        devs = []

        def roundtrip(h, f=f, closed=closed, devs=devs):
            mask = domains.build_mask(disk, h=h)
            field = cauchy.sample_field(f, mask)
            u = cauchy.pompeiu(field)
            du = cauchy.dbar_fd(u)
            sel = shrunk(mask, margin(h))
            devs.append(float(np.abs(du.values - field.values)[sel].max()))
            z = mask.coords(mask.inside)
            closed_dev = float(np.abs(u.values[mask.inside] - closed(z)).max())
            ok = closed_dev <= 5 * h
            if h == ROUNDTRIP_LEVELS[-1]:
                ok &= slope(ROUNDTRIP_LEVELS, devs) >= 0.9
            return [(ok, (devs[-1], closed_dev))]

        for h in ROUNDTRIP_LEVELS:
            steps.append(Step(f"roundtrip {label} h={h:g}", h, 1,
                              lambda h=h, rt=roundtrip: rt(h)))

    pou_dbars = []

    def pou(h):
        sol = corona.corona_solve(inp["quartic"], disk, h=h, route="pou",
                                  margin=margin(h))
        res = residual(sol, inp["quartic_vals"], np.ones_like)
        pou_dbars.append(sol.dbar_sup)
        ok = res <= 1e-6
        if h == POU_LEVELS[-1]:
            ok &= slope(POU_LEVELS, pou_dbars) >= 0.9
        return [(ok, (res, sol.dbar_sup))]

    for h in POU_LEVELS:
        steps.append(Step(f"corona pou quartic h={h:g}", h, 1,
                          lambda h=h: pou(h)))

    g, fs = inp["g"], inp["fs"]
    powers = [
        ("g^5", 5, lambda h: corona.g_power_solve(
            g, fs, inp["xs"], disk, isolated_zeros=True, h=h, margin=margin(h))),
        ("g^12", 12, lambda h: corona.g12_solve(
            g, fs, inp["hs"], disk, h=h, margin=margin(h))),
    ]
    for label, power, solver in powers:
        dbars = []

        def weighted(h, power=power, solver=solver, dbars=dbars):
            sol = solver(h)
            res = residual(sol, inp["fs_vals"], lambda z: z ** (2 * power))
            dbars.append(sol.dbar_sup)
            ok = res <= 1e-5
            if h == POWER_LEVELS[-1]:
                ok &= sol.dbar_sup <= 1e-3 and slope(POWER_LEVELS, dbars) >= 0.9
            return [(ok, (res, sol.dbar_sup))]

        for h in POWER_LEVELS:
            steps.append(Step(f"{label} h={h:g}", h, 1,
                              lambda h=h, w=weighted: w(h)))
    return steps


# ---------------------------------------------------------- probe_battery

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def poly_deriv(coeffs, j, t):
    return sum(c * math.perm(k, j) * t ** (k - j)
               for k, c in enumerate(coeffs) if k >= j)


def probe_inputs(seed):
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(CHAIN_TRIALS):
        n = int(rng.integers(1, 13))
        fc = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        gc = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        x = complex(*rng.uniform(-1, 1, 2))
        gx = poly_deriv(gc, 0, x)
        trials.append({
            "n": n, "x": x,
            "f_derivs": [poly_deriv(fc, j, gx) for j in range(1, n + 1)],
            "g_derivs": [poly_deriv(gc, j, x) for j in range(1, n + 1)],
            "f": add(*[mul(Const(c), intpow(Z, k)) for k, c in enumerate(fc)]),
            "g": add(*[mul(Const(c), intpow(Z, k)) for k, c in enumerate(gc)]),
        })
    configs = []
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        text = path.read_text()
        cp.read_string(text)
        if cp.has_section("faa") and cp["faa"].get("verify") == "true":
            cp["run"]["seed"] = str(seed)
            buf = io.StringIO()
            cp.write(buf)
            text = buf.getvalue()
        # a config that names h = 1/512 runs at the finest spacing
        configs.append((path.name, cp["run"]["command"], text,
                        1 / 512 if "1/512" in text else None))
    one = Const(1.0)
    return {
        "disk": domains.Disk(0j, 1.0),
        "trials": trials,
        "configs": configs,
        "scan_cases": [("m=1 n=1", dict(m=1, n=1)), ("m=1 n=0", dict(m=1, n=0)),
                       ("mixed (0,1)", dict(m=1, n=1, mixed=(0, 1)))],
        "square": intpow(Z, 2),
        "pair": [Z, sub(one, Z)],
        "conj": [conj(Z)],
        "taylor_fits": [(add(intpow(Z, 2), mul(Const(2.0), Z), Const(3.0)), 0.5 + 0j),
                        (add(one, div(one, sub(Const(2.0), Z))), 0j)],
    }


def probe_steps(inp, workdir):
    disk = inp["disk"]
    steps = []

    def battery():
        items = cli.sharpness_battery()
        if len(items) != 6:
            raise ValueError(f"battery has {len(items)} items, not 6")
        return [(item["verdict_at_power"] == division.PASS
                 and item["verdict_below"] == division.FAIL,
                 (item["measured_at_power"], item["measured_below"]))
                for item in items]

    steps.append(Step("sharpness battery", 1 / 512, 6, battery))

    for label, kw in inp["scan_cases"]:
        def scan(kw=kw):
            rep = division.derivative_bound_scan(
                inp["square"], Z, kw["m"], kw["n"], disk, mixed=kw.get("mixed"))
            ratio = rep["C"][-1] / rep["C"][0]
            return [(bool(np.all(np.isfinite(rep["C"]))) and 0.5 <= ratio <= 2.0,
                     tuple(rep["C"]))]
        steps.append(Step(f"derivative bounds {label}", 1 / 128, 1, scan))

    def cont():
        _, rep = division.multi_division_continuous(Z, inp["pair"], disk)
        return [(rep["q_sup"] <= rep["n"] + 1e-6
                 and rep["residual_off_zero"] <= 1e-10,
                 (rep["q_sup"], rep["residual_off_zero"]))]

    def c1(power):
        _, rep = division.multi_division_c1(Z, inp["conj"], disk, power=power)
        if power == 3:
            ok = rep["gradient_bounded"] and rep["residual_off_zero"] <= 1e-10
        else:
            ok = not rep["gradient_bounded"]
        return [(bool(ok), (rep["residual_off_zero"], rep["growth_toward_zero"]))]

    steps.append(Step("multi-division continuous", 1 / 128, 1, cont))
    steps.append(Step("multi-division C1 power 3", 1 / 128, 1, lambda: c1(3)))
    steps.append(Step("multi-division C1 power 2", 1 / 128, 1, lambda: c1(2)))

    def lprobe(h):
        rep = geometry.l_probe(disk, 1.0 + 0j, h=h)
        return [(rep.verdict == geometry.BOUNDED, rep.max_ratios)]

    def spiral(nodes):
        rep = geometry.spiral_growth_probe(nodes=nodes)
        return [(rep.verdict == geometry.GROWING, rep.max_ratios)]

    for h in (1 / 64, 1 / 128):
        steps.append(Step(f"L-probe disk h={h:g}", h, 1, lambda h=h: lprobe(h)))
    for nodes in (256, 224):
        steps.append(Step(f"spiral probe nodes={nodes}", None, 1,
                          lambda n=nodes: spiral(n)))

    def quotients():
        rows = geometry.disk_chain_quotient_demo(8)
        ok = (all(r["quotient"] == math.sqrt(r["n"]) for r in rows)
              and [r["n"] for r in rows] == list(range(3, 11)))
        return [(ok, tuple(r["quotient"] for r in rows))]

    steps.append(Step("disk-chain quotients", None, 1, quotients))
    for number, (f, z0) in enumerate(inp["taylor_fits"]):
        def fit(f=f, z0=z0):
            rep = geometry.taylor_remainder_fit(f, z0, 2, disk)
            return [(bool(all(rep["passes"])), tuple(map(float, rep["slope"])))]
        steps.append(Step(f"Taylor remainder fit {number}", None, 1, fit))

    bodies = {}
    for name, command, text, h in inp["configs"]:
        for rerun in (0, 1):
            def config_run(name=name, command=command, text=text, rerun=rerun):
                out = workdir / f"run{rerun}" / Path(name).stem
                ini = out.with_suffix(".ini")
                out.parent.mkdir(parents=True, exist_ok=True)
                ini.write_text(text)
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = cli.main([command, "--config", str(ini),
                                     "--out", str(out)])
                body = (out / f"{command}.csv").read_bytes().split(b"\n", 1)[1]
                if rerun == 0:
                    bodies[name] = body
                ok = code == 0 and body == bodies[name]
                return [(ok, (code, body))]
            steps.append(Step(f"config {name} run {rerun + 1}", h, 1, config_run))

    # The seeded steps run last, so that the heap they leave behind
    # cannot move the peak memory of the config runs before them.
    for number, trial in enumerate(inp["trials"]):
        def chain(t=trial):
            via_table = faa.compose_derivative(t["f_derivs"], t["g_derivs"], t["n"])
            via_taylor = faa.taylor_oracle(t["f"], t["g"], t["x"], t["n"])
            rel = abs(via_table - via_taylor) / max(1.0, abs(via_taylor))
            return [(rel <= 1e-10, (via_table, via_taylor))]
        steps.append(Step(f"chain rule trial {number}", None, 1, chain))

    def tables():
        bells = [faa.CoefficientTable.build(n).total() for n in (4, 5)]
        counts = [len(faa.enumerate_multi_indices(n)) for n in range(1, 13)]
        ok = bells == [15, 52] and counts == [1, 2, 3, 5, 7, 11, 15, 22, 30,
                                              42, 56, 77]
        return [(ok, tuple(bells + counts))]

    steps.append(Step("Bell numbers and partition counts", None, 1, tables))
    return steps


WORKLOADS = {
    "corona_ladder": (corona_inputs, corona_steps),
    "pompeiu_ladder": (pompeiu_inputs, pompeiu_steps),
    "probe_battery": (probe_inputs, probe_steps),
}


def build_inputs(workload, seed):
    return WORKLOADS[workload][0](seed)


def run_pass(workload, inputs, workdir):
    """One pass.  Returns [(label, h, seconds, [(ok, values), ...])]; an
    operation that raises is recorded as (False, repr of the error)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results = []
    try:
        for step in WORKLOADS[workload][1](inputs, workdir):
            t0 = time.perf_counter()
            try:
                outcome = step.run()
            except Exception as err:  # a failed operation, counted below
                outcome = [(False, repr(err))] * step.ops
            results.append((step.label, step.h, time.perf_counter() - t0,
                            outcome))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results
