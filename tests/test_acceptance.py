"""The nine shipped acceptance checks.

Each test exercises one contract end to end at its stated tolerance and
records a single PASS/FAIL line that the terminal-summary hook prints
after the run.  Tolerances here are the shipped contracts, not the
tighter frozen values of the per-module suites; measured numbers ride
along in the printed detail.
"""

import math

import numpy as np

from dbarkit.bezout import BezoutProblem, bezout_poly, bezout_pou
from dbarkit.cauchy import (dbar_convergence, pompeiu, refinement_ladder,
                            sample_field)
from dbarkit.cli import sharpness_battery
from dbarkit.corona import corona_solve, g12_solve, g_power_solve
from dbarkit.division import (FAIL, PASS, derivative_bound_scan,
                              multi_division_c1, multi_division_continuous)
from dbarkit.domains import Disk, build_mask
from dbarkit.expr import (Z, Const, add, as_callable, conj, const, div,
                          intpow, mul, sub)
from dbarkit.faa import (CoefficientTable, compose_derivative,
                         enumerate_multi_indices, taylor_oracle)
from dbarkit.geometry import (BOUNDED, GROWING, disk_chain_quotient_demo,
                              l_probe, spiral_growth_probe,
                              taylor_remainder_fit)

DISK = Disk(0j, 1.0)
LADDER = (1 / 64, 1 / 128, 1 / 256)


def corona_ladder(solver):
    def solve(h, margin):
        sol = solver(h, margin)
        return {"dbar_sup": sol.dbar_sup, "residual_sup": sol.residual_sup,
                "skew": sol.skew_residual}

    lad = refinement_ladder(solve, LADDER)
    return lad["dbar_sup"], lad["residual_sup"], lad["skew"], lad["slope"]


def test_criterion_1_dbar_solver(acceptance_log):
    slopes = {}
    for name, f in [("1", lambda z: np.ones_like(z)),
                    ("conj(z)", np.conj),
                    ("z conj(z)", lambda z: z * np.conj(z))]:
        slopes[name] = dbar_convergence(f, DISK, hs=LADDER)["slope"]

    m = build_mask(DISK, h=1 / 128)
    zg = m.grid.zgrid()
    u1 = pompeiu(sample_field(lambda z: np.ones_like(z), m))
    dev1 = np.abs(u1.values - np.conj(zg))[m.inside].max()
    u2 = pompeiu(sample_field(np.conj, m))
    dev2 = np.abs(u2.values - np.conj(zg) ** 2 / 2)[m.inside].max()
    cap = 5 * m.grid.h

    ok = (all(s >= 0.9 for s in slopes.values())
          and dev1 <= cap and dev2 <= cap)
    acceptance_log.record(
        "criterion 1 (dbar solver)", ok,
        f"slopes {', '.join(f'{k} {v:.2f}' for k, v in slopes.items())}; "
        f"closed-form devs {dev1:.2e}, {dev2:.2e} vs 5h = {cap:.2e}")
    assert all(s >= 0.9 for s in slopes.values())
    assert dev1 <= cap and dev2 <= cap


def test_criterion_2_corona_pipeline(acceptance_log):
    pairs = {
        "(1-z, z)": [sub(Const(1.0), Z), Z],
        "(z^2, (1-z)^2)": [intpow(Z, 2), intpow(sub(Const(1.0), Z), 2)],
    }
    details, ok = [], True
    for label, fs in pairs.items():
        dbar, res, skew, slope = corona_ladder(
            lambda h, mg: corona_solve(fs, DISK, h=h, margin=mg))
        ok &= (res[-1] <= 1e-6 and dbar[-1] <= 1e-3 and slope >= 0.9
               and max(skew) <= 1e-12)
        details.append(f"{label}: res {res[-1]:.1e}, dbar {dbar[-1]:.1e}, "
                       f"slope {slope:.2f}, skew {max(skew):.1e}")
        assert res[-1] <= 1e-6
        assert dbar[-1] <= 1e-3
        assert slope >= 0.9
        assert max(skew) <= 1e-12
    acceptance_log.record("criterion 2 (corona pipeline)", ok,
                          "; ".join(details))


def test_criterion_3_power_pipelines(acceptance_log):
    fs = [intpow(Z, 2), intpow(Z, 3)]
    denom = add(Const(1.0), mul(Z, conj(Z)))
    xs = [div(Const(1.0), denom), div(conj(Z), denom)]
    hs = [conj(intpow(Z, 2)), conj(intpow(Z, 3))]
    runs = {
        "g^5 -> z^10": lambda h, mg: g_power_solve(
            intpow(Z, 2), fs, xs, DISK, isolated_zeros=True, h=h, margin=mg),
        "g^12 -> z^24": lambda h, mg: g12_solve(
            intpow(Z, 2), fs, hs, DISK, h=h, margin=mg),
    }
    details, ok = [], True
    for label, solver in runs.items():
        dbar, res, _, slope = corona_ladder(solver)
        ok &= res[-1] <= 1e-5 and dbar[-1] <= 1e-3 and slope >= 0.9
        details.append(f"{label}: res {res[-1]:.1e}, dbar {dbar[-1]:.1e}, "
                       f"slope {slope:.2f}")
        assert res[-1] <= 1e-5
        assert dbar[-1] <= 1e-3
        assert slope >= 0.9
    acceptance_log.record("criterion 3 (power targets)", ok,
                          "; ".join(details))


def test_criterion_4_bezout_routes(acceptance_log):
    pairs = {
        "(z, 1-z)": [Z, sub(Const(1.0), Z)],
        "(z^2, (1-z)^2)": [intpow(Z, 2), intpow(sub(Const(1.0), Z), 2)],
    }
    details, ok = [], True
    for label, fs in pairs.items():
        p = BezoutProblem.build(DISK, fs, h=1 / 64)
        z = p.mask.coords(p.mask.inside)

        xs = bezout_poly(p)
        total = sum(as_callable(x)(z) * as_callable(f)(z)
                    for x, f in zip(xs, p.f_list))
        res_poly = np.abs(total - 1).max()
        floor = np.abs(as_callable(xs[0].den)(z)).min()

        ys = bezout_pou(p)
        total = sum(y.values * f.values for y, f in zip(ys, p.f_fields))
        res_pou = np.abs(total - 1)[p.mask.inside].max()

        ok &= res_poly <= 1e-10 and res_pou <= 1e-10 and floor >= 0.5
        details.append(f"{label}: poly {res_poly:.1e} (floor {floor:.3f}), "
                       f"pou {res_pou:.1e}")
        assert res_poly <= 1e-10
        assert res_pou <= 1e-10
        assert floor >= 0.5  # certified min of the combination denominator
    acceptance_log.record("criterion 4 (Bezout routes)", ok,
                          "; ".join(details))


def test_criterion_5_sharpness_battery(acceptance_log):
    battery = sharpness_battery()
    bad = [i["item"] for i in battery
           if i["verdict_at_power"] != PASS or i["verdict_below"] != FAIL]
    ok = len(battery) == 6 and not bad
    acceptance_log.record(
        "criterion 5 (sharpness battery)", ok,
        f"{len(battery)} items PASS at power / FAIL below"
        + (f"; offenders: {bad}" if bad else ""))
    assert len(battery) == 6
    assert not bad


def test_criterion_6_derivative_bounds(acceptance_log):
    cases = [("m=1 n=1", dict(m=1, n=1)),
             ("m=1 n=0", dict(m=1, n=0)),
             ("mixed (0,1)", dict(m=1, n=1, mixed=(0, 1)))]
    details, ok = [], True
    for label, kw in cases:
        rep = derivative_bound_scan(intpow(Z, 2), Z, kw["m"], kw["n"], DISK,
                                    mixed=kw.get("mixed"))
        ratio = rep["C"][-1] / rep["C"][0]
        fine = all(np.isfinite(rep["C"]))
        ok &= fine and 0.5 <= ratio <= 2.0
        details.append(f"{label}: C {rep['C'][-1]:.3f}, ratio {ratio:.3f}")
        assert fine
        assert 0.5 <= ratio <= 2.0
    acceptance_log.record("criterion 6 (derivative bounds)", ok,
                          "; ".join(details))


def test_criterion_7_multi_division(acceptance_log):
    _, rep2 = multi_division_continuous(Z, [Z, sub(Const(1.0), Z)], DISK)
    _, rep3 = multi_division_c1(Z, [conj(Z)], DISK, power=3)
    _, sharp = multi_division_c1(Z, [conj(Z)], DISK, power=2)
    ok = (rep2["q_sup"] <= rep2["n"] + 1e-6
          and rep2["residual_off_zero"] <= 1e-10
          and rep3["gradient_bounded"]
          and rep3["residual_off_zero"] <= 1e-10
          and not sharp["gradient_bounded"])
    acceptance_log.record(
        "criterion 7 (multi-generator division)", ok,
        f"h^2: q_sup {rep2['q_sup']:.3f} <= {rep2['n']}, "
        f"res {rep2['residual_off_zero']:.1e}; h^3 gradient bounded at 3, "
        f"unbounded at 2 (growth {sharp['growth_toward_zero']:.2f})")
    assert rep2["q_sup"] <= rep2["n"] + 1e-6
    assert rep2["residual_off_zero"] <= 1e-10
    assert rep3["gradient_bounded"] and rep3["residual_off_zero"] <= 1e-10
    assert not sharp["gradient_bounded"]


def poly_deriv(coeffs, j, t):
    return sum(c * math.perm(k, j) * t ** (k - j)
               for k, c in enumerate(coeffs) if k >= j)


def test_criterion_8_chain_rule_routes(acceptance_log):
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        fc = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        gc = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        x = complex(*rng.uniform(-1, 1, 2))
        gx = poly_deriv(gc, 0, x)
        f_derivs = [poly_deriv(fc, j, gx) for j in range(1, n + 1)]
        g_derivs = [poly_deriv(gc, j, x) for j in range(1, n + 1)]
        via_table = compose_derivative(f_derivs, g_derivs, n)
        f_expr = add(*[mul(const(c), intpow(Z, k)) for k, c in enumerate(fc)])
        g_expr = add(*[mul(const(c), intpow(Z, k)) for k, c in enumerate(gc)])
        via_taylor = taylor_oracle(f_expr, g_expr, x, n)
        worst = max(worst,
                    abs(via_table - via_taylor) / max(1.0, abs(via_taylor)))

    bells = {4: CoefficientTable.build(4).total(),
             5: CoefficientTable.build(5).total()}
    p_ok = all(len(enumerate_multi_indices(n)) == want for n, want in
               zip(range(1, 13), (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)))
    ok = worst <= 1e-10 and bells == {4: 15, 5: 52} and p_ok
    acceptance_log.record(
        "criterion 8 (chain-rule tables)", ok,
        f"200 random evals worst rel {worst:.1e}; B4 = {bells[4]}, "
        f"B5 = {bells[5]}; partition counts match for n <= 12")
    assert worst <= 1e-10
    assert bells == {4: 15, 5: 52}
    assert p_ok


def test_criterion_9_geometry(acceptance_log):
    disk_verdicts = [l_probe(DISK, 1.0 + 0j, h=h).verdict
                     for h in (1 / 64, 1 / 128)]
    spiral_verdicts = [spiral_growth_probe(nodes=n).verdict
                       for n in (256, 224)]

    rows = disk_chain_quotient_demo(10 - 2)
    quotients_exact = all(r["quotient"] == math.sqrt(r["n"]) for r in rows)
    n_range = [r["n"] for r in rows] == list(range(3, 11))

    poly = add(intpow(Z, 2), mul(Const(2.0), Z), Const(3.0))
    fits = [taylor_remainder_fit(poly, 0.5 + 0j, 2, DISK),
            taylor_remainder_fit(add(Const(1.0), div(Const(1.0),
                                                     sub(Const(2.0), Z))),
                                 0j, 2, DISK)]
    fits_ok = all(all(rep["passes"]) for rep in fits)

    ok = (disk_verdicts == [BOUNDED, BOUNDED]
          and spiral_verdicts == [GROWING, GROWING]
          and quotients_exact and n_range and fits_ok)
    acceptance_log.record(
        "criterion 9 (geometry probes)", ok,
        f"disk {disk_verdicts}, spiral {spiral_verdicts}; "
        f"quotients sqrt(n) exact for n = 3..10; remainder fits pass")
    assert disk_verdicts == [BOUNDED, BOUNDED]
    assert spiral_verdicts == [GROWING, GROWING]
    assert quotients_exact and n_range
    assert fits_ok
