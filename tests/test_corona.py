"""Correction-pipeline tests.

Oracles: the obstruction entry for f = (z^2, z^3) with
x = (1/(1+|z|^2), conj(z)/(1+|z|^2)) reduces by hand to
F_12 = conj(z)^2 / (|z|^4 (1+|z|^2)^2), checked pointwise; the forced
dbar solution for F = 1 on the disk is conj(z) (same derivation as the
transform's own closed form); targets of the power pipelines are plain
powers of z, so residuals are compared against exact node values.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbarkit import bezout, cauchy, corona
from dbarkit.bezout import BezoutProblem, CommonZeroError, bezout_poly
from dbarkit.cauchy import SampledField, sample_field, zero_extended
from dbarkit.corona import (AntisymMatrixField, _assemble, _dbar_sup,
                            _skew_residual, corona_convergence, corona_solve,
                            g12_solve, g_power_solve, koszul_F,
                            koszul_cancellation, solve_dbar_matrix)
from dbarkit.division import DominationError
from dbarkit.domains import Disk, build_mask, interior_shrunk
from dbarkit.expr import (Z, Const, add, as_callable, conj, div, intpow, mul,
                          sub)
from strategies import POLY_TREES

DISK = Disk(0j, 1.0)
LINEAR = [sub(Const(1.0), Z), Z]
QUARTIC = [intpow(Z, 2), intpow(sub(Const(1.0), Z), 2)]
CUBIC_PAIR = [intpow(Z, 2), intpow(Z, 3)]


def rational_x():
    denom = add(Const(1.0), mul(Z, conj(Z)))
    return [div(Const(1.0), denom), div(conj(Z), denom)]


# --- obstruction matrix ---------------------------------------------------------


def test_koszul_entry_matches_hand_formula():
    # off the common zero the formula closes to
    # conj(z)^2 / (|z|^4 (1+|z|^2)^2)
    dom = Disk(0.5 + 0j, 0.4)
    F = koszul_F(rational_x(), CUBIC_PAIR, domain=dom, h=1 / 64)
    m = F.mask
    z = m.grid.zgrid()[m.inside]
    r2 = np.abs(z) ** 2
    expect = np.conj(z) ** 2 / (r2 ** 2 * (1 + r2) ** 2)
    got = F.upper[(0, 1)].values[m.inside]
    assert np.abs(got - expect).max() < 1e-12


def test_koszul_holomorphic_x_gives_zero(disk_mask_64):
    F = koszul_F([Z, Const(2.0)], LINEAR, mask=disk_mask_64)
    assert np.abs(F.upper[(0, 1)].values).max() == 0.0


def test_koszul_singleton_is_empty(disk_mask_64):
    F = koszul_F([Z], [sub(Const(2.0), Z)], mask=disk_mask_64)
    assert F.n == 1
    assert F.upper == {}


def test_koszul_common_zero_needs_weight(disk_mask_64):
    with pytest.raises(CommonZeroError, match="weighted"):
        koszul_F(rational_x(), CUBIC_PAIR, mask=disk_mask_64)
    w = sample_field(intpow(Z, 4), disk_mask_64)
    F = koszul_F(rational_x(), CUBIC_PAIR, mask=disk_mask_64, weight=w)
    iy, ix = disk_mask_64.grid.nearest_index(0j)
    assert F.upper[(0, 1)].values[iy, ix] == 0
    assert np.isfinite(F.upper[(0, 1)].values).all()


def test_koszul_length_mismatch(disk_mask_64):
    with pytest.raises(ValueError, match="lengths"):
        koszul_F([Z], LINEAR, mask=disk_mask_64)


def test_antisym_entry_views(disk_mask_64):
    one = sample_field(Const(1.0), disk_mask_64)
    F = AntisymMatrixField(2, disk_mask_64, {(0, 1): one})
    assert (F.entry(1, 0) == -F.entry(0, 1)).all()
    assert np.abs(F.entry(0, 0)).max() == 0.0
    with pytest.raises(IndexError):
        F.entry(0, 2)


def test_mismatched_grid_rejected(disk_mask_64):
    other = build_mask(DISK, h=1 / 32)
    fld = sample_field(Z, other)
    with pytest.raises(ValueError, match="different grid"):
        koszul_F([fld, Z], LINEAR, mask=disk_mask_64)


# --- entrywise dbar solve -------------------------------------------------------


def test_forced_entry_solution(disk_mask_64):
    # dbar H = 1 on the disk is solved by conj(z)
    one = sample_field(Const(1.0), disk_mask_64)
    F = AntisymMatrixField(2, disk_mask_64, {(0, 1): one})
    H, reports = solve_dbar_matrix(F)
    z = disk_mask_64.grid.zgrid()
    err = np.abs(H.upper[(0, 1)].values - np.conj(z))[disk_mask_64.inside].max()
    assert err <= 5 * disk_mask_64.grid.h
    assert reports[(0, 1)]["max_dev"] < 5e-3


def test_zero_matrix_solves_to_zero(disk_mask_64):
    zero = sample_field(Const(0.0), disk_mask_64)
    F = AntisymMatrixField(2, disk_mask_64, {(0, 1): zero})
    H, reports = solve_dbar_matrix(F)
    assert np.abs(H.upper[(0, 1)].values).max() == 0.0
    assert reports[(0, 1)]["max_dev"] == 0.0


def test_empty_margin_measures_nan():
    # a margin wider than the domain leaves no node to measure; the
    # dbar sups must read NaN, not a vacuous 0 that every check passes
    sol = corona_solve(LINEAR, Disk(0j, 0.1), h=1 / 64, margin=10)
    assert np.isnan(sol.dbar_sup) and np.isnan(sol.dbar_sup_x)
    assert all(np.isnan(r["max_dev"]) for r in sol.entry_reports.values())
    assert sol.residual_sup < 1e-12


def test_margin_below_one_is_refused():
    # margin 0 once eroded to nothing and read dbar_sup = NaN quietly
    with pytest.raises(ValueError, match="margin 0 is below 1"):
        corona_solve(LINEAR, DISK, h=1 / 32, margin=0)


# --- unit-target pipeline -------------------------------------------------------


def test_corona_linear_pair():
    sol = corona_solve(LINEAR, DISK, h=1 / 64)
    assert sol.residual_sup < 1e-12
    assert sol.dbar_sup < 2e-3
    assert sol.dbar_sup <= sol.dbar_sup_x
    assert sol.skew_residual <= 1e-12
    assert sol.target_desc == "1"


class _NoSignFlip(AntisymMatrixField):
    # reads the lower triangle without its sign flip: H is symmetric
    def entry_rows(self, j, k, rows):
        return super().entry_rows(min(j, k), max(j, k), rows)


def _symbolic_oracle(f_list, m, margin=3):
    # the poly route through the expression trees: koszul_F on
    # bezout_poly's quotients (symbolic dbar), the entrywise solve and
    # the assembly; returns H, the sampled f_j, u and the entry reports
    problem = BezoutProblem.build(DISK, f_list, mask=m)
    xs = bezout_poly(problem)
    H, reports = solve_dbar_matrix(koszul_F(xs, f_list, mask=m), margin)
    fv = [g.values for g in problem.f_fields]
    u = _assemble([sample_field(x, m).values for x in xs], fv, H)
    return H, fv, u, reports


@pytest.mark.parametrize("f_list", [LINEAR, QUARTIC], ids=["linear", "quartic"])
def test_poly_route_matches_symbolic_oracle(f_list, disk_mask_64):
    # corona_solve takes x and dbar x from the fits numerically; the
    # expression trees of bezout_poly must tell the same story.  The
    # margin is criterion 2's at h = 1/64 (0.15 / h cells): the two
    # evaluation orders of the degree-15 quartic fits differ by 1e-12
    # in u, and next to the boundary (3 cells) dbar_fd's 1/h turns that
    # into 2e-10 of dbar_sup
    m = disk_mask_64
    sol = corona_solve(f_list, DISK, mask=m, margin=10)
    _, _, u, reports = _symbolic_oracle(f_list, m, sol.margin)
    for got, want in zip(sol.u, u):
        assert np.abs(got.values - want).max() <= 1e-10 * np.abs(want).max()
    want_sup = _dbar_sup(u, m, interior_shrunk(m, sol.margin))
    assert abs(sol.dbar_sup - want_sup) <= 1e-10 * want_sup
    assert reports.keys() == sol.entry_reports.keys()
    for key, rep in reports.items():
        got = sol.entry_reports[key]["max_dev"]
        assert abs(got - rep["max_dev"]) <= 1e-10 * rep["max_dev"]


def _one_shot_entry(H, j, k):
    # an off-diagonal entry as the one-shot oracle reads it: the stored
    # array, or its negated full-grid copy
    return H.upper[(j, k)].values if j < k else -H.upper[(k, j)].values


def _one_shot_sup(values, sel):
    v = values[sel]
    return float(np.abs(v).max()) if v.size else float("nan")


@pytest.mark.parametrize("f_list, weighted", [
    (LINEAR, False), (LINEAR + [intpow(Z, 2)], False), (CUBIC_PAIR, True)],
    ids=["pair", "triple", "weighted"])
@pytest.mark.parametrize("block", [cauchy.SAMPLE_BLOCK, 20000])
def test_correction_strips_are_the_one_shot_rule_bitwise(f_list, weighted,
                                                         block):
    # F, u = x - f H, the skew contraction and the residual are formed
    # row strip by row strip; each is bitwise its one-shot full-grid
    # expression below.  A strip of at least min(n, SAMPLE_BLOCK) nodes
    # keeps numpy's temporary elision, and so each complex product's
    # operand order, as on the whole grid (42,025 nodes at h = 1/100,
    # in strips of 98 and 107 rows when 20,000 is forced); strips of
    # 8,200 nodes, under elision's 16,384, move bits
    mask = build_mask(DISK, h=1 / 100)
    rng = np.random.default_rng(len(f_list) + weighted)
    shape = mask.inside.shape

    def noise():
        return rng.standard_normal(shape + (2,)) @ [1, 1j]

    gens = BezoutProblem.build(DISK, f_list, mask=mask)
    fv = [g.values for g in gens.f_fields]
    n, s2 = gens.n, gens.s2
    dbx, xv = [noise() for _ in fv], [noise() for _ in fv]
    wv = noise() if weighted else None
    live = mask.inside & ~gens.collar if weighted else mask.inside
    with mock.patch.object(cauchy, "SAMPLE_BLOCK", block):
        F = corona._obstruction(iter(dbx), gens, wv)
        for j, k in F.upper:
            num = dbx[k] * np.conj(fv[j]) - dbx[j] * np.conj(fv[k])
            want = zero_extended(num, s2, live)
            if weighted:
                want[live] *= wv[live]
            assert F.upper[(j, k)].values.tobytes() == want.tobytes()
        H = AntisymMatrixField(n, mask, {key: SampledField(mask, noise())
                                         for key in F.upper})
        for j, got in enumerate(_assemble(xv, fv, H)):
            corr = 0.0
            for k in range(n):
                if k != j:
                    corr = corr + fv[k] * _one_shot_entry(H, k, j)
            assert got.tobytes() == np.subtract(xv[j], corr).tobytes()
        acc = sum(fv[j] * sum(_one_shot_entry(H, j, k) * fv[k]
                              for k in range(n) if k != j) for j in range(n))
        assert _skew_residual(fv, H, mask.inside) == _one_shot_sup(
            acc, mask.inside)
        if weighted:
            g = intpow(Z, 2)
            sol = g_power_solve(g, f_list, rational_x(), mask=mask)
            target = sample_field(g, mask).values ** 5
        else:
            sol = corona_solve(f_list, DISK, route="pou", mask=mask)
            target = 1.0
    total = sum(u.values * f for u, f in zip(sol.u, fv))
    assert sol.residual_sup == _one_shot_sup(total - target, mask.inside)


def test_pooled_correction_is_the_calling_thread_correction_bitwise():
    # the pou route on the quartic pair at h = 1/256, its strips (of the
    # lattice, the stencils, the dbar sups, F, the assembly, the skew
    # contraction and the residual) on the pool and on the calling
    # thread alone: u, the sups and the entry reports agree bitwise
    h = 1 / 256
    mask = build_mask(DISK, h=h)
    assert len(cauchy.row_strips(mask.inside.shape)) >= 3
    outputs = []
    for cpus in (1, 2):
        with mock.patch.object(cauchy, "_CPUS", cpus):
            sol = corona_solve(QUARTIC, DISK, h=h, route="pou",
                               margin=max(3, round(0.15 / h)), mask=mask)
        outputs.append(([u.values.tobytes() for u in sol.u],
                        repr((sol.residual_sup, sol.dbar_sup, sol.dbar_sup_x,
                              sol.skew_residual, sol.entry_reports))))
    assert outputs[0] == outputs[1]


def test_skew_check_catches_symmetric_matrix(disk_mask_64):
    m = disk_mask_64
    H, fv = _symbolic_oracle(LINEAR, m)[:2]
    assert _skew_residual(fv, H, m.inside) <= 1e-12
    broken = _NoSignFlip(H.n, H.mask, H.upper)
    assert _skew_residual(fv, broken, m.inside) > 1e-12


def test_skew_skips_the_zero_diagonal(disk_mask_64):
    # the contraction over the full matrix, zero diagonal included,
    # reads the same sup on the quartic pair: x + 0 is exact
    m = disk_mask_64
    H, fv = _symbolic_oracle(QUARTIC, m)[:2]
    full = sum(fv[j] * sum(H.entry(j, k) * fv[k] for k in range(H.n))
               for j in range(H.n))
    assert _skew_residual(fv, H, m.inside) == np.abs(full[m.inside]).max()


def test_correct_erodes_the_margin_once(monkeypatch, disk_mask_64):
    # dbar u and dbar x are measured on one eroded node set; the round
    # trip of each obstruction entry erodes its own in cauchy
    calls = []
    shrunk = corona.interior_shrunk
    monkeypatch.setattr(corona, "interior_shrunk",
                        lambda *args: calls.append(1) or shrunk(*args))
    sol = corona_solve(QUARTIC, DISK, mask=disk_mask_64, margin=10)
    assert np.isfinite(sol.dbar_sup) and np.isfinite(sol.dbar_sup_x)
    assert len(calls) == 1


def test_corona_three_generators(disk_mask_64):
    # n = 3 is the first case with more than one obstruction entry, so
    # the antisymmetric assembly and the skew contraction mix entries
    triple = [Z, sub(Const(1.0), Z), intpow(add(Z, Const(0.5)), 2)]
    sol = corona_solve(triple, DISK, h=1 / 64, margin=10)
    assert sol.residual_sup <= 1e-12
    assert sol.skew_residual <= 1e-12
    assert sol.dbar_sup <= 1e-2 * sol.dbar_sup_x
    assert len(sol.entry_reports) == 3
    H, fv = _symbolic_oracle(triple, disk_mask_64)[:2]
    broken = _NoSignFlip(H.n, H.mask, H.upper)
    assert _skew_residual(fv, broken, disk_mask_64.inside) > 1e-12


def test_corona_quartic_pair():
    sol = corona_solve(QUARTIC, DISK, h=1 / 64)
    assert sol.residual_sup < 1e-12
    assert sol.dbar_sup < 5e-2
    assert sol.dbar_sup <= sol.dbar_sup_x
    # each fit reports its degree, sup error and conditioning
    assert len(sol.extras["fits"]) == 2
    for fit in sol.extras["fits"]:
        assert isinstance(fit["degree"], int) and 1 <= fit["degree"] <= 16
        assert np.isfinite(fit["cond"]) and fit["cond"] >= 1
        assert 0 <= fit["sup_error"] <= 1 / (2 * (1 + 4))


def test_poly_route_evaluates_no_fit_again(poly_calls):
    # x = p / D comes from the fit ladder's own node values; no fit is
    # called on the nodes after the ladder
    sol = corona_solve(QUARTIC, DISK, h=1 / 64)
    assert sol.residual_sup < 1e-12
    assert poly_calls == []


def test_poly_route_builds_one_power_table_per_fit(monkeypatch):
    # the fit ladder's one table, of the top degree 16, feeds the
    # factorization; each chosen fit's values and dbar share one table
    # of its own degree (a single node block at h = 1/32), and no degree
    # the projection screen rejects builds one.  The basis cache is
    # cleared first, so the factorization is built here; a second solve
    # on the grid reuses it and builds the fits' own tables only
    bezout._fit_basis.cache_clear()
    calls = []
    powers = bezout._powers
    monkeypatch.setattr(bezout, "_powers",
                        lambda z, d: calls.append(d) or powers(z, d))
    sol = corona_solve(QUARTIC, DISK, h=1 / 32)
    assert sol.residual_sup < 1e-12
    assert calls[0] == 16
    assert sorted(calls[1:]) == sorted(fit["degree"]
                                       for fit in sol.extras["fits"])
    assert sorted(calls) == [14, 15, 16]
    cold = calls[1:]
    calls.clear()
    corona_solve(QUARTIC, DISK, h=1 / 32)
    assert calls == cold


def test_corona_covering_route():
    sol = corona_solve(LINEAR, DISK, h=1 / 64, route="pou")
    assert sol.residual_sup < 1e-12
    # the covering solution is only piecewise smooth; the correction
    # must still not make things worse
    assert sol.dbar_sup <= sol.dbar_sup_x
    assert sol.extras["route"] == "pou"


def test_corona_rejects_interior_zero():
    for route in ("poly", "pou"):
        with pytest.raises(CommonZeroError):
            corona_solve([Z], DISK, h=1 / 64, route=route)


def test_corona_rejects_generators_that_vanish_everywhere():
    # every node is a common zero: both routes name it before dividing
    # by the generators' sup norms
    for route in ("poly", "pou"):
        with pytest.raises(CommonZeroError):
            corona_solve([Const(0), Const(0)], DISK, h=1 / 32, route=route)


def test_corona_rejects_unknown_route():
    with pytest.raises(ValueError, match="route"):
        corona_solve(LINEAR, DISK, route="magic")


def test_corona_refinement():
    rep = corona_convergence(LINEAR, DISK, hs=(1 / 32, 1 / 64))
    assert rep["dbar_sup"][1] < rep["dbar_sup"][0]
    assert rep["slope"] >= 0.9
    assert max(rep["residual_sup"]) < 1e-12
    assert rep["margins"] == [5, 10]


# --- power targets --------------------------------------------------------------


def test_g5_pipeline():
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, rational_x(), DISK,
                        isolated_zeros=True, h=1 / 64)
    assert sol.target_desc == "g^5"
    assert sol.residual_sup < 1e-10
    assert sol.dbar_sup < 2e-2
    assert sol.dbar_sup <= sol.dbar_sup_x
    assert sol.skew_residual <= 1e-12


def test_g6_pipeline():
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, rational_x(), DISK,
                        isolated_zeros=False, h=1 / 64)
    assert sol.target_desc == "g^6"
    assert sol.residual_sup < 1e-10
    assert sol.extras["collar_nodes"] >= 1


def test_g5_holomorphic_x_needs_no_correction(disk_mask_64):
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, [Const(1.0), Const(0.0)],
                        DISK, h=1 / 64)
    assert sol.residual_sup <= 1e-12
    assert sol.entry_reports[(0, 1)]["max_dev"] == 0.0
    z = disk_mask_64.grid.zgrid()
    u1 = sol.u[0].values[disk_mask_64.inside]
    assert np.abs(u1 - z[disk_mask_64.inside] ** 8).max() == 0.0


def test_g5_checks_x_identity():
    with pytest.raises(ValueError, match="does not solve"):
        g_power_solve(intpow(Z, 2), CUBIC_PAIR, [Const(1.0), Const(1.0)],
                      DISK, h=1 / 64)


def test_g5_checks_domination():
    with pytest.raises(DominationError, match=r"sum\|f_j\|"):
        g_power_solve(Const(3.0), CUBIC_PAIR,
                      [div(Const(3.0), intpow(Z, 2)), Const(0.0)],
                      Disk(0.5 + 0j, 0.4), h=1 / 64)


def test_g12_pipeline():
    sol = g12_solve(intpow(Z, 2), CUBIC_PAIR,
                    [conj(intpow(Z, 2)), conj(intpow(Z, 3))], DISK, h=1 / 64)
    assert sol.target_desc == "g^12"
    assert sol.residual_sup < 1e-10
    assert sol.dbar_sup <= sol.dbar_sup_x


def test_g12_singleton_is_principal_division():
    sol = g12_solve(intpow(Z, 2), [intpow(Z, 2)], [conj(intpow(Z, 2))],
                    DISK, h=1 / 64)
    assert sol.residual_sup < 1e-10
    # n = 1: no obstruction, no correction
    assert sol.entry_reports == {}
    assert sol.dbar_sup == sol.dbar_sup_x


def test_g12_samples_g_each_h_and_each_f_once():
    calls = Counter()

    def counted(name, fn):
        def point_fn(z):
            calls[name] += 1
            return fn(z)
        return point_fn

    sol = g12_solve(counted("g", lambda z: z ** 2),
                    [counted("f1", lambda z: z ** 2),
                     counted("f2", lambda z: z ** 3)],
                    [counted("h1", lambda z: np.conj(z) ** 2),
                     counted("h2", lambda z: np.conj(z) ** 3)],
                    DISK, h=1 / 32)
    assert sol.residual_sup < 1e-10
    assert calls == {"g": 1, "f1": 1, "f2": 1, "h1": 1, "h2": 1}


def test_g_power_samples_each_callable_x_once():
    calls = Counter()

    def counted(name, x):
        fn = as_callable(x)

        def point_fn(z):
            calls[name] += 1
            return fn(z)
        return point_fn

    x1, x2 = rational_x()
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR,
                        [counted("x1", x1), counted("x2", x2)], DISK,
                        h=1 / 32)
    assert calls == {"x1": 1, "x2": 1}
    # the one-sided dbar of the samples is the dbar of a second sampling
    assert sol.residual_sup == 2.482534153247273e-16
    assert sol.dbar_sup == 0.014585781787686044


def test_g12_reads_the_generator_sum_of_squares_once(monkeypatch):
    # the s2 checked against |sum h_j f_j| is the one the obstruction
    # divides by; BezoutProblem.s2 is recomputed on every access
    reads = []
    s2 = BezoutProblem.s2
    monkeypatch.setattr(BezoutProblem, "s2", property(
        lambda self: reads.append(1) or s2.fget(self)))
    sol = g12_solve(intpow(Z, 2), CUBIC_PAIR,
                    [conj(intpow(Z, 2)), conj(intpow(Z, 3))], DISK, h=1 / 32)
    assert sol.residual_sup < 1e-10
    assert len(reads) == 1


@pytest.mark.parametrize("isolated_zeros", [True, False])
def test_g_power_leaves_a_callers_x_unchanged(isolated_zeros):
    # the core writes u over the weighted x it made, never over x
    m = build_mask(DISK, h=1 / 32)
    xs = [sample_field(x, m) for x in rational_x()]
    before = [x.values.copy() for x in xs]
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, xs, DISK,
                        isolated_zeros=isolated_zeros, mask=m)
    assert sol.residual_sup < 1e-10
    for x, want in zip(xs, before):
        assert np.array_equal(x.values, want)


def test_g5_correction_lowers_dbar_of_the_weighted_x():
    # dbar_sup_x is measured on g^4 x, before u is written over it;
    # the correction removes nearly all of it (0.0051 of 0.18 here)
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, rational_x(), DISK,
                        h=1 / 64)
    assert sol.dbar_sup <= 0.05 * sol.dbar_sup_x


def test_weighted_power_solve_computes_the_collar_once(monkeypatch):
    calls = []
    collar = bezout.zero_collar
    for module in (bezout, corona):
        if hasattr(module, "zero_collar"):
            monkeypatch.setattr(module, "zero_collar",
                                lambda *args: calls.append(1) or collar(*args))
    sol = g_power_solve(intpow(Z, 2), CUBIC_PAIR, rational_x(), DISK,
                        isolated_zeros=False, h=1 / 32)
    assert sol.extras["collar_nodes"] >= 1
    assert len(calls) == 1


def test_weighted_dbar_sups_skip_the_two_step_diamond(monkeypatch):
    # the weighted route measures dbar off every node within two lattice
    # steps (|dx| + |dy| <= 2) of the collar; scattered collar nodes and
    # an adjacent cluster check the union of the diamonds
    m = build_mask(DISK, h=1 / 32)
    iy, ix = np.nonzero(interior_shrunk(m, 4))
    pick = np.random.default_rng(7).choice(iy.size, 12, replace=False)
    collar = np.zeros(m.inside.shape, bool)
    collar[iy[pick], ix[pick]] = True
    cy, cx = m.grid.nearest_index(0j)
    collar[cy, cx - 1:cx + 2] = collar[cy + 1, cx] = True
    fv = np.where(m.inside & ~collar, 1.0 + 0j, 0)
    gens = BezoutProblem([Z, Z], m, [SampledField(m, fv) for _ in range(2)])
    assert np.array_equal(gens.collar, collar)
    seen = []
    dbar_sup = corona._dbar_sup
    monkeypatch.setattr(corona, "_dbar_sup", lambda v, mask, sel:
                        seen.append(sel.copy()) or dbar_sup(v, mask, sel))
    zero = np.zeros(m.inside.shape, complex)
    corona._correct([SampledField(m, zero) for _ in range(2)], [zero, zero],
                    gens, 0.0, "0", 1, weight=np.ones(m.inside.shape))
    diamond = np.zeros_like(collar)
    ky, kx = np.nonzero(collar)
    for dy in range(-2, 3):
        for dx in range(abs(dy) - 2, 3 - abs(dy)):
            diamond[ky + dy, kx + dx] = True
    want = interior_shrunk(m, 1) & ~diamond
    assert len(seen) == 2
    assert all(np.array_equal(sel, want) for sel in seen)


def test_g12_checks_domination_before_hypothesis():
    # |g| = 4 > sum|f_j| and h = 0 breaks the hypothesis too; the shared
    # power set-up checks the corona domination first
    with pytest.raises(DominationError, match=r"\|g\| <= sum\|f_j\|"):
        g12_solve(Const(4.0), CUBIC_PAIR, [Const(0.0), Const(0.0)],
                  DISK, h=1 / 64)


def test_g12_hypothesis_violation():
    with pytest.raises(ValueError, match="hypothesis"):
        g12_solve(intpow(Z, 2), CUBIC_PAIR, [Const(0.0), Const(0.0)],
                  DISK, h=1 / 64)


# --- algebraic identities -------------------------------------------------------


def test_cancellation_identity_unit_solution(rng):
    problem = BezoutProblem.build(DISK, LINEAR, h=1 / 64)
    xs = bezout_poly(problem)
    pts = rng.uniform(-0.7, 0.7, 100) + 1j * rng.uniform(-0.7, 0.7, 100)
    rep = koszul_cancellation(xs, LINEAR, pts)
    assert rep["max_diff"] < 1e-12
    # sum x_j f_j = 1 is constant, so the residual obstruction vanishes
    assert rep["rhs_sup"] < 1e-10


def test_cancellation_identity_nonholomorphic_target(rng):
    # single generator, x = conj(z): sum x f = |z|^2 is not holomorphic
    # and the reduced obstruction is exactly conj(f) (f dbar x)/|f|^2 = 1
    pts = rng.uniform(0.2, 0.7, 50) + 1j * rng.uniform(0.2, 0.7, 50)
    rep = koszul_cancellation([conj(Z)], [Z], pts)
    assert rep["max_diff"] < 1e-14
    assert rep["rhs_sup"] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_koszul_row_identity_property(n, data):
    # dbar x_j - (f F)_j = conj(f_j) (f . dbar x)/|f|^2 is pure algebra
    # for any x and any generators without a common zero at the points
    xs = [data.draw(POLY_TREES) for _ in range(n)]
    fs = [data.draw(POLY_TREES) for _ in range(n)]
    pts = np.array(data.draw(st.lists(
        st.complex_numbers(max_magnitude=1, allow_nan=False,
                           allow_infinity=False), min_size=1, max_size=6)))
    s2 = sum(np.abs(f.eval(pts) * np.ones_like(pts)) ** 2 for f in fs)
    assume(s2.min() >= 1e-6)
    rep = koszul_cancellation(xs, fs, pts)
    assert rep["max_diff"] <= 1e-10 * max(1.0, rep["rhs_sup"])


def test_cancellation_requires_expressions():
    with pytest.raises(TypeError, match="expression"):
        koszul_cancellation([lambda z: z], [Z], np.array([0.5]))


def test_solution_family_preserves_target(disk_mask_64, rng):
    # adding f H for any antisymmetric H never moves sum u_j f_j
    m = disk_mask_64
    shape = m.inside.shape
    f_vals = [sample_field(f, m).values
              for f in (Const(1.0), Z, intpow(Z, 2))]
    x_vals = [sample_field(x, m).values for x in (Z, conj(Z), Const(0.5))]
    upper = {}
    for j in range(3):
        for k in range(j + 1, 3):
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            upper[(j, k)] = SampledField(m, noise * m.inside)
    H = AntisymMatrixField(3, m, upper)
    base = sum(x * f for x, f in zip(x_vals, f_vals))
    moved = sum((x - sum(f_vals[k] * H.entry(k, j) for k in range(3) if k != j)) * f_vals[j]
                for j, (x, _) in enumerate(zip(x_vals, f_vals)))
    assert np.abs((moved - base)[m.inside]).max() < 1e-12
