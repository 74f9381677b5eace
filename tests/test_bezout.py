import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbarkit import bezout
from dbarkit.bezout import (
    BezoutProblem,
    CommonZeroError,
    CoveringError,
    FitRankError,
    FitToleranceError,
    PolyZZbar,
    VanishingError,
    bezout_poly,
    bezout_pou,
    generalized_division,
    partition_of_unity,
    q_fields,
    quotient_fits,
    smoothstep,
    weierstrass_fit,
)
from dbarkit.cauchy import SampledField, dbar_fd, sample_field, zero_extended
from dbarkit.domains import Disk, PreconditionError, build_mask
from dbarkit.expr import (Const, Quotient, Z, as_callable, intpow, sub,
                          wirtinger_dbar)
from strategies import POLY_TREES

ONE_MINUS_Z = sub(Const(1.0), Z)


@pytest.fixture(scope="module")
def linear_pair(disk_mask_64):
    return BezoutProblem.build(Disk(0j, 1.0), [Z, ONE_MINUS_Z],
                               mask=disk_mask_64)


QUARTIC = [intpow(Z, 2), intpow(ONE_MINUS_Z, 2)]


@pytest.fixture(scope="module")
def quartic_pair(disk_mask_64):
    return BezoutProblem.build(Disk(0j, 1.0), QUARTIC, mask=disk_mask_64)


@pytest.fixture(scope="module")
def quartic_pair_128():
    # about 51,000 Inside nodes: the fit runs on a stride-3 subsample
    return BezoutProblem.build(Disk(0j, 1.0), QUARTIC, h=1 / 128)


def residual(fields, problem, target=1.0):
    total = sum(x.values * g.values for x, g in zip(fields, problem.f_fields))
    return np.abs(total - target)[problem.mask.inside].max()


def test_problem_measures_delta(linear_pair):
    # |z| + |1-z| attains its minimum 1 on the segment [0, 1], and the
    # grid has nodes there
    assert linear_pair.delta == pytest.approx(1.0, abs=1e-12)
    sups = [g.max_abs() for g in linear_pair.f_fields]
    assert sups == pytest.approx([1.0, 2.0], abs=0.05)


def test_q_fields_constant_singleton(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Const(2.0)], mask=disk_mask_64)
    q = q_fields(p)[0]
    assert np.abs(q.values[p.mask.inside] - 0.5).max() < 1e-14


@pytest.mark.parametrize("pair", ["linear_pair", "quartic_pair"])
def test_q_fields_identity(pair, request):
    p = request.getfixturevalue(pair)
    qs = q_fields(p)
    assert residual(qs, p) < 1e-12


def test_q_fields_common_zero(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Z, Z], mask=disk_mask_64)
    with pytest.raises(CommonZeroError) as err:
        q_fields(p)
    assert err.value.nodes[0] == 0


def test_q_fields_weighted_is_the_wolff_quotient(disk_mask_64):
    # z^2 and z^3 share the zero at the origin: the weighted quotient
    # on nodes off it is zero there, while without those nodes (weight
    # or not) the problem is refused
    p = BezoutProblem.build(Disk(0j, 1.0), [intpow(Z, 2), intpow(Z, 3)],
                            mask=disk_mask_64)
    w = sample_field(sub(intpow(Z, 2), Const(0.3j)), p.mask).values
    s2 = p.s2
    live = p.mask.inside & (s2 > 1e-12)
    qs = q_fields(p, w, live)
    for q, held, f in zip(qs, q_fields(p, w, live, s2), p.f_fields):
        # this operand order: complex products are not bitwise
        # commutative, and on this grid numpy runs w * conj(f) in place
        # in the temporary as conj(f) * w
        want = zero_extended(np.conj(f.values) * w, s2, live)
        assert q.values.tobytes() == want.tobytes()
        assert held.values.tobytes() == want.tobytes()
    for weight in (None, w):
        with pytest.raises(CommonZeroError) as err:
            q_fields(p, weight)
        assert err.value.nodes == (0j,)


@pytest.fixture(scope="module")
def disk_mask_16():
    return build_mask(Disk(0j, 1.0), h=1 / 16)


def _not_tiny(v):
    return not ((np.abs(v) < 1e-100) & (v != 0)).any()


@settings(max_examples=60, deadline=None)
@given(st.lists(POLY_TREES, min_size=1, max_size=3), POLY_TREES)
def test_wolff_identity_holds_on_the_live_nodes(disk_mask_16, f_list, weight):
    # sum_j q_j f_j = w conj(f_j) f_j / sum|f_k|^2 summed over j is w,
    # node by node, on every node where sum|f_k|^2 is not zero
    p = BezoutProblem.build(Disk(0j, 1.0), f_list, mask=disk_mask_16)
    w = sample_field(weight, p.mask).values
    live = p.mask.inside & (p.s2 > 0)
    assume(all(_not_tiny(v[live]) for v in [w] + [f.values for f in p.f_fields]))
    qs = q_fields(p, w, live)
    got = sum(q.values * f.values for q, f in zip(qs, p.f_fields))
    assert (np.abs(got - w)[live] <= 1e-12 * np.abs(w[live])).all()
    assert not any(q.values[~live].any() for q in qs)


def test_weierstrass_recovers_monomial(disk_mask_64):
    q = sample_field(np.conj, disk_mask_64)
    fit = weierstrass_fit(q, 1, 1e-10)
    assert fit.sup_error <= 1e-10
    assert abs(fit.coef[0, 1] - 1) < 1e-10
    assert abs(fit.coef[0, 0]) < 1e-10


def test_weierstrass_quality_improves_with_degree(disk_mask_64):
    q = sample_field(lambda z: 1 / (1 + np.abs(z) ** 2), disk_mask_64)
    sups = []
    for d in (4, 6, 8):
        fit = weierstrass_fit(q, d, 1.0)
        sups.append(fit.sup_error)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 1e-3


def test_weierstrass_too_few_nodes(disk_mask_64):
    m = disk_mask_64
    empty = SampledField(m, np.zeros(m.inside.shape, complex),
                         support=np.zeros(m.inside.shape, bool))
    with pytest.raises(ValueError, match="node"):
        weierstrass_fit(empty, 2, 1.0)


def test_too_few_nodes_is_a_rank_error(disk_mask_64):
    # five nodes cannot determine the six degree-2 coefficients
    m = disk_mask_64
    sel = np.zeros(m.inside.shape, bool)
    iy, ix = np.nonzero(m.interior)
    sel[iy[:5], ix[:5]] = True
    q = SampledField(m, np.where(sel, 1.0 + 0j, 0), support=sel)
    with pytest.raises(FitRankError,
                       match="5 sample node.s. cannot determine 6 coeff"):
        weierstrass_fit(q, 2, 1.0)


def test_bezout_errors_share_the_precondition_base():
    for cls in (CommonZeroError, FitRankError, FitToleranceError,
                CoveringError, VanishingError):
        assert issubclass(cls, PreconditionError)
    # the base carries the offending nodes
    for cls in (CommonZeroError, VanishingError):
        assert "__init__" not in vars(cls)
        assert cls("boom", nodes=[1j, 0.5]).nodes == (1j, 0.5)


def test_fit_degree_must_be_nonnegative(linear_pair):
    q = q_fields(linear_pair)[0]
    with pytest.raises(ValueError, match="nonnegative"):
        weierstrass_fit(q, -1, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        bezout_poly(linear_pair, max_degree=-1)


def test_weierstrass_rank_deficiency(disk_mask_64):
    # three nodes on the real axis: there z = conj(z), so the d=1
    # columns 1, z, conj(z) are dependent
    m = disk_mask_64
    sel = np.zeros(m.inside.shape, bool)
    iy, ix = np.nonzero(m.inside & (np.abs(m.grid.zgrid().imag) < 1e-12))
    sel[iy[:3], ix[:3]] = True
    q = SampledField(m, np.where(sel, 1.0 + 0j, 0), support=sel)
    with pytest.raises(FitRankError,
                       match="monomial matrix rank 2 < 3.*lower the degree"):
        weierstrass_fit(q, 1, 1.0)


def test_weierstrass_tolerance_failure(disk_mask_64):
    q = sample_field(lambda z: np.abs(z), disk_mask_64)
    with pytest.raises(FitToleranceError, match="increase degree") as err:
        weierstrass_fit(q, 2, 1e-12)
    assert err.value.sup_error > 1e-12


def test_weierstrass_matches_lstsq_on_the_subsample():
    # just over MAX_FIT_NODES Inside nodes, so the fit runs on a stride
    # subsample; every degree's node values must agree with numpy's
    # lstsq on that same subsample
    m = build_mask(Disk(0j, 0.63), h=1 / 128)
    q = sample_field(lambda z: 1 / (1.5 - z) + np.abs(z) ** 3, m)
    z, v = m.coords(m.inside), q.values[m.inside]
    stride = -(-len(z) // 20000)
    assert stride == 2
    cols = [(a, s - a) for s in range(17) for a in range(s + 1)]
    V = np.stack([z ** a * np.conj(z) ** b for a, b in cols], axis=1)
    for d in range(17):
        p = (d + 1) * (d + 2) // 2
        c = np.linalg.lstsq(V[::stride, :p], v[::stride], rcond=None)[0]
        want = V[:, :p] @ c
        fit = weierstrass_fit(q, d, 10.0)
        assert np.abs(fit(z) - want).max() <= 1e-9 * np.abs(want).max()
        assert fit.cond >= 1 and np.isfinite(fit.cond)


_SMALL_DISK = build_mask(Disk(0j, 1.0), h=1 / 16)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 6), extra=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_basis_fit_matches_complex_lstsq(degree, extra, seed):
    # the ladder factors the real block basis sqrt2 Re, sqrt2 Im of
    # z^a conj(z)^b; that is a unitary change of the complex monomial
    # basis, so the fit and cond must be those of the monomial matrix
    m = _SMALL_DISK
    rng = np.random.default_rng(seed)
    p = (degree + 1) * (degree + 2) // 2
    iy, ix = np.nonzero(m.inside)
    pick = rng.choice(iy.size, size=2 * p + extra, replace=False)
    sel = np.zeros(m.inside.shape, bool)
    sel[iy[pick], ix[pick]] = True
    vals = np.zeros(m.inside.shape, complex)
    vals[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
    fit = weierstrass_fit(SampledField(m, vals, support=sel), degree, np.inf)
    z = m.coords(sel)
    V = np.stack([z ** a * np.conj(z) ** (s - a)
                  for s in range(degree + 1) for a in range(s + 1)], axis=1)
    want = V @ np.linalg.lstsq(V, vals[sel], rcond=None)[0]
    assert np.abs(fit(z) - want).max() <= 1e-10 * np.abs(want).max()
    assert fit.cond == pytest.approx(np.linalg.cond(V), rel=1e-8)


def test_screened_ladder_matches_full_node_ladder(quartic_pair_128,
                                                  monkeypatch):
    # each degree is screened by its projected sup error first; with an
    # infinite band the screen is off and every degree is measured on
    # every node, and the chosen degrees, sup errors, values and dbar
    # must be the same
    qs = q_fields(quartic_pair_128)
    target = 1.0 / (2.0 * sum(g.max_abs() for g in quartic_pair_128.f_fields))
    screened = bezout._fit_ladder(qs, range(17), target)
    monkeypatch.setattr(bezout, "_band", lambda d, cond, scale: scale + np.inf)
    full = bezout._fit_ladder(qs, range(17), target)
    for (a, va, da), (b, vb, db) in zip(zip(*screened), zip(*full)):
        assert (a.degree, a.sup_error) == (b.degree, b.sup_error)
        assert np.array_equal(va, vb) and np.array_equal(da, db)
    assert [p.degree for p in screened[0]] == [15, 14]


def test_screen_band_admits_a_degree_at_its_exact_sup(quartic_pair,
                                                     monkeypatch):
    # q_1's degree-13 fit at stride 1: its projected sup error exceeds
    # its exact one on every node by roundoff.  With the target set to
    # that exact sup the degree meets it, and only the band keeps the
    # projection screen from skipping it
    q = q_fields(quartic_pair)[0]
    exact = weierstrass_fit(q, 13, np.inf).sup_error
    bands, band = [], bezout._band
    monkeypatch.setattr(bezout, "_band", lambda d, cond, scale:
                        bands.append(band(d, cond, scale)) or bands[-1])
    fit = bezout._fit_ladder([q], range(13, 15), exact)[0][0]
    assert (fit.degree, fit.sup_error) == (13, exact)
    assert 0 < bands[0][0] < 1e-6 * exact
    # without the band the projected sup fails the target, and with a
    # band of 1e-12 of it passes: it exceeds the exact sup by roundoff
    monkeypatch.setattr(bezout, "_band", lambda d, cond, scale: 0 * scale)
    skipped = bezout._fit_ladder([q], range(13, 15), exact)[0][0]
    assert getattr(skipped, "degree", None) != 13
    monkeypatch.setattr(bezout, "_band",
                        lambda d, cond, scale: 0 * scale + 1e-12 * exact)
    assert bezout._fit_ladder([q], range(13, 15), exact)[0][0].degree == 13


def test_last_degree_error_reports_the_full_node_sup(quartic_pair_128):
    # q_1 needs degree 15; its degree-13 fit fails, and the reported sup
    # error is measured on every Inside node, not on the stride-3
    # subsample the fit ran on (whose sup is smaller here)
    with pytest.raises(FitToleranceError, match="q_1 not approximable") as err:
        quotient_fits(quartic_pair_128, max_degree=13)
    mask = quartic_pair_128.mask
    q = q_fields(quartic_pair_128)[0]
    fit = weierstrass_fit(q, 13, np.inf)
    resid = np.abs(fit(mask.coords(mask.inside)) - q.values[mask.inside])
    assert err.value.sup_error == pytest.approx(resid.max(), rel=1e-12)
    assert resid.max() > resid[::3].max()


@pytest.mark.parametrize("h, counts", [(1 / 64, {"linear": 2, "quartic": 2}),
                                       (1 / 128, {"linear": 2, "quartic": 2}),
                                       (1 / 256, {"linear": 2, "quartic": 2})])
def test_fit_ladder_full_node_evaluations(h, counts, monkeypatch):
    # at stride 1 and beyond MAX_FIT_NODES alike, only the chosen degree
    # of each field is evaluated on all Inside nodes, in node blocks;
    # every lower degree fails the projection screen.  The dbar of each
    # chosen fit is evaluated once, on all Inside nodes, from the
    # tables of its values
    pairs = {"linear": [Z, ONE_MINUS_Z], "quartic": QUARTIC}
    on_table, on_points = PolyZZbar._on_table, PolyZZbar._on_points
    for name, fs in pairs.items():
        problem = BezoutProblem.build(Disk(0j, 1.0), fs, h=h)
        m = int(problem.mask.inside.sum())
        evals = []  # [dbar, nodes covered] per evaluation

        def table(self, zp, zcp, dbar=False):
            evals.append([dbar, zp.shape[1]])
            return on_table(self, zp, zcp, dbar)

        def points(self, z, dbars=(False,)):
            k = len(evals)
            out = on_points(self, z, dbars)
            # the blocks of one evaluation count as one per flag, over
            # their nodes
            evals[k:] = [[dbar, sum(n for f, n in evals[k:] if f == dbar)]
                         for dbar in dbars]
            return out

        monkeypatch.setattr(PolyZZbar, "_on_table", table)
        monkeypatch.setattr(PolyZZbar, "_on_points", points)
        fits = quotient_fits(problem)[0]
        monkeypatch.undo()
        full = [dbar for dbar, n in evals if n == m]
        assert full.count(False) == counts[name], name
        assert [n == m for dbar, n in evals if dbar] == [True] * len(fits)


def test_strided_ladder_builds_no_table_past_subsample_or_block(
        quartic_pair_128, monkeypatch):
    # beyond MAX_FIT_NODES the one table of the top degree spans the
    # stride subsample only; each full-node evaluation (one per field,
    # its values and dbar from one table) builds its tables one node
    # block at a time, the last block running to the end
    widths = []
    powers = bezout._powers
    monkeypatch.setattr(bezout, "_powers",
                        lambda z, d: widths.append(z.size) or powers(z, d))
    monkeypatch.setattr(bezout, "NODE_BLOCK", 1024)
    quotient_fits(quartic_pair_128)
    m = int(quartic_pair_128.mask.inside.sum())
    assert widths[0] == -(-m // 3) < m
    blocks = widths[1:]
    assert sum(blocks) == 2 * m
    assert len(blocks) == 2 * (m // 1024)
    assert max(blocks) < 2 * 1024 and min(blocks) == 1024


def test_poly_dbars_share_one_table_bitwise(quartic_pair, quartic_pair_128,
                                            monkeypatch):
    # at stride 1 (h = 1/64) the fits read the leading rows of the
    # ladder's degree-16 table; beyond MAX_FIT_NODES (h = 1/128) they are
    # evaluated in node blocks, of NODE_BLOCK and then of 1024 nodes,
    # which the node count is not a multiple of.  The recurrence makes
    # either bitwise a table of each fit's own degree over every node,
    # so the fits, x and dbar x do not depend on the block, and x and
    # dbar x are the quotient rule over own-degree one-table
    # evaluations, bit for bit
    block = bezout.NODE_BLOCK
    for problem in (quartic_pair, quartic_pair_128):
        mask = problem.mask
        m = int(mask.inside.sum())
        monkeypatch.setattr(bezout, "NODE_BLOCK", block)
        wide = quotient_fits(problem)
        monkeypatch.setattr(bezout, "NODE_BLOCK", 1024)
        assert m % 1024 and m // 1024 >= 12
        fits, x, dbx = quotient_fits(problem)
        assert [p.degree for p in fits] == [15, 14]
        for p, q in zip(fits, wide[0]):
            assert (p.coef.tobytes(), p.sup_error, p.cond) == (
                q.coef.tobytes(), q.sup_error, q.cond)
        for got, want in zip(x + dbx, wide[1] + wide[2]):
            assert got.tobytes() == want.tobytes()
        z = mask.coords(mask.inside)
        pv, dpv = [], []
        for p in fits:
            zp = bezout._powers(z, p.degree)
            pv.append(p._on_table(zp, zp.conj()))
            dpv.append(p._on_table(zp, zp.conj(), dbar=True))
        fv = [g.values[mask.inside] for g in problem.f_fields]
        dfv = [sample_field(wirtinger_dbar(f), mask).values[mask.inside]
               for f in QUARTIC]
        D = sum(p * f for p, f in zip(pv, fv))
        dD = sum(dp * f + p * df for p, dp, f, df in zip(pv, dpv, fv, dfv))
        for j, (p, dp) in enumerate(zip(pv, dpv)):
            assert x[j].tobytes() == (p / D).tobytes()
            assert dbx[j].tobytes() == ((dp * D - p * dD) / D ** 2).tobytes()


def test_poly_call_is_one_table_bitwise(rng, monkeypatch):
    # PolyZZbar.__call__ evaluates in node blocks, here of 64 points over
    # a 37 x 29 array (1073 points, not a multiple of 64); values and
    # dbar are bitwise those of one own-degree table over every point
    monkeypatch.setattr(bezout, "NODE_BLOCK", 64)
    z = rng.uniform(-1, 1, (37, 29)) + 1j * rng.uniform(-1, 1, (37, 29))
    flat = z.ravel()
    for degree in (0, 1, 7, 16):
        coef = np.triu(rng.normal(size=(degree + 1, degree + 1))
                       + 1j * rng.normal(size=(degree + 1, degree + 1)))
        p = PolyZZbar(degree, coef[:, ::-1].copy())
        zp = bezout._powers(flat, degree)
        want = p._on_table(zp, zp.conj()).reshape(z.shape)
        assert p(z).tobytes() == want.tobytes()
        if degree:
            want = p._on_table(zp, zp.conj(), dbar=True)
            assert p._on_points(flat, (True,))[0].tobytes() == want.tobytes()


_COEF = st.complex_numbers(max_magnitude=2, allow_nan=False,
                           allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 8), data=st.data())
def test_poly_dbar_matches_symbolic_dbar(degree, data):
    # dbar of c z^a conj(z)^b is b c z^a conj(z)^(b-1); the table-based
    # values and dbar must agree with the expression tree's
    coef = np.zeros((degree + 1, degree + 1), dtype=complex)
    for s in range(degree + 1):
        for a in range(s + 1):
            coef[a, s - a] = data.draw(_COEF)
    z = np.array(data.draw(st.lists(
        st.complex_numbers(max_magnitude=1, allow_nan=False,
                           allow_infinity=False), min_size=1, max_size=8)))
    p = PolyZZbar(degree, coef)
    scale = 1 + sum((1 + b) * abs(coef[a, b])
                    for a in range(degree + 1) for b in range(degree + 1))
    want_dbar = wirtinger_dbar(p.as_expr()).eval(z)
    zp = bezout._powers(z, degree)
    got_dbar = p._on_table(zp, zp.conj(), dbar=True)
    assert np.abs(got_dbar - want_dbar).max() <= 1e-12 * scale
    assert np.abs(p(z) - p.as_expr().eval(z)).max() <= 1e-12 * scale


@pytest.mark.parametrize("pair", ["linear_pair", "quartic_pair"])
def test_quotient_fits_returns_the_ladder_node_values(pair, request):
    # x = p / D comes from the fit ladder's own evaluation; it must be
    # the fits evaluated afresh on the Inside nodes, in coords order,
    # over their D
    problem = request.getfixturevalue(pair)
    fits, x, _ = quotient_fits(problem)
    inside = problem.mask.inside
    zin = problem.mask.coords(inside)
    want = [p(zin) for p in fits]
    want_D = sum(v * g.values[inside] for v, g in zip(want, problem.f_fields))
    assert np.abs(want_D).min() >= 0.5
    for got, ref in zip(x, want):
        ref = ref / want_D
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_quotient_fits_refuses_a_small_denominator(linear_pair, monkeypatch):
    # fits within tolerance force 1/2 <= |D| <= 3/2; node values scaled
    # by 0.3 (as inconsistent sampled norms would leave them) put every
    # |D| below 1/2, and the certificate must refuse them
    ladder = bezout._fit_ladder

    def shrunk(*args):
        fits, pv, dpv = ladder(*args)
        return fits, [0.3 * v for v in pv], dpv

    monkeypatch.setattr(bezout, "_fit_ladder", shrunk)
    with pytest.raises(ValueError, match=r"< 1/2 although every fit"):
        quotient_fits(linear_pair)


def test_bezout_poly_linear(linear_pair):
    xs = bezout_poly(linear_pair)
    z = linear_pair.mask.coords(linear_pair.mask.inside)
    total = sum(as_callable(x)(z) * as_callable(f)(z)
                for x, f in zip(xs, linear_pair.f_list))
    assert np.abs(total - 1).max() <= 1e-10
    # every x_j shares the combination denominator; certify its floor
    assert isinstance(xs[0], Quotient)
    denom = np.abs(as_callable(xs[0].den)(z))
    assert denom.min() >= 0.5


def test_bezout_poly_quartic(quartic_pair):
    xs = bezout_poly(quartic_pair)
    z = quartic_pair.mask.coords(quartic_pair.mask.inside)
    total = sum(as_callable(x)(z) * as_callable(f)(z)
                for x, f in zip(xs, quartic_pair.f_list))
    assert np.abs(total - 1).max() <= 1e-10
    assert np.abs(as_callable(xs[0].den)(z)).min() >= 0.5


def test_quartic_pair_has_exact_certificate():
    # z^2 (3 - 2z) + (1 - z)^2 (1 + 2z) = 1: integer coefficient check
    from numpy.polynomial import polynomial as P
    lhs = P.polyadd(P.polymul([0, 0, 3, -2], [1]),
                    P.polymul(P.polymul([1, -1], [1, -1]), [1, 2]))
    assert np.array_equal(lhs, [1])


def test_bezout_poly_rejects_common_zero(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Z, Z], mask=disk_mask_64)
    with pytest.raises(CommonZeroError):
        bezout_poly(p)


def test_bezout_poly_rejects_callables(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [lambda z: z + 2], mask=disk_mask_64)
    with pytest.raises(TypeError, match="expression generators"):
        bezout_poly(p)


def test_smoothstep_shape():
    assert smoothstep(np.array([0.0, 1 / 3, 2 / 3, 1.0])).tolist() == [0, 0, 1, 1]
    t = np.linspace(0, 1, 101)
    v = smoothstep(t)
    assert ((v >= 0) & (v <= 1)).all()
    assert (np.diff(v) >= 0).all()
    # C^2 at the seams: the second-difference jump shrinks linearly in
    # the probe step (only the third derivative is discontinuous)
    h = 1e-5
    for seam in (1 / 3, 2 / 3):
        second = np.diff(smoothstep(seam + h * np.arange(-2, 3)), 2) / h ** 2
        assert np.abs(np.diff(second)).max() < 600 * 3 * h


def test_partition_singleton(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Const(2.0)], mask=disk_mask_64)
    a = partition_of_unity(p)[0]
    assert np.abs(a.values[p.mask.inside] - 1).max() < 1e-14


def test_partition_sums_to_one(linear_pair):
    alphas = partition_of_unity(linear_pair)
    total = sum(a.values for a in alphas)
    assert np.abs(total - 1)[linear_pair.mask.inside].max() <= 1e-12


def test_partition_subordination(linear_pair):
    eps = linear_pair.delta / 4
    alphas = partition_of_unity(linear_pair)
    for a, g in zip(alphas, linear_pair.f_fields):
        dead = linear_pair.mask.inside & (np.abs(g.values) <= eps / 3)
        assert dead.any()
        assert np.abs(a.values[dead]).max() == 0


def test_partition_epsilon_too_large(linear_pair):
    with pytest.raises(CoveringError, match="too large"):
        partition_of_unity(linear_pair, epsilon=10 * linear_pair.delta)


def test_partition_names_the_common_zero(disk_mask_64):
    # Z and Z^2 vanish together only at the origin, a node of this grid
    p = BezoutProblem.build(Disk(0j, 1.0), [Z, intpow(Z, 2)],
                            mask=disk_mask_64)
    with pytest.raises(CommonZeroError) as err:
        partition_of_unity(p)
    assert err.value.nodes == (0j,)


def test_bezout_pou_residual(linear_pair):
    xs = bezout_pou(linear_pair)
    assert residual(xs, linear_pair) <= 1e-12
    eps = linear_pair.delta / 4
    for x in xs:
        assert np.isfinite(x.values).all()
        assert np.abs(x.values).max() <= 3 / eps + 1e-9


def test_partition_dbar_scale_is_refinement_stable():
    # max |dbar alpha| should scale like 1/eps with a constant that the
    # grid pins down; halving h must not move it by more than 20%
    consts = []
    for h in (1 / 64, 1 / 128):
        p = BezoutProblem.build(Disk(0j, 1.0), [Z, ONE_MINUS_Z], h=h)
        eps = p.delta / 4
        a = partition_of_unity(p)[0]
        d = dbar_fd(a)
        consts.append(np.abs(d.values)[p.mask.interior].max() * eps)
    ratio = consts[1] / consts[0]
    assert 0.8 <= ratio <= 1.25


def test_generalized_division_zero_dividend(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Z], mask=disk_mask_64)
    gs = generalized_division(Const(0.0), p, 0.1)
    assert all(np.abs(g.values).max() == 0 for g in gs)


def test_generalized_division_monomial(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Z], mask=disk_mask_64)
    gs = generalized_division(intpow(Z, 2), p, 1e-6)
    m = p.mask
    want = sample_field(intpow(Z, 2), m).values
    got = sum(g.values * f.values for g, f in zip(gs, p.f_fields))
    assert np.abs(got - want)[m.inside].max() <= 1e-10
    off = m.inside & (np.abs(m.grid.zgrid()) > 2 * m.grid.h)
    assert np.abs(gs[0].values - m.grid.zgrid())[off].max() <= 1e-12


def test_generalized_division_plateau(disk_mask_64):
    plateau = lambda z: np.where(np.abs(z) <= 0.3, 0.0,
                                 (np.abs(z) - 0.3) ** 2 * z)
    p = BezoutProblem.build(Disk(0j, 1.0), [Z], mask=disk_mask_64)
    gs = generalized_division(plateau, p, 0.1)
    m = p.mask
    want = sample_field(plateau, m).values
    got = sum(g.values * f.values for g, f in zip(gs, p.f_fields))
    assert np.abs(got - want)[m.inside].max() <= 1e-10


def test_generalized_division_needs_vanishing(disk_mask_64):
    p = BezoutProblem.build(Disk(0j, 1.0), [Z], mask=disk_mask_64)
    with pytest.raises(VanishingError) as err:
        generalized_division(Const(1.0), p, 0.1)
    assert len(err.value.nodes) > 0


def test_generalized_division_divides_on_node_vectors():
    # bumps, their total and each quotient live on the nodes off the
    # vanishing neighborhood: the call alone traced 35.5 MB when each
    # bump and product was a full-grid array, about 28 MB now
    p = BezoutProblem.build(Disk(0j, 1.0), [intpow(Z, 4), intpow(Z, 5)],
                            h=1 / 256)
    p.collar  # cached on the record: trace the call alone
    tracemalloc.start()
    try:
        gs = generalized_division(intpow(Z, 12), p, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert all(g.values.dtype == complex for g in gs)


def test_generalized_division_near_set_is_windowed():
    # the vanishing neighborhood comes from node windows around the 29
    # collar nodes, not from an Inside-by-collar distance matrix, which
    # alone would take about 100 MB here
    tracemalloc.start()
    try:
        p = BezoutProblem.build(Disk(0j, 1.0), [intpow(Z, 4), intpow(Z, 5)],
                                h=1 / 256)
        gs = generalized_division(intpow(Z, 12), p, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(p.collar.sum()) == 29
    assert peak < 60e6
    want = sample_field(intpow(Z, 12), p.mask).values
    got = sum(g.values * f.values for g, f in zip(gs, p.f_fields))
    assert np.abs(got - want)[p.mask.inside].max() <= 1e-12
