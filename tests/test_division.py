"""Division-certificate tests.

The class probes are validated against quotients whose limiting
behavior is known in closed form: inner-function pairs whose radial
and along-circle limits at the boundary disagree, z^N over conj(z)
where the failing derivative layer is an explicit unimodular field,
and the piecewise-constant divisor on the shrinking sector chain whose
two corner families have tails 2i versus 2.  Each optimal power is
pinned from both sides: FAIL one power below, PASS at the power.

Oracle notes.  The along-circle family for the inner-function pairs is
chosen where the inner factor equals 1 exactly (cot(theta/2) a
multiple of 2 pi), so the FAIL spread is 1.0 by construction, not by
measurement.  The derivative-bound constants are checked against the
hand maximum of |5 z^4| / |z| = 5|z|^3 on the shrunk disk.
"""

import weakref
from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dbarkit import bezout, cauchy, cli, corona, division, domains
from dbarkit.cauchy import SampledField, sample_field, zero_extended
from dbarkit.division import (CLASSES, FAIL, INCONCLUSIVE, PASS,
                              PROBE_RADII_CELLS, DivisionProblem,
                              DominationError, certify_class,
                              derivative_bound_scan, divide, dominated,
                              multi_division_c1, multi_division_continuous,
                              quotient_extension_lemma, spread)
from dbarkit.domains import Disk, GridSpec, RegionMask, SectorChain, build_mask
from dbarkit.expr import Z, S, Const, add, as_callable, conj, intpow, mul, sub

DISK = Disk(0j, 1.0)


def inner_num(z):
    z = np.asarray(z, dtype=complex)
    den = 1 - z
    safe = den != 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.exp(-(1 + z) / np.where(safe, den, 1.0))
    return np.where(safe, w, 0.0)


def blaschke_like_pair():
    f = lambda z: (1 - np.asarray(z, complex)) * inner_num(z)
    g = lambda z: 1 - np.asarray(z, complex)
    return f, g


def boundary_families(count=8):
    # radial approach to 1, and along-circle approach through the
    # points where the inner factor is exactly 1
    ks = np.arange(1, count + 1, dtype=float)
    radial = [1.0 - 2.0 ** -k for k in ks]
    theta = 2.0 * np.arctan(1.0 / (2 * np.pi * 2.0 ** ks))
    return {"radial": radial, "circle": list(np.exp(1j * theta))}


# --- divide -------------------------------------------------------------------


def test_divide_closed_form(disk_mask_64):
    fld = divide(Z, conj(Z), 2, mask=disk_mask_64)
    m = disk_mask_64
    z = m.grid.zgrid()
    off = m.inside & (np.abs(z) > 0)
    expect = z[off] ** 2 / np.conj(z[off])
    assert np.abs(fld.values[off] - expect).max() < 1e-13
    iy, ix = m.grid.nearest_index(0j)
    assert fld.values[iy, ix] == 0


def test_divide_bound_by_power(disk_mask_64):
    # |f^N/g| <= |f|^(N-1) when |f| <= |g|
    fld = divide(Z, conj(Z), 3, mask=disk_mask_64)
    z = disk_mask_64.grid.zgrid()
    sel = disk_mask_64.inside
    assert (np.abs(fld.values[sel]) <= np.abs(z[sel]) ** 2 + 1e-12).all()


def test_divide_rejects_undominated(disk_mask_64):
    with pytest.raises(DominationError, match=r"\|f\| <= \|g\|") as exc:
        divide(Const(1.0), Z, 2, mask=disk_mask_64)
    assert exc.value.worst is not None


def test_divide_by_zero_everywhere_raises(disk_mask_64):
    # every node lies in Z(0): a domination check on no node must fail
    with pytest.raises(DominationError, match="no node"):
        divide(Z, Const(0.0), 3, mask=disk_mask_64)


def test_divide_rejects_bad_power(disk_mask_64):
    with pytest.raises(ValueError, match="positive"):
        divide(Z, Z, 0, mask=disk_mask_64)


def test_divide_sampled_fields_matches_the_full_grid_rule(disk_mask_64):
    # the quotient of sampled fields (as g12_solve forms it) is bitwise
    # the full-grid rule: f^N on the whole grid, divided on the live nodes
    m = disk_mask_64
    z = np.where(m.inside, m.grid.zgrid(), 0)
    noise = np.random.default_rng(7).standard_normal(z.shape)
    f = np.where(m.inside, (z * (1 - z)) ** 2 / 2, 0)
    g = np.where(m.inside, z * (4 + z + 0.1 * noise), 0)
    got = divide(SampledField(m, f), SampledField(m, g), 4, mask=m).values
    zero = m.inside & (np.abs(g) <= division.ZERO_REL * np.abs(g[m.inside]).max())
    live = m.inside & ~zero
    want = np.zeros(m.inside.shape, complex)
    want[live] = (f ** 4)[live] / g[live]
    assert zero.sum() == 1
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_divide_singular_numerator_skips_zero_set(disk_mask_64):
    # the inner factor cannot be evaluated at z = 1, which is a grid
    # node; divide must not touch it
    f, g = blaschke_like_pair()
    fexpr = mul(sub(Const(1.0), Z), S)
    fld = divide(fexpr, sub(Const(1.0), Z), 2, mask=disk_mask_64)
    iy, ix = disk_mask_64.grid.nearest_index(1.0 + 0j)
    assert fld.values[iy, ix] == 0
    assert np.isfinite(fld.values).all()


# --- the node-vector record ---------------------------------------------------


@lru_cache(maxsize=None)
def _record_mask(name, n):
    # an off-center disk (74,116 Inside nodes at h = 1/128, so blocks of
    # 20,000 make three, the last 34,116 wide) and the sector chain on
    # its non-square grid
    dom = SectorChain(8) if name == "chain" else Disk(0.1 + 0.05j, 1.2)
    return build_mask(dom, h=1 / n)


def _full_grid_record(f, g, mask):
    """(zero, live, f_live, g_live) by the full-grid rule: f and g
    sampled on the grid by sample_field, the zero floor and the
    domination check on full-grid moduli."""
    gv = sample_field(g, mask).values
    ga = np.abs(gv)
    zero = mask.inside & (ga <= division.ZERO_REL * ga[mask.inside].max())
    live = mask.inside & ~zero
    fv = sample_field(f, mask, zero_on=zero).values
    division.check_domination(np.abs(fv), ga, mask, "|f| <= |g| off Z(g)",
                              sel=live)
    return zero, live, fv[live], gv[live]


def _outcome(make):
    # the arrays made, or the error raised with its text and nodes
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in make()]
    except ValueError as err:
        return (type(err), str(err),
                np.asarray(getattr(err, "nodes", ())).tobytes(),
                repr(getattr(err, "worst", None)))


@pytest.mark.parametrize("trouble", [None, "nan f", "nan g", "undominated",
                                     "other grid"])
@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([("disk", 32), ("disk", 64), ("disk", 128),
                             ("chain", 128), ("chain", 256), ("chain", 512)]),
       kinds=st.lists(st.sampled_from(["expr", "callable", "field"]),
                      min_size=2, max_size=2),
       block=st.sampled_from([cauchy.SAMPLE_BLOCK, 20000]),
       data=st.data())
def test_node_vector_record_is_the_full_grid_rule_bitwise(trouble, grid, kinds,
                                                          block, data):
    # f_live, g_live, zero and live are bitwise those of sampling f and g
    # on the whole grid; the value scale is quotient(N)'s Inside sup; each
    # node is evaluated once; and an error keeps its type, text and nodes:
    # non-finite samples of a callable f or g, f past g on part of the
    # grid, and a sampled f or g from another grid
    mask = _record_mask(*grid)
    h = mask.grid.h
    inside = mask.coords(mask.inside)
    a = inside[data.draw(st.integers(0, inside.size - 1))]
    a += data.draw(st.sampled_from([0, 0.3 * h]))  # a zero on or off a node
    b = complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2)))
    t = data.draw(st.floats(0.05, 0.7))
    w = data.draw(st.sampled_from([Z, conj(Z)]))
    g = mul(sub(Z, Const(a)), add(Z, Const(b)))
    # 1 + t w exceeds 1 in modulus wherever t w has a positive real part
    f = mul(add(Const(1.0), mul(Const(t), w)) if trouble == "undominated"
            else mul(Const(t), w), g)
    spot = inside[data.draw(st.integers(0, inside.size - 1))]
    if trouble in ("nan f", "nan g"):
        kinds["fg".index(trouble[-1])] = "callable"
    if trouble == "other grid":
        kinds[data.draw(st.integers(0, 1))] = "other grid"
    evaluated = Counter()

    def given_as(kind, expr, name):
        if kind == "expr":
            return expr
        if kind != "callable":
            return sample_field(expr, mask if kind == "field" else
                                _record_mask(grid[0], 2 * grid[1]))
        fn = as_callable(expr)

        def call(z):
            evaluated[name] += z.size
            v = fn(z)
            if trouble == f"nan {name}":
                v = np.where(np.abs(z - spot) < 5 * h, np.nan, v)
            return v
        return call

    fin, gin = given_as(kinds[0], f, "f"), given_as(kinds[1], g, "g")
    want = _outcome(lambda: _full_grid_record(fin, gin, mask))
    assert isinstance(want, tuple) == (trouble is not None)
    evaluated.clear()

    def record_arrays():
        r = DivisionProblem.build(fin, gin, mask=mask)
        return r.zero, r.live, r.f_live, r.g_live

    with mock.patch.object(cauchy, "SAMPLE_BLOCK", block):
        assert _outcome(record_arrays) == want
        if trouble is not None:
            return
        record = DivisionProblem.build(fin, gin, mask=mask)
        for n in (1, 2, 3):
            assert record._value_scale(n) == record.quotient(n).max_abs()
    if kinds[1] == "callable":
        assert evaluated["g"] == 2 * mask.inside.sum()
    if kinds[0] == "callable":
        assert evaluated["f"] == 2 * record.live.sum()


def test_record_zero_set_keeps_a_node_at_exactly_the_floor():
    # max |g| = 1, so the floor is ZERO_REL exactly, and a node where
    # |g| equals it is a zero of g
    m = build_mask(DISK, h=1 / 32)
    g = np.where(m.inside, 1.0 + 0j, 0)
    iy, ix = m.grid.nearest_index(0.25 + 0.5j)
    g[iy, ix] = division.ZERO_REL
    record = DivisionProblem.build(SampledField(m, 0.5 * g),
                                   SampledField(m, g), mask=m)
    assert np.flatnonzero(record.zero).tolist() == [iy * m.grid.nx + ix]
    assert np.array_equal(record.live, m.inside & ~record.zero)


# --- probe helpers ------------------------------------------------------------


def test_spread_matches_diameter():
    vals = np.array([0, 1, 1j, -2])
    assert spread(vals) == pytest.approx(3.0)
    assert spread(np.array([])) == 0.0


def test_spread_is_exact_past_512_values():
    # the extreme pair sits at indices 0 and 1, which a stride-2
    # subsample of the 600 values would split
    vals = np.zeros(600, complex)
    vals[1] = 1.0
    assert spread(vals) == 1.0


def test_ring_selection_radius(disk_mask_64):
    m = disk_mask_64
    (yy, xx), = division._rings(m, 0j, (0.25,))
    z = m.grid.zgrid()
    assert yy.size
    r = np.abs(z[yy, xx])
    assert (np.abs(r - 0.25) <= m.grid.h).all()


def test_zero_centers_locates_roots(disk_mask_64):
    z = disk_mask_64.grid.zgrid()
    mag = np.abs(z - 0.5) * np.abs(z + 0.5)
    centers = division._centroids(disk_mask_64,
                                  disk_mask_64.inside & (mag <= 1e-12))
    assert sorted(np.round(c.real, 6) for c in centers) == [-0.5, 0.5]


def test_zero_centers_match_the_full_grid_rule(disk_mask_64):
    # clusters of several nodes, averaged in their bounding windows, give
    # bitwise the centroid of the full-grid selection
    m = disk_mask_64
    z = m.grid.zgrid()
    mag = np.abs(z - 0.5) * np.abs(z + 0.3j) * np.abs(z + 0.77 - 0.1j)
    sel = m.inside & (mag <= 0.02)
    labels, count = ndimage.label(sel)
    want = [complex(z[labels == lab].mean()) for lab in range(1, count + 1)]
    assert count == 3 and min(np.bincount(labels.ravel())[1:]) > 1
    assert division._centroids(m, sel) == want


@lru_cache(maxsize=None)
def _ring_mask(name):
    if name == "disk":
        return build_mask(Disk(0.3 + 0.2j, 0.6), h=1 / 64)
    return build_mask(SectorChain(8), h=1 / 256)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["disk", "chain"]), data=st.data())
def test_windowed_rings_match_the_full_grid_rule(name, data):
    # the same nodes, in row-major order, with bitwise-equal coordinates,
    # for centers on nodes, between nodes, near or past the grid's edges
    # and at tagged points; RegionMask.near likewise on point sets (a
    # collar-like node cluster, scattered points) against the all-pairs
    # Inside-by-points distance rule
    mask = _ring_mask(name)
    grid = mask.grid
    h = grid.h
    lo = grid.origin
    hi = grid.node(grid.nx - 1, grid.ny - 1)
    pad = 40 * h
    points = st.one_of(
        st.builds(grid.node, st.integers(0, grid.nx - 1),
                  st.integers(0, grid.ny - 1)),
        st.builds(complex, st.floats(lo.real - pad, hi.real + pad),
                  st.floats(lo.imag - pad, hi.imag + pad)),
        st.sampled_from((lo, hi, complex(lo.real, hi.imag))
                        + mask.tagged_points))
    center = data.draw(points)
    radii = [k * h for k in PROBE_RADII_CELLS]
    zg = grid.zgrid()
    dist = np.abs(zg - center)
    for r, (yy, xx) in zip(radii, division._rings(mask, center, radii)):
        full = mask.inside & (np.abs(dist - r) <= h)
        iy, ix = np.nonzero(full)
        assert np.array_equal(yy, iy) and np.array_equal(xx, ix)
        assert grid.node(xx, yy).tobytes() == mask.coords(full).tobytes()

    reach = data.draw(st.one_of(st.sampled_from((4 * h, 0.25)),
                                st.integers(0, 12).map(lambda k: k * h),
                                st.floats(0, 12 * h)))
    yy, xx, d = mask.around(center, reach)
    full = mask.inside & (dist <= reach + h)
    within = d <= reach + h
    assert np.array_equal(np.nonzero(full), (yy[within], xx[within]))
    assert d[within].tobytes() == dist[full].tobytes()

    iy, ix = grid.nearest_index(data.draw(points))
    k = data.draw(st.integers(0, 3))
    cluster = np.zeros_like(mask.inside)
    cluster[max(iy - k, 0):iy + k + 1, max(ix - k, 0):ix + k + 1] = True
    zin = mask.coords(mask.inside)
    for pts in (mask.coords(cluster & mask.inside),
                np.array(data.draw(st.lists(points, max_size=6)), complex)):
        want = np.zeros_like(mask.inside)
        if pts.size:
            pair = np.abs(zin[:, None] - pts[None, :]).min(axis=1)
            want[mask.inside] = pair <= reach
        assert np.array_equal(mask.near(pts, reach), want)


def test_near_keeps_nodes_at_exactly_the_distance():
    # the certificate's two reaches, 4h (away set) and 0.25 (holomorphy
    # exclusion): on the unit disk at h = 1/64 every node coordinate is
    # a dyadic rational, so nodes 4 and 16 cells from the origin along
    # an axis sit at exactly 4h and 0.25
    mask = build_mask(DISK, h=1 / 64)
    h = mask.grid.h
    zg = mask.grid.zgrid()
    for reach in (4 * h, 0.25):
        near = mask.near([0j], reach)
        assert np.array_equal(near, mask.inside & (np.abs(zg) <= reach))
        assert near[np.abs(zg) == reach].all()
        assert (np.abs(zg) == reach).sum() >= 4


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["disk", "chain"]), data=st.data())
def test_live_rings_are_the_full_grid_rule_on_the_live_nodes(name, data):
    # for random live sets (Inside nodes kept at a drawn rate), each
    # center's ring nodes at each probe radius are exactly the live
    # nodes within one spacing of the circle, in row-major order
    mask = _ring_mask(name)
    grid = mask.grid
    h = grid.h
    lo = grid.origin
    hi = grid.node(grid.nx - 1, grid.ny - 1)
    rate = data.draw(st.floats(0, 1))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    live = mask.inside & (
        np.random.default_rng(seed).random(mask.inside.shape) < rate)
    centers = data.draw(st.lists(st.one_of(
        st.builds(grid.node, st.integers(0, grid.nx - 1),
                  st.integers(0, grid.ny - 1)),
        st.builds(complex, st.floats(lo.real, hi.real),
                  st.floats(lo.imag, hi.imag))), max_size=3))
    radii, rings = division._live_rings(mask, centers, live)
    assert radii == [k * h for k in PROBE_RADII_CELLS]
    assert len(rings) == len(centers)
    zg = grid.zgrid()
    for c, ring in zip(centers, rings):
        dist = np.abs(zg - c)
        assert len(ring) == len(radii)
        for r, (yy, xx) in zip(radii, ring):
            full = live & (np.abs(dist - r) <= h)
            iy, ix = np.nonzero(full)
            assert np.array_equal(yy, iy) and np.array_equal(xx, ix)


def test_certificate_verdict_does_not_depend_on_which_way_up_the_data_lies():
    # the two close zeros lie 8 cells apart, so each innermost ring runs
    # through the other zero; the rings hold only live nodes, so no ring
    # evaluates f^N/g as 0/0 there (a RuntimeWarning fails the suite),
    # and the mirror images read the same PASS
    measured = []
    for c in (-0.5 + 0.5j, -0.5 - 0.5j):
        g = mul(mul(sub(Z, Const(0.09375)), add(Z, Const(0.03125))),
                sub(Z, Const(c)))
        cert = certify_class(mul(Const(0.5), g), g, 3, DISK, "C0", h=1 / 64)
        value = cert.probe("value")
        assert value.verdict == PASS
        measured.append(value.measured)
    assert measured[0] == pytest.approx(0.0025427, abs=1e-7)
    assert measured[1] == pytest.approx(measured[0], rel=1e-12)


def test_derivative_scales_skip_a_zero_line_of_the_divisor():
    # g = 2 Re z vanishes on the imaginary axis, far from the zero
    # cluster's centroid; the away set holds only live nodes, so no
    # derivative layer's scale is evaluated on Z(g), where its symbolic
    # quotient has a pole
    g = add(Z, conj(Z))
    cert = certify_class(mul(Const(0.5), g), g, 3, DISK, "C1", h=1 / 64)
    assert [(p.name, p.verdict) for p in cert.probes] == [
        ("value", PASS), ("d", INCONCLUSIVE), ("dbar", INCONCLUSIVE)]
    assert cert.probe("value").measured == pytest.approx(0.009765625)
    for name in ("d", "dbar"):
        assert cert.probe(name).measured == pytest.approx(0.140625)
        assert cert.probe(name).scale == pytest.approx(0.46875)


# --- the optimal-power battery ------------------------------------------------


def test_value_class_fails_below_power_two():
    f, g = blaschke_like_pair()
    cert = certify_class(f, g, 1, DISK, "C0", families=boundary_families())
    assert cert.verdict == FAIL
    p = cert.probe("value")
    assert p.measured == pytest.approx(1.0, abs=1e-6)
    assert p.scale == pytest.approx(1.0, abs=1e-6)


def test_value_class_passes_at_power_two():
    f, g = blaschke_like_pair()
    cert = certify_class(f, g, 2, DISK, "C0", families=boundary_families())
    assert cert.verdict == PASS
    assert cert.probe("value").measured < 0.004


def test_disk_algebra_fails_below_power_two():
    f, g = blaschke_like_pair()
    cert = certify_class(f, g, 1, DISK, "A0", families=boundary_families())
    assert cert.verdict == FAIL


def test_disk_algebra_passes_at_power_two():
    # grid probes this time: rings around the divisor zero plus the
    # discrete-holomorphy check
    f, g = blaschke_like_pair()
    cert = certify_class(f, g, 2, DISK, "A0")
    assert cert.verdict == PASS
    assert cert.probe("holomorphy").verdict == PASS


def test_c1_fails_below_power_three():
    cert = certify_class(Z, conj(Z), 2, DISK, "C1", h=1 / 512)
    assert cert.verdict == FAIL
    # d(z^2/conj z) = 2z/conj z has spread 4 on any origin ring
    assert cert.probe("d").measured == pytest.approx(4.0, abs=0.1)
    assert cert.probe("dbar").measured == pytest.approx(2.0, abs=0.1)


def test_c1_passes_at_power_three():
    cert = certify_class(Z, conj(Z), 3, DISK, "C1", h=1 / 512)
    assert cert.verdict == PASS


def test_dbar_class_fails_below_power_four():
    cert = certify_class(Z, conj(Z), 3, DISK, "Dbar1", h=1 / 512)
    assert cert.verdict == FAIL
    assert cert.probe("d_of_dbar").verdict == FAIL
    assert cert.probe("dbar_of_dbar").verdict == FAIL
    assert cert.probe("dbar").verdict == PASS


def test_dbar_class_passes_at_power_four():
    cert = certify_class(Z, conj(Z), 4, DISK, "Dbar1", h=1 / 512)
    assert cert.verdict == PASS


def test_smooth_algebra_fails_below_power_two():
    one_minus = sub(Const(1.0), Z)
    cert = certify_class(mul(intpow(one_minus, 3), S), intpow(one_minus, 3),
                         1, DISK, "A1")
    assert cert.verdict == FAIL
    assert cert.probe("d").verdict == FAIL


def test_smooth_algebra_passes_at_power_two():
    one_minus = sub(Const(1.0), Z)
    cert = certify_class(mul(intpow(one_minus, 3), S), intpow(one_minus, 3),
                         2, DISK, "A1")
    assert cert.verdict == PASS


def test_probes_on_nothing_measured_are_inconclusive():
    # the 8-cell margin and the 8h..32h rings leave no node on a disk of
    # radius 0.05 at h = 1/128; z conj(z) is not holomorphic, so nothing
    # measured must not read as a pass
    cert = certify_class(mul(Z, Z, conj(Z)), Z, 1, Disk(0j, 0.05), "A0",
                         h=1 / 128)
    assert cert.verdict == INCONCLUSIVE
    for name in ("value", "holomorphy"):
        assert np.isnan(cert.probe(name).measured)
        assert cert.probe(name).verdict == INCONCLUSIVE
    # likewise the gradient evidence: z^2/conj(z) is not C1, and no ring
    # holds a node to show it
    _, rep = multi_division_c1(Z, [conj(Z)], Disk(0j, 0.05), power=2)
    assert np.isnan(rep["growth_toward_zero"])
    assert not rep["gradient_bounded"]


def test_verdict_ladder_thresholds():
    # PASS at or below 0.05 of the scale, FAIL at or above 0.5
    grade = division._grade
    assert [grade(m, 2.0) for m in (0.0, 0.1, 0.11, 0.99, 1.0, 5.0)] == [
        PASS, PASS, INCONCLUSIVE, INCONCLUSIVE, FAIL, FAIL]
    assert grade(float("nan"), 1.0) == grade(0.0, float("nan")) == INCONCLUSIVE
    assert (grade(0.0, 0.0), grade(1e-300, 0.0)) == (PASS, FAIL)


def test_single_family_is_inconclusive():
    # z/conj(z) is discontinuous at 0, but one approach family has no
    # second tail to disagree with; the probe must not read as a pass
    radial = {"radial": [0.5, 0.25, 0.125, 0.0625]}
    cert = certify_class(Z, conj(Z), 1, DISK, "C0", families=radial)
    assert np.isnan(cert.probe("value").measured)
    assert cert.verdict == INCONCLUSIVE
    both = dict(radial, imaginary=[0.5j, 0.25j, 0.125j, 0.0625j])
    cert = certify_class(Z, conj(Z), 1, DISK, "C0", families=both)
    assert cert.verdict == FAIL


@pytest.mark.parametrize("order", [("b", "a"), ("a", "b")])
def test_empty_family_is_refused(order):
    # an empty family's tail mean is NaN, and a max over NaN gaps
    # depends on the order: listed after a real family, it made the
    # discontinuous z/conj(z) read PASS at 0.0.  Families are caller
    # input, so it raises
    points = {"b": [0.5, 0.25, 0.125], "a": []}
    families = {name: points[name] for name in order}
    with pytest.raises(ValueError, match="approach family 'a' has no point"):
        certify_class(Z, conj(Z), 1, DISK, "C0", h=1 / 32, families=families)


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_nan_tail_reads_nan_in_either_family_order(order):
    # family a ends on Z(g), where z/conj(z) is 0/0, so its tail is
    # NaN; its gap to b must read NaN whichever family comes first (a
    # Python max over the gaps read nan one way round and 0.0 the other)
    points = {"a": [0.5, 0.25, 0.0], "b": [0.5j, 0.25j, 0.125j]}
    families = {name: points[name] for name in order}
    with np.errstate(invalid="ignore"):
        cert = certify_class(Z, conj(Z), 1, DISK, "C0", h=1 / 32,
                             families=families)
    assert np.isnan(cert.probe("value").measured)
    assert cert.verdict == INCONCLUSIVE


class TestSectorChain:
    chain = SectorChain(8)

    @classmethod
    def divisor(cls):
        corners = np.array([cls.chain.corner(n) for n in range(1, 9)])

        def g(z):
            z = np.asarray(z, dtype=complex)
            idx = np.clip(cls.chain.sector_index(z) - 1, 0, 7)
            piece = np.conj(corners[idx])
            return np.where(cls.chain.sector_index(z) > 0, piece, 1.0)

        return g

    @classmethod
    def families(cls):
        corners = [cls.chain.corner(n) for n in range(1, 9)]
        return {"corner": corners, "conj_corner": [np.conj(c) for c in corners]}

    def test_fails_below_power_three(self):
        cert = certify_class(Z, self.divisor(), 2, self.chain, "A1",
                             h=1 / 256, families=self.families(),
                             g_locally_constant=True)
        assert cert.verdict == FAIL
        # tails of d(z^2)/g are 2i along corners, 2 along conjugates
        assert cert.probe("d").measured == pytest.approx(2 * np.sqrt(2), abs=1e-3)

    def test_passes_at_power_three(self):
        cert = certify_class(Z, self.divisor(), 3, self.chain, "A1",
                             h=1 / 256, families=self.families(),
                             g_locally_constant=True)
        assert cert.verdict == PASS


def test_certify_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown class"):
        certify_class(Z, Z, 1, DISK, "C2")


def test_certify_derivative_layers_need_expressions():
    with pytest.raises(ValueError, match="expression"):
        certify_class(lambda z: z, lambda z: z, 1, DISK, "C1")


# the probes each class yields on rings; on approach families the same
# layers without the holomorphy probe
RING_PROBES = {
    "C0": ["value"],
    "C1": ["value", "d", "dbar"],
    "A0": ["value", "holomorphy"],
    "A1": ["value", "d", "holomorphy"],
    "Dbar1": ["value", "dbar", "d_of_dbar", "dbar_of_dbar"],
}
TOWARD_ZERO = {"radial": [2.0 ** -k for k in range(1, 9)],
               "diagonal": [(1 + 1j) * 2.0 ** -k for k in range(1, 9)]}


def test_class_table_lists_the_five_classes_in_order():
    assert list(CLASSES) == list(RING_PROBES)


@pytest.mark.parametrize("claimed", list(RING_PROBES))
def test_probe_names_per_class(claimed):
    rings = certify_class(Z, conj(Z), 4, DISK, claimed, h=1 / 64)
    fams = certify_class(Z, conj(Z), 4, DISK, claimed, h=1 / 64,
                         families=TOWARD_ZERO)
    assert [p.name for p in rings.probes] == RING_PROBES[claimed]
    assert [p.name for p in fams.probes] == [
        n for n in RING_PROBES[claimed] if n != "holomorphy"]


@pytest.fixture
def ring_builds(monkeypatch):
    """One (center, radii) entry per ring construction while the test runs."""
    calls = []
    build = division._rings
    monkeypatch.setattr(division, "_rings", lambda mask, c, radii: (
        calls.append((c, tuple(radii))) or build(mask, c, radii)))
    return calls


def test_certificate_builds_each_ring_once(ring_builds):
    # four layers share one ring geometry: each center's rings are built
    # once, at every probe radius, not once per layer
    g = mul(Z, sub(Z, Const(0.5)))
    cert = certify_class(g, g, 2, DISK, "Dbar1", h=1 / 128)
    centers = list(cert.probe("value").details["per_center"])
    assert len(cert.probes) == 4 and len(centers) == 2
    radii = tuple(cert.probe("value").details["radii"])
    assert ring_builds == [(c, radii) for c in centers]


def test_record_certifies_two_powers_on_one_sampling(ring_builds, monkeypatch):
    # g and f are sampled once for both powers, straight into node
    # vectors (never through the full-grid sample_field), and each
    # center's rings are built once, on the first ring certificate
    sampled, full_grid = [], []
    sample = division.sample_nodes
    monkeypatch.setattr(division, "sample_nodes", lambda fn, *a: (
        sampled.append(fn) or sample(fn, *a)))
    monkeypatch.setattr(division, "sample_field",
                        lambda fn, *a, **kw: full_grid.append(fn))
    g = mul(Z, sub(Z, Const(0.5)))
    f = mul(Z, g)
    problem = DivisionProblem.build(f, g, DISK, h=1 / 128)
    at, below = problem.certify(2, "Dbar1"), problem.certify(1, "Dbar1")
    assert [fn is g for fn in sampled] == [True, False] and sampled[1] is f
    assert full_grid == []
    centers = list(at.probe("value").details["per_center"])
    assert len(centers) == 2
    assert list(below.probe("value").details["per_center"]) == centers
    radii = tuple(at.probe("value").details["radii"])
    assert ring_builds == [(c, radii) for c in centers]


def test_blocked_scale_evaluates_each_away_node_once(monkeypatch):
    # with blocks far smaller than the away set, every away node is
    # evaluated exactly once per derivative layer, at its RegionMask.coords
    # coordinate, in blocks of 1000 nodes but the last (which runs to
    # the end), and the scales are the one-shot sups
    one_shot = certify_class(Z, conj(Z), 3, DISK, "C1", h=1 / 128)
    blocks = []
    blocked = division._blocked_sup

    def counted(fn, mask, nodes):
        layer = []
        blocks.append((nodes.size, layer))
        return blocked(lambda p: layer.append(p) or fn(p), mask, nodes)

    monkeypatch.setattr(cauchy, "SAMPLE_BLOCK", 1000)
    monkeypatch.setattr(division, "_blocked_sup", counted)
    cert = certify_class(Z, conj(Z), 3, DISK, "C1", h=1 / 128)
    mask = build_mask(DISK, h=1 / 128)
    z = mask.grid.zgrid()
    away = domains.interior_shrunk(mask, 3) & (np.abs(z) > 4 * mask.grid.h)
    assert len(blocks) == 2 and away.sum() > 20 * 1000
    for size, layer in blocks:
        sizes = [p.size for p in layer]
        assert size == away.sum() == sum(sizes)
        assert set(sizes[:-1]) == {1000} and 1000 <= sizes[-1] < 2000
        assert np.concatenate(layer).tobytes() == mask.coords(away).tobytes()
    assert repr(cert) == repr(one_shot)


def test_blocked_sup_reads_nan_on_no_point():
    mask = build_mask(DISK, h=1 / 16)
    assert np.isnan(division._blocked_sup(np.abs, mask, np.zeros(0, int)))


def test_battery_releases_each_record_before_the_next_build(monkeypatch):
    # no earlier item's record (with its cached probe geometry) is alive
    # while the next item samples its data
    records, alive_at_build = [], []
    build = DivisionProblem.build

    def tracked(*args, **kwargs):
        alive_at_build.append(sum(r() is not None for r in records))
        record = build(*args, **kwargs)
        records.append(weakref.ref(record))
        return record

    monkeypatch.setattr(DivisionProblem, "build", tracked)
    cli.sharpness_battery(h_fine=1 / 64, h_chain=1 / 128)
    assert alive_at_build == [0] * 6


def test_battery_builds_one_mask_per_item(monkeypatch):
    built = []
    build = domains.build_mask
    monkeypatch.setattr(domains, "build_mask",
                        lambda *a, **kw: built.append(kw.get("h")) or build(*a, **kw))
    items = cli.sharpness_battery(h_fine=1 / 128, h_chain=1 / 256)
    assert len(items) == 6 and len(built) == 6


@pytest.mark.parametrize("item", cli._sharpness_items(1 / 512, 1 / 256),
                         ids=lambda item: item[0])
def test_record_certificates_match_independent_calls(item):
    # one record certifying both powers gives the same probes, verdicts,
    # measured values, scales and details as two certify_class calls
    name, claimed, _, dom, power, f, g, build, fams_at, fams_below = item
    problem = DivisionProblem.build(f, g, dom, **build)
    for n, fams in ((power, fams_at), (power - 1, fams_below)):
        alone = certify_class(f, g, n, dom, claimed, families=fams, **build)
        assert repr(problem.certify(n, claimed, fams)) == repr(alone)


# --- derivative bound scan ----------------------------------------------------


def test_scan_constant_matches_hand_maximum():
    # q = (z^2)^3 / z = z^5, n = 1: |q'| / |z|^(m-n+1) = 5 |z|^3
    rep = derivative_bound_scan(intpow(Z, 2), Z, 1, 1, DISK)
    shrunk = 1.0 - 2.5 / 64  # outermost node the margin keeps, roughly
    assert rep["C"][0] == pytest.approx(4.2302231721, rel=1e-9)
    assert rep["C"][-1] == pytest.approx(4.6097531608, rel=1e-9)
    assert rep["C"][-1] <= 5.0
    assert rep["C"][0] >= 5.0 * shrunk ** 3 * 0.9
    assert rep["stable"]


def test_scan_zeroth_order():
    rep = derivative_bound_scan(intpow(Z, 2), Z, 1, 0, DISK)
    assert rep["C"][-1] == pytest.approx(0.9219506322, rel=1e-9)
    assert rep["stable"]


def test_scan_mixed_partials_match_holomorphic_derivative():
    # mixed x/y partials of a holomorphic quotient differ from the
    # z-derivative by a unimodular factor, so the constant is identical
    plain = derivative_bound_scan(intpow(Z, 2), Z, 1, 1, DISK)
    mixed = derivative_bound_scan(intpow(Z, 2), Z, 1, 1, DISK, mixed=(0, 1))
    assert mixed["C"] == plain["C"]
    assert mixed["n"] == 1


def test_scan_builds_each_level_mask_once(monkeypatch):
    # the coarsest level's mask also gives the sup of g
    built = []
    build = division.build_mask
    monkeypatch.setattr(division, "build_mask",
                        lambda *a, **kw: built.append(kw["h"]) or build(*a, **kw))
    rep = derivative_bound_scan(intpow(Z, 2), Z, 1, 1, DISK,
                                levels=(1 / 64, 1 / 128))
    assert sorted(built) == [1 / 128, 1 / 64]
    assert rep["C"][0] == pytest.approx(4.2302231721, rel=1e-9)


def test_scan_order_capped_by_smoothness():
    with pytest.raises(ValueError, match="0 <= n <= m"):
        derivative_bound_scan(intpow(Z, 2), Z, 1, 2, DISK)


def test_scan_rejects_conjugate_data():
    with pytest.raises(ValueError, match="conjugation-free"):
        derivative_bound_scan(conj(Z), Z, 1, 1, DISK)


@pytest.mark.parametrize("levels", [(1 / 64,), (1 / 64, 1 / 64)])
def test_scan_needs_two_distinct_spacings(levels):
    # one spacing compares a constant with itself: ratio 1, always stable
    with pytest.raises(ValueError,
                       match="at least 2 positive, strictly decreasing"):
        derivative_bound_scan(intpow(Z, 2), Z, 1, 1, DISK, levels=levels)


# --- multi-generator division -------------------------------------------------


def test_dominated_admits_equality_in_sum_of_moduli():
    # |2z| = |z| + |z| everywhere, while |z|^2 + |z|^2 < |2z| off the
    # origin: the opening bounds the datum by sum|f_j|, not sum|f_j|^2
    gens, values = dominated(mul(Const(2.0), Z), [Z, Z], DISK, 1 / 32, None,
                             "h")
    assert isinstance(gens, bezout.BezoutProblem) and gens.n == 2
    inside = gens.mask.inside
    assert np.array_equal(values[inside], 2 * gens.mask.coords(inside))
    with pytest.raises(DominationError, match=r"\|g\| <= sum\|f_j\|"):
        dominated(mul(Const(2.01), Z), [Z, Z], DISK, 1 / 32, None, "g")


def _opening_counts(monkeypatch, run):
    # BezoutProblem records built and datum samples taken by run(datum)
    counts = Counter()
    build = bezout.BezoutProblem.build.__func__

    def counted_build(cls, *args, **kwargs):
        counts["records"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(bezout.BezoutProblem, "build",
                        classmethod(counted_build))

    def datum(z):
        counts["datum"] += 1
        return np.asarray(z) ** 2

    run(datum)
    return counts


CUBIC_PAIR = [intpow(Z, 2), intpow(Z, 3)]


@pytest.mark.parametrize("run", [
    lambda d: corona.g_power_solve(
        d, CUBIC_PAIR, [Const(1.0), Const(0.0)], DISK, h=1 / 32),
    lambda d: corona.g12_solve(
        d, CUBIC_PAIR, [conj(intpow(Z, 2)), conj(intpow(Z, 3))], DISK,
        h=1 / 32),
    lambda d: multi_division_continuous(d, CUBIC_PAIR, DISK, grid_h=1 / 32),
    lambda d: multi_division_c1(d, CUBIC_PAIR, DISK, grid_h=1 / 32),
], ids=["g_power_solve", "g12_solve", "continuous", "c1"])
def test_one_opening_per_solve(monkeypatch, run):
    assert _opening_counts(monkeypatch, run) == {"records": 1, "datum": 1}


@pytest.mark.parametrize("divide_", [multi_division_continuous,
                                     multi_division_c1])
def test_multi_division_forms_sum_of_squares_once(monkeypatch, divide_):
    # the zero set and the Wolff quotient share one sum|f_j|^2
    formed = []
    s2 = bezout.BezoutProblem.s2.fget
    monkeypatch.setattr(bezout.BezoutProblem, "s2", property(
        lambda self: formed.append(1) or s2(self)))
    divide_(intpow(Z, 2), CUBIC_PAIR, DISK, grid_h=1 / 32)
    assert len(formed) == 1


def test_multi_continuous_identity():
    f_list = [Z, sub(Const(1.0), Z)]
    gs, rep = multi_division_continuous(Z, f_list, DISK)
    assert rep["residual_off_zero"] < 1e-12
    assert rep["q_sup"] <= rep["n"] + 1e-6


def test_multi_continuous_residual_on_a_small_grid():
    # on 102 x 102 nodes numpy forms h * conj(f_j) in that order (the
    # temporary is too small to be reused in place), and h conj(f_j)
    # and conj(f_j) h may differ in the last bit: the g_j agree with
    # the h conj(f_j) order to roundoff and the residual stays there
    gs, rep = multi_division_continuous(intpow(Z, 2), CUBIC_PAIR, DISK,
                                        grid_h=1 / 48)
    mask = gs[0].mask
    hv = sample_field(intpow(Z, 2), mask).values
    fv = [sample_field(f, mask).values for f in CUBIC_PAIR]
    s2 = sum(np.abs(v) ** 2 for v in fv)
    live = mask.inside & (s2 > division.ZERO_REL * s2[mask.inside].max())
    for g, v in zip(gs, fv):
        want = hv * zero_extended(hv * np.conj(v), s2, live)
        assert np.abs(g.values - want).max() <= 1e-15
    assert rep["zero_nodes"] == 1 and rep["residual_off_zero"] <= 2e-15


def test_multi_continuous_cauchy_schwarz_witness():
    # single generator f = h: q = h conj(h)/|h|^2 has modulus exactly 1
    gs, rep = multi_division_continuous(Z, [Z], DISK)
    assert rep["q_sup"] == pytest.approx(1.0, abs=1e-12)


def test_multi_continuous_needs_domination():
    with pytest.raises(DominationError, match=r"sum\|f_j\|"):
        multi_division_continuous(Const(3.0), [Z, sub(Const(1.0), Z)], DISK)


def test_multi_division_off_zero_reports_nan_when_all_is_zero():
    # a 3x3 block where h and f vanish: no node lies off the zero set,
    # so the reports must read NaN rather than a vacuous 0
    inside = np.zeros((5, 5), bool)
    inside[1:4, 1:4] = True
    interior = np.zeros((5, 5), bool)
    interior[2, 2] = True
    m = RegionMask(GridSpec(0j, 1 / 64, 5, 5), inside, interior)
    _, rep = multi_division_continuous(Const(0.0), [Const(0.0)], mask=m)
    assert np.isnan(rep["q_sup"]) and np.isnan(rep["residual_off_zero"])
    assert rep["zero_nodes"] == 9
    _, rep = multi_division_c1(Const(0.0), [Const(0.0)], mask=m)
    assert np.isnan(rep["residual_off_zero"])


def test_multi_c1_gradient_bounded_at_power_three():
    gs, rep = multi_division_c1(Z, [conj(Z)], DISK, power=3)
    assert rep["residual_off_zero"] < 1e-12
    assert rep["gradient_bounded"]
    assert rep["growth_toward_zero"] < 1.2


def test_multi_c1_gradient_blows_up_at_power_two():
    # q = z^2/conj z: the gradient-to-|f| ratio grows like 1/r
    gs, rep = multi_division_c1(Z, [conj(Z)], DISK, power=2)
    assert not rep["gradient_bounded"]
    assert rep["growth_toward_zero"] > 3.0


def test_multi_c1_rejects_zero_curves():
    # f = z - conj z vanishes on the whole real axis
    with pytest.raises(ValueError, match="isolated"):
        multi_division_c1(sub(Z, conj(Z)), [sub(Z, conj(Z))], DISK)


# --- quotient extension lemma -------------------------------------------------


def test_extension_power_four_derivative_vanishes():
    fld, rep = quotient_extension_lemma(Z, [Z], 4, DISK)
    assert rep["derivative_vanishes"]
    assert rep["slope"] > 0.8


def test_extension_power_three_is_sharp():
    # z^3/|z|^2 = z^2/conj z: first derivatives stay O(1) to the origin
    fld, rep = quotient_extension_lemma(Z, [Z], 3, DISK)
    assert not rep["derivative_vanishes"]
    assert abs(rep["slope"]) < 0.1
    assert rep["ring_max"][0] == pytest.approx(2.0, abs=0.05)


def test_extension_power_seven_under_weak_domination():
    # |g|^2 = |f| exactly for g = z, f = z^2
    fld, rep = quotient_extension_lemma(Z, [intpow(Z, 2)], 7, DISK)
    assert rep["derivative_vanishes"]
    assert rep["slope"] > 1.5


def test_extension_weak_domination_rejected_for_low_power():
    with pytest.raises(DominationError, match=r"\|g\| <= \|f\|"):
        quotient_extension_lemma(Z, [intpow(Z, 2)], 4, DISK)


def test_extension_zero_numerator_trivial():
    fld, rep = quotient_extension_lemma(Const(0.0), [Z], 4, DISK)
    assert rep["trivial"]
    assert fld.max_abs() == 0.0
