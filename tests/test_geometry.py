"""Interior path metrics, reachability probes, and difference-quotient
diagnostics on rasterized domains.

Lengths and ratios below were frozen from runs of the shipped
implementation after cross-checking each against geometry that can be
done by hand: straight chords on a disk, corridor detours in a comb,
and the algebraic quotients of the shrinking-disk chain.
"""

import math

import numpy as np
import pytest

from dbarkit.domains import (Comb, Disk, DiskChain, HalfRingSpiral,
                             PreconditionError, SectorChain, build_mask,
                             connected_components)
from dbarkit.expr import Const, PoleError, Z, add, conj, evaluate, exp, intpow, log, mul, sub, wirtinger_d
from dbarkit.geometry import (BOUNDED, GROWING, INCONCLUSIVE,
                              DisconnectedError, disk_chain_quotient_demo,
                              interior_shortest_path, l_probe,
                              spiral_growth_probe, taylor_remainder_fit)

DISK = Disk(0j, 1.0)


@pytest.fixture(scope="module")
def comb_mask():
    return build_mask(Comb(), h=1 / 256)


# ---------------------------------------------------------------- paths


def test_horizontal_diameter_is_straight(disk_mask_64):
    pr = interior_shortest_path(disk_mask_64, -0.6 + 0j, 0.6 + 0j)
    # endpoints snap onto one grid row, so the path is exactly straight
    assert pr.ratio == pytest.approx(1.0, abs=1e-12)
    assert pr.length == pytest.approx(1.19375, abs=1e-12)


def test_oblique_chords_bounded_by_lattice_distortion(disk_mask_64):
    # 8-connected metric inflates Euclidean length by at most
    # sec(pi/8) - 1, about 8.24 percent; 22.5 degrees is the worst case
    a = 0.6 * np.exp(1j * np.pi / 6)
    r30 = interior_shortest_path(disk_mask_64, complex(-a), complex(a)).ratio
    a = 0.6 * np.exp(1j * np.pi / 8)
    r225 = interior_shortest_path(disk_mask_64, complex(-a), complex(a)).ratio
    assert r30 == pytest.approx(1.069516, abs=1e-4)
    assert r225 == pytest.approx(1.078306, abs=1e-4)
    for r in (r30, r225):
        assert 1.0 <= r <= 1.09


def test_path_polyline_matches_reported_length(disk_mask_64):
    pr = interior_shortest_path(disk_mask_64, -0.6 + 0j, 0.48 + 0.31j)
    assert np.abs(np.diff(pr.path)).sum() == pytest.approx(pr.length, abs=1e-12)
    assert pr.path[0] == pr.z
    assert pr.path[-1] == pr.z0


def test_length_never_beats_separation(disk_mask_64, rng):
    coords = disk_mask_64.coords(disk_mask_64.interior)
    picks = rng.choice(len(coords), size=12, replace=False)
    for i in range(0, 12, 2):
        a, b = coords[picks[i]], coords[picks[i + 1]]
        pr = interior_shortest_path(disk_mask_64, a, b)
        assert pr.length >= abs(pr.z - pr.z0) - 1e-12
        assert pr.ratio >= 1.0 - 1e-12


def test_boundary_target_reached_by_final_hop(disk_mask_64):
    # 1.0 is on the circle, outside every Interior node; the closing hop
    # from the last interior node is charged to the length
    pr = interior_shortest_path(disk_mask_64, 0.5 + 0j, 1.0 + 0j)
    assert pr.z0 == 1.0 + 0j
    assert pr.length == pytest.approx(0.5, abs=1e-12)
    assert pr.ratio == pytest.approx(1.0, abs=1e-12)


def test_refinement_changes_length_by_under_one_percent(disk_mask_64):
    fine = build_mask(DISK, grid=disk_mask_64.grid.refined(2))
    iy, ix = disk_mask_64.grid.nearest_index(-0.52 + 0.31j)
    za = disk_mask_64.grid.node(ix, iy)
    iy, ix = disk_mask_64.grid.nearest_index(0.48 - 0.22j)
    zb = disk_mask_64.grid.node(ix, iy)
    pc = interior_shortest_path(disk_mask_64, za, zb)
    pf = interior_shortest_path(fine, za, zb)
    assert pc.length == pytest.approx(1.2161144565387567, rel=1e-9)
    assert pf.length == pytest.approx(1.2180827057747308, rel=1e-9)
    assert 0.99 <= pf.length / pc.length <= 1.01


def test_point_outside_grid_rejected(disk_mask_64):
    with pytest.raises(ValueError, match="Interior node"):
        interior_shortest_path(disk_mask_64, 2.0 + 0j, 0j)


def test_z0_beyond_the_hop_is_a_precondition_error(disk_mask_64):
    # the hop to z0 spans the boundary layer, not the plane: a z0 more
    # than HOP_CELLS cells from its closest Inside node is refused
    with pytest.raises(PreconditionError,
                       match=r"z0 = 5\+0j lies 256 cells from its closest "
                             r"Inside node 1\+0j, beyond the 3-cell hop"):
        l_probe(DISK, 5.0 + 0j, h=1 / 64, mask=disk_mask_64)
    with pytest.raises(PreconditionError, match="beyond the 3-cell hop"):
        interior_shortest_path(disk_mask_64, 0.5 + 0j, 1.0 + 4 / 64)
    # three cells off the rim is still within the hop
    pr = interior_shortest_path(disk_mask_64, 0.5 + 0j, 1.0 + 3 / 64)
    assert pr.path[-1] == pr.z0 == 1.0 + 3 / 64


# ----------------------------------------------------- comb corridors


def test_comb_tooth_detours_grow(comb_mask):
    # neighbouring tooth tips are close in the plane but joined only
    # through the base strip, so the detour ratio grows with the index
    p23 = interior_shortest_path(comb_mask, 0.5 + 0.95j, 1 / 3 + 0.95j)
    p34 = interior_shortest_path(comb_mask, 1 / 3 + 0.95j, 0.25 + 0.95j)
    assert p23.length == pytest.approx(1.5504754854155496, rel=1e-9)
    assert p23.ratio == pytest.approx(9.302750709982943, rel=1e-9)
    assert p34.length == pytest.approx(1.476599473329455, rel=1e-9)
    assert p34.ratio == pytest.approx(17.999634431050474, rel=1e-9)
    assert 1.50 <= p23.length <= 1.60 and 8.5 <= p23.ratio <= 10.5
    assert 1.43 <= p34.length <= 1.53 and 16.0 <= p34.ratio <= 20.0
    assert p34.ratio / p23.ratio >= 1.5


@pytest.mark.parametrize("fixture, domain, z0, r", [
    ("disk_mask_64", DISK, 1.0 + 0j, 0.2),
    ("comb_mask", Comb(), 0.6 + 0j, 0.1),
], ids=["disk", "comb"])
def test_path_lengths_agree_with_probe_sweep(request, fixture, domain, z0, r):
    # rebuild the probe's worst ratio at one scale from one path per
    # sample node; each path's segments add up to its reported length
    mask = request.getfixturevalue(fixture)
    rep = l_probe(domain, z0, scales=(r, r / 2), samples_per_scale=8,
                  mask=mask)
    circle = z0 + r * np.exp(2j * np.pi * np.arange(8) / 8)
    nodes = {mask.nearest_node(complex(c), mask.interior, radius_cells=1)
             for c in circle} - {None}
    assert rep.samples[0] == len(nodes) > 0
    worst = 0.0
    for iy, ix in nodes:
        zn = mask.grid.node(ix, iy)
        p = interior_shortest_path(mask, zn, z0)
        assert p.z == zn and p.path[-1] == z0
        assert np.abs(np.diff(p.path)).sum() == pytest.approx(p.length,
                                                              abs=1e-12)
        worst = max(worst, p.length / abs(zn - z0))
    assert worst == pytest.approx(rep.max_ratios[0], abs=1e-12)


# -------------------------------------------------------- disconnects


def test_disk_chain_components_do_not_connect():
    m = build_mask(DiskChain(1), h=1 / 96)
    with pytest.raises(DisconnectedError, match="disconnected at this resolution"):
        interior_shortest_path(m, -1.0 + 0j, 1 / 3 + 0j)


def test_sector_chain_apex_unreachable():
    with pytest.raises(DisconnectedError, match="disconnected at this resolution"):
        l_probe(SectorChain(6), 0j, scales=(0.2, 0.05), h=1 / 256)


# ------------------------------------------------------------ l_probe


def test_disk_probe_bounded_at_two_resolutions():
    r64 = l_probe(DISK, 1.0 + 0j, h=1 / 64)
    r128 = l_probe(DISK, 1.0 + 0j, h=1 / 128)
    assert r64.verdict == BOUNDED and r128.verdict == BOUNDED
    assert r64.max_ratios == pytest.approx(
        (1.0652455355833288, 1.0464447575644338, 1.0), rel=1e-9)
    assert r128.max_ratios == pytest.approx(
        (1.0738176836326443, 1.0652455355833288, 1.0464447575644338), rel=1e-9)
    assert r64.samples == (29, 17, 9)
    assert r128.samples == (31, 29, 17)
    for rep in (r64, r128):
        assert all(1.0 <= r <= 1.2 for r in rep.max_ratios)


def test_probe_skips_unsampleable_scale(disk_mask_64):
    rep = l_probe(DISK, 1.0 + 0j, scales=(0.2, 0.1, 1e-6), h=1 / 64,
                  mask=disk_mask_64)
    assert math.isnan(rep.max_ratios[2])
    assert len(rep.annotations) == 1
    assert "no interior samples" in rep.annotations[0]
    # the two surviving scales still settle the verdict
    assert rep.verdict == BOUNDED


def test_single_usable_scale_is_inconclusive(disk_mask_64):
    rep = l_probe(DISK, 1.0 + 0j, scales=(0.2, 1e-6), h=1 / 64,
                  mask=disk_mask_64)
    assert rep.verdict == INCONCLUSIVE


@pytest.mark.parametrize("scales, msg", [
    ((0.1,), "at least 2 positive"),
    ((0.1, 0.2), "strictly decreasing"),
    ((0.2, -0.1), "positive"),
])
def test_probe_scale_validation(scales, msg):
    with pytest.raises(ValueError, match=msg):
        l_probe(DISK, 1.0 + 0j, scales=scales, h=1 / 64)


# ------------------------------------------------------- spiral probe


def test_spiral_ratios_grow_under_halving():
    rep = spiral_growth_probe(nodes=256)
    assert rep.verdict == GROWING
    assert rep.max_ratios == pytest.approx(
        (1.865714989023406, 3.9249805246659975, 6.60571785891787), rel=1e-9)
    assert rep.samples == (8, 42, 44)
    lo = [1.6, 3.4, 5.8]
    hi = [2.2, 4.4, 7.4]
    for r, a, b in zip(rep.max_ratios, lo, hi):
        assert a <= r <= b
    assert rep.max_ratios[1] / rep.max_ratios[0] >= 1.5
    assert rep.max_ratios[2] / rep.max_ratios[1] >= 1.5
    assert any("theta_max" in a for a in rep.annotations)


def test_spiral_verdict_stable_at_second_resolution():
    rep = spiral_growth_probe(nodes=224)
    assert rep.verdict == GROWING
    assert rep.max_ratios == pytest.approx(
        (1.8453012312838155, 3.8984197937546514, 6.614065214696695), rel=1e-9)
    assert rep.samples == (7, 41, 41)


def test_spiral_rejects_shallow_depth():
    with pytest.raises(ValueError, match="theta_max"):
        spiral_growth_probe(scales=(0.5, 0.25), depth=1.45)


# ------------------------------------------------- remainder fitting


def test_polynomial_remainder_vanishes_identically():
    poly = add(intpow(Z, 2), mul(Const(2.0), Z), Const(3.0))
    rep = taylor_remainder_fit(poly, 0.5 + 0j, 2, DISK)
    assert all(rep["exact_zero"])
    assert all(np.isinf(rep["slope"]))
    assert all(rep["passes"])


def test_exponential_remainder_orders():
    rep = taylor_remainder_fit(exp(Z), 1.0 + 0j, 2, Disk(0j, 1.5))
    assert rep["slope"] == pytest.approx(
        (3.016473791990812, 2.0220003286455577, 1.0329958483485353), rel=1e-9)
    lo = [2.95, 1.95, 0.95]
    hi = [3.10, 2.10, 1.10]
    for s, a, b in zip(rep["slope"], lo, hi):
        assert a <= s <= b
    assert all(rep["passes"])
    assert all(n == 48 for n in rep["samples"])


def test_branch_point_passes_order_zero_only():
    # sqrt(1 - z) at z0 = 1: continuous there (order-0 contact with the
    # constant 0) but no first-order contact in any direction
    f = exp(mul(Const(0.5), log(sub(Const(1.0), Z))))
    r0 = taylor_remainder_fit(f, 1.0 + 0j, 0, DISK, coeffs=[0.0])
    assert r0["slope"] == pytest.approx((0.5,), abs=1e-9)
    assert all(r0["passes"])
    r1 = taylor_remainder_fit(f, 1.0 + 0j, 1, DISK, coeffs=[0.0, 0.0])
    assert r1["slope"] == pytest.approx((0.5, -0.5), abs=1e-9)
    assert not any(r1["passes"])


def test_branch_point_needs_coefficient_override():
    f = exp(mul(Const(0.5), log(sub(Const(1.0), Z))))
    with pytest.raises(PoleError):
        taylor_remainder_fit(f, 1.0 + 0j, 0, DISK)


def test_fit_rejects_conjugation():
    with pytest.raises(ValueError, match="conjugation-free"):
        taylor_remainder_fit(conj(Z), 0j, 1, DISK)


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        taylor_remainder_fit(Z, 0j, -1, DISK)
    with pytest.raises(ValueError, match="m \\+ 1"):
        taylor_remainder_fit(Z, 0j, 1, DISK, coeffs=[0.0])


@pytest.mark.parametrize("radii, message", [
    ((0.1,), "at least 2 positive"),  # one point fits no slope
    ((), "at least 2 positive"),
    ((0.05, 0.1), "strictly decreasing"),
    ((0.1, 0.0), "positive"),
])
def test_fit_checks_radii(radii, message):
    with pytest.raises(ValueError, match=message):
        taylor_remainder_fit(exp(Z), 1.0 + 0j, 2, Disk(0j, 1.5), radii=radii)


def test_difference_quotient_converges_to_derivative():
    # where f is holomorphic the centered quotient and the derivative
    # field approach each other at first order in the radius
    f = exp(Z)
    fd = wirtinger_d(f)
    z0 = 1.0 + 0j
    radii = np.array([0.1, 0.05, 0.025, 0.0125])
    sups = []
    for r in radii:
        pts = z0 + r * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
        q = (evaluate(f, pts) - evaluate(f, [z0])[0]) / (pts - z0)
        sups.append(np.abs(q - evaluate(fd, pts)).max())
    assert all(a > b for a, b in zip(sups, sups[1:]))
    slope = np.polyfit(np.log(radii), np.log(sups), 1)[0]
    assert slope >= 0.8


# ----------------------------------------------------- quotient demo


def test_disk_chain_quotients_are_exact_roots():
    rows = disk_chain_quotient_demo(8)
    assert [r["n"] for r in rows] == list(range(3, 11))
    for r in rows:
        # simplified algebraically before evaluation, so equality is exact
        assert r["quotient"] == math.sqrt(r["n"])
        assert r["raw_quotient"] == pytest.approx(r["quotient"], rel=1e-12)
        assert r["derivative"] == 0.0
    qs = [r["quotient"] for r in rows]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_quotient_demo_needs_three_disks():
    with pytest.raises(ValueError, match=">= 3"):
        disk_chain_quotient_demo(2)


# ------------------------------------------------- half-ring variant


def test_half_ring_spiral_builds_connected():
    m = build_mask(HalfRingSpiral(rings=4), h=1 / 256)
    _, count = connected_components(m)
    assert count == 1


def test_half_ring_probe_reports_honestly():
    # finite rings stop short of the origin, so scales must sit inside
    # the band radii; no verdict is promised for this variant
    rep = l_probe(HalfRingSpiral(rings=4), 0j, scales=(0.6, 0.45, 0.28),
                  h=1 / 256)
    assert rep.verdict in (BOUNDED, GROWING, INCONCLUSIVE)
    assert rep.verdict == INCONCLUSIVE
    assert rep.max_ratios == pytest.approx(
        (6.510192471982055, 7.793912127099344, 4.858620100832747), rel=1e-9)
    assert all(n >= 10 for n in rep.samples)


def test_half_ring_membership():
    d = HalfRingSpiral(rings=4)
    assert d.tagged_points == (0j,)
    assert not d.contains(0j)
    assert d.contains(0.25 + 0.75j)


@pytest.mark.parametrize("kwargs", [
    dict(rings=1), dict(thickness=0.0), dict(thickness=1.5),
])
def test_half_ring_validation(kwargs):
    with pytest.raises(ValueError):
        HalfRingSpiral(**kwargs)
