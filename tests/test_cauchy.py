"""Cell quadrature and transform round-trip tests.

The frozen cell-integral constants were computed from two independent
oracles before the closed form was trusted: adaptive 2-D quadrature of
1/w over the square (scipy.integrate.dblquad, epsabs 1e-14) for cells
away from the origin, and an adaptive polar ray integral (clip each ray
from the origin against the box, integrate exp(-i theta) times the
chord length) for cells whose closure contains it.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy import fft

from dbarkit import cauchy
from dbarkit.cauchy import (
    SampledField,
    _kernel_spectrum,
    _offset_weights,
    _period,
    check_ladder,
    d_fd,
    dbar_convergence,
    dbar_fd,
    dbar_fd_onesided,
    exact_cell_integral,
    log_slope,
    node_blocks,
    on_nodes,
    pompeiu,
    refinement_ladder,
    sample_field,
    sample_nodes,
    verify_dbar_solution,
    zero_extended,
)
from dbarkit.cli import load_config
from dbarkit.division import derivative_bound_scan
from dbarkit.domains import (Disk, GridSpec, PreconditionError, RegionMask,
                             SectorChain, build_mask, interior_shrunk)
from dbarkit.expr import Const, Z, add, as_callable, conj, div, exp, intpow, mul
from dbarkit.geometry import l_probe, spiral_growth_probe, taylor_remainder_fit

SRC = Path(__file__).resolve().parents[1] / "src"
CELL_H = 0.02

# (cell center relative to target, oracle value of int_cell dA/w)
CELL_ORACLE = [
    (0.01 + 0.01j, 0.022639435073548417 - 0.022639435073548417j),
    (0.01 + 0.00j, 0.034640283484313880 + 0.0j),
    (0.012 + 0.0j, 0.030533107466671025 + 0.0j),
    (0.06 + 0.04j, 0.004615920727945179 - 0.003076813323887968j),
    (0.30 + 0.20j, 0.000923077094585755 - 0.000615384580335811j),
    (-0.2 + 0.15j, -0.001280001089124228 - 0.000960000082835746j),
    (0.00 - 0.30j, 0.0 + 0.001333332894376581j),
]


@pytest.mark.parametrize("v0,expected", CELL_ORACLE,
                         ids=[repr(v) for v, _ in CELL_ORACLE])
def test_cell_integral_matches_independent_quadrature(v0, expected):
    got = exact_cell_integral(np.array([v0]), CELL_H)[0]
    assert abs(got - expected) < 1e-12


def test_cell_integral_center_is_zero():
    assert exact_cell_integral(np.array([0j]), CELL_H)[0] == 0


def _offset_sweep(rng):
    h = CELL_H
    return np.concatenate([
        rng.standard_normal(20) * 0.1 + 1j * rng.standard_normal(20) * 0.1,
        (rng.integers(-5, 6, 20) + 1j * rng.integers(-5, 6, 20)) * h,
        (rng.integers(-5, 6, 20) + 0.5 + 1j * (rng.integers(-5, 6, 20) + 0.5)) * h,
        np.array([0j, h / 2, 1j * h / 2, -h / 2, -1j * h / 2,
                  h / 2 + 1j * h / 2, -h / 2 - 1j * h / 2]),
    ])


def test_cell_integral_symmetries(rng):
    # E(i v) = -i E(v), E(-v) = -E(v), E(conj v) = conj E(v): substitute
    # w -> iw, -w, conj w in the integral; the square is invariant.
    v = _offset_sweep(rng)
    e = exact_cell_integral(v, CELL_H)
    assert np.isfinite(e).all()
    assert np.abs(exact_cell_integral(1j * v, CELL_H) + 1j * e).max() < 1e-13
    assert np.abs(exact_cell_integral(-v, CELL_H) + e).max() < 1e-13
    assert np.abs(exact_cell_integral(np.conj(v), CELL_H) - np.conj(e)).max() < 1e-13


def test_cell_integral_block_additivity(rng):
    # a 2h cell is the disjoint union of four h cells; the integrals
    # must agree at every alignment, including targets on cell corners
    h = CELL_H
    quarters = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) * (h / 2)
    for v0 in _offset_sweep(rng):
        big = exact_cell_integral(np.array([v0]), 2 * h)[0]
        small = exact_cell_integral(v0 - quarters, h).sum()
        assert abs(big - small) < 1e-13


# cell center relative to the target, in units of the cell side
_HALF = st.floats(-0.5, 0.5)
_OFFSET_OUTSIDE = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).filter(
    lambda ab: max(abs(ab[0]), abs(ab[1])) > 0.5)
_OFFSET_ON_EDGE = st.one_of(
    st.tuples(st.sampled_from([-0.5, 0.5]), _HALF),
    st.tuples(_HALF, st.sampled_from([-0.5, 0.5])))
_OFFSET_INSIDE = st.tuples(
    st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
    st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(ab=st.one_of(_OFFSET_OUTSIDE, _OFFSET_ON_EDGE, _OFFSET_INSIDE),
       h=st.floats(1e-3, 2.0))
@example(ab=(0.0, 0.0), h=0.02)
@example(ab=(0.5, 0.5), h=0.02)
@example(ab=(0.25, -0.5), h=0.02)
@example(ab=(3.0, 0.0), h=0.02)
def test_cell_integral_subdivision_property(ab, h):
    # one cell of side h equals its four quarters of side h/2, whether
    # the target lies outside the cell, on its boundary or inside it
    v0 = h * complex(*ab)
    quarters = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) * (h / 4)
    whole = exact_cell_integral(np.array([v0]), h)[0]
    parts = exact_cell_integral(v0 - quarters, h / 2).sum()
    assert abs(whole - parts) <= 1e-13 * h


def test_cell_integral_scaling(rng):
    v = _offset_sweep(rng)
    e = exact_cell_integral(v, CELL_H)
    for lam in (0.5, 3.0):
        assert np.abs(exact_cell_integral(lam * v, lam * CELL_H) - lam * e).max() < 1e-13


def test_pompeiu_constant_density(disk_mask_64):
    # dbar conj(z) = 1 and the disk integral of 1/(w-z) is exactly
    # pi*conj(z) inside, -pi/z outside (polar series term by term)
    m = disk_mask_64
    h = m.grid.h
    f = sample_field(lambda z: np.ones_like(z), m)
    u = pompeiu(f)
    zg = m.grid.zgrid()
    err = np.abs(u.values - np.conj(zg))[m.inside].max()
    assert err <= 5 * h
    assert err < 0.01

    far = np.array([1.5 + 0.2j, -2.0 + 1.0j, 0.1 + 1.4j, -1.2 - 0.9j, 3.0 - 2.5j])
    assert np.abs(pompeiu(f, far) - 1 / far).max() < 5e-3


def test_pompeiu_conj_density(disk_mask_64):
    m = disk_mask_64
    u = pompeiu(sample_field(np.conj, m))
    zg = m.grid.zgrid()
    err = np.abs(u.values - np.conj(zg) ** 2 / 2)[m.inside].max()
    assert err <= 5 * m.grid.h


def test_pompeiu_zzbar_density(disk_mask_64):
    # same polar expansion: only the r < |z| shell contributes,
    # giving u = z conj(z)^2 / 2 exactly on the disk
    m = disk_mask_64
    u = pompeiu(sample_field(lambda z: z * np.conj(z), m))
    zg = m.grid.zgrid()
    err = np.abs(u.values - zg * np.conj(zg) ** 2 / 2)[m.inside].max()
    assert err <= 5 * m.grid.h


def test_lattice_and_direct_paths_agree(disk_mask_64, rng):
    m = disk_mask_64
    f = sample_field(lambda z: np.exp(z) + np.conj(z), m)
    whole = pompeiu(f)
    iy, ix = np.nonzero(m.inside)
    pick = rng.choice(len(ix), 40, replace=False)
    targets = m.grid.zgrid()[iy[pick], ix[pick]]
    direct = pompeiu(f, targets)
    assert np.abs(whole.values[iy[pick], ix[pick]] - direct).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 14), ny=st.integers(2, 14),
       h=st.sampled_from([1 / 4, 1 / 8, 1 / 32]),
       corner=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       data=st.data())
def test_lattice_and_direct_engines_agree_on_random_masks(nx, ny, h, corner,
                                                         data):
    # the origin sits on the h-lattice, so node differences are exact in
    # binary and both engines see the same near set at every offset
    cells = nx * ny
    bits = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)
                     .filter(any))
    inside = np.array(bits).reshape(ny, nx)
    grid = GridSpec(h * complex(*corner), h, nx, ny)
    m = RegionMask(grid, inside, np.zeros_like(inside))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    vals = np.random.default_rng(seed).standard_normal((ny, nx, 2)) @ [1, 1j]
    f = SampledField(m, np.where(inside, vals, 0.0))
    lattice = pompeiu(f).values[inside]
    direct = pompeiu(f, m.coords(inside))
    assert np.abs(lattice - direct).max() < 1e-12


def _engines(grid):
    # lattice and direct transforms of random data on every node
    inside = np.ones((grid.ny, grid.nx), dtype=bool)
    m = RegionMask(grid, inside, np.zeros_like(inside))
    vals = np.random.default_rng(0).standard_normal(
        (grid.ny, grid.nx, 2)) @ [1, 1j]
    f = SampledField(m, vals)
    return pompeiu(f).values, pompeiu(f, m.grid.zgrid())


def test_lattice_period_without_slack_does_not_wrap():
    # 2n - 1 = 25 and 27 are fast lengths already, so the period is
    # exactly 2n - 1 and the corner-to-corner offsets sit on its edge;
    # the cached spectrum holds rows 0..27 // 2 of it
    grid = GridSpec(-0.75 - 1j, 1 / 8, 13, 14)
    assert (_period(14), _period(13)) == (27, 25)
    assert _kernel_spectrum(14, 13, grid.h).shape == (27 // 2 + 1, 25)
    lattice, direct = _engines(grid)
    assert np.abs(lattice - direct).max() < 1e-12


def test_period_is_scipys_fast_length_for_complex_data():
    # the least 11-smooth length at least 2n - 1, as scipy.fft gives it
    ns = range(1, 200_001)
    assert [_period(n) for n in ns] == [fft.next_fast_len(2 * n - 1)
                                        for n in ns]


def _full_period_kernel(ny, nx, h):
    # the reflected kernel Kc[m] = K[-m] on the whole (py, px) period,
    # the band between the offsets -(n - 1)..(n - 1) filled with the
    # weights of the offsets past n - 1 that its indices also stand for
    py, px = fft.next_fast_len(2 * ny - 1), fft.next_fast_len(2 * nx - 1)
    my = np.arange(py)
    my[ny:] -= py
    mx = np.arange(px)
    mx[nx:] -= px
    return _offset_weights(-h * (mx[None, :] + 1j * my[:, None]), h)


def _full_period_pompeiu(fv, h):
    # the full-period rule: one fft2 of the zero-padded data, the
    # product with the fft2 of the kernel, one ifft2, then the crop
    spectrum = fft.fft2(_full_period_kernel(*fv.shape, h))
    x = fft.fft2(fv, s=spectrum.shape) * spectrum
    return (-1.0 / math.pi) * fft.ifft2(x)[:fv.shape[0], :fv.shape[1]]


@pytest.mark.parametrize("ny, nx", [(14, 13), (7, 9), (51, 23), (57, 31),
                                    (85, 37), (78, 19), (33, 70)])
def test_lattice_matches_the_full_period_rule(ny, nx):
    # odd (27, 105, 175) and even (14, 120, 160, 66) periods, all but
    # 27 with a band, on non-square grids; with row strips of 16 rows of
    # the period, every period past 27 rows takes several strips, the
    # last one longer, and one strip straddles row py // 2 + 1, where
    # the stored half spectrum gives way to its mirror
    py, px = _period(ny), _period(nx)
    grid = GridSpec(-1 - 1j, 1 / 16, nx, ny)
    inside = np.ones((ny, nx), dtype=bool)
    m = RegionMask(grid, inside, np.zeros_like(inside))
    fv = np.random.default_rng(ny * nx).standard_normal((ny, nx, 2)) @ [1, 1j]
    with mock.patch.object(cauchy, "SAMPLE_BLOCK", 16 * px):
        strips = cauchy.row_strips((py, px))
        assert py <= 27 or any(a < py // 2 + 1 < b for a, b in strips)
        got = pompeiu(SampledField(m, fv)).values
    want = _full_period_pompeiu(fv, grid.h)
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


@pytest.mark.parametrize("ny, nx", [(14, 13), (7, 9), (51, 23), (78, 19)])
def test_half_spectrum_matches_the_full_one(ny, nx):
    # with the band zeroed the kernel is odd and mirrors to its
    # conjugate across the x-axis, so row py - k of the full spectrum is
    # -conj of row k, and the cache keeps rows 0..py // 2
    h = 1 / 16
    py, px = _period(ny), _period(nx)
    kernel = _full_period_kernel(ny, nx, h)
    kernel[ny:py - ny + 1] = 0.0
    kernel[:, nx:px - nx + 1] = 0.0
    full = fft.fft2(kernel)
    scale = np.abs(full).max()
    rows = np.arange(1, py)
    assert np.abs(full[py - rows] + np.conj(full[rows])).max() <= 1e-15 * scale
    half = _kernel_spectrum(ny, nx, h)
    assert half.shape == (py // 2 + 1, px)
    assert np.abs(half - full[:py // 2 + 1]).max() <= 1e-15 * scale


def test_kernel_spectrum_is_keyed_by_shape_and_spacing():
    # the spectrum depends on (ny, nx, h) only: two origins share one,
    # two spacings of the same shape do not
    _kernel_spectrum.cache_clear()
    for origin, h in [(-1 - 1j, 1 / 8), (0.5 + 0.25j, 1 / 8), (-1 - 1j, 1 / 16)]:
        lattice, direct = _engines(GridSpec(origin, h, 9, 7))
        assert np.abs(lattice - direct).max() < 1e-12
    info = _kernel_spectrum.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_cached_kernel_spectrum_is_read_only():
    spectrum = _kernel_spectrum(7, 9, 1 / 8)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0, 0] = 0


def test_dbar_fd_exact_on_quadratics(disk_mask_64):
    m = disk_mask_64
    zg = m.grid.zgrid()
    cases = [
        (np.conj, np.ones_like(zg)),
        (lambda z: z * np.conj(z), zg),
        (lambda z: z ** 2, np.zeros_like(zg)),
    ]
    for f, want in cases:
        got = dbar_fd(sample_field(f, m))
        assert np.abs(got.values - want)[m.interior].max() < 1e-10


def test_d_fd_exact_on_quadratics(disk_mask_64):
    m = disk_mask_64
    zg = m.grid.zgrid()
    got = d_fd(sample_field(lambda z: z ** 2, m))
    assert np.abs(got.values - 2 * zg)[m.interior].max() < 1e-10
    got = d_fd(sample_field(np.conj, m))
    assert np.abs(got.values)[m.interior].max() < 1e-10


def test_dbar_fd_onesided_extends_to_boundary(disk_mask_64):
    m = disk_mask_64
    f = sample_field(np.conj, m)
    one_sided = dbar_fd_onesided(f)
    central = dbar_fd(f)
    assert one_sided.support is not None
    assert (one_sided.support == m.inside).all()
    assert (one_sided.values[m.interior] == central.values[m.interior]).all()


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 14), ny=st.integers(2, 14),
       h=st.sampled_from([1 / 4, 1 / 8, 1 / 32]),
       corner=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       coeffs=st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                          allow_infinity=False),
                       min_size=3, max_size=3),
       data=st.data())
def test_dbar_fd_onesided_exact_on_linear_fields(nx, ny, h, corner, coeffs,
                                                 data):
    # every difference of a + b x + c y is exact up to roundoff, so each
    # Inside node reads 0.5 (b + i c) with an axis dropped exactly when
    # the node has no Inside neighbour along it; random masks put Inside
    # nodes on the grid's edge, where the missing side is off the grid
    cells = nx * ny
    bits = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)
                     .filter(any))
    inside = np.array(bits).reshape(ny, nx)
    grid = GridSpec(h * complex(*corner), h, nx, ny)
    m = RegionMask(grid, inside, np.zeros_like(inside))
    m.interior = interior_shrunk(m, 1)
    a, b, c = coeffs
    got = dbar_fd_onesided(sample_field(
        lambda z: a + b * z.real + c * z.imag, m)).values
    pad = np.pad(inside, 1)
    has_x = pad[1:-1, 2:] | pad[1:-1, :-2]
    has_y = pad[2:, 1:-1] | pad[:-2, 1:-1]
    want = 0.5 * (b * has_x + 1j * c * has_y)
    tol = 1e-12 * max(abs(b), abs(c), 1.0)
    assert np.abs(got - want)[inside].max() <= tol
    assert (got[~inside] == 0).all()


def _one_shot_fd(f, bar, one_sided):
    # the oracle of the strip kernel: the stencil as one pass over the
    # whole grid, every difference formed on all rows at once
    m, h, v = f.mask, f.mask.grid.h, f.values
    keep = m.inside if one_sided else m.interior
    out = np.zeros_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    ify = (v[2:, :] - v[:-2, :]) / (2 * h)
    ify *= 1j
    if bar:
        out[1:-1, :] += ify
    else:
        out[1:-1, :] -= ify
    if one_sided:
        iy, ix = np.nonzero(m.boundary)
        c = v[iy, ix]
        ny, nx = v.shape

        def neighbor(dy, dx):
            jy, jx = iy + dy, ix + dx
            on = (jy >= 0) & (jy < ny) & (jx >= 0) & (jx < nx)
            at = (np.clip(jy, 0, ny - 1), np.clip(jx, 0, nx - 1))
            return on & keep[at], v[at]

        d = []
        for sy, sx in ((0, 1), (1, 0)):
            (hp, vp), (hm, vm) = neighbor(sy, sx), neighbor(-sy, -sx)
            d.append(np.where(hp & hm, (vp - vm) / (2 * h), np.where(
                hp, (vp - c) / h, np.where(hm, (c - vm) / h, 0.0))))
        fx, fy = d
        out[iy, ix] = fx + 1j * fy if bar else fx - 1j * fy
    out *= 0.5
    out[~keep] = 0.0
    return out, keep


def _one_shot_sup(values, sel):
    # the oracle of the strip sups: one copy of the selected values
    v = values[sel]
    return float(np.abs(v).max()) if v.size else float("nan")


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(2, 40), st.integers(2, 40)),
                       st.tuples(st.integers(300, 340), st.integers(230, 260))),
       block=st.one_of(st.just(cauchy.SAMPLE_BLOCK), st.integers(1, 3000)),
       inside_share=st.sampled_from([0.0, 0.9, 1.0]),
       sel_share=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
       nan_spot=st.booleans(), margin=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strip_kernels_are_the_one_shot_rule_bitwise(
        shape, block, inside_share, sel_share, nan_spot, margin, seed):
    # every stencil field, the dbar sup (with and without a field to
    # subtract), max_dev and sup_abs are bitwise their one-shot
    # full-grid forms above: in one strip when the grid has fewer than
    # SAMPLE_BLOCK nodes, in strips of at least SAMPLE_BLOCK nodes
    # (whose row count need not divide the grid's) past it, and in the
    # many small strips of a patched SAMPLE_BLOCK.  A NaN on one
    # selected node reads NaN in whatever strip it falls, and an empty
    # selection reads NaN
    rng = np.random.default_rng(seed)
    ny, nx = shape
    grid = GridSpec(-1 - 1j, 1 / 16, nx, ny)
    inside = rng.random(shape) < inside_share
    m = RegionMask(grid, inside, np.zeros_like(inside))
    m.interior = interior_shrunk(m, 1)
    v = rng.standard_normal(shape + (2,)) @ [1, 1j]
    v[rng.random(shape) < 0.1] = complex(-0.0, 0.0)
    f = SampledField(m, v)
    sel = rng.random(shape) < sel_share
    minus = rng.standard_normal(shape + (2,)) @ [1, 1j]
    values = v.copy()
    if nan_spot and sel.any():
        at = np.flatnonzero(sel)[rng.integers(sel.sum())]
        minus.reshape(-1)[at] = values.reshape(-1)[at] = np.nan
    with mock.patch.object(cauchy, "SAMPLE_BLOCK", block):
        strips = cauchy.row_strips(shape)
        sizes = [(b - a) * nx for a, b in strips]
        assert [a for a, _ in strips] == [0] + [b for _, b in strips[:-1]]
        assert strips[-1][1] == ny
        assert min(sizes) >= min(ny * nx, block)
        assert all(size < block + nx for size in sizes[:-1])
        for stencil, bar, one_sided in ((dbar_fd, True, False),
                                        (d_fd, False, False),
                                        (dbar_fd_onesided, True, True)):
            got = stencil(f)
            want, keep = _one_shot_fd(f, bar, one_sided)
            assert got.values.tobytes() == want.tobytes()
            assert np.array_equal(got.support, keep)
        central = _one_shot_fd(f, True, False)[0]
        assert _bits(cauchy.dbar_fd_sup(f, sel)) == _bits(
            _one_shot_sup(central, sel))
        got = cauchy.dbar_fd_sup(f, sel, minus=minus)
        assert _bits(got) == _bits(_one_shot_sup(central - minus, sel))
        got = cauchy.sup_abs(values, sel)
        assert _bits(got) == _bits(_one_shot_sup(values, sel))
        assert np.isnan(got) == (nan_spot or not sel.any())
        u = pompeiu(f)
        want = _one_shot_sup(_one_shot_fd(u, True, False)[0] - v,
                             interior_shrunk(m, margin))
        assert _bits(verify_dbar_solution(f, margin)["max_dev"]) == _bits(want)


def _cpus(n):
    # the strip map as it runs on n CPUs: with 1, every strip (the
    # y-transforms' column strips among them) stays on the calling
    # thread, and with more it runs at most _STRIP_THREADS threads
    return mock.patch.object(cauchy, "_CPUS", n)


@lru_cache(maxsize=None)
def _disk_field(n):
    # a non-polynomial field on the unit disk at h = 1/n
    return sample_field(exp(mul(conj(Z), add(Z, Const(1.0)))),
                        build_mask(Disk(0j, 1.0), h=1 / n))


def _strip_outputs(f, sel):
    # the transform, the three stencils and the dbar sups over sel
    # (with and without a field to subtract), as bytes
    u = pompeiu(f).values
    return ([u.tobytes()]
            + [s(f).values.tobytes() for s in (dbar_fd, d_fd,
                                               dbar_fd_onesided)]
            + [_bits(cauchy.dbar_fd_sup(f, sel)),
               _bits(cauchy.dbar_fd_sup(f, sel, minus=u))])


@settings(max_examples=25, deadline=None)
@given(disk=st.none(),
       shape=st.tuples(st.integers(40, 90), st.integers(30, 90)),
       rows=st.integers(1, 12),
       inside_share=st.sampled_from([0.5, 0.9, 1.0]),
       cpus=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(disk=256, shape=None, rows=None, inside_share=None, cpus=2, seed=0)
@example(disk=512, shape=None, rows=None, inside_share=None, cpus=2, seed=0)
def test_pooled_strips_are_the_calling_thread_strips_bitwise(
        disk, shape, rows, inside_share, cpus, seed):
    # the strips of the lattice (its y-transforms' column strips and its
    # x-strips), the stencils and the dbar sups run on the pool
    # (cpus > 1) and on the calling thread alone, with at least 3 strips
    # each: the unit disk at h = 1/256 and 1/512 with SAMPLE_BLOCK
    # strips, and random masks in strips of a few rows
    if disk:
        f = _disk_field(disk)
        block, sel = cauchy.SAMPLE_BLOCK, interior_shrunk(f.mask, 3)
    else:
        rng = np.random.default_rng(seed)
        ny, nx = shape
        inside = rng.random(shape) < inside_share
        m = RegionMask(GridSpec(-1 - 1j, 1 / 16, nx, ny), inside,
                       np.zeros_like(inside))
        m.interior = interior_shrunk(m, 1)
        f = SampledField(m, rng.standard_normal(shape + (2,)) @ [1, 1j])
        block, sel = rows * nx, rng.random(shape) < 0.5
    grid = f.values.shape
    with mock.patch.object(cauchy, "SAMPLE_BLOCK", block):
        period = tuple(_period(n) for n in grid)
        assert min(len(cauchy.row_strips(grid)),
                   len(cauchy.row_strips(period))) >= 3
        with _cpus(1):
            want = _strip_outputs(f, sel)
        with _cpus(cpus):
            assert _strip_outputs(f, sel) == want


@pytest.fixture
def fresh_pool():
    # the test's pool is sized by its patched _STRIP_THREADS: the pool
    # in use is shut down before the test, and the test's own after it
    def renew():
        cauchy._pool().shutdown()
        cauchy._pool.cache_clear()

    renew()
    yield
    renew()


@pytest.mark.parametrize("n, cpus", [(0, 3), (1, 3), (2, 3), (3, 3),
                                     (7, 3), (20, 3), (2000, 8)])
def test_strip_map_returns_each_result_once_in_strip_order(n, cpus,
                                                           fresh_pool):
    # strips of uneven length finish out of order; with the map's rule
    # run on up to 8 threads (past _STRIP_THREADS, on fewer CPUs) and a
    # short switch interval, no strip runs twice and none is lost
    calls = Counter()

    def fn(s):
        calls[s] += 1
        time.sleep(0.001 * (s * 7 % 5) if n < 100 else 0)
        return s * s

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(cpus), mock.patch.object(cauchy, "_STRIP_THREADS", cpus):
            assert cauchy._over_strips(fn, list(range(n))) == [
                s * s for s in range(n)]
    finally:
        sys.setswitchinterval(interval)
    assert calls == Counter(range(n))


def test_a_host_with_more_cpus_runs_no_more_threads(fresh_pool):
    # on 64 CPUs a map runs on _STRIP_THREADS threads, the count the
    # memory bounds were measured at: the calling thread and at most
    # _STRIP_THREADS - 1 pool tasks.  So do the lattice's two
    # y-transforms, whose column strips tile the grid's columns once,
    # in order; the transform is the 1-CPU one bitwise
    f = _disk_field(256)
    with _cpus(1):
        want = pompeiu(f).values.tobytes()
    pool = cauchy._pool()
    over_strips = cauchy._over_strips
    seen, maps = set(), []

    def spy(fn, strips):
        ran, tasks = [], pool.submit.call_count

        def traced(s):
            ran.append((s, threading.get_ident()))
            return fn(s)

        out = over_strips(traced, strips)
        maps.append((fn.__name__, strips, ran, pool.submit.call_count - tasks))
        return out

    def fn(s):
        seen.add(threading.get_ident())
        time.sleep(0.001)

    with _cpus(64), mock.patch.object(pool, "submit", wraps=pool.submit):
        cauchy._over_strips(fn, list(range(200)))
        with mock.patch.object(cauchy, "_over_strips", spy):
            assert pompeiu(f).values.tobytes() == want
    assert len(seen) == cauchy._STRIP_THREADS == 2
    assert all(tasks < cauchy._STRIP_THREADS for *_, tasks in maps)
    columns = [(strips, ran) for name, strips, ran, _ in maps
               if name == "columns"]
    assert len(columns) == 2
    for strips, ran in columns:
        assert len(strips) > cauchy._STRIP_THREADS
        assert [a for a, _ in strips] == [0] + [b for _, b in strips[:-1]]
        assert strips[-1][1] == f.values.shape[1]
        assert sorted(s for s, _ in ran) == strips
        assert len({thread for _, thread in ran}) <= cauchy._STRIP_THREADS


@pytest.mark.parametrize("bad", [0, 1, 9])
def test_a_strip_error_reaches_the_caller_once_no_strip_runs(bad):
    # strips 0 and 1 meet at a barrier, so the calling thread runs one
    # and a pool thread the other; the error of either, or of a later
    # strip, is raised only once every strip that started has returned
    meet = threading.Barrier(2, timeout=30)
    running = set()

    def fn(s):
        running.add(s)
        try:
            if s < 2:
                meet.wait()
            time.sleep(0.002)
            if s == bad:
                raise ValueError(f"strip {s}")
            return s
        finally:
            running.discard(s)

    with _cpus(2), pytest.raises(ValueError, match=f"^strip {bad}$"):
        cauchy._over_strips(fn, list(range(10)))
    assert not running


@pytest.mark.parametrize("divide", ["ignore", "raise"])
def test_pool_threads_divide_under_the_callers_errstate(divide):
    # numpy's error state rides into the pool thread with the caller's
    # context: under "ignore" its 1/0 warns of nothing (warnings are
    # errors here), under "raise" it raises FloatingPointError
    meet = threading.Barrier(2, timeout=30)
    caller = threading.get_ident()

    def fn(s):
        meet.wait()  # one strip on each thread
        if threading.get_ident() != caller:
            return np.ones(2) / np.zeros(2)

    with _cpus(2), warnings.catch_warnings(), np.errstate(divide=divide):
        warnings.simplefilter("error")
        if divide == "raise":
            with pytest.raises(FloatingPointError):
                cauchy._over_strips(fn, [0, 1])
        else:
            out = cauchy._over_strips(fn, [0, 1])
            pooled = [v for v in out if v is not None]
            assert len(pooled) == 1 and np.isinf(pooled[0]).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_maps_strips_on_a_pool_of_its_own():
    # two strips that meet at a barrier need a live pool thread: the
    # parent's pool runs one before the fork, and the child, where the
    # parent's threads are gone, starts its own for its strips and for a
    # multi-strip pompeiu, bitwise the parent's, within the timeout
    f = _disk_field(128)

    def meet_on_two_threads():
        meet = threading.Barrier(2, timeout=10)
        cauchy._over_strips(lambda s: meet.wait(), [0, 1])

    with _cpus(2):
        meet_on_two_threads()
        want = pompeiu(f).values.tobytes()
        period = tuple(_period(n) for n in f.values.shape)
        assert len(cauchy.row_strips(period)) > 1
        pid = os.fork()
        if pid == 0:  # the child never returns to pytest
            code = 2
            try:
                meet_on_two_threads()
                code = int(pompeiu(f).values.tobytes() != want)
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its strips")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_a_whole_grid_transform_runs_only_the_strip_pools_threads():
    # in a fresh process with BLAS on one thread, a pompeiu at h = 1/512
    # leaves the main thread and the strip pool's: the y-transforms'
    # column strips run on the strip map, and no FFT library starts
    # threads of its own.  So the process holds the threads of one map
    # of many strips: 2 on two or more CPUs, 1 on one
    code = ("import os; from dbarkit import cauchy; "
            "from dbarkit.domains import Disk, build_mask; "
            "m = build_mask(Disk(0j, 1.0), h=1 / 512); "
            "u = cauchy.pompeiu(cauchy.sample_field(lambda z: z, m)); "
            "print(len(os.listdir('/proc/self/task')), "
            "cauchy._threads(1 << 30))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == out[1]


def test_verify_dbar_solution_report(disk_mask_64):
    m = disk_mask_64
    f = sample_field(lambda z: np.ones_like(z), m)
    rep = verify_dbar_solution(f, margin=12)
    assert set(rep) >= {"u", "max_dev", "h", "margin"}
    assert rep["h"] == m.grid.h
    assert rep["max_dev"] < 1e-4


def test_dbar_convergence_ladder():
    rep = dbar_convergence(lambda z: np.ones_like(z), Disk(0j, 1.0),
                           hs=(1 / 32, 1 / 64, 1 / 128))
    assert rep["max_dev"][0] > rep["max_dev"][1] > rep["max_dev"][2]
    assert rep["slope"] >= 0.9
    assert rep["margins"] == [5, 10, 19]


def test_refinement_ladder_margins_slopes_and_exact_flag():
    calls = []

    def solve(h, margin):
        calls.append((h, margin))
        return {"dev": 7.0 * h ** 2, "roundoff": 1e-16}

    lad = refinement_ladder(solve, (1 / 128, 1 / 32, 1 / 64), physical_margin=0.2)
    assert lad["h"] == [1 / 32, 1 / 64, 1 / 128]
    assert lad["margins"] == [6, 13, 26] == [m for _, m in calls]
    assert lad["slope"] == pytest.approx(2.0, abs=1e-12)
    assert not lad["slopes"]["dev"]["exact"]
    assert lad["slopes"]["roundoff"] == {"slope": None, "exact": True,
                                         "values": [1e-16] * 3}
    # the margin never drops below 3 cells, and one level fits nothing
    single = refinement_ladder(solve, (1 / 8,))
    assert single["margins"] == [3]
    assert single["slopes"] == {} and single["slope"] is None


@pytest.mark.parametrize("hs", [[0.1, 0.1], [0.1, -0.05], []],
                         ids=["repeated", "negative", "none"])
def test_refinement_ladder_rejects_bad_spacings(hs):
    # a repeated spacing fitted a slope through one point, a negative one
    # took the log of a negative number, and no spacing indexed nothing
    with pytest.raises(ValueError, match=r"at least 1 positive, strictly "
                       r"decreasing value\(s\), got \["):
        refinement_ladder(lambda h, margin: {"dev": h}, hs)


def _lconn_scales(tmp_path, values):
    path = tmp_path / "lconn.ini"
    path.write_text(f"[lconn]\nscales = {' '.join(map(str, values))}\n")
    return load_config("lconn", config_path=path)


# every entry point that reads a ladder of spacings, scales or radii
LADDER_ENTRIES = {
    "check_ladder": lambda v, tmp: check_ladder(v, 1),
    "refinement_ladder": lambda v, tmp: refinement_ladder(
        lambda h, margin: {"dev": h}, v),
    "derivative_bound_scan": lambda v, tmp: derivative_bound_scan(
        intpow(Z, 2), Z, 1, 1, Disk(0j, 1.0), levels=v),
    "l_probe": lambda v, tmp: l_probe(Disk(0j, 1.0), 1.0 + 0j, scales=v,
                                      h=1 / 64),
    "spiral_growth_probe": lambda v, tmp: spiral_growth_probe(scales=v),
    "taylor_remainder_fit": lambda v, tmp: taylor_remainder_fit(
        exp(Z), 1.0 + 0j, 2, Disk(0j, 1.5), radii=v),
    "cli": lambda v, tmp: _lconn_scales(tmp, v),
}


@pytest.mark.parametrize("ladder", [(), (0.1, 0.1), (0.1, 0.0), (0.1, -0.05)],
                         ids=["empty", "repeated", "zero", "negative"])
@pytest.mark.parametrize("entry", list(LADDER_ENTRIES))
def test_every_ladder_entry_rejects_bad_ladders(entry, ladder, tmp_path):
    # one rule (check_ladder) behind every entry; the CLI words it as a
    # config error, which is a ValueError too
    with pytest.raises(ValueError,
                       match=r"at least \d positive, strictly decreasing"):
        LADDER_ENTRIES[entry](ladder, tmp_path)


def test_log_slope_floor():
    vals = [4e-14, 1e-14]
    assert log_slope([0.2, 0.1], vals) == {"slope": None, "exact": True,
                                           "values": vals}
    fit = log_slope([0.2, 0.1], vals, floor=0.0)
    assert not fit["exact"] and fit["slope"] == pytest.approx(2.0)


def test_sampled_field_rejects_nonfinite(disk_mask_64):
    m = disk_mask_64
    vals = np.zeros(m.inside.shape, dtype=complex)
    iy, ix = np.nonzero(m.inside)
    vals[iy[0], ix[0]] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SampledField(m, vals)


def test_sampled_field_checks_finiteness_on_the_support_only(disk_mask_64):
    # NaN off the support is accepted; on it, the message names the
    # count and the first nodes
    m = disk_mask_64
    vals = np.zeros(m.inside.shape, dtype=complex)
    vals[0, 0] = np.nan
    vals[~m.inside] = np.inf
    assert not m.inside[0, 0]
    assert SampledField(m, vals).max_abs() == 0.0
    iy, ix = np.nonzero(m.inside)
    vals[iy[3], ix[3]] = vals[iy[5], ix[5]] = np.nan
    where = m.coords(m.inside)[[3, 5]]
    with pytest.raises(PreconditionError) as exc:
        SampledField(m, vals)
    assert str(exc.value) == f"2 non-finite samples on support, first at {where}"


def test_sample_field_zero_on(disk_mask_64):
    m = disk_mask_64
    hole = np.abs(m.grid.zgrid()) < 0.2
    f = sample_field(lambda z: 1 / z, m, zero_on=hole)
    assert np.abs(f.values[hole & m.inside]).max() == 0
    assert np.isfinite(f.values).all()


def test_sample_field_passes_a_sampled_field_through(disk_mask_64):
    m = disk_mask_64
    f = sample_field(lambda z: z, m)
    assert sample_field(f, m) is f
    # same grid, another node set: still already sampled
    assert sample_field(f, build_mask(Disk(0j, 0.5), grid=m.grid)) is f
    with pytest.raises(ValueError, match="different grid"):
        sample_field(f, build_mask(Disk(0j, 1.0), h=1 / 32))
    hole = np.abs(m.grid.zgrid()) < 0.2
    cut = sample_field(f, m, zero_on=hole)
    assert not cut.values[hole].any()
    assert np.array_equal(cut.values[~hole], f.values[~hole])
    assert f.values[hole & m.inside].any()


# product, power and quotient trees in z and conj(z); every denominator
# is 3 + |t|^2, so only an overflow makes a sample non-finite
_SAMPLED_TREES = st.recursive(
    st.one_of(st.just(Z), st.just(conj(Z)),
              st.complex_numbers(max_magnitude=2, allow_nan=False,
                                 allow_infinity=False).map(Const)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: mul(*ts)),
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.tuples(kids, st.integers(0, 4)).map(lambda t: intpow(*t)),
        st.tuples(kids, kids).map(
            lambda t: div(t[0], add(3, mul(t[1], conj(t[1])))))),
    max_leaves=6)


@lru_cache(maxsize=None)
def _sampling_mask(name, n):
    # an off-center disk (18,521, 74,116 and 296,475 Inside nodes at
    # h = 1/64, 1/128 and 1/256) and the sector chain's non-square grid
    dom = SectorChain(8) if name == "chain" else Disk(0.1 + 0.05j, 1.2)
    return build_mask(dom, h=1 / n)


def _sampled(make):
    # the array made, or the error raised with its text and nodes
    try:
        return make().tobytes()
    except PreconditionError as err:
        return type(err), str(err), np.asarray(err.nodes).tobytes()


@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from([("disk", 64), ("disk", 128), ("disk", 256),
                             ("chain", 512)]),
       kind=st.sampled_from(["tree", "callable", "field"]),
       tree=_SAMPLED_TREES, cut=st.booleans(), nan_spots=st.integers(0, 3),
       block=st.sampled_from([cauchy.SAMPLE_BLOCK, 20000]), data=st.data())
def test_node_sampler_is_the_one_shot_rule_bitwise(grid, kind, tree, cut,
                                                   nan_spots, block, data):
    # sample_field is vals[sel] = fn(mask.coords(sel)) bitwise, and
    # sample_nodes is that array read at sel's nodes, in default blocks
    # and in forced ones of 20,000 nodes; a non-finite sample keeps its
    # error text and first nodes on both paths; a callable is called
    # once per block; a SampledField passes through
    mask = _sampling_mask(*grid)
    h = mask.grid.h
    inside = mask.coords(mask.inside)
    zero_on = None
    if cut:
        c = inside[data.draw(st.integers(0, inside.size - 1))]
        zero_on = np.abs(mask.grid.zgrid() - c) < data.draw(st.floats(0, 0.6))
    sel = mask.inside if zero_on is None else mask.inside & ~zero_on
    nodes = np.flatnonzero(sel)
    spots = [inside[data.draw(st.integers(0, inside.size - 1))]
             for _ in range(nan_spots if kind == "callable" else 0)]
    tree_fn, calls = as_callable(tree), []

    def call(z):
        calls.append(z.size)
        v = tree_fn(z)
        for p in spots:
            v = np.where(np.abs(z - p) < 0.5 * h, np.nan, v)
        return v

    with np.errstate(all="ignore"):
        if kind == "field":
            vals = np.zeros(mask.inside.shape, dtype=complex)
            vals[mask.inside] = tree_fn(inside)
            assume(np.isfinite(vals).all())
            f = SampledField(mask, vals)
            want = vals if zero_on is None else np.where(zero_on, 0.0, vals)
        else:
            f = tree if kind == "tree" else call
            want = np.zeros(mask.inside.shape, dtype=complex)
            want[sel] = as_callable(f)(mask.coords(sel))
        want_field = _sampled(lambda: SampledField(mask, want).values)
        want_nodes = _sampled(lambda: SampledField(mask, want).values
                              .reshape(-1)[nodes])
        with mock.patch.object(cauchy, "SAMPLE_BLOCK", block):
            sizes = [b - a for a, b in node_blocks(nodes.size)]
            calls.clear()
            assert _sampled(lambda: sample_field(
                f, mask, zero_on=zero_on).values) == want_field
            field_calls = list(calls)
            calls.clear()
            assert _sampled(lambda: sample_nodes(f, mask, nodes)) == want_nodes
    if kind == "callable":
        assert field_calls == calls == sizes
    if kind == "field" and zero_on is None:
        assert sample_field(f, mask) is f
    event(f"{kind}, {len(sizes)} blocks, "
          f"{'error' if isinstance(want_field, tuple) else 'samples'}")


_NUM = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                          allow_infinity=False)
_DEN = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ny=st.integers(1, 6), nx=st.integers(1, 6),
       dead_num=st.sampled_from([0.0, 1.0]))
def test_zero_extended_divides_on_live_nodes_only(data, ny, nx, dead_num):
    # den = 0 off live, with num 0 (0/0) or 1 (1/0) there: a division
    # off live would raise the RuntimeWarning the suite treats as error
    n = ny * nx

    def grid(strategy):
        return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)),
                        dtype=complex).reshape(ny, nx)

    live = grid(st.booleans()).real.astype(bool)
    num, den = grid(_NUM), grid(_DEN)
    num[~live], den[~live] = dead_num, 0.0
    out = zero_extended(num, den, live)
    assert out.shape == live.shape and out.dtype == complex
    assert out[live].tobytes() == (num[live] / den[live]).tobytes()
    assert not out[~live].any()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ny=st.integers(1, 6), nx=st.integers(1, 6),
       dtype=st.sampled_from([bool, np.int64, float, complex]))
def test_on_nodes_scatters_row_major(data, ny, nx, dtype):
    sel = np.array(data.draw(st.lists(st.booleans(), min_size=ny * nx,
                                      max_size=ny * nx))).reshape(ny, nx)
    k = int(sel.sum())
    values = np.arange(1, k + 1).astype(dtype)  # no zero value
    out = on_nodes(values, sel)
    assert out.shape == sel.shape and out.dtype == values.dtype
    iy, ix = np.nonzero(sel)  # row-major order
    assert out[iy, ix].tobytes() == values.tobytes()
    assert not out[~sel].any()
    wide = on_nodes(values, sel, complex)
    assert wide.dtype == complex and (wide == out).all()


def test_zero_extended_keeps_a_real_quotient_real():
    live = np.array([True, False, True])
    out = zero_extended(np.array([1.0, 2.0, 3.0]), np.array([4.0, 0.0, 2.0]),
                        live)
    assert out.dtype == float and out.tolist() == [0.25, 0.0, 1.5]


def test_target_exactly_on_source_node(disk_mask_64):
    # the self-cell integral is a genuine principal value, so a target
    # sitting on a sample node must come back finite
    m = disk_mask_64
    f = sample_field(lambda z: np.ones_like(z), m)
    iy, ix = np.nonzero(m.inside)
    t = m.grid.zgrid()[iy[len(ix) // 2], ix[len(ix) // 2]]
    val = pompeiu(f, np.array([t]))
    assert np.isfinite(val).all()
