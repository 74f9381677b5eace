"""Cell quadrature and transform round-trip tests.

The frozen cell-integral constants were computed from two independent
oracles before the closed form was trusted: adaptive 2-D quadrature of
1/w over the square (scipy.integrate.dblquad, epsabs 1e-14) for cells
away from the origin, and an adaptive polar ray integral (clip each ray
from the origin against the box, integrate exp(-i theta) times the
chord length) for cells whose closure contains it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbarkit.cauchy import (
    SampledField,
    _kernel_spectrum,
    d_fd,
    dbar_convergence,
    dbar_fd,
    dbar_fd_onesided,
    exact_cell_integral,
    pompeiu,
    refinement_ladder,
    sample_field,
    verify_dbar_solution,
)
from dbarkit.domains import Disk, GridSpec, RegionMask, interior_shrunk

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
    # exactly 2n - 1 and the corner-to-corner offsets sit on its edge
    grid = GridSpec(-0.75 - 1j, 1 / 8, 13, 14)
    assert _kernel_spectrum(14, 13, grid.h).shape == (27, 25)
    lattice, direct = _engines(grid)
    assert np.abs(lattice - direct).max() < 1e-12


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


def test_verify_dbar_solution_report(disk_mask_64):
    m = disk_mask_64
    f = sample_field(lambda z: np.ones_like(z), m)
    rep = verify_dbar_solution(f, margin=12)
    assert set(rep) >= {"u", "dev_field", "max_dev", "h", "margin"}
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


def test_sampled_field_rejects_nonfinite(disk_mask_64):
    m = disk_mask_64
    vals = np.zeros(m.inside.shape, dtype=complex)
    iy, ix = np.nonzero(m.inside)
    vals[iy[0], ix[0]] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SampledField(m, vals)


def test_sample_field_zero_on(disk_mask_64):
    m = disk_mask_64
    hole = np.abs(m.grid.zgrid()) < 0.2
    f = sample_field(lambda z: 1 / z, m, zero_on=hole)
    assert np.abs(f.values[hole & m.inside]).max() == 0
    assert np.isfinite(f.values).all()


def test_target_exactly_on_source_node(disk_mask_64):
    # the self-cell integral is a genuine principal value, so a target
    # sitting on a sample node must come back finite
    m = disk_mask_64
    f = sample_field(lambda z: np.ones_like(z), m)
    iy, ix = np.nonzero(m.inside)
    t = m.grid.zgrid()[iy[len(ix) // 2], ix[len(ix) // 2]]
    val = pompeiu(f, np.array([t]))
    assert np.isfinite(val).all()
