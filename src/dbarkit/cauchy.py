"""Discrete Cauchy transform: particular solutions of dbar u = f.

For f supported on the Inside cells of a mask, the transform

    u(z) = -(1/pi) * sum_cells  f(w_c) * I_cell(z)

approximates the area integral of f(w)/(w - z).  Far cells use the
midpoint value h^2/(w_c - z); cells within NEAR_RADIUS_CELLS * h of the
target use the exact integral of the kernel over the square cell, which
stays finite even when the target sits inside the cell, so nodes of the
grid itself are legitimate targets.

The exact cell integral comes from Stokes' theorem: with v = w - z,

    int_cell dA(w)/(w - z) = (1/2i) * oint_boundary (vbar / v) dv,

and each edge of an axis-aligned square integrates in closed form with
one complex log per endpoint.  No branch is ever crossed because each
edge keeps a constant real or imaginary part.

Evaluation engines.  The engine follows the targets argument of
pompeiu.  An array of target points runs a plain O(targets * cells)
loop.  targets=None evaluates at every grid node; there the weights
depend only on the source-target offset, and the identical sum is a
circular FFT convolution over a period of next_fast_len(2n - 1) nodes
per axis.  A period of at least 2n - 1 holds every offset in
-(n - 1)..(n - 1) once, so no source-target pair wraps onto another.
The kernel enters as the spectrum of its reflection Kc[m] = K[-m],
built once per grid shape and spacing (ny, nx, h) and cached for the
4 most recently used grids.  Both engines take their weights from one
near/far rule, so this is a reorganization of the same discrete
quadrature (the direct loop is the reference it is tested against, to
roundoff), not a different approximation.  On one core it is the
difference between seconds and hours at h = 1/256.

Difference stencils.  dbar_fd and d_fd take the Wirtinger derivatives
0.5 * (f_x +- i f_y) by central differences on the Interior nodes and
report 0 elsewhere.  dbar_fd_onesided also covers the Boundary ring:
per axis it takes the central difference when both neighbors are
Inside, the one-sided difference toward the neighbor when only one is,
and 0 when neither is (a 1-node sliver, flagged nowhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import fft

from .domains import RegionMask, interior_shrunk
from .expr import as_callable

__all__ = [
    "NEAR_RADIUS_CELLS", "sup_abs", "SampledField", "sample_field",
    "exact_cell_integral",
    "pompeiu", "dbar_fd", "d_fd", "dbar_fd_onesided", "verify_dbar_solution",
    "EXACT_FLOOR", "refinement_ladder", "dbar_convergence",
]

# metrics at or below this sup are floating-point roundoff of an identity
# that holds exactly; a log-log fit through them is meaningless
EXACT_FLOOR = 1e-13

# source cells within this many spacings of the target use the exact
# cell integral; the rest use the midpoint value
NEAR_RADIUS_CELLS = 3


def sup_abs(values: np.ndarray, sel: Optional[np.ndarray] = None) -> float:
    """max |values| over the selected entries (all of them when sel is None).

    NaN on an empty selection: a check must not pass on nothing
    measured, and NaN fails every tolerance comparison.
    """
    v = np.asarray(values) if sel is None else values[sel]
    return float(np.abs(v).max()) if v.size else float("nan")


@dataclass
class SampledField:
    """Complex samples on the nodes of a mask.

    values is a full (ny, nx) array; only nodes in `support` (default:
    the Inside set) are meaningful, the rest are kept at 0.  NaN or inf
    on the support is rejected at construction time.
    """

    mask: RegionMask
    values: np.ndarray
    support: np.ndarray = None

    def __post_init__(self):
        if self.support is None:
            self.support = self.mask.inside
        if self.values.shape != self.support.shape:
            raise ValueError("values and support shapes differ")
        bad = ~np.isfinite(self.values[self.support])
        if bad.any():
            where = self.mask.coords(self.support)[bad][:3]
            raise ValueError(
                f"{int(bad.sum())} non-finite samples on support, "
                f"first at {where}")

    def max_abs(self, on: np.ndarray = None) -> float:
        return sup_abs(self.values, self.support if on is None else on)


def sample_field(f, mask: RegionMask,
                 zero_on: np.ndarray = None) -> SampledField:
    """Sample an expression or callable on the Inside nodes.

    zero_on: optional node set forced to 0 without evaluation (zero
    extensions across singular sets)."""
    sel = mask.inside if zero_on is None else mask.inside & ~zero_on
    vals = np.zeros(mask.inside.shape, dtype=complex)
    vals[sel] = as_callable(f)(mask.coords(sel))
    return SampledField(mask, vals)


def exact_cell_integral(v0: np.ndarray, h: float) -> np.ndarray:
    """Integral of 1/w over the square cell of side h centered at v0.

    Vectorized over v0 (the cell center relative to the target).  Valid
    for targets outside, on the edge of, or inside the cell.
    """
    v0 = np.asarray(v0, dtype=complex)
    a = h / 2.0
    a1 = v0.real - a
    a2 = v0.real + a
    b1 = v0.imag - a
    b2 = v0.imag + a

    def log_diff(num, den, safe):
        # continuous log increment along a straight edge: an edge whose
        # line misses the origin subtends less than pi there, so the
        # principal argument of the endpoint ratio is the unwound
        # increment (naive log(num) - log(den) picks up spurious 2*pi*i
        # when the edge crosses or ends on the negative real axis)
        num = np.where(safe, num, 1.0)
        den = np.where(safe, den, 1.0)
        ratio = num / den
        out = np.log(np.abs(ratio)) + 1j * np.angle(ratio)
        return np.where(safe, out, 0.0)

    def edge_h(t1, t2, b):
        # edges on the line through the origin (b == 0) integrate
        # conj(w)/w = 1 directly, in the principal-value sense at w = 0
        ld = log_diff(t2 + 1j * b, t1 + 1j * b, b != 0)
        return (t2 - t1) - 2j * b * ld

    def edge_v(s1, s2, al):
        # al == 0 edges integrate conj(w)/w = -1 directly
        ld = log_diff(al + 1j * s2, al + 1j * s1, al != 0)
        return -1j * (s2 - s1) + 2.0 * al * ld

    total = (edge_h(a1, a2, b1) + edge_v(b1, b2, a2)
             + edge_h(a2, a1, b2) + edge_v(b2, b1, a1))
    return total / 2j


def _offset_weights(dz: np.ndarray, h: float) -> np.ndarray:
    """Quadrature weight for int_cell dA/(w - z) at offsets dz = c - z."""
    near = (dz.real ** 2 + dz.imag ** 2) <= (NEAR_RADIUS_CELLS * h) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w = h * h / dz
    w[near] = exact_cell_integral(dz[near], h)
    return w


def pompeiu(f: SampledField, targets: Optional[np.ndarray] = None):
    """Discrete Cauchy transform of a sampled field.

    The engine follows targets.  targets = None evaluates at every grid
    node by FFT convolution over the offset lattice and returns a
    SampledField on the full grid (support: all nodes).  An array of
    complex points runs the direct O(targets * cells) loop and returns a
    matching complex array.  Both use the same weights: the exact cell
    integral within NEAR_RADIUS_CELLS spacings, the midpoint value beyond.
    """
    src_mask = f.mask.inside & f.support
    if targets is None:
        u = _pompeiu_lattice(np.where(src_mask, f.values, 0.0), f.mask.grid)
        return SampledField(f.mask, u, support=np.ones_like(src_mask))
    zt = np.asarray(targets, dtype=complex)
    return _pompeiu_direct(f.values[src_mask], f.mask.coords(src_mask),
                           f.mask.grid.h, zt.ravel()).reshape(zt.shape)


def fftconvolve(fv: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Circular convolution of fv, zero-padded to spectrum.shape, with
    the kernel whose 2-D spectrum is given; returns the leading
    fv.shape block."""
    x = fft.fft2(fv, s=spectrum.shape)
    x *= spectrum
    return fft.ifft2(x, overwrite_x=True)[:fv.shape[0], :fv.shape[1]]


@lru_cache(maxsize=4)
def _kernel_spectrum(ny: int, nx: int, h: float) -> np.ndarray:
    # u[t] = sum_s f[s] K[s - t] is a correlation: a convolution with
    # Kc[m] = K[-m], the weight at source-minus-target offset -m.  On a
    # period P >= 2n - 1 per axis, indices 0..n-1 hold offsets 0..n-1
    # and P-n+1..P-1 hold -(n-1)..-1, all distinct; the indices between
    # feed only outputs past the grid, which fftconvolve crops.
    py, px = fft.next_fast_len(2 * ny - 1), fft.next_fast_len(2 * nx - 1)
    my = np.arange(py)
    my[ny:] -= py
    mx = np.arange(px)
    mx[nx:] -= px
    dz = -h * (mx[None, :] + 1j * my[:, None])
    spectrum = fft.fft2(_offset_weights(dz, h), overwrite_x=True)
    # one array serves every solve on this grid
    spectrum.flags.writeable = False
    return spectrum


def _pompeiu_lattice(fv: np.ndarray, grid) -> np.ndarray:
    spectrum = _kernel_spectrum(*fv.shape, grid.h)
    return (-1.0 / math.pi) * fftconvolve(fv, spectrum)


def _pompeiu_direct(fs: np.ndarray, w: np.ndarray, h: float,
                    zt: np.ndarray) -> np.ndarray:
    # fs: the source values at the source nodes w
    out = np.empty(zt.shape, dtype=complex)
    for k, z in enumerate(zt):
        out[k] = fs @ _offset_weights(w - z, h)
    return (-1.0 / math.pi) * out


def _wirtinger_fd(f: SampledField, bar: bool,
                  one_sided: bool) -> SampledField:
    # 0.5 * (f_x + i f_y) for dbar, 0.5 * (f_x - i f_y) for d: central
    # differences on the Interior nodes, and with one_sided also on the
    # Boundary ring (see the module docstring)
    m = f.mask
    h = m.grid.h
    v = f.values
    fx = np.zeros_like(v)
    fy = np.zeros_like(v)
    fx[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    fy[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * h)
    keep = m.inside if one_sided else m.interior
    if one_sided:
        # past the grid's edge counts as not Inside
        ins, vp = np.pad(keep, 1), np.pad(v, 1)
        iy, ix = np.nonzero(m.boundary)
        c = v[iy, ix]
        for d, sy, sx in ((fx, 0, 1), (fy, 1, 0)):
            plus = (iy + 1 + sy, ix + 1 + sx)
            minus = (iy + 1 - sy, ix + 1 - sx)
            hp, hm = ins[plus], ins[minus]
            d[iy, ix] = np.where(hp & hm, d[iy, ix], np.where(
                hp, (vp[plus] - c) / h,
                np.where(hm, (c - vp[minus]) / h, 0.0)))
    out = 0.5 * (fx + 1j * fy if bar else fx - 1j * fy)
    out[~keep] = 0.0
    return SampledField(m, out, support=keep.copy())


def dbar_fd(f: SampledField) -> SampledField:
    """Central-difference dbar on the Interior nodes.

    Exact for fields sampled from polynomials of degree <= 2 in (x, y);
    in particular conj(z) maps to the constant 1 and z*conj(z) to z.
    """
    return _wirtinger_fd(f, bar=True, one_sided=False)


def d_fd(f: SampledField) -> SampledField:
    """Central-difference holomorphic derivative on Interior nodes."""
    return _wirtinger_fd(f, bar=False, one_sided=False)


def dbar_fd_onesided(f: SampledField) -> SampledField:
    """dbar on all Inside nodes: central on the Interior, one-sided at
    the Boundary ring where an axis has a single Inside neighbor."""
    return _wirtinger_fd(f, bar=True, one_sided=True)


def verify_dbar_solution(f: SampledField, margin: int = 3) -> dict:
    """Solve dbar u = f by the transform, differentiate back, report.

    Returns {'u', 'dev_field', 'max_dev', 'h', 'margin'}: max_dev is the
    maximum of |dbar_fd(u) - f| over nodes at Chebyshev distance at
    least `margin` cells from the complement of Inside, NaN when the
    margin leaves no node.
    """
    u = pompeiu(f)
    du = dbar_fd(u)
    shrunk = interior_shrunk(f.mask, margin)
    dev = np.where(shrunk, du.values - f.values, 0.0)
    return {"u": u, "dev_field": SampledField(f.mask, dev, support=shrunk),
            "max_dev": sup_abs(dev, shrunk), "h": f.mask.grid.h,
            "margin": margin}


def _log_slope(hs, values) -> dict:
    vals = [float(v) for v in values]
    if max(vals) <= EXACT_FLOOR:
        return {"slope": None, "exact": True, "values": vals}
    fit = np.polyfit(np.log(hs), np.log(np.maximum(vals, 1e-300)), 1)
    return {"slope": float(fit[0]), "exact": False, "values": vals}


def refinement_ladder(solve, hs, physical_margin: float = 0.15) -> dict:
    """Run solve(h, margin) at each spacing, coarsest first, and fit slopes.

    Round-trip and correction deviations concentrate in a layer of width
    O(h) along the jagged node-set boundary, so a shrink margin counted
    in cells chases that layer inward and never converges.  Every ladder
    therefore measures a fixed physical distance in: at spacing h the
    margin is max(3, round(physical_margin / h)) cells.

    solve returns a dict of scalar metrics for its level.  The result
    holds 'h' (coarsest first), 'margins', one list per metric, and
    'slopes': per metric {'slope', 'exact', 'values'}, where slope is the
    log-log fit exponent p in metric ~ C * h**p, or None with exact set
    when the metric stays at or below EXACT_FLOOR on every level.
    'slope' repeats the exponent of the first metric.  A one-level
    ladder fits nothing: slopes is empty and slope is None.
    """
    hs = sorted(hs, reverse=True)
    margins = [max(3, int(round(physical_margin / h))) for h in hs]
    levels = [solve(h, margin) for h, margin in zip(hs, margins)]
    series = {name: [level[name] for level in levels] for name in levels[0]}
    slopes = ({name: _log_slope(hs, vals) for name, vals in series.items()}
              if len(hs) >= 2 else {})
    first = next(iter(slopes.values()), {})
    return {"h": hs, "margins": margins, **series, "slopes": slopes,
            "slope": first.get("slope")}


def dbar_convergence(f, domain, hs=(1 / 64, 1 / 128, 1 / 256),
                     physical_margin: float = 0.15) -> dict:
    """Refinement ladder for the round-trip deviation |dbar_fd(u) - f|.

    Returns the refinement_ladder result for the metric 'max_dev'; its
    'slope' is the max_dev exponent.
    """
    from .domains import build_mask

    def solve(h, margin):
        field = sample_field(f, build_mask(domain, h=h))
        return {"max_dev": verify_dbar_solution(field, margin)["max_dev"]}

    return refinement_ladder(solve, hs, physical_margin)
