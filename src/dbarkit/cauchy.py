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

Sampling.  sample_field (a full-grid SampledField) and sample_nodes (a
node vector over flat node indices iy * nx + ix) are the one rule for
evaluating an expression or callable on nodes.  Nodes go in row-major
order, their coordinates by RegionMask.points, bitwise those of
RegionMask.coords.  They are evaluated in blocks of node_blocks,
SAMPLE_BLOCK nodes each with the last running to the end, one call of
the callable per block.  So no coordinate array spans every node, and
each block holds at least min(n, 16384) complex points, numpy's
256 KiB size for reusing a temporary, which keeps the operand order
(and the bits) of one evaluation on all n.  A SampledField passes
through when it lies on the mask's grid.  Non-finite samples raise one
PreconditionError, naming the count and the first three nodes, from a
SampledField and from sample_nodes alike.  Full-grid arrays that are
only reduced to a sup or combined elementwise are formed in row strips
by the same rule: row_strips gives the node_blocks over the rows, each
strip at least SAMPLE_BLOCK nodes and the last running to the end, so
numpy reuses a temporary in a strip exactly when it would on the whole
grid, and each complex product keeps its operand order and its bits.
strip_sup reads the sup of such an array over a selection strip by
strip (sup_abs reads selections through it, with no copy of
values[sel]).  The strips of one array are independent work, so they
run concurrently (_over_strips): one thread per CPU of the
process's affinity, at most _STRIP_THREADS (2, the count the memory
bounds were measured at), the calling thread among them, take them
in turn; each strip is reduced or written into rows the caller owns,
and the results come back in strip order.  No option sets the
number of threads, and a strip does the same operations on whichever
thread runs it, so the output is bitwise that of one thread.  Every sup is the one sup
over a sequence of arrays, sup_over, which sup_abs, strip_sup and
division's node-block scales read: NaN when no entry is measured, and
a NaN entry reads NaN in any part, wherever it stands.

Evaluation engines.  The engine follows the targets argument of
pompeiu.  An array of target points runs a plain O(targets * cells)
loop.  targets=None evaluates at every grid node; there the weights
depend only on the source-target offset, and the identical sum is a
circular FFT convolution over a period of py x px nodes, with
next_fast_len(2n - 1) per axis.  A period of at least 2n - 1 holds
every offset in -(n - 1)..(n - 1) once, so no source-target pair
wraps onto another.  The kernel enters as the spectrum of its
reflection Kc[m] = K[-m].  The indices between those offsets (the
band |m_y| >= ny or |m_x| >= nx) feed only outputs past the grid and
are left 0, which makes Kc odd and mirrors it to its conjugate across
the x-axis; its spectrum then obeys S(kx, -ky) = -conj S(kx, ky), so
only rows 0..py//2 are built (the y-transform on the row_strips of
the transposed shape, in the calling thread) and cached, per grid
shape and spacing (ny, nx, h), for the 4 most recently used grids.
No py x px array is ever formed, and one (py, nx) work array holds
every stage: the data on their source nodes are copied into it (no
masked copy of the field) and y-transformed in place, its columns
split among as many scipy.fft workers as a map has threads, each
column transformed as on one worker; the row_strips of the (py, px)
period go through the x-transform, the product and the inverse
x-transform concurrently, each padded in one of the caller's scratch
arrays (one per thread), keeping nx columns; the inverse y-transform
runs in place, and the array is cut to its ny rows in place to
become the result.  Strip heights from 8 to 128 rows
give the same bits (unit disk, h = 1/256 and 1/512).  Both
engines take their weights from one near/far rule, so this is a
reorganization of the same discrete quadrature (the direct loop is
the reference it is tested against, to roundoff), not a different
approximation.  On one core it is the difference between seconds and
hours at h = 1/256.

Difference stencils.  dbar_fd and d_fd take the Wirtinger derivatives
0.5 * (f_x +- i f_y) by central differences on the Interior nodes and
report 0 elsewhere.  One private kernel computes a band of rows of
that field, with each node's operations in the order of one pass over
the whole grid, so a band is bitwise the field's rows; the stencils
write their output from it row strip by row strip, the strips
running concurrently, and dbar_fd_sup
reads max |dbar_fd(f) - minus| over a selection from it without
forming the field (verify_dbar_solution's max_dev, corona's dbar sups,
division's holomorphy probe).  dbar_fd_onesided also covers the
Boundary ring: per axis it takes the central difference when both
neighbors are Inside, the one-sided difference toward the neighbor
when only one is, and 0 when neither is (a 1-node sliver, flagged
nowhere).
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import fft

from .domains import PreconditionError, RegionMask, build_mask, interior_shrunk
from .expr import as_callable

__all__ = [
    "NEAR_RADIUS_CELLS", "SAMPLE_BLOCK", "sup_over", "sup_abs", "row_strips",
    "strip_sup", "SampledField", "node_blocks", "sample_field",
    "sample_nodes", "on_nodes", "zero_extended", "exact_cell_integral",
    "pompeiu", "dbar_fd", "d_fd", "dbar_fd_onesided", "dbar_fd_sup",
    "verify_dbar_solution", "EXACT_FLOOR", "check_ladder", "log_slope",
    "refinement_ladder", "dbar_convergence",
]

# metrics at or below this sup are floating-point roundoff of an identity
# that holds exactly; a log-log fit through them is meaningless
EXACT_FLOOR = 1e-13

# source cells within this many spacings of the target use the exact
# cell integral; the rest use the midpoint value
NEAR_RADIUS_CELLS = 3

# nodes per sampling block, which bounds the temporaries; the division
# record's scales are taken in the same blocks.  Each block then holds
# at least min(n, 16384) complex points, numpy's 256 KiB size for
# reusing a temporary, so an expression keeps the operand order (and
# the bits) of one evaluation on all n (module docstring, Sampling)
SAMPLE_BLOCK = 1 << 16

# the most threads that take one map's strips, the calling thread
# included: the CPU count at which the memory bounds were measured
# (tests/test_peak_memory.py).  Each thread adds its strip's scratch
# and a malloc arena of its own, so a host with more CPUs runs no more
# threads until it has been measured
_STRIP_THREADS = 2


def sup_over(parts) -> float:
    """max |a| over every entry of a sequence of arrays: the one sup.

    NaN when no entry is measured (no part, or only empty ones): a check
    must not pass on nothing measured, and NaN fails every tolerance
    comparison.  A NaN entry reads NaN wherever its part stands.
    """
    # map frees each part once its modulus is taken, before the next
    # part is formed; np.max, unlike Python's max, keeps a NaN wherever
    # it stands
    sups = [v.max() for v in map(np.abs, parts) if v.size]
    return float(np.max(sups)) if sups else float("nan")


def sup_abs(values: np.ndarray, sel: Optional[np.ndarray] = None) -> float:
    """max |values| over the selected entries (all of them when sel is
    None), by sup_over: NaN on an empty selection.  A selection is read
    strip by strip (strip_sup), with no copy of values[sel]."""
    if sel is not None:
        return strip_sup(lambda rows: values[rows], sel)
    return sup_over([np.asarray(values)])


def row_strips(shape) -> list:
    """(start, stop) of the row strips of an array of this shape: the
    node_blocks over its rows, each strip at least SAMPLE_BLOCK nodes
    (module docstring, Sampling), the last running to the end."""
    per_row = max(math.prod(shape[1:]), 1)
    return node_blocks(shape[0], -(-SAMPLE_BLOCK // per_row))


def strip_sup(rows_of, sel: np.ndarray) -> float:
    """max |a| over sel, where rows_of(rows) gives the rows of a full-grid
    array a for a slice of rows; a is formed one row strip at a time,
    and each strip is reduced to its sup where it was formed
    (_over_strips).  NaN on an empty selection and on a NaN at any
    selected node (sup_over)."""
    def strip(rows):
        v = np.abs(rows_of(slice(*rows))[sel[slice(*rows)]])
        return v.max(keepdims=True) if v.size else v

    return sup_over(_over_strips(strip, row_strips(sel.shape)))


# the CPUs this process may run on (its affinity where the system
# reports one), read once at import, so every count taken from it
# agrees: no option sets it, and `taskset -c 0` makes it 1
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _threads(n: int) -> int:
    # the threads that take n independent pieces of work (the strips of
    # a map, the columns of a y-transform): one per CPU, at most
    # _STRIP_THREADS, at most n, at least the calling thread
    return max(min(_CPUS, _STRIP_THREADS, n), 1)


@lru_cache(maxsize=1)
def _pool() -> ThreadPoolExecutor:
    # started on the first map with a task to hand out
    return ThreadPoolExecutor(max(_STRIP_THREADS - 1, 1), "dbarkit-strip")


if hasattr(os, "register_at_fork"):  # a parent's threads stay behind a fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _over_strips(fn, strips) -> list:
    """[fn(s) for s in strips] (a list), in order.  With two or more
    strips and more than one CPU, _threads(len(strips)) threads take
    the strips in turn: the calling thread and threads of a lazily
    started pool, each task in a copy of the caller's context (numpy's
    errstate rides in it).  Once the strips are all taken, a task that
    has not started is cancelled, not waited for.  A failed strip ends
    its own thread's turns, and one in the calling thread ends every
    thread's; the first exception is raised once no task runs.  No task
    may call a function that a tracer wraps, and each writes its output
    into rows the caller owns, so its own temporaries stay one strip in
    size."""
    out = [None] * len(strips)
    todo = iter(range(len(strips)))  # the GIL hands each index out once

    def run():
        for i in todo:
            out[i] = fn(strips[i])

    tasks = [_pool().submit(contextvars.copy_context().run, run)
             for _ in range(_threads(len(strips)) - 1)]
    try:
        run()
    finally:
        list(todo)  # what the calling thread left, no task takes
        # a task still queued has nothing left to do
        started = [task for task in tasks if not task.cancel()]
        wait(started)
    for task in started:
        task.result()
    return out


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
        # one pass over the whole array; only a non-finite value somewhere
        # pays for the support's copy
        if not np.isfinite(self.values).all():
            _require_finite(self.values[self.support], self.mask,
                            np.flatnonzero(self.support))

    def max_abs(self) -> float:
        return sup_abs(self.values, self.support)


def _require_finite(values: np.ndarray, mask: RegionMask,
                    nodes: np.ndarray) -> None:
    # the one non-finite error: values is a node vector over the flat
    # node indices nodes, and the error names the count and first nodes
    bad = ~np.isfinite(values)
    if bad.any():
        where = mask.points(nodes[bad][:3])
        raise PreconditionError(
            f"{int(bad.sum())} non-finite samples on support, "
            f"first at {where}", nodes=where)


def node_blocks(n: int, size: Optional[int] = None) -> list:
    """(start, stop) of the blocks over n nodes: size nodes each
    (default SAMPLE_BLOCK), the last running to the end, so one block,
    maybe empty, when n is at most size."""
    size = SAMPLE_BLOCK if size is None else size
    starts = range(0, max(n - size, 0) + 1, size)
    return list(zip(starts, [*starts[1:], n]))


def sample_field(f, mask: RegionMask,
                 zero_on: np.ndarray = None) -> SampledField:
    """Sample an expression or callable on the Inside nodes.

    zero_on: optional node set forced to 0 without evaluation (zero
    extensions across singular sets).  A SampledField on the grid of
    mask comes back as it is (copied with zero_on set to 0 if given);
    one from another grid raises."""
    if isinstance(f, SampledField):
        if f.mask.grid != mask.grid:
            raise ValueError("field sampled on a different grid")
        return f if zero_on is None else SampledField(
            f.mask, np.where(zero_on, 0.0, f.values), f.support)
    sel = mask.inside if zero_on is None else mask.inside & ~zero_on
    # the grid array comes before the node indices: the other order
    # left a hole in the heap that raised pompeiu_ladder's peak RSS by
    # 13 MB at h = 1/512 (glibc), with the same traced peak
    vals = np.zeros(mask.inside.shape, dtype=complex)
    nodes = np.flatnonzero(sel)
    fn = as_callable(f)
    for a, b in node_blocks(nodes.size):
        vals.reshape(-1)[nodes[a:b]] = fn(mask.points(nodes[a:b]))
    return SampledField(mask, vals)


def sample_nodes(f, mask: RegionMask, nodes: np.ndarray) -> np.ndarray:
    """f at the flat node indices nodes, as sample_field would give
    them: a SampledField read off its grid, an expression or callable
    evaluated block by block, with sample_field's errors."""
    if isinstance(f, SampledField):  # sample_field checks its grid
        return sample_field(f, mask).values.reshape(-1)[nodes]
    fn = as_callable(f)
    out = np.empty(nodes.size, dtype=complex)
    for a, b in node_blocks(nodes.size):
        out[a:b] = fn(mask.points(nodes[a:b]))
    _require_finite(out, mask, nodes)
    return out


def on_nodes(values: np.ndarray, sel: np.ndarray, dtype=None) -> np.ndarray:
    """The node vector values (one entry per node of sel, row-major) as a
    full-grid array, 0 on every other node; dtype defaults to values'."""
    out = np.zeros(sel.shape, dtype=values.dtype if dtype is None else dtype)
    out[sel] = values
    return out


def zero_extended(num: np.ndarray, den: np.ndarray,
                  live: np.ndarray) -> np.ndarray:
    """num / den on the live nodes and 0 on every other node: the zero
    extension across a singular set.  Nothing off live is divided."""
    return on_nodes(num[live] / den[live], live)


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
        spectrum = _kernel_spectrum(*src_mask.shape, f.mask.grid.h)
        u = fftconvolve(f.values, src_mask, spectrum)
        # in place, the scalar first: each product's operand order
        np.multiply(-1.0 / math.pi, u, out=u)
        return SampledField(f.mask, u, support=np.ones_like(src_mask))
    zt = np.asarray(targets, dtype=complex)
    return _pompeiu_direct(f.values[src_mask], f.mask.coords(src_mask),
                           f.mask.grid.h, zt.ravel()).reshape(zt.shape)


def _period(n: int) -> int:
    # the lattice period along an axis of n nodes: at least 2n - 1, so
    # the offsets -(n - 1)..(n - 1) sit on distinct indices
    return fft.next_fast_len(2 * n - 1)


def fftconvolve(values: np.ndarray, sel: np.ndarray,
                spectrum: np.ndarray) -> np.ndarray:
    """Circular convolution of values on sel (0 on every other node),
    zero-padded to the (py, px) period, with the kernel whose half
    spectrum is given (rows 0..py//2; row py - k is -conj of row k);
    returns the leading values.shape block.

    One complex (py, nx) work array holds every stage: the values on
    sel are copied into it and y-transformed in place; the row_strips
    of the period then go through the x-transform, the product and
    the inverse x-transform concurrently (_over_strips), each padded
    to px columns in one of the caller's scratch arrays, and keep
    their first nx columns; the inverse y-transform runs in place, and
    the work array is cut to its first ny rows, so it is the result."""
    ny, nx = values.shape
    nh, px = spectrum.shape
    py = _period(ny)
    a = np.zeros((py, nx), dtype=complex)
    np.copyto(a[:ny], values, where=sel)
    _fft_in_place(a, fft.fft, workers=_threads(nx))
    strips = row_strips((py, px))
    # one scratch array, of the tallest strip, for each thread that
    # takes strips
    spare = [np.empty((max(r1 - r0 for r0, r1 in strips), px), dtype=complex)
             for _ in range(_threads(len(strips)))]

    def x_strip(r0, r1):
        top = min(max(r0, nh), r1)
        # the padded strip in a scratch array of the caller's, and the
        # mirrored rows' factors 8 rows at a time: a pool thread's malloc
        # arena keeps what it frees, so its temporaries stay small
        b = spare.pop()[:r1 - r0]
        b[:, :nx], b[:, nx:] = a[r0:r1], 0.0
        _fft_in_place(b, fft.fft, axis=1)
        b[:top - r0] *= spectrum[r0:top]
        mirror = spectrum[py - r1 + 1:py - top + 1][::-1]
        for k in range(0, r1 - top, 8):
            b[top - r0 + k:][:8] *= -np.conj(mirror[k:k + 8])
        a[r0:r1] = fft.ifft(b, axis=1, overwrite_x=True)[:, :nx]
        spare.append(b.base)

    _over_strips(lambda rows: x_strip(*rows), strips)
    _fft_in_place(a, fft.ifft, workers=_threads(nx))
    # a owns its memory and no view of it is left, so the cut keeps the
    # leading rows where they are and frees the rest
    a.resize((ny, nx), refcheck=False)
    return a


def _fft_in_place(x: np.ndarray, transform, axis=0, workers=1) -> None:
    # the transform along axis written over the complex array x: scipy's
    # pocketfft writes it there when it may overwrite its input, and a
    # backend that returns new memory is copied back.  Its workers split
    # the other axis, each line transformed as on one worker
    out = transform(x, axis=axis, overwrite_x=True, workers=workers)
    if not np.may_share_memory(out, x):
        x[...] = out


@lru_cache(maxsize=4)
def _kernel_spectrum(ny: int, nx: int, h: float) -> np.ndarray:
    # u[t] = sum_s f[s] K[s - t] is a correlation: a convolution with
    # Kc[m] = K[-m], the weight at source-minus-target offset -m.  On
    # the period, index m mod P holds offset m for |m| <= n - 1; the
    # band of indices between feeds only outputs past the grid, which
    # fftconvolve crops, and is left 0.  Kc is then odd and mirrors
    # to its conjugate across the x-axis, so its spectrum S obeys
    # S(kx, -ky) = -conj S(kx, ky) and rows 0..py//2 are stored.  The
    # y-transform runs on strips of columns (row_strips of the
    # transposed shape), keeping those rows, in the calling thread: the
    # weights come from exact_cell_integral.
    py, px = _period(ny), _period(nx)
    nh = py // 2 + 1
    my = np.r_[0:ny, 1 - ny:0]
    mx = np.r_[0:nx, 1 - nx:0]
    spectrum = np.zeros((nh, px), dtype=complex)
    for c0, c1 in row_strips((mx.size, py)):
        cols = mx[c0:c1]
        block = np.zeros((py, cols.size), dtype=complex)
        block[my] = _offset_weights(-h * (cols + 1j * my[:, None]), h)
        spectrum[:, cols] = fft.fft(block, axis=0, overwrite_x=True)[:nh]
    spectrum = fft.fft(spectrum, axis=1, overwrite_x=True)
    # one array serves every solve on this grid
    spectrum.flags.writeable = False
    return spectrum


def _pompeiu_direct(fs: np.ndarray, w: np.ndarray, h: float,
                    zt: np.ndarray) -> np.ndarray:
    # fs: the source values at the source nodes w
    out = np.empty(zt.shape, dtype=complex)
    for k, z in enumerate(zt):
        out[k] = fs @ _offset_weights(w - z, h)
    return (-1.0 / math.pi) * out


def _central(v: np.ndarray, h: float, bar: bool, keep: np.ndarray,
             r0: int, r1: int, out: np.ndarray) -> np.ndarray:
    # rows r0..r1 of the central-difference field of v into out:
    # 0.5 * (f_x + i f_y) for dbar, 0.5 * (f_x - i f_y) for d, 0 off
    # keep.  Each node takes the operations of one pass over the whole
    # grid, in their order, so any band of rows is bitwise the field's
    out[:, [0, -1]] = 0.0
    out[:, 1:-1] = (v[r0:r1, 2:] - v[r0:r1, :-2]) / (2 * h)
    a, b = max(r0, 1), min(r1, v.shape[0] - 1)
    if a < b:
        ify = (v[a + 1:b + 1] - v[a - 1:b - 1]) / (2 * h)
        ify *= 1j
        if bar:
            out[a - r0:b - r0] += ify
        else:
            out[a - r0:b - r0] -= ify
    out *= 0.5
    out[~keep[r0:r1]] = 0.0
    return out


def _wirtinger_fd(f: SampledField, bar: bool,
                  one_sided: bool) -> SampledField:
    # central differences on the Interior nodes, and with one_sided also
    # on the Boundary ring (see the module docstring), written into one
    # array strip by strip
    m = f.mask
    h = m.grid.h
    v = f.values
    keep = m.inside if one_sided else m.interior
    out = np.empty_like(v)
    _over_strips(lambda rows: _central(v, h, bar, keep, *rows,
                                       out[slice(*rows)]), row_strips(v.shape))
    if one_sided:
        # past the grid's edge counts as not Inside; every Inside node
        # on the grid's edge is a Boundary node, so it is rewritten here.
        # Neighbors are read at clipped indices, so no padded copy of
        # the grid is made; a clipped read is masked out by its flag.
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
            d.append(np.where(
                hp & hm, (vp - vm) / (2 * h), np.where(
                    hp, (vp - c) / h,
                    np.where(hm, (c - vm) / h, 0.0))))
        fx, fy = d
        out[iy, ix] = (fx + 1j * fy if bar else fx - 1j * fy) * 0.5
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


def dbar_fd_sup(f: SampledField, sel: np.ndarray,
                minus: Optional[np.ndarray] = None) -> float:
    """max |dbar_fd(f) - minus| over sel (minus: 0 when None), bitwise
    the sup_abs of that full-grid difference, read one row strip at a
    time: the field itself is never formed."""
    m = f.mask
    v = f.values

    def rows_of(rows):
        d = _central(v, m.grid.h, True, m.interior, rows.start, rows.stop,
                     np.empty_like(v[rows]))
        if minus is not None:
            d -= minus[rows]
        return d

    return strip_sup(rows_of, sel)


def verify_dbar_solution(f: SampledField, margin: int = 3) -> dict:
    """Solve dbar u = f by the transform, differentiate back, report.

    Returns {'u', 'max_dev', 'h', 'margin'}: max_dev is the maximum of
    |dbar_fd(u) - f| over nodes at Chebyshev distance at least `margin`
    cells from the complement of Inside, NaN when the margin leaves no
    node.
    """
    u = pompeiu(f)
    return {"u": u, "max_dev": dbar_fd_sup(u, interior_shrunk(f.mask, margin),
                                           minus=f.values),
            "h": f.mask.grid.h, "margin": margin}


def check_ladder(values, shortest: int) -> tuple:
    """values as a tuple of floats: at least `shortest` of them, positive
    and strictly decreasing (grid spacings, probe scales, fit radii).
    Anything else raises ValueError."""
    values = tuple(float(v) for v in values)
    if len(values) < shortest or not all(
            a > b for a, b in zip(values, values[1:] + (0.0,))):
        raise ValueError(f"need at least {shortest} positive, strictly "
                         f"decreasing value(s), got {list(values)}")
    return values


def log_slope(xs, values, floor: float = EXACT_FLOOR) -> dict:
    """{'slope', 'exact', 'values'}: the log-log least-squares p in values
    ~ C * xs**p, or slope None and exact when no value exceeds floor."""
    vals = [float(v) for v in values]
    if max(vals) <= floor:
        return {"slope": None, "exact": True, "values": vals}
    fit = np.polyfit(np.log(xs), np.log(np.maximum(vals, 1e-300)), 1)
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
    hs = list(check_ladder(sorted(hs, reverse=True), 1))
    margins = [max(3, int(round(physical_margin / h))) for h in hs]
    levels = [solve(h, margin) for h, margin in zip(hs, margins)]
    series = {name: [level[name] for level in levels] for name in levels[0]}
    slopes = ({name: log_slope(hs, vals) for name, vals in series.items()}
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
    def solve(h, margin):
        field = sample_field(f, build_mask(domain, h=h))
        return {"max_dev": verify_dbar_solution(field, margin)["max_dev"]}

    return refinement_ladder(solve, hs, physical_margin)
