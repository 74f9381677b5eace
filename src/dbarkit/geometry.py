"""Interior path geometry and boundary smoothness probes.

Three kinds of evidence about how a compact set hangs together near its
boundary: shortest interior grid paths and their length/distance ratios
(chord-arc behaviour), slope fits for Taylor remainders of holomorphic
functions approaching a boundary point, and the split-compactum
difference-quotient table where the derivative extension and the
quotient limit disagree.

Every interior-path probe reads one sweep: the 8-connected Interior
graph plus a virtual node at the exact target z0, swept once from z0 by
dijkstra.  l_probe and spiral_growth_probe read the distances of their
sample nodes from it; interior_shortest_path reads the distance of its
start node and walks the predecessors from there to z0.

Path-length verdicts are semi-decidable by construction: the grid sees
finitely many points, so "bounded" and "growing" are statements about
the sampled ladder, never proofs.  The 8-connected grid metric
overestimates Euclidean length by at most 8.24 percent; thresholds in
callers are expected to absorb that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .cauchy import check_ladder, log_slope
from .domains import (CompactDomain, GridSpec, InnerSpiral, PreconditionError,
                      RegionMask, build_mask, resolve_mask)
from .expr import ComplexExpr, evaluate, is_conj_free, wirtinger_d

__all__ = [
    "BOUNDED", "GROWING", "INCONCLUSIVE", "DisconnectedError",
    "PathResult", "LProbeReport",
    "interior_shortest_path", "l_probe", "spiral_growth_probe",
    "taylor_remainder_fit", "disk_chain_quotient_demo",
]

BOUNDED = "bounded"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"

_SQRT2 = math.sqrt(2.0)
_DISCONNECTED = "disconnected at this resolution"
HOP_CELLS = 3


class DisconnectedError(PreconditionError):
    """No interior path exists between the requested endpoints."""


@dataclass(frozen=True)
class PathResult:
    """Shortest interior path between two realized endpoints.

    z is the grid node standing in for the query point; z0 is the exact
    target coordinate.  length includes the final hop from the last
    node to z0, so length >= |z - z0| always and ratio >= 1.
    """

    z: complex
    z0: complex
    path: np.ndarray
    length: float
    ratio: float


@dataclass(frozen=True)
class LProbeReport:
    """Per-scale chord-arc ratios around a boundary point.

    max_ratios holds nan for scales that produced no usable samples;
    annotations says why.  realization is the Inside node that stood in
    for z0 on the (finest) grid.
    """

    z0: complex
    scales: tuple
    max_ratios: tuple
    verdict: str
    samples: tuple
    annotations: tuple
    realization: complex


def _interior_edges(mask: RegionMask, sel: np.ndarray, ids: np.ndarray):
    """COO edge arrays of the 8-connected graph on the selected nodes.

    Edges carry Euclidean lengths (h straight, h*sqrt(2) diagonal).
    Only one direction per pair is emitted; dijkstra(directed=False)
    symmetrizes.  Node ids follow raster order, which fixes tie-breaks.
    """
    ny, nx = sel.shape
    h = mask.grid.h
    rows, cols, wts = [], [], []
    for dy, dx, w in ((0, 1, h), (1, 0, h), (1, 1, h * _SQRT2),
                      (1, -1, h * _SQRT2)):
        src_y = slice(max(0, -dy), ny - max(0, dy))
        src_x = slice(max(0, -dx), nx - max(0, dx))
        dst_y = slice(max(0, dy), ny - max(0, -dy))
        dst_x = slice(max(0, dx), nx - max(0, -dx))
        both = sel[src_y, src_x] & sel[dst_y, dst_x]
        rows.append(ids[src_y, src_x][both])
        cols.append(ids[dst_y, dst_x][both])
        wts.append(np.full(int(both.sum()), w))
    return rows, cols, wts


def _sweep(mask: RegionMask, z0: complex):
    """Shortest Interior-path distances to z0, one sweep for every probe.

    The 8-connected Interior graph gains a virtual node at the exact z0
    coordinate.  z0 is realized at its closest Inside node; the virtual
    node connects by straight segments to every Interior node within
    HOP_CELLS (Chebyshev) of the realization.  This is the single
    permitted step off the interior: it spans the one-to-two-cell
    boundary layer that 8-neighbor moves cannot cross, so a z0 more
    than HOP_CELLS cells from its realization is a PreconditionError,
    unless it is one of the mask's tagged points (an accumulation point
    or isolated point of the ideal set, reached by one longer hop).
    One dijkstra from the virtual node, the last graph index, gives
    each node's distance to z0 and its next node on a shortest path
    there.

    Returns (ids, dist, pred, realization coordinate).
    """
    sel = mask.interior
    n = int(sel.sum())
    ids = np.full(sel.shape, -1, dtype=np.int64)
    ids[sel] = np.arange(n)
    rows, cols, wts = _interior_edges(mask, sel, ids)

    grid = mask.grid
    # nearest_node rejects hits beyond its radius; this one passes every
    # node, so the whole-grid nearest is found however far off z0 lies
    reach = grid.nx + grid.ny + int(abs(z0 - grid.origin) / grid.h)
    b = mask.nearest_node(z0, mask.inside, reach)
    zb = grid.node(b[1], b[0])
    gap = max(abs(zb.real - z0.real), abs(zb.imag - z0.imag)) / grid.h
    if gap > HOP_CELLS and z0 not in mask.tagged_points:
        raise PreconditionError(
            f"z0 = {z0:.6g} lies {gap:.3g} cells from its closest Inside "
            f"node {zb:.6g}, beyond the {HOP_CELLS}-cell hop to z0; z0 "
            "must lie on the domain or within its boundary layer")
    yy, xx = mask.window(sel, *b, HOP_CELLS)
    if yy.size == 0:
        raise DisconnectedError(
            f"no Interior node within {HOP_CELLS} cells of the z0 "
            f"realization {zb:.6g}; " + _DISCONNECTED)
    rows.append(np.full(yy.size, n, dtype=np.int64))
    cols.append(ids[yy, xx])
    wts.append(np.abs(grid.node(xx, yy) - z0))
    g = csr_matrix((np.concatenate(wts),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n + 1, n + 1))
    dist, pred = dijkstra(g, directed=False, indices=n,
                          return_predecessors=True)
    return ids, dist, pred, zb


def interior_shortest_path(mask: RegionMask, z: complex,
                           z0: complex) -> PathResult:
    """Shortest path through Interior nodes from z to z0.

    z must land on an Interior node (within a 4-cell search) and is
    realized there.  z0 keeps its exact coordinate, interior or
    boundary: the path reaches it from the interior by one final
    straight hop whose length is part of the reported total.
    """
    start = mask.nearest_node(z, mask.interior, radius_cells=4)
    if start is None:
        raise ValueError(f"z = {z} does not map to an Interior node")
    z0 = complex(z0)
    ids, dist, pred, _ = _sweep(mask, z0)
    chain = [int(ids[start])]
    length = float(dist[chain[0]])
    if not np.isfinite(length):
        raise DisconnectedError(_DISCONNECTED)
    while chain[-1] != dist.size - 1:
        chain.append(int(pred[chain[-1]]))
    nodes = np.append(mask.coords(mask.interior)[chain[:-1]], z0)
    z_node = complex(nodes[0])
    sep = abs(z_node - z0)
    ratio = length / sep if sep > 0 else 1.0
    return PathResult(z=z_node, z0=z0, path=nodes, length=length,
                      ratio=ratio)


def _scale_ratios(mask: RegionMask, z0: complex, scales, samples_per_scale):
    """Max path-length/distance ratio per scale, read from one sweep
    from z0.  Returns (ratios, counts, notes, realization coordinate);
    notes holds only the scales that have something to report."""
    ids, dist, _, zb = _sweep(mask, z0)
    theta = 2 * np.pi * np.arange(samples_per_scale) / samples_per_scale
    ratios, counts, notes = [], [], []
    for r in scales:
        nodes = set()
        for c in z0 + r * np.exp(1j * theta):
            near = mask.nearest_node(complex(c), mask.interior,
                                     radius_cells=1)
            if near is not None:
                nodes.add(near)
        if not nodes:
            ratios.append(np.nan)
            counts.append(0)
            notes.append(f"scale {r:g}: no interior samples, skipped")
            continue
        best = np.nan
        reached = 0
        for node in sorted(nodes):
            d = dist[int(ids[node])]
            if not np.isfinite(d):
                continue
            reached += 1
            zn = mask.grid.node(node[1], node[0])
            sep = abs(zn - z0)
            if sep == 0:
                continue
            rat = float(d) / sep
            best = rat if np.isnan(best) else max(best, rat)
        if reached == 0:
            raise DisconnectedError(
                f"scale {r:g}: no sample reaches z0 = {z0}; " + _DISCONNECTED)
        if reached < len(nodes):
            notes.append(f"scale {r:g}: {len(nodes) - reached} of "
                         f"{len(nodes)} samples unreachable")
        ratios.append(best)
        counts.append(reached)
    return ratios, counts, notes, zb


def _report(z0, scales, ratios, counts, notes, realization) -> LProbeReport:
    """The probe report with its verdict, read from the usable (finite)
    ratios: growing when each jumped by 1.5x over the one before,
    bounded when all agree within 20 percent, and inconclusive
    otherwise or with fewer than two of them."""
    vals = [r for r in ratios if np.isfinite(r)]
    if len(vals) < 2:
        verdict = INCONCLUSIVE
    elif all(b >= 1.5 * a for a, b in zip(vals, vals[1:])):
        verdict = GROWING
    elif (max(vals) - min(vals)) <= 0.2 * min(vals):
        verdict = BOUNDED
    else:
        verdict = INCONCLUSIVE
    return LProbeReport(z0=z0, scales=scales, max_ratios=tuple(ratios),
                        verdict=verdict, samples=tuple(counts),
                        annotations=tuple(notes), realization=realization)


def l_probe(domain: CompactDomain, z0: complex,
            scales=(0.2, 0.1, 0.05), samples_per_scale: int = 64,
            h: float = 1 / 128,
            mask: Optional[RegionMask] = None) -> LProbeReport:
    """Chord-arc probe at a boundary point of one fixed rasterization.

    Per scale r, points of the circle |z - z0| = r that snap to
    Interior nodes get their shortest-path length to z0 measured; the
    scale's figure is the worst length/|z - z0| ratio.  Growing means
    every consecutive ratio jumped by 1.5x; bounded means all ratios
    agree within 20 percent; anything else is inconclusive.
    """
    scales = check_ladder(scales, 2)
    mask = resolve_mask(domain, h, mask)
    z0 = complex(z0)
    return _report(z0, scales, *_scale_ratios(mask, z0, scales,
                                              samples_per_scale))


def spiral_growth_probe(scales=(0.3, 0.15, 0.075), depth: float = 1.45,
                        nodes: int = 256,
                        samples_per_scale: int = 256) -> LProbeReport:
    """Path-length growth toward the center of the inner spiral.

    One fixed grid cannot hold the spiral's deep windings, so each
    scale r gets its own window [-1.1r, 1.1r]^2 at nodes^2 resolution
    and its own truncation theta_max = depth/r.  That keeps the
    resolvable winding depth proportional to the scale: the interior
    path from radius r to the truncation tip has length about
    ln(depth) + r/depth while |z - z0| = r, so the ratio ladder doubles
    per halving for the true spiral and the growing verdict is reached
    with grids of constant size.
    """
    scales = check_ladder(scales, 2)
    if nodes < 64:
        raise ValueError("nodes must be >= 64")
    if depth / scales[0] <= math.pi + 1:
        raise PreconditionError("depth too shallow for the coarsest scale: "
                                "theta_max = depth/r must exceed pi + 1")
    ratios, counts, notes = [], [], []
    for r in scales:
        w = 1.1 * r
        grid = GridSpec(complex(-w, -w), 2 * w / (nodes - 1), nodes, nodes)
        mask = build_mask(InnerSpiral(theta_max=depth / r), grid=grid)
        rs, cs, ns, zb = _scale_ratios(mask, 0j, (r,), samples_per_scale)
        ratios += rs
        counts += cs
        notes += ns + [f"scale {r:g}: theta_max = {depth / r:.3f}, "
                       f"h = {grid.h:.2e}"]
    return _report(0j, scales, ratios, counts, notes, zb)


# --- boundary Taylor behaviour --------------------------------------------------


def _interior_points(domain: CompactDomain, pts: np.ndarray) -> np.ndarray:
    eps = 1e-9
    keep = domain.contains(pts)
    for d in (eps, -eps, 1j * eps, -1j * eps):
        keep &= domain.contains(pts + d)
    return pts[keep]


def taylor_remainder_fit(f: ComplexExpr, z0: complex, m: int,
                         domain: CompactDomain,
                         radii: Sequence[float] = (0.2, 0.1, 0.05, 0.025, 0.0125),
                         samples_per_radius: int = 48,
                         coeffs: Optional[Sequence[complex]] = None) -> dict:
    """Decay exponents of the Taylor remainder derivatives at z0.

    Subtracting the degree-m polynomial with coefficients f^(j)(z0)/j!
    leaves R_m; on shrinking circles around z0 intersected with the
    interior (radii: at least two, strictly decreasing, positive), the
    sup of |R_m^(j)| is fitted log-log against the radius
    (cauchy.log_slope).  PASS per j means slope >= (m - j) - 0.2.
    Remainders within 1e-13 of the coefficient scale (f itself
    polynomial of degree <= m) get slope inf and the exact_zero flag.

    coeffs overrides the derivative values at z0 for boundary points
    where only the limit exists and direct evaluation raises.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not is_conj_free(f):
        raise PreconditionError("f must be conjugation-free (holomorphic)")
    z0 = complex(z0)
    derivs = [f]
    for _ in range(m):
        derivs.append(wirtinger_d(derivs[-1]))
    if coeffs is None:
        coeffs = [complex(evaluate(d, np.array([z0]))[0]) for d in derivs]
    else:
        coeffs = [complex(c) for c in coeffs]
        if len(coeffs) != m + 1:
            raise ValueError("need exactly m + 1 coefficient overrides")

    radii = check_ladder(radii, 2)
    theta = 2 * np.pi * np.arange(samples_per_radius) / samples_per_radius
    sup = np.zeros((m + 1, len(radii)))
    used = []
    for i, r in enumerate(radii):
        pts = _interior_points(domain, z0 + r * np.exp(1j * theta))
        if pts.size == 0:
            raise PreconditionError(f"no interior samples at radius {r}")
        used.append(int(pts.size))
        for j in range(m + 1):
            # R_m^(j) = f^(j) - sum_{i>=j} c_i i!/(i-j)! (z-z0)^(i-j)
            tail = np.zeros_like(pts)
            for i2 in range(j, m + 1):
                fac = math.factorial(i2) / math.factorial(i2 - j)
                tail = tail + coeffs[i2] / math.factorial(i2) * fac \
                    * (pts - z0) ** (i2 - j)
            sup[j, i] = float(np.abs(evaluate(derivs[j], pts) - tail).max())

    scale = max(1.0, max(abs(c) for c in coeffs))
    fits = [log_slope(radii, row, floor=1e-13 * scale) for row in sup]
    slopes = [math.inf if fit["exact"] else fit["slope"] for fit in fits]
    passes = [s >= (m - j) - 0.2 for j, s in enumerate(slopes)]
    exact = [fit["exact"] for fit in fits]
    return {"z0": z0, "m": m, "radii": radii, "samples": tuple(used),
            "sup": sup, "slope": slopes, "passes": passes,
            "exact_zero": exact, "coeffs": coeffs}


def disk_chain_quotient_demo(count: int = 8) -> list:
    """Difference quotients across the split compactum of small disks.

    The function worth probing is 0 on the big disk and n^(-1/2) on the
    n-th small disk: holomorphic with zero derivative on every
    component, yet the quotient (f(1/n) - f(0))/(1/n) equals sqrt(n)
    and blows up.  Rows carry the algebraically simplified exact value
    sqrt(n) next to the floating evaluation of the raw quotient; the
    derivative column is identically zero (each piece is constant).
    """
    if count < 3:
        raise ValueError("count must be >= 3")
    rows = []
    for n in range(3, count + 3):
        f_n = 1.0 / math.sqrt(n)
        rows.append({"n": n, "quotient": math.sqrt(n),
                     "raw_quotient": (f_n - 0.0) / (1.0 / n - 0.0),
                     "derivative": 0.0})
    return rows
