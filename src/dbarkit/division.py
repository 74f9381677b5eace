"""Power-quotient division h = f^N/g and its numerical certificates.

Membership of a quotient in a smoothness class is never proved here; it
is probed.  Each probe measures a concrete grid quantity (value spread
on shrinking rings, discrete-gradient growth, directional tails) and
reports PASS when the quantity is small against the field's own scale,
FAIL when it is large, and INCONCLUSIVE between.  The thresholds are
fixed once: spread <= 0.05 * scale passes, spread >= 0.5 * scale fails.

The classes are the table CLASSES: per class, the Wirtinger chains
("d", "dbar", applied left to right) whose layers are probed after the
value f^N/g itself; the A-classes add the holomorphy probe.

A DivisionProblem is the one record of a quotient problem on a grid: g
is sampled on the Inside nodes and f on the live nodes (Inside, off the
zero set Z(g)), once each, straight into node vectors in row-major
order; Z(g) is found and |f| <= |g| is checked on those vectors, and f
and g are kept only on the live nodes.  divide and certify_class build
one and use it once; a caller that needs several powers of one (f, g)
builds it once and calls quotient(N) or certify(N, claimed) per power.
A certificate's probe geometry (zero-cluster centers, their rings, the
away nodes the layer scales are taken on, as flat node indices) is
built on the first ring certificate and shared by every later one.
One helper, _live_rings, builds every probe ring, the certificates'
and the C1 evidence's of the multi-generator family alike: the nodes
of a given live set within one spacing of each circle.  A
certificate's rings and its away set are cut to the record's live
nodes, so no probe evaluates f^N/g on Z(g).
f and g are sampled by cauchy.sample_nodes, and every scale runs over
the same node blocks (cauchy.node_blocks, coordinates by
RegionMask.points; see cauchy's Sampling paragraph), so no full-grid
sample, modulus or coordinate array is made; only quotient(N) and the
A-classes' holomorphy probe, which differences f^N/g on the grid,
scatter the quotient to the grid.

A probe or report whose node selection is empty reads NaN (sups over
node sets go through cauchy.sup_over, the one sup), and a NaN
measurement or scale grades INCONCLUSIVE: nothing measured is never a
pass.  The zero floor ZERO_REL is applied in _below_floor, on node
vectors of moduli (_zeros for full-grid ones), the domination slack in
_check_on_nodes (through check_domination for full-grid arrays).  The
rings at PROBE_RADII_CELLS and the nodes near the centers (the away
set, the holomorphy exclusion) come from the node-window rule of
domains, RegionMask.around and RegionMask.near, so no full-grid
coordinate or distance array is built.

The multi-generator family opens through dominated: it samples the
generators once, as a bezout.BezoutProblem, samples the datum once on
its mask and checks |datum| <= sum|f_j| (corona's power targets open the
same way).  multi_division_continuous and multi_division_c1 then take
their quotient from bezout.q_fields, weighted by h or h^power and zero
on the common zeros of the generators, which _off_zeros finds from the
one sum|f_j|^2 both share; quotient_extension_lemma, whose
hypothesis bounds |g| by the euclidean |f|, builds its record itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .bezout import BezoutProblem, q_fields
from .cauchy import (SampledField, check_ladder, d_fd, dbar_fd, dbar_fd_sup,
                     log_slope, node_blocks, on_nodes, sample_field,
                     sample_nodes, sup_abs, sup_over, zero_extended)
from .domains import (CompactDomain, PreconditionError, RegionMask, build_mask,
                      interior_shrunk, resolve_mask)
from .expr import (ComplexExpr, Const, as_callable, div, intpow,
                   is_conj_free, mul, wirtinger_d, wirtinger_dbar)

__all__ = [
    "ZERO_REL", "PROBE_RADII_CELLS", "CLASSES", "PASS", "FAIL", "INCONCLUSIVE",
    "DominationError", "ProbeResult", "DivisionCertificate",
    "DivisionProblem", "check_domination", "dominated", "divide", "spread",
    "certify_class", "derivative_bound_scan", "multi_division_continuous",
    "multi_division_c1", "quotient_extension_lemma",
]

# nodes where |g| falls below this relative floor count as zeros of g
ZERO_REL = 1e-12
# probe rings around each center sit at these multiples of the spacing
PROBE_RADII_CELLS = (8, 16, 32)
# approach families are compared on the mean of their last values
FAMILY_TAIL = 3
# multi_division_c1 rejects common-zero clusters larger than this
CLUSTER_CELLS = 9
# class -> Wirtinger chains on f^N/g, one derivative layer each; the
# operators are named, not bound, so a layer calls whatever this module's
# wirtinger_d / wirtinger_dbar are when it is built (a wrapped one too)
CLASSES = {
    "C0": (),
    "C1": (("d",), ("dbar",)),
    "A0": (),
    "A1": (("d",),),
    "Dbar1": (("dbar",), ("dbar", "d"), ("dbar", "dbar")),
}

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class DominationError(PreconditionError):
    """A required node-wise inequality between moduli failed."""

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


@dataclass(frozen=True)
class ProbeResult:
    name: str
    verdict: str
    measured: float
    scale: float
    details: dict = dc_field(default_factory=dict)


@dataclass
class DivisionCertificate:
    power: int
    claimed: str
    grid_h: float
    probes: list

    @property
    def verdict(self) -> str:
        if any(p.verdict == FAIL for p in self.probes):
            return FAIL
        if any(p.verdict == INCONCLUSIVE for p in self.probes):
            return INCONCLUSIVE
        return PASS

    def probe(self, name: str) -> ProbeResult:
        for p in self.probes:
            if p.name == name:
                return p
        raise KeyError(name)


def check_domination(lhs: np.ndarray, rhs: np.ndarray, mask: RegionMask,
                     condition: str, sel: Optional[np.ndarray] = None,
                     slack_ref: Optional[float] = None) -> None:
    """Demand lhs <= rhs node-wise on sel (default: the Inside nodes).

    The slack is a billionth of max(slack_ref, 1); slack_ref defaults
    to the sup of rhs on sel.  A failure raises DominationError naming
    condition and the node where lhs - rhs is largest.  An empty sel
    raises too: nothing measured never passes.
    """
    if sel is None:
        sel = mask.inside
    a, b = lhs[sel], rhs[sel]
    _check_on_nodes(a.size, lambda i, j: a[i:j], lambda i, j: b[i:j],
                    condition, lambda k: mask.coords(sel)[k], slack_ref)


def _check_on_nodes(n: int, lhs, rhs, condition: str, node,
                    slack_ref: Optional[float] = None) -> None:
    # check_domination on n nodes, node block by node block: lhs(i, j)
    # and rhs(i, j) are the two sides on nodes i..j, and node(k) is the
    # coordinate of the k-th node.  Only a failure forms the whole
    # sides, for the global worst node
    if n == 0:
        raise DominationError(f"{condition}: no node to check it on")
    if slack_ref is None:
        slack_ref = sup_over(rhs(i, j) for i, j in node_blocks(n))
    if any((lhs(i, j) > rhs(i, j) + 1e-9 * max(slack_ref, 1.0)).any()
           for i, j in node_blocks(n)):
        a, b = lhs(0, n), rhs(0, n)
        k = int(np.argmax(a - b))
        worst = node(k)
        raise DominationError(
            f"{condition} fails: worst node {worst} has {a[k]:.6g} > "
            f"{b[k]:.6g}", worst=worst)


def dominated(datum, f_list, domain: Optional[CompactDomain], h: float,
              mask: Optional[RegionMask], name: str) -> tuple:
    """The one opening of a datum over a generator list: returns (gens,
    values), the bezout.BezoutProblem of f_list and the datum's samples
    on its mask, each built once, after demanding |datum| <= sum_j |f_j|
    on the Inside nodes (DominationError: "|name| <= sum|f_j|")."""
    gens = BezoutProblem.build(domain, f_list, h=h, mask=mask)
    values = sample_field(datum, gens.mask).values
    check_domination(np.abs(values), gens.s1, gens.mask,
                     f"|{name}| <= sum|f_j|")
    return gens, values


def _zeros(mask: RegionMask, magnitude: np.ndarray) -> np.ndarray:
    """Inside nodes where magnitude is at most ZERO_REL of its Inside max."""
    return on_nodes(_below_floor(magnitude[mask.inside]), mask.inside)


def _below_floor(magnitude: np.ndarray) -> np.ndarray:
    # the zero rule on a node vector of moduli
    return magnitude <= ZERO_REL * sup_abs(magnitude)


def _off_zeros(gens: BezoutProblem) -> tuple:
    """(s2, zero, live): sum|f_j|^2, its zero set and the Inside nodes
    off it, for the multi-generator divisions."""
    s2 = gens.s2
    zero = _zeros(gens.mask, s2)
    return s2, zero, gens.mask.inside & ~zero


@dataclass
class DivisionProblem:
    """The quotient problem f^N/g on one mask, sampled once for every N.

    build samples g on the Inside nodes and f on the live nodes (Inside,
    off the zero set Z(g)) straight into node vectors by
    cauchy.sample_nodes (cauchy's Sampling paragraph: row-major order,
    node blocks, one non-finite error); f is never evaluated on
    Z(g), where data like inner functions may be singular.  Z(g) and
    |f| <= |g| off it are found on those vectors, and only the live
    nodes' samples are kept.  The value scale of a certificate is taken
    on the live vectors too; quotient(N) and the A-classes' holomorphy
    probe are the two paths that scatter f^N/g to the grid.
    g_locally_constant makes the certificates' symbolic layers treat g
    as locally constant (see certify_class).
    """

    f: object
    g: object
    mask: RegionMask
    zero: np.ndarray = dc_field(repr=False)
    live: np.ndarray = dc_field(repr=False)
    f_live: np.ndarray = dc_field(repr=False)
    g_live: np.ndarray = dc_field(repr=False)
    g_locally_constant: bool = False

    @classmethod
    def build(cls, f, g, domain: Optional[CompactDomain] = None,
              h: float = 1 / 128, mask: Optional[RegionMask] = None,
              g_locally_constant: bool = False) -> "DivisionProblem":
        mask = resolve_mask(domain, h, mask)
        gv = sample_nodes(g, mask, np.flatnonzero(mask.inside))
        at_zero = _below_floor(np.abs(gv))
        zero = on_nodes(at_zero, mask.inside)
        live = mask.inside & ~zero
        gv = gv[~at_zero]
        fv = sample_nodes(f, mask, np.flatnonzero(live))
        _check_on_nodes(
            fv.size, lambda i, j: np.abs(fv[i:j]),
            lambda i, j: np.abs(gv[i:j]), "|f| <= |g| off Z(g)",
            lambda k: mask.points(np.flatnonzero(live)[k:k + 1])[0])
        return cls(f, g, mask, zero, live, fv, gv, g_locally_constant)

    def quotient(self, N: int) -> SampledField:
        """f^N/g, set to 0 on Z(g) and off the Inside nodes."""
        if N < 1:
            raise ValueError("power must be a positive integer")
        return SampledField(self.mask,
                            on_nodes(self.f_live ** N / self.g_live, self.live))

    def certify(self, N: int, claimed: str,
                families: Optional[dict] = None) -> DivisionCertificate:
        """The certificate of certify_class for this problem at power N."""
        if claimed not in CLASSES:
            raise ValueError(f"unknown class {claimed!r}")
        chains = CLASSES[claimed]
        f, g = self.f, self.g
        if chains and not (isinstance(f, ComplexExpr) and (
                self.g_locally_constant or isinstance(g, ComplexExpr))):
            raise ValueError(f"{claimed} derivative-layer probes need "
                             "expression inputs")
        scale = self._value_scale(N)
        fcall, gcall = as_callable(f), as_callable(g)

        def symbolic_layer(chain):
            # with g piecewise constant every layer is a derivative of f^N
            # divided pointwise by g
            expr = (intpow(f, N) if self.g_locally_constant
                    else div(intpow(f, N), g))
            for op in chain:
                expr = wirtinger_d(expr) if op == "d" else wirtinger_dbar(expr)
            fn = as_callable(expr)
            return ((lambda pts: fn(pts) / gcall(pts))
                    if self.g_locally_constant else fn)

        layers = [("value", lambda pts: fcall(pts) ** N / gcall(pts))]
        layers += [("_of_".join(reversed(chain)), symbolic_layer(chain))
                   for chain in chains]
        grid_h = self.mask.grid.h
        if families:
            probes = [_family_probe(name, fn, families) for name, fn in layers]
            return DivisionCertificate(N, claimed, grid_h, probes)

        centers, radii, rings, away = self._probe_geometry
        probes = [_ring_probe(name, fn, rings, radii,
                              scale if name == "value"
                              else _blocked_sup(fn, self.mask, away))
                  for name, fn in layers]
        if claimed.startswith("A"):
            probes.append(_holomorphy_probe(self.quotient(N), centers, scale))
        return DivisionCertificate(N, claimed, grid_h, probes)

    def _value_scale(self, N: int) -> float:
        # sup |f^N/g| over the live nodes, node block by node block: the
        # Inside sup of quotient(N), which is 0 on Z(g).  A non-finite
        # quotient raises from quotient(N), as that field would
        if N < 1:
            raise ValueError("power must be a positive integer")
        fv, gv = self.f_live, self.g_live
        scale = sup_over(fv[a:b] ** N / gv[a:b]
                         for a, b in node_blocks(fv.size))
        if not math.isfinite(scale):
            self.quotient(N)
        return scale

    @cached_property
    def _probe_geometry(self) -> tuple:
        # the zero-cluster centers plus each tagged point not within 4
        # spacings of one, the probe radii, each center's ring node
        # coordinates per radius (None for an empty ring), and the flat
        # indices of the away nodes: 3 cells inside, more than 4
        # spacings from every center.  The rings (_live_rings) and the
        # away set are cut to the live nodes, so no probe evaluates
        # f^N/g on Z(g)
        mask = self.mask
        h = mask.grid.h
        centers = _centroids(mask, self.zero)
        for p in mask.tagged_points:
            if all(abs(p - c) > 4 * h for c in centers):
                centers.append(p)
        radii, rings = _live_rings(mask, centers, self.live)
        rings = [(c, [mask.grid.node(xx, yy) if yy.size else None
                      for yy, xx in ring]) for c, ring in zip(centers, rings)]
        away = np.flatnonzero(interior_shrunk(mask, 3) & self.live
                              & ~mask.near(centers, 4 * h))
        return centers, radii, rings, away


def divide(f, g, N: int, domain: Optional[CompactDomain] = None,
           h: float = 1 / 128, mask: Optional[RegionMask] = None) -> SampledField:
    """Quotient field f^N/g, set to 0 on the grid zeros of g.

    Demands |f| <= |g| away from those zeros; the quotient then obeys
    |f^N/g| <= |f|^(N-1), which is what makes the zero-extension the
    continuous choice.  f is never evaluated on the zeros of g (data
    like inner functions may be singular exactly there); its values
    there are recorded as 0, which domination forces in the limit.
    """
    return DivisionProblem.build(f, g, domain, h, mask).quotient(N)


def spread(values: np.ndarray) -> float:
    """Diameter of a finite value set (max pairwise distance)."""
    v = np.asarray(values).ravel()
    if v.size == 0:
        return 0.0
    return float(np.abs(v[:, None] - v[None, :]).max())


def _rings(mask: RegionMask, center: complex, radii) -> list:
    """Per radius, (yy, xx) of the Inside nodes within one spacing of the
    circle |z - center| = radius, in row-major order, found in the node
    window of the largest ring (RegionMask.around)."""
    h = mask.grid.h
    yy, xx, dist = mask.around(center, max(radii))
    return [(yy[on], xx[on]) for on in (np.abs(dist - r) <= h for r in radii)]


def _centroids(mask: RegionMask, sel: np.ndarray) -> list:
    # each cluster's node coordinates come from its bounding window, in
    # the row-major order a full-grid selection would list them
    labels, _ = ndimage.label(sel)
    out = []
    for lab, (ys, xs) in enumerate(ndimage.find_objects(labels), 1):
        iy, ix = np.nonzero(labels[ys, xs] == lab)
        out.append(complex(
            mask.grid.node(ix + xs.start, iy + ys.start).mean()))
    return out


def _probe_radii(mask: RegionMask) -> list:
    return [k * mask.grid.h for k in PROBE_RADII_CELLS]


def _live_rings(mask: RegionMask, centers, live: np.ndarray) -> tuple:
    """The one probe-ring rule: the probe radii and, per center and
    radius, (yy, xx) of the nodes of live (a set of Inside nodes) within
    one spacing of the circle |z - center| = radius, in row-major order
    (_rings, cut to live)."""
    radii = _probe_radii(mask)
    return radii, [[(yy[on], xx[on]) for yy, xx in _rings(mask, c, radii)
                    for on in (live[yy, xx],)] for c in centers]


def _ring_gradients(mask: RegionMask, zero: np.ndarray, fields,
                    weight=1.0) -> tuple:
    """Centroids of the zero clusters and, per field and probe radius,
    the max of max(|d_fd|, |dbar_fd|) / weight over every center's ring
    nodes on the Interior off the zero set (None for an empty ring)."""
    centers = _centroids(mask, zero)
    radii, rings = _live_rings(mask, centers, mask.interior & ~zero)
    out = []
    for fld in fields:
        grad = np.maximum(np.abs(d_fd(fld).values), np.abs(dbar_fd(fld).values))
        grad /= weight
        per_radius = [[grad[ring[k]] for ring in rings]
                      for k in range(len(radii))]
        out.append([sup_over(v) if any(a.size for a in v) else None
                    for v in per_radius])
    return centers, out


def _grade(measured: float, scale: float) -> str:
    """The one verdict ladder: PASS at or below 0.05 * scale, FAIL at or
    above 0.5 * scale, INCONCLUSIVE between; NaN on either side (nothing
    measured) is INCONCLUSIVE, and a zero scale admits only an exact
    zero."""
    if math.isnan(measured) or math.isnan(scale):
        return INCONCLUSIVE
    if scale == 0:
        return PASS if measured == 0 else FAIL
    if measured <= 0.05 * scale:
        return PASS
    if measured >= 0.5 * scale:
        return FAIL
    return INCONCLUSIVE


def _ring_probe(name, value_fn, rings, radii, scale):
    # spread of the probed quantity on rings closing in on each center;
    # continuity shows up as the smallest ring's spread collapsing.  The
    # measurement is the worst innermost spread, NaN when no center has
    # a ring node; np.max, unlike Python's max, keeps a NaN spread
    # wherever its center stands
    per_center, innermost = {}, []
    for c, ring_pts in rings:
        spreads = [None if pts is None else spread(value_fn(pts))
                   for pts in ring_pts]
        per_center[c] = spreads
        seen = [s for s in spreads if s is not None]
        if seen:
            innermost.append(seen[0])
    worst = float(np.max(innermost)) if innermost else float("nan")
    return ProbeResult(name, _grade(worst, scale), worst, scale,
                       {"radii": radii, "per_center": per_center})


def _family_probe(name, value_fn, families):
    # family = sequence of points marching toward the limit; families
    # must agree in their tails for the limit to exist, and fewer than
    # two families compare nothing (NaN).  An empty family has no tail,
    # and its NaN would make the max over the gaps depend on the order
    tails, allvals = {}, []
    for fam_name, pts in families.items():
        if len(pts) == 0:
            raise ValueError(f"approach family {fam_name!r} has no point")
        v = value_fn(np.asarray(pts, dtype=complex))
        allvals.extend(v.tolist())
        tails[fam_name] = complex(np.mean(v[-FAMILY_TAIL:]))
    vals = list(tails.values())
    # np.max keeps a NaN tail's gap wherever its family stands
    measured = (float(np.max([abs(a - b) for a in vals for b in vals]))
                if len(vals) >= 2 else float("nan"))
    scale = sup_abs(np.asarray(allvals))
    return ProbeResult(name, _grade(measured, scale), measured, scale,
                       {"tails": tails, "tail": FAMILY_TAIL})


def certify_class(f, g, N: int, domain: CompactDomain, claimed: str,
                  h: float = 1 / 128, families: Optional[dict] = None,
                  g_locally_constant: bool = False) -> DivisionCertificate:
    """Probe whether f^N/g (zero-extended) behaves like the claimed class.

    claimed is a key of CLASSES: C0, A0 (value continuity), C1, A1
    (first derivative continuity; A-classes track the holomorphic
    derivative only), Dbar1 (value, dbar, and both second-layer
    derivatives of the dbar).  Probes run on rings shrinking toward the
    zeros of g and any tagged boundary points, where the A-classes add
    the holomorphy probe; or on caller-supplied approach families (dict
    name -> point sequence), which take precedence and probe the layers
    only, without the holomorphy probe.  One helper builds every probe
    ring; the rings hold only live nodes (Inside, off Z(g)).  A value
    layer's scale is the quotient's Inside sup, a derivative layer's
    the sup of the layer on the away nodes (live nodes 3 cells inside,
    more than 4 spacings from every center), so no layer is evaluated
    on Z(g).

    g_locally_constant switches the symbolic derivative layers to treat
    g as locally constant (step functions on disjoint pieces), in which
    case only f needs to be an expression.  To certify several powers of
    one (f, g), build one DivisionProblem and call its certify per power.
    """
    return DivisionProblem.build(
        f, g, domain, h, g_locally_constant=g_locally_constant).certify(
            N, claimed, families)


def _blocked_sup(fn, mask: RegionMask, nodes: np.ndarray) -> float:
    """sup |fn| over the flat node indices nodes, evaluated node block by
    node block (cauchy.sup_over: NaN on no node or on a NaN)."""
    return sup_over(fn(mask.points(nodes[a:b]))
                    for a, b in node_blocks(nodes.size))


def _holomorphy_probe(hfield: SampledField, centers,
                      scale: float) -> ProbeResult:
    # discrete dbar away from the zero set and the outer boundary; the
    # quotient of holomorphic data must not show a conjugate component;
    # scale is the quotient's Inside sup
    mask = hfield.mask
    sel = interior_shrunk(mask, 8) & ~mask.near(centers, 0.25)
    measured = dbar_fd_sup(hfield, sel)
    return ProbeResult("holomorphy", _grade(measured, scale), measured, scale,
                       {"margin_cells": 8, "center_exclusion": 0.25})


def derivative_bound_scan(f: ComplexExpr, g: ComplexExpr, m: int, n: int,
                          domain: CompactDomain,
                          levels: Sequence[float] = (1 / 64, 1 / 128),
                          mixed: Optional[tuple] = None) -> dict:
    """Estimate C in |(f^(m+2)/g)^(n)| <= C |g|^(m+1-n) on node sets.

    f and g must be holomorphic expressions (the n-th derivative is
    taken symbolically).  mixed = (j1, j2) asks for the x/y mixed
    partial of order j1 + j2 instead; for a holomorphic quotient that
    differs from the z-derivative by the unimodular factor i^j2, so the
    estimated constant is identical and only the order changes.
    Both f and g are rescaled by the measured sup of |g| first, which
    keeps |f| <= |g| intact and normalizes |g| <= 1.  g and the
    derivative are sampled by cauchy.sample_nodes on the nodes 3 cells
    inside, the derivative only where |g| > ZERO_REL, so a non-finite
    sample raises.  levels needs at least two positive, pairwise
    distinct spacings (in any order), or the stability ratio compares
    nothing.
    """
    hs = list(check_ladder(sorted(levels, reverse=True), 2))
    if mixed is not None:
        j1, j2 = mixed
        if j1 < 0 or j2 < 0:
            raise ValueError("mixed orders must be nonnegative")
        n = j1 + j2
    if not (0 <= n <= m):
        raise ValueError("need 0 <= n <= m")
    if not (is_conj_free(f) and is_conj_free(g)):
        raise ValueError("symbolic derivatives need holomorphic "
                         "(conjugation-free) expressions")

    masks = [build_mask(domain, h=h) for h in hs]
    gmax = sample_field(g, masks[0]).max_abs()
    scale = Const(1.0 / gmax)
    fs, gs = mul(scale, f), mul(scale, g)

    dq = div(intpow(fs, m + 2), gs)
    for _ in range(n):
        dq = wirtinger_d(dq)

    consts = []
    for mask in masks:
        nodes = np.flatnonzero(interior_shrunk(mask, 3))
        gvals = np.abs(sample_nodes(gs, mask, nodes))
        live = gvals > ZERO_REL
        ratio = (np.abs(sample_nodes(dq, mask, nodes[live]))
                 / gvals[live] ** (m + 1 - n))
        consts.append(sup_abs(ratio))
    ratio = consts[-1] / consts[0] if consts[0] != 0 else float("inf")
    return {"m": m, "n": n, "mixed": mixed, "h": hs, "C": consts,
            "ratio": ratio, "stable": bool(0.5 <= ratio <= 2.0),
            "g_sup_used": gmax}


def multi_division_continuous(h, f_list, domain: Optional[CompactDomain] = None,
                              grid_h: float = 1 / 128,
                              mask: Optional[RegionMask] = None):
    """Solve sum g_j f_j = h^2 with g_j = h^2 conj(f_j)/sum|f_k|^2.

    Returns (fields, report).  The report carries the Cauchy-Schwarz
    witness max|q_j| (at most n) and the residual off the zero set,
    both NaN when no node lies off the zero set.
    """
    gens, hv = dominated(h, f_list, domain, grid_h, mask, "h")
    s2, zero, live = _off_zeros(gens)
    gs = q_fields(gens, hv, live, s2)
    q_sup = max(sup_abs(g.values, live) for g in gs)
    for g in gs:  # g_j = h q_j, formed in q_j's array
        np.multiply(hv, g.values, out=g.values)
    total = sum(g.values * f.values for g, f in zip(gs, gens.f_fields))
    report = {"q_sup": q_sup, "n": len(f_list),
              "residual_off_zero": sup_abs(total - hv ** 2, live),
              "zero_nodes": int(zero.sum())}
    return gs, report


def multi_division_c1(h, f_list, domain: Optional[CompactDomain] = None,
                      power: int = 3, grid_h: float = 1 / 128,
                      mask: Optional[RegionMask] = None):
    """Solve sum g_j f_j = h^power with g_j = conj(f_j) h^power / sum|f_k|^2.

    power 3 is the contract; power 2 exists so the sharpness case can
    demonstrate the gradient probe failing.  The common zero set must be
    isolated: small-|f| node clusters larger than CLUSTER_CELLS raise.
    Returns (fields, report); the report's gradient evidence is the
    ring-wise max of |discrete D g_j| / |f|, which stays bounded toward
    the zero set exactly when the construction is C1 there.  The
    residual off the zero set is NaN when no node lies off it, and the
    growth is NaN (not bounded) when no two rings measured a gradient.
    """
    gens, hv = dominated(h, f_list, domain, grid_h, mask, "h")
    mask = gens.mask
    s2, zero, live = _off_zeros(gens)
    biggest = np.bincount(ndimage.label(zero)[0].ravel())[1:].max(initial=0)
    if biggest > CLUSTER_CELLS:
        raise ValueError(f"common zero cluster of {int(biggest)} nodes; the "
                         f"construction needs isolated zeros")
    gs = q_fields(gens, hv ** power, live, s2)
    total = sum(g.values * f.values for g, f in zip(gs, gens.f_fields))
    residual = sup_abs(total - hv ** power, live)

    # the rings lie off the zero set; the 1 elsewhere only avoids 0/0
    rootf = np.where(live, np.sqrt(s2), 1.0)
    centers, evidence = _ring_gradients(mask, zero, gs, rootf)
    seen = [[v for v in row if v is not None] for row in evidence]
    growth = max((row[0] / row[-1] for row in seen if len(row) >= 2 and row[-1] > 0),
                 default=float("nan"))
    report = {"residual_off_zero": residual, "power": power,
              "radii": _probe_radii(mask), "grad_over_f": evidence,
              "growth_toward_zero": growth,
              "gradient_bounded": bool(growth <= 1.5),
              "centers": centers}
    return gs, report


def quotient_extension_lemma(g, f_list, power: int,
                             domain: Optional[CompactDomain] = None,
                             grid_h: float = 1 / 128,
                             mask: Optional[RegionMask] = None):
    """Field g^power / sum|f_k|^2 with zero-extension and C1 evidence.

    power 7 runs under the weak hypothesis |g|^2 <= |f|; any other
    power demands |g| <= |f| (euclidean |f|).  Returns (field, report);
    the report's slope is the log-log rate at which the max discrete
    first derivative decays on rings approaching the zero set, and the
    lemma's conclusion corresponds to slope > 0 (derivative -> 0).
    """
    gens = BezoutProblem.build(domain, f_list, h=grid_h, mask=mask)
    mask = gens.mask
    gv = sample_field(g, mask).values
    s2 = gens.s2
    ga = np.abs(gv)
    lhs, cond = (ga ** 2, "|g|^2 <= |f|") if power == 7 else (ga, "|g| <= |f|")
    check_domination(lhs, np.sqrt(s2), mask, cond)

    if sup_abs(ga, mask.inside) == 0.0:
        field = SampledField(mask, np.zeros_like(gv))
        return field, {"power": power, "slope": None, "ring_max": [],
                       "trivial": True}

    zero = _zeros(mask, s2)
    field = SampledField(mask, zero_extended(gv ** power, s2,
                                             mask.inside & ~zero))

    centers, (ring_max,) = _ring_gradients(mask, zero, [field])
    radii = _probe_radii(mask)
    seen = [(r, v) for r, v in zip(radii, ring_max) if v is not None and v > 0]
    slope = None
    if len(seen) >= 2:
        slope = log_slope(*zip(*seen), floor=0.0)["slope"]
    report = {"power": power, "radii": radii, "ring_max": ring_max,
              "slope": slope, "centers": centers,
              "derivative_vanishes": bool(slope is not None and slope >= 0.8)}
    return field, report
