"""Power-quotient division h = f^N/g and its numerical certificates.

Membership of a quotient in a smoothness class is never proved here; it
is probed.  Each probe measures a concrete grid quantity (value spread
on shrinking rings, discrete-gradient growth, directional tails) and
reports PASS when the quantity is small against the field's own scale,
FAIL when it is large, and INCONCLUSIVE between.  The thresholds are
fixed once: spread <= 0.05 * scale passes, spread >= 0.5 * scale fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .cauchy import SampledField, d_fd, dbar_fd, sample_field
from .domains import CompactDomain, RegionMask, build_mask, interior_shrunk
from .expr import (ComplexExpr, Const, as_callable, div, intpow,
                   is_conj_free, mul, wirtinger_d, wirtinger_dbar)

__all__ = [
    "ZERO_REL", "PASS", "FAIL", "INCONCLUSIVE",
    "DominationError", "ProbeResult", "DivisionCertificate",
    "divide", "ring_selection", "zero_centers", "spread",
    "certify_class", "derivative_bound_scan",
    "multi_division_continuous", "multi_division_c1",
    "quotient_extension_lemma",
]

# nodes where |g| falls below this relative floor count as zeros of g
ZERO_REL = 1e-12

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class DominationError(ValueError):
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


def divide(f, g, N: int, domain: Optional[CompactDomain] = None,
           h: float = 1 / 128, mask: Optional[RegionMask] = None) -> SampledField:
    """Quotient field f^N/g, set to 0 on the grid zeros of g.

    Demands |f| <= |g| away from those zeros; the quotient then obeys
    |f^N/g| <= |f|^(N-1), which is what makes the zero-extension the
    continuous choice.  f is never evaluated on the zeros of g (data
    like inner functions may be singular exactly there); its values
    there are recorded as 0, which domination forces in the limit.
    """
    if N < 1:
        raise ValueError("power must be a positive integer")
    if mask is None:
        if domain is None:
            raise ValueError("need a domain or a prebuilt mask")
        mask = build_mask(domain, h=h)
    gv = sample_field(g, mask).values
    gmax = float(np.abs(gv[mask.inside]).max())
    zero = mask.inside & (np.abs(gv) <= ZERO_REL * gmax)
    live = mask.inside & ~zero
    fv = sample_field(f, mask, zero_on=zero).values
    fa, ga = np.abs(fv[live]), np.abs(gv[live])
    slack = 1e-9 * max(gmax, 1.0)
    if (fa > ga + slack).any():
        k = int(np.argmax(fa - ga))
        worst = mask.coords(live)[k]
        raise DominationError(
            f"|f| <= |g| fails off Z(g): worst node {worst} has "
            f"|f| = {fa[k]:.6g} > |g| = {ga[k]:.6g}", worst=worst)
    vals = np.zeros_like(fv)
    vals[live] = fv[live] ** N / gv[live]
    return SampledField(mask, vals)


def spread(values: np.ndarray, cap: int = 512) -> float:
    """Diameter of a finite value set (max pairwise distance)."""
    v = np.asarray(values).ravel()
    if v.size == 0:
        return 0.0
    if v.size > cap:
        step = v.size // cap + 1
        v = v[::step]
    return float(np.abs(v[:, None] - v[None, :]).max())


def ring_selection(mask: RegionMask, center: complex, radius: float,
                   width: Optional[float] = None,
                   within: Optional[np.ndarray] = None) -> np.ndarray:
    """Node set at distance radius (+- width) from a center point."""
    if width is None:
        width = mask.grid.h
    zg = mask.grid.zgrid()
    sel = mask.inside if within is None else within
    d = np.abs(zg - center)
    return sel & (np.abs(d - radius) <= width)


def zero_centers(mask: RegionMask, magnitude: np.ndarray,
                 threshold: float) -> list:
    """Centroids of the connected small-magnitude node clusters."""
    small = mask.inside & (magnitude <= threshold)
    if not small.any():
        return []
    labels, count = ndimage.label(small)
    zg = mask.grid.zgrid()
    out = []
    for lab in range(1, count + 1):
        sel = labels == lab
        out.append(complex(zg[sel].mean()))
    return out


def _grade(measured: float, scale: float) -> str:
    """The one verdict ladder: PASS at or below 0.05 * scale, FAIL at or
    above 0.5 * scale, INCONCLUSIVE between; a zero scale admits only an
    exact zero."""
    if scale == 0:
        return PASS if measured == 0 else FAIL
    if measured <= 0.05 * scale:
        return PASS
    if measured >= 0.5 * scale:
        return FAIL
    return INCONCLUSIVE


def _ring_probe(name, value_fn, mask, centers, radii, scale, details=None):
    # spread of the probed quantity on rings closing in on each center;
    # continuity shows up as the smallest ring's spread collapsing
    worst = 0.0
    per_center = {}
    for c in centers:
        spreads = []
        for r in radii:
            sel = ring_selection(mask, c, r)
            if not sel.any():
                spreads.append(None)
                continue
            spreads.append(spread(value_fn(mask.coords(sel))))
        per_center[c] = spreads
        seen = [s for s in spreads if s is not None]
        if seen:
            worst = max(worst, seen[0])
    det = {"radii": list(radii), "per_center": per_center}
    if details:
        det.update(details)
    return ProbeResult(name, _grade(worst, scale), worst, scale, det)


def _family_probe(name, value_fn, families, scale, tail=3):
    # family = sequence of points marching toward the limit; families
    # must agree in their tails for the limit to exist
    tails, allvals = {}, []
    for fam_name, pts in families.items():
        v = value_fn(np.asarray(pts, dtype=complex))
        allvals.extend(v.tolist())
        tails[fam_name] = complex(np.mean(v[-tail:]))
    vals = list(tails.values())
    measured = max(abs(a - b) for a in vals for b in vals)
    if scale is None:
        scale = max(abs(v) for v in allvals) if allvals else 0.0
    return ProbeResult(name, _grade(measured, scale), measured, scale,
                       {"tails": tails, "tail": tail})


def _probe_centers(mask, gv, domain):
    gmax = float(np.abs(gv[mask.inside]).max())
    centers = zero_centers(mask, np.abs(gv), ZERO_REL * gmax)
    for p in getattr(domain, "tagged_points", ()) or ():
        if all(abs(p - c) > 4 * mask.grid.h for c in centers):
            centers.append(p)
    return centers


def certify_class(f, g, N: int, domain: CompactDomain, claimed: str,
                  h: float = 1 / 128, families: Optional[dict] = None,
                  g_locally_constant: bool = False) -> DivisionCertificate:
    """Probe whether f^N/g (zero-extended) behaves like the claimed class.

    claimed is one of C0, A0 (value continuity), C1, A1 (first
    derivative continuity; A-classes track the holomorphic derivative
    only), Dbar1 (value, dbar, and both second-layer derivatives of the
    dbar).  Probes run on rings shrinking toward the zeros of g and any
    tagged boundary points, or on caller-supplied approach families
    (dict name -> point sequence), which take precedence.

    g_locally_constant switches the symbolic derivative layers to treat
    g as locally constant (step functions on disjoint pieces), in which
    case only f needs to be an expression.
    """
    if claimed not in ("C0", "A0", "C1", "A1", "Dbar1"):
        raise ValueError(f"unknown class {claimed!r}")
    mask = build_mask(domain, h=h)
    hfield = divide(f, g, N, mask=mask)
    gv = sample_field(g, mask).values
    centers = _probe_centers(mask, gv, domain)
    radii = [8 * mask.grid.h, 16 * mask.grid.h, 32 * mask.grid.h]
    gcall = as_callable(g)

    def quotient_values(pts):
        return as_callable(f)(pts) ** N / gcall(pts)

    layers = [("value", quotient_values)]

    symbolic = isinstance(f, ComplexExpr) and (
        g_locally_constant or isinstance(g, ComplexExpr))

    def symbolic_layer(op_chain):
        if g_locally_constant:
            # d/dz (f^N / g) with g piecewise constant: all layers are
            # plain derivatives of f^N divided pointwise by g
            expr = intpow(f, N)
            for op in op_chain:
                expr = op(expr)
            fn = as_callable(expr)
            return lambda pts: fn(pts) / gcall(pts)
        expr = div(intpow(f, N), g)
        for op in op_chain:
            expr = op(expr)
        return as_callable(expr)

    if claimed in ("C1", "A1"):
        if not symbolic:
            raise ValueError("first-derivative probes need expression "
                             "inputs for the symbolic layer")
        layers.append(("d", symbolic_layer([wirtinger_d])))
        if claimed == "C1":
            layers.append(("dbar", symbolic_layer([wirtinger_dbar])))
    elif claimed == "Dbar1":
        if not symbolic:
            raise ValueError("dbar-layer probes need expression inputs")
        layers.append(("dbar", symbolic_layer([wirtinger_dbar])))
        layers.append(("d_of_dbar",
                       symbolic_layer([wirtinger_dbar, wirtinger_d])))
        layers.append(("dbar_of_dbar",
                       symbolic_layer([wirtinger_dbar, wirtinger_dbar])))

    probes = []
    for name, fn in layers:
        if families:
            probes.append(_family_probe(name, fn, families, scale=None))
        else:
            if name == "value":
                scale = hfield.max_abs()
            else:
                sel = interior_shrunk(mask, 3) & ~_near_centers(mask, centers, 4 * mask.grid.h)
                scale = float(np.abs(fn(mask.coords(sel))).max()) if sel.any() else 0.0
            probes.append(_ring_probe(name, fn, mask, centers, radii, scale))

    if claimed in ("A0", "A1") and not families:
        probes.append(_holomorphy_probe(hfield, centers))

    return DivisionCertificate(N, claimed, mask.grid.h, probes)


def _near_centers(mask, centers, dist):
    zg = mask.grid.zgrid()
    out = np.zeros(mask.inside.shape, bool)
    for c in centers:
        out |= np.abs(zg - c) <= dist
    return out


def _holomorphy_probe(hfield: SampledField, centers) -> ProbeResult:
    # discrete dbar away from the zero set and the outer boundary; the
    # quotient of holomorphic data must not show a conjugate component
    mask = hfield.mask
    dv = dbar_fd(hfield)
    sel = interior_shrunk(mask, 8) & ~_near_centers(mask, centers, 0.25)
    scale = hfield.max_abs()
    measured = float(np.abs(dv.values[sel]).max()) if sel.any() else 0.0
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
    keeps |f| <= |g| intact and normalizes |g| <= 1.
    """
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

    mask0 = build_mask(domain, h=max(levels))
    gmax = float(np.abs(sample_field(g, mask0).values[mask0.inside]).max())
    scale = Const(1.0 / gmax)
    fs, gs = mul(scale, f), mul(scale, g)

    dq = div(intpow(fs, m + 2), gs)
    for _ in range(n):
        dq = wirtinger_d(dq)
    dq_fn = as_callable(dq)
    g_fn = as_callable(gs)

    consts, hs = [], sorted(levels, reverse=True)
    for h in hs:
        mask = build_mask(domain, h=h)
        sel = interior_shrunk(mask, 3)
        z = mask.coords(sel)
        gvals = np.abs(g_fn(z))
        live = gvals > ZERO_REL
        ratio = np.abs(dq_fn(z[live])) / gvals[live] ** (m + 1 - n)
        consts.append(float(ratio.max()))
    ratio = consts[-1] / consts[0] if consts[0] != 0 else float("inf")
    return {"m": m, "n": n, "mixed": mixed, "h": hs, "C": consts,
            "ratio": ratio, "stable": bool(0.5 <= ratio <= 2.0),
            "g_sup_used": gmax}


def _multi_problem(h_expr, f_list, domain, grid_h, mask):
    if mask is None:
        mask = build_mask(domain, h=grid_h)
    hv = sample_field(h_expr, mask).values
    fv = [sample_field(f, mask).values for f in f_list]
    s1 = sum(np.abs(v) for v in fv)
    s2 = sum(np.abs(v) ** 2 for v in fv)
    ha = np.abs(hv[mask.inside])
    fa = s1[mask.inside]
    slack = 1e-9 * max(float(fa.max()), 1.0)
    if (ha > fa + slack).any():
        k = int(np.argmax(ha - fa))
        worst = mask.coords(mask.inside)[k]
        raise DominationError(
            f"|h| <= sum|f_j| fails: worst node {worst} has |h| = "
            f"{ha[k]:.6g} > {fa[k]:.6g}", worst=worst)
    return mask, hv, fv, s1, s2


def multi_division_continuous(h, f_list, domain: Optional[CompactDomain] = None,
                              grid_h: float = 1 / 128,
                              mask: Optional[RegionMask] = None):
    """Solve sum g_j f_j = h^2 with g_j = h^2 conj(f_j)/sum|f_k|^2.

    Returns (fields, report).  The report carries the Cauchy-Schwarz
    witness max|q_j| (at most n) and the residual off the zero set.
    """
    mask, hv, fv, s1, s2 = _multi_problem(h, f_list, domain, grid_h, mask)
    smax = float(s2[mask.inside].max())
    zero = mask.inside & (s2 <= ZERO_REL * smax)
    live = mask.inside & ~zero
    qs, gs = [], []
    for v in fv:
        q = np.zeros_like(v)
        q[live] = hv[live] * np.conj(v[live]) / s2[live]
        qs.append(q)
        gs.append(SampledField(mask, hv * q))
    q_sup = max(float(np.abs(q[live]).max()) if live.any() else 0.0 for q in qs)
    total = sum(g.values * v for g, v in zip(gs, fv))
    residual = float(np.abs(total - hv ** 2)[live].max()) if live.any() else 0.0
    report = {"q_sup": q_sup, "n": len(f_list), "residual_off_zero": residual,
              "zero_nodes": int(zero.sum())}
    return gs, report


def multi_division_c1(h, f_list, domain: Optional[CompactDomain] = None,
                      power: int = 3, grid_h: float = 1 / 128,
                      mask: Optional[RegionMask] = None,
                      cluster_cells: int = 9):
    """Solve sum g_j f_j = h^power with g_j = conj(f_j) h^power / sum|f_k|^2.

    power 3 is the contract; power 2 exists so the sharpness case can
    demonstrate the gradient probe failing.  The common zero set must be
    isolated: small-|f| node clusters larger than cluster_cells raise.
    Returns (fields, report); the report's gradient evidence is the
    ring-wise max of |discrete D g_j| / |f|, which stays bounded toward
    the zero set exactly when the construction is C1 there.
    """
    mask, hv, fv, s1, s2 = _multi_problem(h, f_list, domain, grid_h, mask)
    smax = float(s2[mask.inside].max())
    zero = mask.inside & (s2 <= ZERO_REL * smax)
    if zero.any():
        labels, count = ndimage.label(zero)
        sizes = np.bincount(labels.ravel())[1:]
        if sizes.max() > cluster_cells:
            raise ValueError(
                f"common zero cluster of {int(sizes.max())} nodes; the "
                f"construction needs isolated zeros")
    live = mask.inside & ~zero
    gs = []
    for v in fv:
        q = np.zeros_like(v)
        q[live] = np.conj(v[live]) * hv[live] ** power / s2[live]
        gs.append(SampledField(mask, q))
    total = sum(g.values * v for g, v in zip(gs, fv))
    residual = float(np.abs(total - hv ** power)[live].max()) if live.any() else 0.0

    centers = zero_centers(mask, s2, ZERO_REL * smax)
    radii = [8 * mask.grid.h, 16 * mask.grid.h, 32 * mask.grid.h]
    rootf = np.sqrt(s2)
    rings = []
    for r in radii:
        sel = np.zeros(mask.inside.shape, bool)
        for c in centers:
            sel |= ring_selection(mask, c, r)
        rings.append(sel & live)
    evidence = []
    for g in gs:
        dx = d_fd(g).values
        dbx = dbar_fd(g).values
        grad = np.maximum(np.abs(dx), np.abs(dbx))
        per_ring = []
        for sel in rings:
            ok = sel & mask.interior & (rootf > 0)
            per_ring.append(float((grad[ok] / rootf[ok]).max()) if ok.any() else None)
        evidence.append(per_ring)
    seen = [[v for v in row if v is not None] for row in evidence]
    growth = max((row[0] / row[-1] for row in seen if len(row) >= 2 and row[-1] > 0),
                 default=1.0)
    report = {"residual_off_zero": residual, "power": power,
              "radii": radii, "grad_over_f": evidence,
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
    if mask is None:
        if domain is None:
            raise ValueError("need a domain or a prebuilt mask")
        mask = build_mask(domain, h=grid_h)
    gv = sample_field(g, mask).values
    fv = [sample_field(f, mask).values for f in f_list]
    s2 = sum(np.abs(v) ** 2 for v in fv)
    norm = np.sqrt(s2)
    ga = np.abs(gv[mask.inside])
    na = norm[mask.inside]
    slack = 1e-9 * max(float(na.max()), 1.0)
    lhs = ga ** 2 if power == 7 else ga
    if (lhs > na + slack).any():
        k = int(np.argmax(lhs - na))
        worst = mask.coords(mask.inside)[k]
        cond = "|g|^2 <= |f|" if power == 7 else "|g| <= |f|"
        raise DominationError(f"{cond} fails at node {worst}", worst=worst)

    gmax = float(ga.max())
    if gmax == 0.0:
        field = SampledField(mask, np.zeros_like(gv))
        return field, {"power": power, "slope": None, "ring_max": [],
                       "trivial": True}

    smax = float(s2[mask.inside].max())
    zero = mask.inside & (s2 <= ZERO_REL * smax)
    live = mask.inside & ~zero
    vals = np.zeros_like(gv)
    vals[live] = gv[live] ** power / s2[live]
    field = SampledField(mask, vals)

    centers = zero_centers(mask, s2, ZERO_REL * smax)
    radii = [8 * mask.grid.h, 16 * mask.grid.h, 32 * mask.grid.h]
    dx = d_fd(field).values
    dbx = dbar_fd(field).values
    grad = np.maximum(np.abs(dx), np.abs(dbx))
    ring_max = []
    for r in radii:
        sel = np.zeros(mask.inside.shape, bool)
        for c in centers:
            sel |= ring_selection(mask, c, r)
        sel &= mask.interior & live
        ring_max.append(float(grad[sel].max()) if sel.any() else None)
    seen = [(r, v) for r, v in zip(radii, ring_max) if v is not None and v > 0]
    slope = None
    if len(seen) >= 2:
        rr = np.log([r for r, _ in seen])
        vv = np.log([v for _, v in seen])
        slope = float(np.polyfit(rr, vv, 1)[0])
    report = {"power": power, "radii": radii, "ring_max": ring_max,
              "slope": slope, "centers": centers,
              "derivative_vanishes": bool(slope is not None and slope >= 0.8)}
    return field, report
