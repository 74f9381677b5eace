"""Antisymmetric correction pipeline for unit and power targets.

A smooth solution x of sum x_j f_j = target is generally not
holomorphic.  The correction subtracts f H where H solves dbar H = F
entrywise for the antisymmetric obstruction matrix F built from dbar x;
antisymmetry makes f H f^t vanish identically, so the corrected
u = x - f H still hits the target while dbar u collapses to the
discretization floor.  Power targets (g^5, g^6, g^12) run the same
construction on g^4-weighted data so the obstruction stays bounded
across common zeros of the generators.

corona_solve, g_power_solve and g12_solve differ only in their set-up
(the Bezout route, the hypothesis check, how x and dbar x are
obtained; the two power targets share the sampling, the domination
check and the collar); each hands its sampled x and dbar x to one
correction core, which builds F, solves for H, assembles u and
measures the residual, dbar u, dbar x and the contraction f H f^t.
On the poly route x_j = p_j / D comes from the node values and the
certified D = sum p_k f_k of bezout.quotient_fits, and dbar x_j by the
quotient rule from the fits' analytic dbar, so no fit is evaluated
again and no symbolic tree is built or sampled beyond the generators'
own dbar; koszul_F on the expressions of bezout.bezout_poly remains
the symbolic test oracle.  corona_convergence runs corona_solve down
the shared refinement ladder of the cauchy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .bezout import (BezoutProblem, CommonZeroError, bezout_pou,
                     quotient_fits, require_no_common_zero, zero_collar)
from .cauchy import (SampledField, dbar_fd, dbar_fd_onesided, pompeiu,
                     refinement_ladder, sample_field, sup_abs)
from .division import check_domination, divide
from .domains import CompactDomain, RegionMask, interior_shrunk, resolve_mask
from .expr import ComplexExpr, as_callable, wirtinger_dbar

__all__ = [
    "AntisymMatrixField", "CoronaSolution",
    "koszul_F", "solve_dbar_matrix", "corona_solve", "corona_convergence",
    "g_power_solve", "g12_solve", "koszul_cancellation",
]


def _as_values(obj, mask: RegionMask) -> np.ndarray:
    if isinstance(obj, SampledField):
        if obj.mask.grid != mask.grid:
            raise ValueError("field sampled on a different grid")
        return obj.values
    return sample_field(obj, mask).values


def _dbar_values(x, mask: RegionMask) -> np.ndarray:
    # symbolic dbar for expressions, one-sided differences for data
    # that exists only on the nodes
    if isinstance(x, ComplexExpr):
        return sample_field(wirtinger_dbar(x), mask).values
    if isinstance(x, SampledField):
        if x.mask.grid != mask.grid:
            raise ValueError("field sampled on a different grid")
        return dbar_fd_onesided(x).values
    return dbar_fd_onesided(sample_field(x, mask)).values


@dataclass
class AntisymMatrixField:
    """Upper triangle of an antisymmetric matrix of fields.

    Only entries (j, k) with j < k are stored; entry() materializes the
    sign-flipped lower triangle and the zero diagonal on demand.
    """

    n: int
    mask: RegionMask
    upper: dict

    def entry(self, j: int, k: int) -> np.ndarray:
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise IndexError((j, k))
        if j == k:
            return np.zeros(self.mask.inside.shape, dtype=complex)
        if j < k:
            return self.upper[(j, k)].values
        return -self.upper[(k, j)].values


@dataclass
class CoronaSolution:
    u: list
    residual_sup: float
    dbar_sup: float
    target_desc: str
    mask: RegionMask
    margin: int
    dbar_sup_x: float
    skew_residual: float
    entry_reports: dict
    x_fields: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)


def koszul_F(x_list, f_list, mask: Optional[RegionMask] = None,
             domain: Optional[CompactDomain] = None, h: float = 1 / 64,
             weight=None) -> AntisymMatrixField:
    """Obstruction matrix F_jk = (dbar x_k conj f_j - dbar x_j conj f_k)/|f|^2.

    dbar x_j is symbolic for expressions and one-sided differences for
    callables and fields.  Generators with a common zero on the grid
    are an error unless a weight is supplied (the g^4 route): weighted
    entries are multiplied by it and zero-extended on
    bezout.zero_collar.
    """
    if len(f_list) != len(x_list):
        raise ValueError("x_list and f_list lengths differ")
    mask = resolve_mask(domain, h, mask)
    return _obstruction((_dbar_values(x, mask) for x in x_list),
                        [_as_values(f, mask) for f in f_list], mask,
                        None if weight is None else _as_values(weight, mask))


def _obstruction(dbx, fv, mask: RegionMask, wv=None) -> AntisymMatrixField:
    # F from the sampled dbar x_j (dbx), f_j (fv) and weight (wv); dbx
    # is drawn once, after the common-zero check, and dropped with the
    # frame, so callers pass generators and no dbar x array outlives F
    n = len(fv)
    s2 = sum(np.abs(v) ** 2 for v in fv)
    inside = mask.inside
    if wv is None:
        require_no_common_zero(mask, s2, "; use the weighted (g-power) route")
        live = inside
    else:
        live = inside & ~zero_collar(inside, sum(np.abs(v) for v in fv))

    dbx = list(dbx)
    upper = {}
    for j in range(n):
        for k in range(j + 1, n):
            num = dbx[k] * np.conj(fv[j]) - dbx[j] * np.conj(fv[k])
            vals = np.zeros(inside.shape, dtype=complex)
            vals[live] = num[live] / s2[live]
            if wv is not None:
                vals[live] *= wv[live]
            upper[(j, k)] = SampledField(mask, vals)
    return AntisymMatrixField(n, mask, upper)


def solve_dbar_matrix(F: AntisymMatrixField, margin: int = 3):
    """Entrywise dbar solve H_jk = pompeiu(F_jk).

    Returns (H, reports); reports[(j, k)] carries the round-trip
    deviation max |dbar_fd(H_jk) - F_jk| over the margin-shrunk nodes,
    NaN when the margin leaves no node to measure.
    """
    sel = interior_shrunk(F.mask, margin)
    upper, reports = {}, {}
    for key, fld in F.upper.items():
        u = pompeiu(fld)
        dev = dbar_fd(u).values - fld.values
        upper[key] = u
        reports[key] = {"max_dev": sup_abs(dev, sel),
                        "h": F.mask.grid.h, "margin": margin}
    return AntisymMatrixField(F.n, F.mask, upper), reports


def _assemble(x_vals, f_vals, H: AntisymMatrixField):
    n = len(x_vals)
    out = []
    for j in range(n):
        corr = 0.0
        for k in range(n):
            if k != j:
                corr = corr + f_vals[k] * H.entry(k, j)
        out.append(x_vals[j] - corr)
    return out


def _skew_residual(f_vals, H: AntisymMatrixField, inside) -> float:
    # the contraction sum_j f_j sum_k H_jk f_k over the full matrix;
    # antisymmetry of H makes it vanish up to roundoff
    n = len(f_vals)
    acc = sum(f_vals[j] * sum(H.entry(j, k) * f_vals[k] for k in range(n))
              for j in range(n))
    return sup_abs(acc, inside)


def _dbar_sup(value_arrays, mask, margin, exclude=None) -> float:
    sel = interior_shrunk(mask, margin)
    if exclude is not None:
        sel = sel & ~exclude
    return max((sup_abs(dbar_fd(SampledField(mask, v)).values, sel)
                for v in value_arrays), default=float("nan"))


def _correct(x_fields, dbx, f_vals, target, desc: str, margin: int,
             weight=None, lift=None, collar=None,
             extras=None) -> CoronaSolution:
    """The correction core: F from dbar x, H = pompeiu(F) entrywise,
    u = x - f H, then the measurements.

    Everything arrives sampled on the mask of x_fields: dbx (the arrays
    dbar x_j, drawn once by _obstruction), f_vals, target (what
    sum u_j f_j should equal), and the optional weight (the g^4 route:
    x and F are multiplied by it), lift (multiplies u, which is then
    zero-extended on the collar) and collar (nodes around common zeros;
    the dbar sups skip it dilated by two cells).
    """
    mask = x_fields[0].mask
    F = _obstruction(dbx, f_vals, mask, weight)
    H, reports = solve_dbar_matrix(F, margin)
    xv = [x.values if weight is None else weight * x.values for x in x_fields]
    uv = _assemble(xv, f_vals, H)
    if lift is not None:
        uv = [np.where(collar, 0.0, lift * v) for v in uv]
    total = sum(u * f for u, f in zip(uv, f_vals))
    extras = dict(extras or {})
    exclude = None
    if collar is not None:
        extras["collar_nodes"] = int(collar.sum())
        if collar.any():
            exclude = ndimage.binary_dilation(collar, iterations=2)
    return CoronaSolution(
        u=[SampledField(mask, v) for v in uv],
        residual_sup=sup_abs(total - target, mask.inside),
        dbar_sup=_dbar_sup(uv, mask, margin, exclude),
        target_desc=desc,
        mask=mask,
        margin=margin,
        dbar_sup_x=_dbar_sup(xv, mask, margin, exclude),
        skew_residual=_skew_residual(f_vals, H, mask.inside),
        entry_reports=reports,
        x_fields=x_fields,
        extras=extras,
    )


def _poly_unit_solution(problem: BezoutProblem, max_degree: int):
    # x_j = p_j / D and dbar x_j = (dbar p_j D - p_j dbar D) / D^2 on
    # the Inside nodes, with p_j and D = sum p_k f_k from quotient_fits
    # and dbar D = sum (dbar p_k f_k + p_k dbar f_k); only the
    # generators' own dbar trees are sampled
    fits, pv, D = quotient_fits(problem, max_degree=max_degree)
    mask = problem.mask
    inside = mask.inside
    zin = mask.coords(inside)
    dpv = [p.dbar(zin) for p in fits]
    fv = [g.values[inside] for g in problem.f_fields]
    dfv = [_dbar_values(f, mask)[inside] for f in problem.f_list]
    dD = sum(dp * f + p * df for p, dp, f, df in zip(pv, dpv, fv, dfv))

    def on_nodes(v):
        out = np.zeros(inside.shape, dtype=complex)
        out[inside] = v
        return out

    x_fields = [SampledField(mask, on_nodes(p / D)) for p in pv]
    dbx = (on_nodes((dp * D - p * dD) / D ** 2) for p, dp in zip(pv, dpv))
    report = [{"degree": p.degree, "sup_error": p.sup_error, "cond": p.cond}
              for p in fits]
    return x_fields, dbx, report


def corona_solve(f_list, domain: CompactDomain, h: float = 1 / 64,
                 route: str = "poly", max_degree: int = 16, margin: int = 3,
                 mask: Optional[RegionMask] = None) -> CoronaSolution:
    """Holomorphic-looking u with sum u_j f_j = 1 on the nodes.

    route 'poly' corrects the polynomial-quotient unit solution, with
    x and dbar x evaluated numerically from the fits (extras['fits']
    holds each fit's degree, sup_error and cond); 'pou' corrects the
    covering solution (discrete dbar).  The returned dbar_sup is
    measured margin cells in from the node-set boundary (NaN when that
    leaves no node); pair with corona_convergence for the rate.
    """
    if route not in ("poly", "pou"):
        raise ValueError(f"unknown route {route!r}")
    problem = BezoutProblem.build(domain, f_list, h=h, mask=mask)
    if problem.delta <= 0:
        raise CommonZeroError("generators vanish together on the grid")
    extras = {"route": route, "delta": problem.delta}
    if route == "poly":
        x_fields, dbx, extras["fits"] = _poly_unit_solution(problem, max_degree)
    else:
        x_fields = bezout_pou(problem)
        dbx = (_dbar_values(x, problem.mask) for x in x_fields)
    return _correct(x_fields, dbx, [g.values for g in problem.f_fields], 1.0,
                    "1", margin, extras=extras)


def corona_convergence(f_list, domain: CompactDomain,
                       hs: Sequence[float] = (1 / 64, 1 / 128, 1 / 256),
                       physical_margin: float = 0.15, route: str = "poly",
                       max_degree: int = 16) -> dict:
    """Refinement ladder for corona_solve.

    Returns the refinement_ladder result for the metrics 'dbar_sup' and
    'residual_sup'; its 'slope' is the dbar_sup exponent.
    """
    def solve(h, margin):
        sol = corona_solve(f_list, domain, h=h, route=route,
                           max_degree=max_degree, margin=margin)
        return {"dbar_sup": sol.dbar_sup, "residual_sup": sol.residual_sup}

    return refinement_ladder(solve, hs, physical_margin)


def _power_setup(g, f_list, domain, h, mask):
    # the power targets' common opening: the mask, g and f_j sampled on
    # it, the corona domination |g| <= sum|f_j| and the common-zero collar
    mask = resolve_mask(domain, h, mask)
    gv = _as_values(g, mask)
    fv = [_as_values(f, mask) for f in f_list]
    s1 = sum(np.abs(v) for v in fv)
    check_domination(np.abs(gv), s1, mask, "|g| <= sum|f_j|")
    return mask, gv, fv, zero_collar(mask.inside, s1)


def g_power_solve(g, f_list, x_list, domain: Optional[CompactDomain] = None,
                  isolated_zeros: bool = True, h: float = 1 / 64,
                  margin: int = 3,
                  mask: Optional[RegionMask] = None) -> CoronaSolution:
    """Correction pipeline on g^4-weighted data, target g^5 or g^6.

    x_list must satisfy sum x_j f_j = g on the nodes (checked to
    1e-10 of the g scale).  With isolated_zeros the solution is
    u = g^4 x - f H itself (target g^5); otherwise u is multiplied by
    one more g and zero-extended across the common-zero collar
    (target g^6).
    """
    mask, gv, fv, collar = _power_setup(g, f_list, domain, h, mask)
    xv = [_as_values(x, mask) for x in x_list]
    total_x = sum(x * f for x, f in zip(xv, fv))
    gscale = max(sup_abs(gv, mask.inside), 1e-300)
    xres = sup_abs(total_x - gv, mask.inside)
    if xres > 1e-10 * gscale:
        raise ValueError(
            f"x_list does not solve sum x_j f_j = g: residual {xres:.3g}")

    target, desc, lift = ((gv ** 5, "g^5", None) if isolated_zeros
                          else (gv ** 6, "g^6", gv))
    return _correct([SampledField(mask, v) for v in xv],
                    (_dbar_values(x, mask) for x in x_list), fv, target,
                    desc, margin, weight=gv ** 4, lift=lift, collar=collar,
                    extras={"x_residual": xres})


def g12_solve(g, f_list, h_list, domain: Optional[CompactDomain] = None,
              h: float = 1 / 64, margin: int = 3,
              mask: Optional[RegionMask] = None) -> CoronaSolution:
    """Target g^12 from multiplier data h_list.

    Requires the corona domination |g| <= sum|f_j|, checked first, and
    |sum h_j f_j| >= sum|f_j|^2 on the nodes.  The smooth solution
    x_j = k h_j comes from the power-4 division of g^2 by sum h_j f_j,
    Cauchy-Schwarz rescaled so its domination precondition holds; the
    weighted correction then lifts x f^t = g^8 to a holomorphic-looking
    g^12.
    """
    n = len(f_list)
    if len(h_list) != n:
        raise ValueError("h_list and f_list lengths differ")
    mask, gv, fv, collar = _power_setup(g, f_list, domain, h, mask)
    hv = [_as_values(hj, mask) for hj in h_list]
    s2 = sum(np.abs(v) ** 2 for v in fv)
    hsum = sum(a * b for a, b in zip(hv, fv))
    # the slack scales with sum|f_j|^2, the side the hypothesis bounds
    check_domination(s2, np.abs(hsum), mask,
                     "hypothesis sum|f_j|^2 <= |sum h_j f_j|",
                     slack_ref=sup_abs(s2, mask.inside))

    gc = as_callable(g)
    hparts = [(as_callable(hj), as_callable(fj))
              for hj, fj in zip(h_list, f_list)]

    def scaled_g2(z):
        return np.asarray(gc(z), dtype=complex) ** 2 / n

    def hsum_fn(z):
        return sum(hc(z) * fc(z) for hc, fc in hparts)

    k_field = divide(scaled_g2, hsum_fn, 4, mask=mask)
    kv = (n ** 4) * k_field.values
    x_fields = [SampledField(mask, kv * v) for v in hv]
    return _correct(x_fields, (_dbar_values(x, mask) for x in x_fields), fv,
                    gv ** 12, "g^12", margin, weight=gv ** 4, collar=collar)


def koszul_cancellation(x_list, f_list, points) -> dict:
    """Evaluate the row identity dbar x_j - (f F)_j = conj(f_j) (f . dbar x)/|f|^2.

    Both sides are computed from symbolic dbar trees at the given
    points; max_diff confirms the algebraic reduction, and rhs_sup is
    the size of the residual obstruction (zero when sum x_j f_j is
    constant and the f_j are holomorphic).
    """
    for x in x_list:
        if not isinstance(x, ComplexExpr):
            raise TypeError("cancellation check needs expression x_j")
    z = np.asarray(points, dtype=complex)
    fvals = [as_callable(f)(z) for f in f_list]
    dvals = [as_callable(wirtinger_dbar(x))(z) for x in x_list]
    s2 = sum(np.abs(v) ** 2 for v in fvals)
    if (s2 == 0).any():
        raise CommonZeroError("evaluation point hits a common zero")
    dot = sum(fk * dk for fk, dk in zip(fvals, dvals))
    n = len(x_list)
    max_diff = 0.0
    rhs_sup = 0.0
    for j in range(n):
        corr = 0.0
        for k in range(n):
            if k == j:
                continue
            F_kj = (dvals[j] * np.conj(fvals[k])
                    - dvals[k] * np.conj(fvals[j])) / s2
            corr = corr + fvals[k] * F_kj
        lhs = dvals[j] - corr
        rhs = np.conj(fvals[j]) * dot / s2
        max_diff = max(max_diff, float(np.abs(lhs - rhs).max()))
        rhs_sup = max(rhs_sup, float(np.abs(rhs).max()))
    return {"max_diff": max_diff, "rhs_sup": rhs_sup, "points": len(z)}
