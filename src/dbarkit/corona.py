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
obtained).  Each samples its generators once, as a
bezout.BezoutProblem (the power targets open through
division.dominated, which adds g and the domination |g| <= sum|f_j|),
and hands x, dbar x and that record, collar included,
to one correction core, which builds F, solves for H, assembles u and
measures the residual, dbar u, dbar x and the contraction f H f^t.
The core forms F, u = x - f H, the contraction and the residual one
row strip at a time (cauchy.row_strips) from the stored upper triangle
of H, so no full-grid product, zero diagonal or negated entry is
made, and it reads the dbar sups with cauchy.dbar_fd_sup, which forms
no dbar field; the strips keep each product's operand order, so the
outputs are bitwise those of the full-grid expressions.
On the poly route x_j = p_j / D and dbar x_j come on the Inside nodes
from bezout.quotient_fits, which owns that quotient and evaluates the
fits in node blocks past its fit subsample, and are only scattered to
the grid here, so no fit is evaluated again, no power table spans more
nodes than the fit subsample, and no symbolic tree is built or sampled
beyond the generators' own dbar; koszul_F on the expressions of
bezout.bezout_poly remains the symbolic test oracle.
corona_convergence runs corona_solve down the shared refinement ladder
of the cauchy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .bezout import (BezoutProblem, CommonZeroError, bezout_pou,
                     quotient_fits, require_no_common_zero)
from .cauchy import (SampledField, dbar_fd_onesided, dbar_fd_sup, on_nodes,
                     refinement_ladder, row_strips, sample_field, strip_sup,
                     sup_abs, verify_dbar_solution)
from .division import check_domination, divide, dominated
from .domains import CompactDomain, RegionMask, interior_shrunk
from .expr import ComplexExpr, as_callable, wirtinger_dbar

__all__ = [
    "AntisymMatrixField", "CoronaSolution",
    "koszul_F", "solve_dbar_matrix", "corona_solve", "corona_convergence",
    "g_power_solve", "g12_solve", "koszul_cancellation",
]


def _dbar_values(x, mask: RegionMask) -> np.ndarray:
    # symbolic dbar for expressions, one-sided differences for data
    # that exists only on the nodes
    if isinstance(x, ComplexExpr):
        return sample_field(wirtinger_dbar(x), mask).values
    return dbar_fd_onesided(sample_field(x, mask)).values


@dataclass
class AntisymMatrixField:
    """Upper triangle of an antisymmetric matrix of fields.

    Only entries (j, k) with j < k are stored; entry() materializes the
    sign-flipped lower triangle and the zero diagonal on demand, and
    entry_rows() a band of rows of an off-diagonal entry.
    """

    n: int
    mask: RegionMask
    upper: dict

    def entry(self, j: int, k: int) -> np.ndarray:
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise IndexError((j, k))
        if j == k:
            return np.zeros(self.mask.inside.shape, dtype=complex)
        return self.entry_rows(j, k, slice(None))

    def entry_rows(self, j: int, k: int, rows: slice) -> np.ndarray:
        """The rows of entry (j, k), j != k: a view of the stored (j, k),
        or the negated copy of those rows of (k, j)."""
        if j < k:
            return self.upper[(j, k)].values[rows]
        return -self.upper[(k, j)].values[rows]


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
    extras: dict = dc_field(default_factory=dict)


def koszul_F(x_list, f_list, mask: Optional[RegionMask] = None,
             domain: Optional[CompactDomain] = None, h: float = 1 / 64,
             weight=None) -> AntisymMatrixField:
    """Obstruction matrix F_jk = (dbar x_k conj f_j - dbar x_j conj f_k)/|f|^2.

    dbar x_j is symbolic for expressions and one-sided differences for
    callables and fields.  Generators with a common zero on the grid
    are an error unless a weight is supplied (the g^4 route): weighted
    entries are multiplied by it and zero-extended on the generators'
    collar (BezoutProblem.collar).
    """
    if len(f_list) != len(x_list):
        raise ValueError("x_list and f_list lengths differ")
    gens = BezoutProblem.build(domain, f_list, h=h, mask=mask)
    wv = None if weight is None else sample_field(weight, gens.mask).values
    return _obstruction((_dbar_values(x, gens.mask) for x in x_list), gens, wv)


def _obstruction(dbx, gens: BezoutProblem, wv=None,
                 s2=None) -> AntisymMatrixField:
    # F from the sampled dbar x_j (dbx), the generator record (gens),
    # the weight (wv) and sum|f_j|^2 when the caller holds it (s2);
    # dbx is drawn once, after the common-zero check, and dropped with
    # the frame, so callers pass generators and no dbar x array
    # outlives F
    mask, inside = gens.mask, gens.mask.inside
    fv = [g.values for g in gens.f_fields]
    if s2 is None:
        s2 = gens.s2
    if wv is None:
        require_no_common_zero(mask, s2, "; use the weighted (g-power) route")
        live = inside
    else:
        live = inside & ~gens.collar

    dbx = list(dbx)
    upper = {}
    for j in range(gens.n):
        for k in range(j + 1, gens.n):
            # zero_extended(num, s2, live), times wv, one row strip at
            # a time (cauchy.row_strips keeps each product's bits)
            vals = np.zeros(inside.shape, dtype=complex)
            for a, b in row_strips(inside.shape):
                r, on = slice(a, b), live[a:b]
                num = (dbx[k][r] * np.conj(fv[j][r])
                       - dbx[j][r] * np.conj(fv[k][r]))
                q = num[on] / s2[r][on]
                if wv is not None:
                    q *= wv[r][on]
                vals[r][on] = q
            upper[(j, k)] = SampledField(mask, vals)
    return AntisymMatrixField(gens.n, mask, upper)


def solve_dbar_matrix(F: AntisymMatrixField, margin: int = 3):
    """Entrywise dbar solve H_jk = pompeiu(F_jk).

    Returns (H, reports); reports[(j, k)] carries the round trip of
    cauchy.verify_dbar_solution: max_dev = max |dbar_fd(H_jk) - F_jk|
    over the margin-shrunk nodes (NaN when the margin leaves no node to
    measure), h and margin.
    """
    upper, reports = {}, {}
    for key, fld in F.upper.items():
        trip = verify_dbar_solution(fld, margin)
        upper[key] = trip["u"]
        reports[key] = {k: trip[k] for k in ("max_dev", "h", "margin")}
    return AntisymMatrixField(F.n, F.mask, upper), reports


def _assemble(x_vals, f_vals, H: AntisymMatrixField, own: bool = False):
    # u_j = x_j - sum_{k != j} f_k H_kj, one row strip at a time from
    # the stored upper triangle, written over x_j when the caller owns
    # the arrays x_vals
    n = len(x_vals)
    out = [x if own else np.empty(x.shape, dtype=complex) for x in x_vals]
    for a, b in row_strips(x_vals[0].shape):
        r = slice(a, b)
        for j in range(n):
            corr = 0.0
            for k in range(n):
                if k != j:
                    corr = corr + f_vals[k][r] * H.entry_rows(k, j, r)
            np.subtract(x_vals[j][r], corr, out=out[j][r])
    return out


def _skew_residual(f_vals, H: AntisymMatrixField, inside) -> float:
    # the contraction sum_j f_j sum_{k != j} H_jk f_k over the full
    # matrix (the diagonal is 0), one row strip at a time; antisymmetry
    # of H makes it vanish up to roundoff
    n = len(f_vals)
    return strip_sup(lambda r: sum(
        f_vals[j][r] * sum(H.entry_rows(j, k, r) * f_vals[k][r]
                           for k in range(n) if k != j)
        for j in range(n)), inside)


def _dbar_sup(value_arrays, mask, sel) -> float:
    return max((dbar_fd_sup(SampledField(mask, v), sel)
                for v in value_arrays), default=float("nan"))


def _correct(x_fields, dbx, gens: BezoutProblem, target, desc: str,
             margin: int, weight=None, lift=None, s2=None,
             extras=None) -> CoronaSolution:
    """The correction core: F from dbar x, H = pompeiu(F) entrywise,
    u = x - f H, then the measurements.

    Everything arrives sampled on the mask of the generator record
    gens: x_fields, dbx (the arrays dbar x_j, drawn once by
    _obstruction), target (what sum u_j f_j should equal), the
    optional weight (the g^4 route: x and F are multiplied by it, and
    the dbar sups skip the nodes within two steps of the record's
    collar), lift (multiplies u, which is then zero-extended on the
    collar) and s2 (sum|f_j|^2, when the caller has formed it).  F is
    dropped once H is solved.  dbar x is measured before u is
    assembled, since on the weighted route u is written over the
    weighted x, which the core owns; a caller's x is never written.
    """
    mask = gens.mask
    f_vals = [g.values for g in gens.f_fields]
    H, reports = solve_dbar_matrix(_obstruction(dbx, gens, weight, s2), margin)
    skew = _skew_residual(f_vals, H, mask.inside)
    extras = dict(extras or {})
    sel = interior_shrunk(mask, margin)
    if weight is not None:
        extras["collar_nodes"] = int(gens.collar.sum())
        # lattice offsets have integer squared lengths, so any radius in
        # (2h, sqrt5 h) selects exactly the diamond |dx| + |dy| <= 2
        sel &= ~mask.near(mask.coords(gens.collar), 2.1 * mask.grid.h)
    xv = [x.values if weight is None else weight * x.values for x in x_fields]
    dbar_sup_x = _dbar_sup(xv, mask, sel)
    uv = _assemble(xv, f_vals, H, own=weight is not None)
    del H
    if lift is not None:
        for v in uv:
            np.multiply(lift, v, out=v)
            v[gens.collar] = 0.0
    residual_sup = strip_sup(lambda r: sum(
        u[r] * f[r] for u, f in zip(uv, f_vals)) - (
            target[r] if np.ndim(target) else target), mask.inside)
    return CoronaSolution(
        u=[SampledField(mask, v) for v in uv],
        residual_sup=residual_sup,
        dbar_sup=_dbar_sup(uv, mask, sel),
        target_desc=desc,
        mask=mask,
        margin=margin,
        dbar_sup_x=dbar_sup_x,
        skew_residual=skew,
        entry_reports=reports,
        extras=extras,
    )


def _poly_unit_solution(problem: BezoutProblem, max_degree: int):
    # quotient_fits' x and dbar x scattered from the Inside nodes; dbar
    # x stays a generator, drawn once by _obstruction
    fits, xv, dbxv = quotient_fits(problem, max_degree=max_degree)
    mask = problem.mask
    x_fields = [SampledField(mask, on_nodes(v, mask.inside)) for v in xv]
    dbx = (on_nodes(v, mask.inside) for v in dbxv)
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
    extras = {"route": route, "delta": problem.delta}
    if route == "poly":
        x_fields, dbx, extras["fits"] = _poly_unit_solution(problem, max_degree)
    else:
        x_fields = bezout_pou(problem)
        dbx = (_dbar_values(x, problem.mask) for x in x_fields)
    return _correct(x_fields, dbx, problem, 1.0, "1", margin, extras=extras)


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
    gens, gv = dominated(g, f_list, domain, h, mask, "g")
    mask = gens.mask
    x_fields = [sample_field(x, mask) for x in x_list]
    total_x = sum(x.values * f.values
                  for x, f in zip(x_fields, gens.f_fields))
    gscale = max(sup_abs(gv, mask.inside), 1e-300)
    xres = sup_abs(total_x - gv, mask.inside)
    del total_x
    if xres > 1e-10 * gscale:
        raise ValueError(
            f"x_list does not solve sum x_j f_j = g: residual {xres:.3g}")

    target, desc, lift = ((gv ** 5, "g^5", None) if isolated_zeros
                          else (gv ** 6, "g^6", gv))
    # a callable x is differenced from its samples, not sampled again
    dbx = (_dbar_values(x if isinstance(x, ComplexExpr) else xf, mask)
           for x, xf in zip(x_list, x_fields))
    return _correct(x_fields, dbx, gens, target, desc, margin,
                    weight=gv ** 4, lift=lift, extras={"x_residual": xres})


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
    gens, gv = dominated(g, f_list, domain, h, mask, "g")
    mask = gens.mask
    hv = [sample_field(hj, mask).values for hj in h_list]
    s2 = gens.s2
    hsum = sum(a * b.values for a, b in zip(hv, gens.f_fields))
    # the slack scales with sum|f_j|^2, the side the hypothesis bounds
    check_domination(s2, np.abs(hsum), mask,
                     "hypothesis sum|f_j|^2 <= |sum h_j f_j|",
                     slack_ref=sup_abs(s2, mask.inside))

    k_field = divide(SampledField(mask, gv ** 2 / n), SampledField(mask, hsum),
                     4, mask=mask)
    kv = (n ** 4) * k_field.values
    x_fields = [SampledField(mask, kv * v) for v in hv]
    del hv, hsum, k_field, kv
    return _correct(x_fields, (_dbar_values(x, mask) for x in x_fields), gens,
                    gv ** 12, "g^12", margin, weight=gv ** 4, s2=s2)


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
