"""Two constructions for solving sum x_j f_j = 1 on a compact set.

q_fields is the one Wolff quotient q_j = w conj(f_j)/sum|f_k|^2, formed
on a node set and zero elsewhere, so sum q_j f_j = w there: with w = 1
on the Inside nodes (a common zero raises) it is the quotient below,
and division's multi-generator solvers pass their own weight, the
nodes off the common zeros and the sum|f_k|^2 they already hold.
The quotient route approximates q_j = conj(f_j)/sum|f_k|^2 by bivariate
polynomials in z and conj(z) and divides by the (certified nonvanishing)
combination D = sum p_k f_k.  quotient_fits owns that quotient: it
fits every q_j at every degree on one growing QR factorization and
returns the fits with x_j = p_j / D and dbar x_j on the Inside nodes,
from the values and analytic dbar the fit ladder evaluated, so no fit
is evaluated again.  A fit holds its coefficients as one matrix
coef[a, b] of z^a conj(z)^b.  The factorization is real: each
degree's monomials are closed under conjugation, so sqrt2 Re and
sqrt2 Im of z^a conj(z)^b (a > b), plus |z|^d on the diagonal, span
them by a unitary change of basis, and Re and Im of a field are two
real right-hand sides.  The fit runs on its rows, every node or, on
grids beyond MAX_FIT_NODES, a stride subsample.  One rule screens
each degree: the least-squares projection of the rows' values, which
the growing factorization holds, is the fit's values there up to a
roundoff band computed from eps, the degree's condition number and
the values' 2-norm, so a degree whose projected sup error exceeds the
target by more than the band is never evaluated.  Any other degree,
and the last, is measured on every node, its values and dbar from one
table of its own degree per node block of NODE_BLOCK points, by the
block rule of cauchy's Sampling paragraph (cauchy.node_blocks), so no
table spans every node of a fine grid; with OpenBLAS on one thread
the values are bitwise those of one table.
bezout_poly takes the certified fits alone, without x and dbar x, and
returns the same quotient as expressions, which remain the symbolic
test oracle.  The covering route builds a smoothstep partition of
unity subordinate to {|f_j| > eps/3} and divides each bump by its own
generator.  One covering step, _covering, checks the floor delta, sets
eps = delta/(2n) and builds and checks the bumps, for
partition_of_unity on the Inside nodes and for generalized_division
off the dividend's vanishing neighborhood, which RegionMask.near finds
in node windows.  The bumps and their total are node vectors of the
covered set, and each output is divided there and scattered to the
grid once (cauchy.on_nodes), so no full-grid bump or product is
built.  Both keep the residual identity exact up to rounding; the
interesting measured quantity is how smooth the output is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .cauchy import (SampledField, node_blocks, on_nodes, sample_field,
                     sup_abs, zero_extended)
from .domains import PreconditionError, RegionMask, resolve_mask
from .expr import (ComplexExpr, Const, Z, add, conj, div, intpow, mul,
                   wirtinger_dbar)

__all__ = [
    "COLLAR_REL", "BezoutProblem", "PolyZZbar", "CommonZeroError",
    "FitRankError", "FitToleranceError", "CoveringError", "VanishingError",
    "require_no_common_zero", "zero_collar",
    "q_fields", "weierstrass_fit", "quotient_fits",
    "bezout_poly",
    "smoothstep", "partition_of_unity", "bezout_pou", "generalized_division",
]

# sum|f_j| <= COLLAR_REL * max marks the collar around common zeros
COLLAR_REL = 1e-8
MAX_FIT_NODES = 20000
# width of the node blocks a fit is evaluated in (cauchy.node_blocks).
# It is narrower than cauchy.SAMPLE_BLOCK because each block holds a
# (d + 1)-row power table and its conjugate, not one row of
# coordinates.  That the blocks' values are bitwise those of one table
# over all the points is verified with OpenBLAS on one thread only (by
# tests/test_bezout.py); another BLAS build or CPU kernel may round a
# block differently, within rounding of the same values
NODE_BLOCK = 1 << 13
_SQRT2 = math.sqrt(2.0)


class CommonZeroError(PreconditionError):
    """The generators vanish together somewhere on the node set."""


class FitRankError(PreconditionError):
    pass


class FitToleranceError(PreconditionError):
    def __init__(self, message, sup_error):
        super().__init__(message)
        self.sup_error = sup_error


class CoveringError(PreconditionError):
    pass


class VanishingError(PreconditionError):
    """The dividend does not vanish near the generators' common zeros."""


@dataclass
class BezoutProblem:
    """Generators sampled on a mask, with the measured corona floor.

    The one place a generator list is sampled.  s1 = sum_j |f_j| and
    s2 = sum_j |f_j|^2 are recomputed from f_fields on each access, so
    no grid-size sum outlives its caller; collar = zero_collar(s1) and
    delta = min over Inside nodes of s1 are kept.  The quotient and
    covering solvers demand delta > 0; generalized_division tolerates
    common zeros as long as the dividend vanishes around them.
    """

    f_list: Sequence
    mask: RegionMask
    f_fields: list = field(repr=False)

    @classmethod
    def build(cls, domain, f_list, h: float = 1 / 64,
              mask: Optional[RegionMask] = None) -> "BezoutProblem":
        if len(f_list) < 1:
            raise ValueError("need at least one generator")
        mask = resolve_mask(domain, h, mask)
        return cls(list(f_list), mask,
                   [sample_field(f, mask) for f in f_list])

    @property
    def n(self) -> int:
        return len(self.f_list)

    @property
    def s1(self) -> np.ndarray:
        return sum(np.abs(g.values) for g in self.f_fields)

    @property
    def s2(self) -> np.ndarray:
        return sum(np.abs(g.values) ** 2 for g in self.f_fields)

    @cached_property
    def collar(self) -> np.ndarray:
        return zero_collar(self.mask.inside, self.s1)

    @cached_property
    def delta(self) -> float:
        return float(self.s1[self.mask.inside].min())


def require_no_common_zero(mask: RegionMask, s2: np.ndarray,
                           hint: str = "") -> None:
    """Raise CommonZeroError where sum|f_j|^2 (s2) falls to roundoff of
    its Inside maximum; hint is appended to the message."""
    dead = mask.inside & (s2 <= 1e-28 * sup_abs(s2, mask.inside))
    if dead.any():
        where = mask.coords(dead)[:5]
        raise CommonZeroError(
            f"common zero at {int(dead.sum())} node(s), first at "
            f"{list(where)}{hint}", nodes=where)


def zero_collar(inside: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Inside nodes where sum|f_j| (s1) is at most COLLAR_REL of its max."""
    return inside & (s1 <= COLLAR_REL * sup_abs(s1, inside))


def q_fields(problem: BezoutProblem, weight=None, live=None, s2=None) -> list:
    """Wolff's quotient q_j = weight conj(f_j) / s2, s2 = sum_k |f_k|^2.

    Formed on the nodes live and 0 on every other node, so
    sum_j q_j f_j = weight there; weight (default 1) is a full-grid
    array.  Without live the nodes are the Inside set and a common zero
    on any of them raises CommonZeroError; a caller passing live has
    taken it off the generators' common zeros, and passes s2 when it
    already holds it.
    """
    mask, s2 = problem.mask, problem.s2 if s2 is None else s2
    if live is None:
        require_no_common_zero(mask, s2)
        live = mask.inside
    # conj(f_j) * weight: numpy's complex product is not bitwise
    # commutative, and with the temporary on the left its in-place
    # reuse keeps this order
    return [SampledField(mask, zero_extended(
                np.conj(g.values) if weight is None
                else np.conj(g.values) * weight, s2, live))
            for g in problem.f_fields]


def _powers(z: np.ndarray, d: int) -> np.ndarray:
    # rows z^0 .. z^d of the flat points z; their conjugates are the
    # conj(z)^b rows, so one table serves every monomial
    out = np.empty((d + 1, z.size), dtype=complex)
    out[0] = 1.0
    for a in range(1, d + 1):
        out[a] = out[a - 1] * z
    return out


def _count(d: int) -> int:
    # monomials z^a conj(z)^b with a + b <= d
    return (d + 1) * (d + 2) // 2


def _pairs(s: int) -> np.ndarray:
    # a of the degree-s monomials z^a conj(z)^(s-a) with a > s - a
    return np.arange(s, s // 2, -1)


def _real_block(zp: np.ndarray, s: int) -> np.ndarray:
    # real columns spanning the degree-s monomials, from the rows of a
    # _powers table zp and their conjugates: sqrt2 Re and sqrt2 Im of
    # z^a conj(z)^b for each a > b, then |z|^s for even s.  The
    # conjugates are bound to a name: numpy would compute z^a times a
    # temporary conj(z)^b in place in the temporary, as conj(z)^b z^a,
    # and its complex product is not bitwise commutative
    k = _pairs(s).size
    zc = zp[:k + 1].conj()
    mono = zp[s:s // 2:-1] * zc[:k]
    cols = [_SQRT2 * mono.real, _SQRT2 * mono.imag]
    if s % 2 == 0:
        cols.append((zp[s // 2] * zc[s // 2]).real[None])
    return np.concatenate(cols).T


def _monomial_coefs(c: np.ndarray, d: int) -> np.ndarray:
    # rows of c weight the _real_block columns through degree d, one
    # column per field; return out[j, a, b], the weight of
    # z^a conj(z)^b in field j (0 where a + b > d), so out[j] is one
    # contiguous coefficient matrix.  The pair
    # c1 sqrt2 Re m + c2 sqrt2 Im m is C m + C' conj(m) with
    # C = (c1 - i c2)/sqrt2 and C' = (c1 + i c2)/sqrt2
    out = np.zeros((c.shape[1], d + 1, d + 1), dtype=complex)
    for s in range(d + 1):
        cb = c[_count(s - 1):_count(s)]
        hi = _pairs(s)
        c1, c2 = cb[:hi.size], cb[hi.size:2 * hi.size]
        out[:, hi, s - hi] = ((c1 - 1j * c2) / _SQRT2).T
        out[:, s - hi, hi] = ((c1 + 1j * c2) / _SQRT2).T
        if s % 2 == 0:
            out[:, s // 2, s // 2] = cb[-1]
    return out


@dataclass
class PolyZZbar:
    """Bivariate polynomial sum coef[a, b] z^a conj(z)^b, a + b <= degree.

    coef is a (degree + 1) x (degree + 1) complex matrix, 0 where
    a + b > degree.  cond is the 2-norm condition number of the fit's
    monomial matrix (NaN for a polynomial that did not come from a fit).
    """

    degree: int
    coef: np.ndarray
    sup_error: float = float("nan")
    cond: float = float("nan")

    def _on_table(self, zp: np.ndarray, zcp: np.ndarray,
                  dbar: bool = False) -> np.ndarray:
        # sum_a z^a (sum_b coef[a, b] conj(z)^b) as one matrix product
        # over a _powers table zp and its conjugate zcp; the Wirtinger
        # dbar of c z^a conj(z)^b is b c z^a conj(z)^(b-1), so dbar
        # shifts the b index down by one
        d, coef = self.degree, self.coef
        if dbar:
            coef = coef[:, 1:] * np.arange(1, d + 1)
        inner = coef @ zcp[:coef.shape[1]]
        return np.einsum("an,an->n", zp[:d + 1], inner)

    def _on_points(self, z: np.ndarray, dbars=(False,)) -> np.ndarray:
        # one row per flag of dbars, the values (False) or the dbar
        # (True) at the flat points z, all from one _powers table of the
        # fit's degree per block of NODE_BLOCK points, so no table spans
        # every point.  The last block runs to the end, so none is
        # narrower than min(z.size, NODE_BLOCK): with OpenBLAS a narrow
        # tail block (one column, say) rounds differently from one table
        out = np.empty((len(dbars), z.size), dtype=complex)
        for a, b in node_blocks(z.size, NODE_BLOCK):
            zp = _powers(z[a:b], self.degree)
            zcp = zp.conj()
            for row, dbar in zip(out, dbars):
                row[a:b] = self._on_table(zp, zcp, dbar)
        return out

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return self._on_points(z.ravel())[0].reshape(z.shape)

    def as_expr(self) -> ComplexExpr:
        # graded order: z^a conj(z)^(s - a) for s = 0 .. degree
        out = Const(0.0)
        for s in range(self.degree + 1):
            for a in range(s + 1):
                out = add(out, mul(Const(self.coef[a, s - a]),
                                   mul(intpow(Z, a), intpow(conj(Z), s - a))))
        return out


def _band(d: int, cond: float, scale: np.ndarray) -> np.ndarray:
    # the projection screen's roundoff band.  On the fit rows the
    # ladder's projection Q_p Q_p^T b and a degree-d fit's evaluated
    # values V_p c differ by the roundoff of the factorization, the
    # triangular solve and the evaluation, each rounding at most
    # eps cond(R_p) ||b||_2 (Bjorck, Numerical Methods for Least
    # Squares Problems, SIAM 1996, ch. 2); 4 (d + 1) counts the
    # roundings of the evaluation's power table, its two (d + 1)-term
    # contractions and the compared residuals.  scale holds ||b||_2 of
    # each field over the fit rows
    return 4 * (d + 1) * np.finfo(float).eps * cond * scale


def _fit_ladder(qs: list, degrees: range, target_sup: float):
    # Least-squares fits of the fields qs, which share the support of
    # qs[0], at each degree of `degrees` in turn.  Returns three lists:
    # per field, its first fit with sup error within target_sup, or else
    # the last degree's FitToleranceError; that fit's values on the
    # support nodes (mask.coords order), as measured for the sup; and
    # its analytic dbar there, None where the fit failed.  A table's
    # rows come from one recurrence per point, so the leading rows of
    # the fit rows' degree-`top` table, and a node block's table of the
    # fit's own degree, hold bitwise the powers of one table over
    # every node.
    #
    # The degree-d monomials z^a conj(z)^(d-a) are closed under
    # conjugation, so the real columns sqrt2 Re and sqrt2 Im of each
    # a > b monomial, plus |z|^d for even d, span them by a unitary
    # change of basis: the singular values, the rank rule and the
    # least-squares fit are those of the complex monomial matrix V,
    # and a complex field enters as two real right-hand sides, Re and
    # Im.  Graded order nests, so one real QR factorization of that
    # matrix, grown by one block of d + 1 columns per degree (block
    # Gram-Schmidt, projected twice, Householder within the block),
    # serves every degree and every field: a degree-d solution is a
    # triangular solve on the leading p x p block of R.
    #
    # Beyond MAX_FIT_NODES the fit runs on a stride subsample (at
    # stride 1 on every node).  One rule screens each degree: the
    # projection Q_p Q_p^T b of the fit rows' values, accumulated
    # block by block, is the fit's values there up to _band, and the
    # fit rows are support nodes, so a degree whose projected sup
    # error exceeds target_sup by more than the band must fail on
    # every node and is never evaluated.  Any other degree, and the
    # last always, is measured on every support node, its values and
    # dbar from one table per node block (PolyZZbar._on_points).
    if not degrees or degrees[0] < 0:
        raise ValueError(f"fit degrees {degrees} must be nonnegative")
    sel = qs[0].support
    m = int(sel.sum())
    first, top = degrees[0], degrees[-1]
    z = qs[0].mask.coords(sel)
    vals = [q.values[sel] for q in qs]
    stride = max(1, -(-m // MAX_FIT_NODES))
    if -(-m // stride) < _count(top):
        stride = 1
    zf = _powers(z[::stride], top)
    n = len(qs)
    vf = [v[::stride] for v in vals]
    rhs = np.stack([v.real for v in vf] + [v.imag for v in vf], axis=1)
    scale = np.array([np.linalg.norm(v) for v in vf])
    rows, cols = rhs.shape[0], _count(top)
    Q = np.empty((rows, cols), order="F")
    R = np.zeros((cols, cols))
    qv = np.empty((cols, 2 * n))  # Q^T rhs
    resid = rhs.T.copy()  # (rhs - Q Q^T rhs)^T, the projection's residual
    out, fit_values, fit_dbars = [None] * n, [None] * n, [None] * n
    for d in range(top + 1):
        pending = [j for j, fit in enumerate(out) if fit is None]
        if not pending:
            break
        p0, p = _count(d - 1), _count(d)
        if m < p:
            raise FitRankError(
                f"{m} sample node(s) cannot determine {p} coefficients")
        W = _real_block(zf, d)
        Qp = Q[:, :p0]
        for _ in range(2):
            proj = Qp.T @ W
            W = W - Qp @ proj
            R[:p0, p0:p] += proj
        Q[:, p0:p], R[p0:p, p0:p] = np.linalg.qr(W)
        qv[p0:p] = Q[:, p0:p].T @ rhs
        resid -= qv[p0:p].T @ Q[:, p0:p].T
        if d < first:
            continue
        sing = np.linalg.svd(R[:p, :p], compute_uv=False)
        # numpy lstsq's rank rule, applied to the singular values of V
        rank = int((sing > np.finfo(float).eps * max(rows, p) * sing[0]).sum())
        if rank < p:
            raise FitRankError(
                f"monomial matrix rank {rank} < {p} unknowns; "
                f"lower the degree or supply more nodes")
        cond = float(sing[0] / sing[-1])
        c = solve_triangular(R[:p, :p], qv[:p])
        coefs = _monomial_coefs(c[:, :n] + 1j * c[:, n:], d)
        # a lower bound on each field's sup error on the fit rows
        lower = np.sqrt(np.max(np.square(resid[:n]) + np.square(resid[n:]),
                               axis=1)) - _band(d, cond, scale)
        for j in pending:
            if lower[j] > target_sup and d < top:
                continue
            poly = PolyZZbar(d, coefs[j], cond=cond)
            pv, dpv = poly._on_points(z, (False, True))
            sup = float(np.abs(pv - vals[j]).max())
            if sup <= target_sup:
                poly.sup_error = sup
                out[j], fit_values[j], fit_dbars[j] = poly, pv, dpv
            elif d == top:
                out[j] = FitToleranceError(
                    f"degree-{d} fit sup error {sup:.3e} exceeds "
                    f"{target_sup:.3e}; increase degree", sup_error=sup)
    return out, fit_values, fit_dbars


def weierstrass_fit(q: SampledField, d: int, target_sup: float) -> PolyZZbar:
    """Least-squares polynomial approximation of a sampled field.

    Minimizes the l2 node error over monomials z^a conj(z)^b, then
    measures the sup error a posteriori; succeeds only if it is at most
    target_sup.  Least squares instead of a true sup-norm fit is a
    deliberate simplification: the downstream construction only needs
    the tolerance met, not optimality.  On grids beyond MAX_FIT_NODES
    the least-squares problem uses a stride subsample; the sup error is
    still measured over every support node, so the guarantee is
    unchanged.  The fit reports the condition number of its monomial
    matrix as cond.
    """
    fit = _fit_ladder([q], range(d, d + 1), target_sup)[0][0]
    if isinstance(fit, FitToleranceError):
        raise fit
    return fit


def _certified_fits(problem: BezoutProblem, max_degree: int):
    # the quotient route's fits p_j with sup error within
    # 1/(2 sum_k ||f_k||_inf), their values and analytic dbar on the
    # Inside nodes, the generators' values there and D = sum p_k f_k,
    # once |D| >= 1/2 is certified on every node
    for f in problem.f_list:
        if not isinstance(f, ComplexExpr):
            raise TypeError("the poly route needs expression generators")
    target = 1.0 / (2.0 * sum(g.max_abs() for g in problem.f_fields))
    fits, pv, dpv = _fit_ladder(q_fields(problem), range(max_degree + 1),
                                target)
    for j, fit in enumerate(fits):
        if isinstance(fit, FitToleranceError):
            raise FitToleranceError(
                f"q_{j + 1} not approximable to {target:.3e} by degree "
                f"{max_degree}; increase max_degree", sup_error=fit.sup_error)

    # f_j bound to names: numpy computes p * (temporary) in place as
    # temporary * p, and its complex product is not bitwise commutative
    mask = problem.mask
    fv = [g.values[mask.inside] for g in problem.f_fields]
    D = sum(p * f for p, f in zip(pv, fv))
    dmin = float(np.abs(D).min())
    if dmin < 0.5:
        raise ValueError(
            f"min |sum p_k f_k| = {dmin:.6f} < 1/2 although every fit met "
            f"its tolerance; the sampled sup norms are inconsistent")
    return fits, pv, dpv, fv, D


def quotient_fits(problem: BezoutProblem, max_degree: int = 16):
    """The quotient route x_j = p_j / D, D = sum p_k f_k, on the nodes.

    Fits every q_j at increasing degree, all degrees and all j on one
    growing factorization, until the sup error is within
    1/(2 sum_k ||f_k||_inf), which forces |D| >= 1/2 on the nodes, then
    certifies that lower bound.  Returns (fits, x, dbar_x): the
    PolyZZbar fits p_j and, on the Inside nodes in
    mask.coords(mask.inside) order, x_j = p_j / D and, by the quotient
    rule, dbar x_j = (dbar p_j D - p_j dbar D) / D^2 with
    dbar D = sum (dbar p_k f_k + p_k dbar f_k).  p_j and dbar p_j are
    the fit ladder's own evaluations; only the generators' dbar trees
    are sampled.
    """
    fits, pv, dpv, fv, D = _certified_fits(problem, max_degree)
    mask = problem.mask
    dfv = [sample_field(wirtinger_dbar(f), mask).values[mask.inside]
           for f in problem.f_list]
    dD = sum(dp * f + p * df for p, dp, f, df in zip(pv, dpv, fv, dfv))
    return (fits, [p / D for p in pv],
            [(dp * D - p * dD) / D ** 2 for p, dp in zip(pv, dpv)])


def bezout_poly(problem: BezoutProblem, max_degree: int = 16) -> list:
    """Quotient-route solution as expressions x_j = p_j / sum p_k f_k.

    The p_j are the certified fits of quotient_fits, taken without its
    x and dbar x.  corona_solve takes the same quotient and its dbar as
    quotient_fits evaluates them on the nodes; these expressions are
    the symbolic test oracle for that.
    """
    fits = _certified_fits(problem, max_degree)[0]
    denom = Const(0.0)
    for p, f in zip(fits, problem.f_list):
        denom = add(denom, mul(p.as_expr(), f))
    return [div(p.as_expr(), denom) for p in fits]


def smoothstep(t):
    """C^2 quintic step: 0 below 1/3, 1 above 2/3, monotone between.

    One continuous derivative of the output is all the downstream
    algebra needs, so the classical C-infinity bump is deliberately
    replaced by a branch-free polynomial.
    """
    t = np.asarray(t, dtype=float)
    u = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    return u ** 3 * (u * (6.0 * u - 15.0) + 10.0)


def _covering(problem: BezoutProblem, sel: np.ndarray, delta: float,
              epsilon: Optional[float] = None) -> tuple:
    # The covering step on the nodes sel, where delta = min sum|f_j|:
    # the bumps smoothstep(|f_j| / epsilon) and their total, as node
    # vectors of sel (row-major).  The default epsilon = delta/(2n)
    # covers every node of sel: there some |f_j| >= delta/n = 2 epsilon
    # > epsilon/3
    mask = problem.mask
    if delta <= 0:
        dead = sel & (problem.s1 == 0)
        where = mask.coords(dead)[:5]
        raise CommonZeroError(
            f"generators share a zero at {int(dead.sum())} node(s) of the "
            f"covered set, first at {list(where)}", nodes=where)
    if epsilon is None:
        epsilon = delta / (2 * problem.n)
    betas = [smoothstep(np.abs(g.values[sel]) / epsilon)
             for g in problem.f_fields]
    total = sum(betas)
    uncovered = total == 0
    if uncovered.any():
        where = mask.coords(sel)[uncovered][:5]
        raise CoveringError(
            f"epsilon = {epsilon:.4g} too large for delta = {delta:.4g}: "
            f"{int(uncovered.sum())} node(s) uncovered, first at {where}",
            nodes=where)
    return betas, total


def partition_of_unity(problem: BezoutProblem,
                       epsilon: Optional[float] = None) -> list:
    """Bump fields alpha_j with sum alpha_j = 1 on Inside nodes.

    alpha_j vanishes identically on {|f_j| <= epsilon/3}, so dividing it
    by f_j is safe.  Default epsilon = delta/(2n) guarantees coverage:
    at every node some |f_j| >= delta/n = 2 epsilon > epsilon/3.
    """
    mask = problem.mask
    betas, total = _covering(problem, mask.inside, problem.delta, epsilon)
    return [SampledField(mask, on_nodes(b / total, mask.inside, complex))
            for b in betas]


def bezout_pou(problem: BezoutProblem) -> list:
    """Covering-route solution x_j = alpha_j / f_j as sampled fields."""
    alphas = partition_of_unity(problem)
    return [SampledField(problem.mask,
                         zero_extended(a.values, g.values, a.values != 0))
            for a, g in zip(alphas, problem.f_fields)]


def generalized_division(f, problem: BezoutProblem,
                         vanish_radius: float) -> list:
    """Write f = sum g_j f_j when f dies near the common zero set.

    The common small-set is the collar {sum|f_j| <= COLLAR_REL * max};
    f must measure zero (1e-12 relative) on every node within
    vanish_radius of it.  Off that neighborhood the covering
    construction applies, and g_j = f * alpha_j / f_j, extended by
    zero, satisfies the identity node-for-node.
    """
    mask = problem.mask
    fvals = sample_field(f, mask).values
    scale_f = sup_abs(fvals, mask.inside)
    if scale_f == 0.0:
        return [SampledField(mask, np.zeros_like(fvals))
                for _ in problem.f_list]

    near = mask.near(mask.coords(problem.collar), vanish_radius)
    offending = near & (np.abs(fvals) > 1e-12 * scale_f)
    if offending.any():
        where = mask.coords(offending)[:5]
        raise VanishingError(
            f"dividend is not zero within {vanish_radius} of the common "
            f"small-set: {int(offending.sum())} node(s), first at {where}, "
            f"max |f| = {np.abs(fvals[offending]).max():.3e}", nodes=where)

    live = mask.inside & ~near
    if not live.any():
        raise CoveringError("vanish_radius swallows every node")
    betas, total = _covering(problem, live, float(problem.s1[live].min()))
    return [SampledField(mask, on_nodes(zero_extended(
                fvals[live] * b, total * g.values[live], b > 0), live))
            for b, g in zip(betas, problem.f_fields)]
