"""Higher-order chain rule with exact integer coefficients.

The n-th derivative of a composition expands as

    (f o g)^(n) = sum_{j=1..n} f^(j)(g) * sum_{|k| = n, len(k) = j} C(n,k) * g^(k)

where k runs over ordered multi-indices (integer partitions of n
written in non-increasing order), g^(k) = prod_i g^(k_i), and

    C(n,k) = n! / (k_1! ... k_j!) / prod_m mult(k, m)!

with mult(k, m) the number of parts of k equal to m.  Coefficients are
exact Python integers.  Orders above 20 are rejected: the factorials
leave the range where downstream float consumers stay exact, and no
shipped experiment needs them.

`taylor_oracle` is an independent check: it propagates truncated Taylor
polynomials through expression trees (holomorphic nodes only) and reads
the derivative off the top coefficient, with no partition combinatorics
involved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (ComplexExpr, Conj, Const, Exp, IntPow, Log, PoleError,
                   Product, Quotient, Sum, Var)

__all__ = [
    "MAX_ORDER", "OrderedMultiIndex", "CoefficientTable",
    "enumerate_multi_indices", "coefficient", "compose_derivative",
    "TaylorPoly", "taylor_expand", "taylor_oracle",
]

MAX_ORDER = 20

OrderedMultiIndex = tuple  # non-increasing tuple of positive ints


def _check_order(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise ValueError(
            f"order {n} exceeds the supported maximum {MAX_ORDER}; "
            "coefficients would outgrow exact float interop")
    return n


def enumerate_multi_indices(n: int) -> list:
    """All ordered multi-indices of total n, lexicographically
    descending: (n), (n-1,1), ..., (1,...,1)."""
    n = _check_order(n)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def coefficient(n: int, k: Sequence[int]) -> int:
    """Exact coefficient C(n,k) for the ordered multi-index k."""
    n = _check_order(n)
    k = tuple(int(p) for p in k)
    if sum(k) != n:
        raise ValueError(f"multi-index {k} does not sum to {n}")
    if any(p < 1 for p in k):
        raise ValueError(f"multi-index parts must be positive: {k}")
    if list(k) != sorted(k, reverse=True):
        raise ValueError(f"multi-index must be non-increasing: {k}")
    c = math.factorial(n)
    for p in k:
        c //= math.factorial(p)
    for m in set(k):
        c //= math.factorial(k.count(m))
    return c


@dataclass(frozen=True)
class CoefficientTable:
    """All multi-indices of order n with their coefficients."""

    n: int
    entries: tuple  # ((multi_index, coefficient), ...) in enumeration order

    @classmethod
    @functools.cache
    def build(cls, n: int) -> "CoefficientTable":
        """The table of order n, built once per order (tables are
        immutable)."""
        ks = enumerate_multi_indices(n)
        return cls(n, tuple((k, coefficient(n, k)) for k in ks))

    def total(self) -> int:
        """Sum of all coefficients (a Bell number)."""
        return sum(c for _, c in self.entries)

    def __len__(self):
        return len(self.entries)


def compose_derivative(f_derivs: Sequence[complex],
                       g_derivs: Sequence[complex], n: int) -> complex:
    """n-th derivative of f o g at a point from derivative lists.

    Parameters
    ----------
    f_derivs : f'(g(x)), f''(g(x)), ..., at least n entries
    g_derivs : g'(x), g''(x), ..., at least n entries
    n : derivative order, 1 <= n <= MAX_ORDER
    """
    n = _check_order(n)
    if len(f_derivs) < n or len(g_derivs) < n:
        raise ValueError(f"need at least {n} derivatives of f and of g")
    acc = 0
    for k, term in CoefficientTable.build(n).entries:
        for p in k:
            term = term * g_derivs[p - 1]
        acc = acc + term * f_derivs[len(k) - 1]
    return acc


# --- truncated Taylor arithmetic ---------------------------------------------


class TaylorPoly:
    """Truncated Taylor polynomial: coeffs[k] multiplies (t - x)^k."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=complex)

    @property
    def order(self):
        return len(self.c) - 1

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, x, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = x
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def __add__(self, other):
        return TaylorPoly(self.c + other.c)

    def __mul__(self, other):
        n = len(self.c)
        return TaylorPoly(np.convolve(self.c, other.c)[:n])

    def divide(self, other, node=None, at=None):
        b = other.c
        if b[0] == 0:
            raise PoleError(node if node is not None else Const(0j),
                            at if at is not None else 0j)
        n = len(self.c)
        q = np.zeros(n, dtype=complex)
        for k in range(n):
            s = self.c[k]
            for m in range(1, k + 1):
                s -= b[m] * q[k - m]
            q[k] = s / b[0]
        return TaylorPoly(q)

    def intpow(self, k, node=None, at=None):
        n = self.order
        if k == 0:
            return TaylorPoly.constant(1.0, n)
        if k < 0:
            return TaylorPoly.constant(1.0, n).divide(self, node, at).intpow(-k)
        acc = TaylorPoly.constant(1.0, n)
        base, e = self, k
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def expseries(self):
        a = self.c
        n = len(a)
        e = np.zeros(n, dtype=complex)
        e[0] = np.exp(a[0])
        for k in range(1, n):
            s = 0j
            for m in range(1, k + 1):
                s += m * a[m] * e[k - m]
            e[k] = s / k
        return TaylorPoly(e)

    def logseries(self, node=None, at=None):
        a = self.c
        if a[0] == 0:
            raise PoleError(node if node is not None else Const(0j),
                            at if at is not None else 0j)
        n = len(a)
        L = np.zeros(n, dtype=complex)
        L[0] = np.log(a[0])
        for k in range(1, n):
            s = k * a[k]
            for m in range(1, k):
                s -= m * L[m] * a[k - m]
            L[k] = s / (k * a[0])
        return TaylorPoly(L)


def _taylor_eval(expr: ComplexExpr, var: TaylorPoly, at) -> TaylorPoly:
    if isinstance(expr, Const):
        return TaylorPoly.constant(expr.value, var.order)
    if isinstance(expr, Var):
        return var
    if isinstance(expr, Conj):
        raise ValueError("taylor oracle handles holomorphic trees only; "
                         "conj node found")
    if isinstance(expr, Sum):
        acc = _taylor_eval(expr.terms[0], var, at)
        for t in expr.terms[1:]:
            acc = acc + _taylor_eval(t, var, at)
        return acc
    if isinstance(expr, Product):
        acc = _taylor_eval(expr.factors[0], var, at)
        for f in expr.factors[1:]:
            acc = acc * _taylor_eval(f, var, at)
        return acc
    if isinstance(expr, Quotient):
        num = _taylor_eval(expr.num, var, at)
        den = _taylor_eval(expr.den, var, at)
        return num.divide(den, expr, at)
    if isinstance(expr, IntPow):
        return _taylor_eval(expr.base, var, at).intpow(expr.exponent, expr, at)
    if isinstance(expr, Exp):
        return _taylor_eval(expr.arg, var, at).expseries()
    if isinstance(expr, Log):
        return _taylor_eval(expr.arg, var, at).logseries(expr, at)
    raise TypeError(f"unknown node {type(expr).__name__}")


def taylor_expand(expr: ComplexExpr, x, n: int) -> TaylorPoly:
    """Taylor coefficients of expr around x up to order n (0 allowed)."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    var = TaylorPoly.variable(complex(x), n)
    return _taylor_eval(expr, var, complex(x))


def taylor_oracle(f: ComplexExpr, g: ComplexExpr, x, n: int) -> complex:
    """n-th derivative of f o g at x via truncated Taylor arithmetic.

    n = 0 returns plain f(g(x)).  Both trees must be conj-free.
    """
    if n == 0:
        return complex(f.eval(complex(g.eval(complex(x)))))
    n = _check_order(n)
    G = taylor_expand(g, x, n)
    F = _taylor_eval(f, G, complex(x))
    return complex(F.c[n] * math.factorial(n))
