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

`taylor_oracle` is an independent check: it composes truncated Taylor
series of polynomial trees (constants, z, sums, products and
non-negative integer powers) and reads the derivative off the top
coefficient, with no partition combinatorics involved.  Every caller
(the `faa --verify` battery, criterion 8 and the benchmark's chain-rule
trials) composes polynomials, and for those the series needs only sums
and truncated convolutions (Brent and Kung, J. ACM 25, 1978); the tests
check non-polynomial compositions against mpmath instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ComplexExpr, Const, IntPow, Product, Sum, Var

__all__ = [
    "MAX_ORDER", "CoefficientTable",
    "enumerate_multi_indices", "coefficient", "compose_derivative",
    "taylor_expand", "taylor_oracle",
]

MAX_ORDER = 20


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


# --- truncated Taylor oracle --------------------------------------------------


def _series(expr: ComplexExpr, var: np.ndarray) -> np.ndarray:
    # Taylor coefficients of the polynomial tree expr with z replaced by
    # the series var, truncated to len(var) terms: sums add, products
    # convolve, and a power is taken by squaring
    n = len(var)
    if isinstance(expr, Const):
        c = np.zeros(n, dtype=complex)
        c[0] = expr.value
        return c
    if isinstance(expr, Var):
        return var
    if isinstance(expr, Sum):
        acc = _series(expr.terms[0], var)
        for t in expr.terms[1:]:
            acc = acc + _series(t, var)
        return acc
    if isinstance(expr, Product):
        acc = _series(expr.factors[0], var)
        for f in expr.factors[1:]:
            acc = np.convolve(acc, _series(f, var))[:n]
        return acc
    if isinstance(expr, IntPow) and expr.exponent >= 0:
        acc = np.eye(1, n, dtype=complex)[0]
        base, e = _series(expr.base, var), expr.exponent
        while e:
            if e & 1:
                acc = np.convolve(acc, base)[:n]
            base = np.convolve(base, base)[:n]
            e >>= 1
        return acc
    raise ValueError("taylor oracle takes polynomial trees only; "
                     f"{type(expr).__name__} node {expr} found")


def taylor_expand(expr: ComplexExpr, x, n: int) -> np.ndarray:
    """Taylor coefficients of the polynomial tree expr around x up to
    order n (0 allowed): entry k multiplies (t - x)^k."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    var = np.zeros(n + 1, dtype=complex)
    var[0] = x
    var[1:2] = 1.0
    return _series(expr, var)


def taylor_oracle(f: ComplexExpr, g: ComplexExpr, x, n: int) -> complex:
    """n-th derivative of f o g at x from truncated Taylor series.

    n = 0 returns plain f(g(x)).  For n >= 1 both trees must be
    polynomial (see the module docstring).
    """
    if n == 0:
        return complex(f.eval(complex(g.eval(complex(x)))))
    n = _check_order(n)
    F = _series(f, taylor_expand(g, x, n))
    return complex(F[n] * math.factorial(n))
