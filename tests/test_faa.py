"""Higher-order chain rule: combinatorics against independent oracles.

The coefficient tables are cross-checked three ways: hand-expanded
low-order formulas, classical integer sequences (partition counts and
Bell numbers, both recomputed here from their recurrences), and
routes that involve no partition enumeration at all: truncated Taylor
series (faa.taylor_oracle) on polynomial compositions, and mpmath's
numerical differentiation at 40 digits on exp, log and quotient chains.
"""

import math

import mpmath
import numpy as np
import pytest

from dbarkit.expr import Z, add, conj, const, div, exp, intpow, log, mul, sub
from dbarkit.faa import (MAX_ORDER, CoefficientTable, coefficient,
                         compose_derivative, enumerate_multi_indices,
                         taylor_expand, taylor_oracle)


def partition_counts(top):
    # Euler's recurrence via the dense DP
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            p[total] += p[total - part]
    return p


def bell_numbers(top):
    # Bell triangle
    row = [1]
    out = [1]
    for _ in range(top):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out  # out[n] = B_n, out[0] = B_0 = 1


def mp_derivative(fn, x, n):
    """n-th derivative of the holomorphic fn at x by mpmath.diff at 40
    digits; fn is written by hand with mpmath functions."""
    with mpmath.workdps(40):
        return complex(mpmath.diff(fn, mpmath.mpc(x), n))


# ----------------------------------------------------------- enumeration


def test_multi_indices_order_5():
    assert enumerate_multi_indices(5) == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_multi_index_counts_are_partition_numbers(n):
    ks = enumerate_multi_indices(n)
    assert len(ks) == partition_counts(n)[n]
    assert all(sum(k) == n for k in ks)
    assert all(tuple(sorted(k, reverse=True)) == k for k in ks)
    assert ks == sorted(ks, reverse=True)  # lexicographically descending


def test_order_validation():
    with pytest.raises(ValueError, match=">= 1"):
        enumerate_multi_indices(0)
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        enumerate_multi_indices(MAX_ORDER + 1)


# ---------------------------------------------------------- coefficients


def test_hand_coefficients_order_4():
    want = {(4,): 1, (3, 1): 4, (2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}
    assert {k: coefficient(4, k) for k in enumerate_multi_indices(4)} == want


def test_coefficient_input_validation():
    with pytest.raises(ValueError, match="does not sum"):
        coefficient(4, (3, 2))
    with pytest.raises(ValueError, match="positive"):
        coefficient(4, (5, -1))
    with pytest.raises(ValueError, match="non-increasing"):
        coefficient(4, (1, 3))


@pytest.mark.parametrize("n", range(1, 13))
def test_table_totals_are_bell_numbers(n):
    table = CoefficientTable.build(n)
    assert table.total() == bell_numbers(12)[n]
    assert len(table) == partition_counts(12)[n]


def test_low_bell_numbers():
    assert CoefficientTable.build(4).total() == 15
    assert CoefficientTable.build(5).total() == 52


# --------------------------------------------------- compose_derivative


def test_low_order_closed_forms():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert compose_derivative(f, g, 1) == pytest.approx(f[0] * g[0])
    assert compose_derivative(f, g, 2) == pytest.approx(
        f[1] * g[0] ** 2 + f[0] * g[1])
    assert compose_derivative(f, g, 3) == pytest.approx(
        f[2] * g[0] ** 3 + 3 * f[1] * g[0] * g[1] + f[0] * g[2])


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_identity_compositions(n):
    rng = np.random.default_rng(n)
    derivs = list(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    # g = identity: composition derivative is f^(n)
    g_id = [1.0] + [0.0] * (n - 1)
    assert compose_derivative(derivs, g_id, n) == pytest.approx(derivs[-1])
    # f = identity: composition derivative is g^(n)
    f_id = [1.0] + [0.0] * (n - 1)
    assert compose_derivative(f_id, derivs, n) == pytest.approx(derivs[-1])


def test_compose_requires_enough_derivatives():
    with pytest.raises(ValueError, match="at least 3"):
        compose_derivative([1.0, 2.0], [1.0, 2.0, 3.0], 3)


def test_exp_of_square_hand_check():
    # (e^{x^2})'' = e^{x^2} (2 + 4 x^2), by hand and by mpmath
    x = 0.3 + 0.2j
    fg = np.exp(x ** 2)
    f_derivs = [fg, fg]          # exp is its own derivative, at g(x)
    g_derivs = [2 * x, 2.0]
    got = compose_derivative(f_derivs, g_derivs, 2)
    assert got == pytest.approx(fg * (2 + 4 * x ** 2))
    want = mp_derivative(lambda z: mpmath.exp(z ** 2), x, 2)
    assert abs(got - want) <= 1e-12 * abs(want)


# ------------------------------------------------------ truncated Taylor


def test_taylor_expand_known_series():
    # (1 + z)^k about x: coefficient j is C(k, j) (1 + x)^(k - j)
    x = 0.5 - 0.25j
    for k in (0, 1, 5, 12):
        got = taylor_expand(intpow(add(const(1), Z), k), x, 8)
        want = [math.comb(k, j) * (1 + x) ** (k - j) for j in range(9)]
        assert got == pytest.approx(want, rel=1e-14)
    # (1 - z)(1 + z + ... + z^8) = 1 - z^9, truncated at order 6 about 0
    geo = add(*[intpow(Z, j) for j in range(9)])
    got = taylor_expand(mul(sub(const(1), Z), geo), 0j, 6)
    assert got == pytest.approx([1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="exceeds"):
        taylor_expand(Z, 0j, MAX_ORDER + 1)


@pytest.mark.parametrize("n", [-1, -3])
def test_taylor_expand_rejects_negative_order(n):
    with pytest.raises(ValueError, match=f"order must be >= 0, got {n}"):
        taylor_expand(Z, 0j, n)


def test_taylor_expand_order_zero_is_the_value():
    p = add(const(2), mul(const(3j), intpow(Z, 3)))
    assert taylor_expand(p, 1 + 1j, 0) == pytest.approx([p.eval(1 + 1j)])


def test_oracle_rejects_conj_and_handles_n0():
    with pytest.raises(ValueError, match="Conj node conj"):
        taylor_oracle(conj(Z), Z, 0.5, 2)
    # order 0 evaluates f(g(x)) for any tree
    assert taylor_oracle(exp(Z), intpow(Z, 2), 2.0, 0) == pytest.approx(
        math.exp(4.0))


@pytest.mark.parametrize("f", [exp(Z), log(add(const(2), Z)),
                               div(const(1), sub(const(2), Z)),
                               intpow(sub(const(2), Z), -2)],
                         ids=["Exp", "Log", "Quotient", "IntPow"])
def test_oracle_rejects_non_polynomial_nodes_by_name(f):
    name = type(f).__name__
    with pytest.raises(ValueError, match=f"polynomial trees only; {name} node"):
        taylor_oracle(f, Z, 0.5, 2)
    with pytest.raises(ValueError, match=f"{name} node"):
        taylor_oracle(Z, f, 0.5, 2)


def test_oracle_hand_value():
    # ((x^2 + 1)^3)'' = 6 (x^2 + 1)^2 + 24 x^2 (x^2 + 1)
    x = 0.3
    want = 6 * (x ** 2 + 1) ** 2 + 24 * x ** 2 * (x ** 2 + 1)
    got = taylor_oracle(intpow(Z, 3), add(intpow(Z, 2), const(1)), x, 2)
    assert got == pytest.approx(want, rel=1e-14)


# ------------------------------------------- non-polynomial chains, mpmath


@pytest.mark.parametrize("n", range(1, 13))
def test_routes_agree_on_log_compose_mobius(n):
    # f = log(2 + w), g = (z + i)/(2 - z), both from closed-form
    # derivative lists; mpmath differentiates the composition itself
    x = 0.25 - 0.1j
    gx = (x + 1j) / (2 - x)
    # log(2+w): n-th derivative (-1)^(n-1) (n-1)! / (2+w)^n
    f_derivs = [(-1) ** (k - 1) * math.factorial(k - 1) / (2 + gx) ** k
                for k in range(1, n + 1)]
    # (z+i)/(2-z) = -1 + (2+i)/(2-z): n-th derivative (2+i) n! / (2-z)^(n+1)
    g_derivs = [(2 + 1j) * math.factorial(k) / (2 - x) ** (k + 1)
                for k in range(1, n + 1)]
    got = compose_derivative(f_derivs, g_derivs, n)
    want = mp_derivative(lambda z: mpmath.log(2 + (z + 1j) / (2 - z)), x, n)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_faa_on_inner_function_matches_series():
    # S = exp(-(1+z)/(1-z)): the table route from closed-form pieces
    # against mpmath's sixth derivative of S at 0
    n, x = 6, 0.0
    w = np.exp(-(1 + x) / (1 - x))
    # -(1+z)/(1-z) = 1 - 2/(1-z): n-th derivative -2 n! / (1-z)^(n+1)
    g_derivs = [-2.0 * math.factorial(k) / (1 - x) ** (k + 1)
                for k in range(1, n + 1)]
    got = compose_derivative([w] * n, g_derivs, n)
    want = mp_derivative(lambda z: mpmath.exp(-(1 + z) / (1 - z)), x, n)
    assert abs(got - want) <= 1e-12 * abs(want)
