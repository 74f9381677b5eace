"""Higher-order chain rule: combinatorics against independent oracles.

The coefficient tables are cross-checked three ways: hand-expanded
low-order formulas, classical integer sequences (partition counts and
Bell numbers, both recomputed here from their recurrences), and the
truncated-Taylor route that involves no partition enumeration at all.
"""

import math

import numpy as np
import pytest

from dbarkit.expr import (Z, PoleError, add, conj, const, div, exp, intpow,
                          log, mul, sub)
from dbarkit.faa import (MAX_ORDER, CoefficientTable, TaylorPoly, coefficient,
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
    # (e^{x^2})'' = e^{x^2} (2 + 4 x^2)
    x = 0.3 + 0.2j
    fg = np.exp(x ** 2)
    f_derivs = [fg, fg]          # exp is its own derivative, at g(x)
    g_derivs = [2 * x, 2.0]
    assert compose_derivative(f_derivs, g_derivs, 2) == pytest.approx(
        fg * (2 + 4 * x ** 2))


# ------------------------------------------------------ truncated Taylor


def test_taylor_poly_arithmetic():
    x = TaylorPoly.variable(0j, 5)
    sq = x * x
    assert sq.c == pytest.approx([0, 0, 1, 0, 0, 0])
    geo = TaylorPoly.constant(1.0, 5).divide(TaylorPoly([1, -1, 0, 0, 0, 0]))
    assert geo.c == pytest.approx(np.ones(6))


def test_taylor_expseries_and_logseries():
    t = TaylorPoly([0, 1, 0, 0, 0, 0])
    assert t.expseries().c == pytest.approx(
        [1 / math.factorial(k) for k in range(6)])
    one_plus = TaylorPoly([1, 1, 0, 0, 0, 0])
    want = [0] + [(-1) ** (k + 1) / k for k in range(1, 6)]
    assert one_plus.logseries().c == pytest.approx(want)


def test_taylor_negative_power():
    inv = TaylorPoly([1, 1, 0, 0]).intpow(-2)
    # (1+t)^-2 = 1 - 2t + 3t^2 - 4t^3 + ...
    assert inv.c == pytest.approx([1, -2, 3, -4])


def test_taylor_divide_pole():
    with pytest.raises(PoleError):
        TaylorPoly([1, 0, 0]).divide(TaylorPoly([0, 1, 0]))


def test_taylor_expand_known_series():
    e = taylor_expand(exp(Z), 0j, 6)
    assert e.c == pytest.approx([1 / math.factorial(k) for k in range(7)])
    g = taylor_expand(div(const(1), sub(const(1), Z)), 0j, 8)
    assert g.c == pytest.approx(np.ones(9))
    shifted = taylor_expand(exp(Z), 1 + 0j, 4)
    assert shifted.c == pytest.approx(
        [math.e / math.factorial(k) for k in range(5)])
    with pytest.raises(ValueError, match="exceeds"):
        taylor_expand(exp(Z), 0j, MAX_ORDER + 1)


@pytest.mark.parametrize("n", [-1, -3])
def test_taylor_expand_rejects_negative_order(n):
    with pytest.raises(ValueError, match=f"order must be >= 0, got {n}"):
        taylor_expand(exp(Z), 0j, n)


def test_taylor_expand_order_zero_is_the_value():
    assert taylor_expand(exp(Z), 1 + 0j, 0).c == pytest.approx([math.e])


def test_oracle_rejects_conj_and_handles_n0():
    with pytest.raises(ValueError, match="conj node"):
        taylor_oracle(conj(Z), Z, 0.5, 2)
    assert taylor_oracle(exp(Z), intpow(Z, 2), 2.0, 0) == pytest.approx(
        math.exp(4.0))


def test_oracle_hand_value():
    # (e^{x^2})'' at x = 0.3: e^{x^2} (2 + 4 x^2)
    x = 0.3
    want = math.exp(x ** 2) * (2 + 4 * x ** 2)
    assert taylor_oracle(exp(Z), intpow(Z, 2), x, 2) == pytest.approx(want)


# --------------------------------------------------------- route cross-check


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_routes_agree_on_log_compose_mobius(n):
    # f = log(2 + z), g = (z + i)/(2 - z); both are infinitely
    # differentiable near x, and neither route sees the other's math
    f = log(add(const(2), Z))
    g = div(add(Z, const(1j)), sub(const(2), Z))
    x = 0.25 - 0.1j
    gx = complex(g.eval(x))

    # closed-form derivative lists
    # log(2+w): n-th derivative (-1)^(n-1) (n-1)! / (2+w)^n
    f_derivs = [(-1) ** (k - 1) * math.factorial(k - 1) / (2 + gx) ** k
                for k in range(1, n + 1)]
    # (z+i)/(2-z) = -1 + (2+i)/(2-z): n-th derivative (2+i) n! / (2-z)^(n+1)
    g_derivs = [(2 + 1j) * math.factorial(k) / (2 - x) ** (k + 1)
                for k in range(1, n + 1)]

    via_table = compose_derivative(f_derivs, g_derivs, n)
    via_taylor = taylor_oracle(f, g, x, n)
    assert via_table == pytest.approx(via_taylor, rel=1e-10)


def test_faa_on_inner_function_matches_series():
    # S is the composed tree exp(-(1+z)/(1-z)), so the Taylor oracle
    # reaches it through its Exp and Quotient branches; compare the n-th
    # derivative at 0 from the table route with closed-form pieces of
    # exp o (-(1+z)/(1-z)) assembled by hand
    n = 6
    x = 0.0
    inner = div(mul(const(-1), add(const(1), Z)), sub(const(1), Z))
    gx = complex(inner.eval(x))
    w = np.exp(gx)
    f_derivs = [w] * n
    # -(1+z)/(1-z) = 1 - 2/(1-z): n-th derivative -2 n! / (1-z)^(n+1)
    g_derivs = [-2.0 * math.factorial(k) / (1 - x) ** (k + 1)
                for k in range(1, n + 1)]
    from dbarkit.expr import S
    assert compose_derivative(f_derivs, g_derivs, n) == pytest.approx(
        taylor_oracle(S, Z, x, n), rel=1e-12)
