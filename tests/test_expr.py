"""Expression trees: evaluation, Wirtinger calculus, parsing, probes."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbarkit.expr import (MAX_NESTING, S, Z, Conj, Const, ExprParseError,
                          IntPow, PoleError, Sum, add, as_callable, conj, const, div,
                          directional_limit_probe, exp, intpow, is_conj_free,
                          log, mobius, mul, parse_expr, sub, wirtinger_d,
                          wirtinger_dbar)
from strategies import POLY_TREES

POINTS = [0.3 + 0.4j, -0.5 + 0.1j, 0.2 - 0.7j, 0.9j]


# ------------------------------------------------------------- evaluation


def test_basic_nodes_evaluate():
    assert Z.eval(2 + 3j) == 2 + 3j
    assert const(5).eval(1j) == 5
    assert conj(Z).eval(2 + 3j) == 2 - 3j
    assert S.eval(0j) == pytest.approx(math.exp(-1))


def test_array_evaluation_matches_scalar():
    e = add(mul(Z, conj(Z)), exp(Z))
    pts = np.array(POINTS)
    arr = e.eval(pts)
    assert arr.shape == pts.shape
    for k, p in enumerate(POINTS):
        assert arr[k] == pytest.approx(e.eval(p))


def test_operator_sugar():
    e = (2 * Z + 1) / (1 - Z) ** 2
    z = 0.5j
    assert e.eval(z) == pytest.approx((2 * z + 1) / (1 - z) ** 2)
    assert (-Z).eval(1j) == -1j
    assert (1 / Z).eval(2j) == pytest.approx(1 / 2j)


def test_coercion_rejects_garbage():
    with pytest.raises(TypeError):
        add(Z, "not an expression")
    with pytest.raises(TypeError, match="callable"):
        as_callable(42)


# ----------------------------------------------------- smart constructors


def test_constant_folding():
    assert add(const(2), const(3)) == Const(5 + 0j)
    assert mul(const(2), const(3), Z).factors[0] == Const(6 + 0j)
    assert mul(const(0), S) == Const(0j)
    assert intpow(const(2), 10) == Const(1024 + 0j)
    assert conj(const(1 + 2j)) == Const(1 - 2j)


def test_sum_flattening():
    e = add(add(Z, Z), Z)
    assert isinstance(e, Sum) and len(e.terms) == 3


def test_intpow_identities():
    assert intpow(Z, 0) == Const(1 + 0j)
    assert intpow(Z, 1) is Z
    assert isinstance(intpow(Z, 3), IntPow)
    with pytest.raises(TypeError, match="integer"):
        intpow(Z, 1.5)


def test_div_simplifications():
    assert div(const(0), Z) == Const(0j)
    assert div(Z, const(1)) is Z
    with pytest.raises(ZeroDivisionError):
        div(Z, const(0))


def test_conj_involution():
    assert conj(conj(Z)) is Z
    assert isinstance(conj(mul(Z, Z)), Conj)


def test_mobius_rejects_degenerate():
    with pytest.raises(ValueError, match="ad - bc"):
        mobius(1, 2, 2, 4, Z)


# ------------------------------------------------------------ pole errors


@pytest.mark.parametrize("expr, at", [
    (div(const(1), Z), 0j),
    (log(sub(Z, const(1))), 1 + 0j),
    (S, 1 + 0j),
    (intpow(Z, -2), 0j),
    (mobius(1, 0, 1, -1, Z), 1 + 0j),
])
def test_pole_errors_carry_location(expr, at):
    with pytest.raises(PoleError) as err:
        expr.eval(at)
    assert err.value.at == at
    # arrays hit the same guard
    with pytest.raises(PoleError):
        expr.eval(np.array([0.5j, at]))


# ------------------------------------------------------ conj-free scanner


def test_is_conj_free():
    assert is_conj_free(div(exp(mul(Z, Z)), sub(const(1), Z)))
    assert is_conj_free(S)
    assert not is_conj_free(conj(Z))
    assert not is_conj_free(mul(Z, add(const(1), conj(Z))))
    assert not is_conj_free(div(const(1), conj(Z)))


# ------------------------------------------------------- differentiation


def wirtinger_fd(e, z, h=1e-6):
    """Central-difference Wirtinger pair (d, dbar) at z."""
    fx = (e.eval(z + h) - e.eval(z - h)) / (2 * h)
    fy = (e.eval(z + 1j * h) - e.eval(z - 1j * h)) / (2 * h)
    return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2


MIXED_TREES = [
    mul(Z, conj(Z)),
    add(intpow(Z, 3), mul(const(2j), conj(intpow(Z, 2)))),
    div(conj(Z), add(const(2), Z)),
    exp(mul(Z, conj(Z))),
    mul(S, conj(Z)),
    log(add(const(3), mul(Z, conj(Z)))),
    mobius(1, 1j, 0.5, 2, intpow(Z, 2)),
]


@pytest.mark.parametrize("e", MIXED_TREES, ids=str)
def test_derivatives_match_finite_differences(e):
    de, dbe = wirtinger_d(e), wirtinger_dbar(e)
    for z in POINTS:
        fd_d, fd_db = wirtinger_fd(e, z)
        assert de.eval(z) == pytest.approx(fd_d, rel=1e-5, abs=1e-7)
        assert dbe.eval(z) == pytest.approx(fd_db, rel=1e-5, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(POLY_TREES, st.complex_numbers(max_magnitude=1, allow_nan=False,
                                  allow_infinity=False))
def test_wirtinger_pair_matches_central_differences(e, z):
    fd_d, fd_db = wirtinger_fd(e, z)
    # central differences lose about 1e-10 of the value scale to
    # roundoff and h^2 times the third derivative to truncation
    scale = 1 + max(abs(e.eval(z + s)) for s in (1e-6, -1e-6, 1e-6j, -1e-6j))
    assert abs(wirtinger_d(e).eval(z) - fd_d) <= 1e-6 * scale
    assert abs(wirtinger_dbar(e).eval(z) - fd_db) <= 1e-6 * scale


def test_dbar_annihilates_conj_free_trees():
    for e in (intpow(Z, 5), exp(Z), div(const(1), sub(const(1), Z)), S,
              mobius(2, 1, 1, 3, Z)):
        assert wirtinger_dbar(e) == Const(0j)


def test_hand_derivatives():
    assert wirtinger_d(conj(Z)) == Const(0j)
    assert wirtinger_dbar(conj(Z)) == Const(1 + 0j)
    # d(z conj z) = conj z, dbar(z conj z) = z
    e = mul(Z, conj(Z))
    z = 0.3 - 0.2j
    assert wirtinger_d(e).eval(z) == pytest.approx(np.conj(z))
    assert wirtinger_dbar(e).eval(z) == pytest.approx(z)


def test_atomic_inner_derivative_multiplier():
    # S' = S * (-2)/(1-z)^2
    ds = wirtinger_d(S)
    z = 0.4 + 0.3j
    assert ds.eval(z) == pytest.approx(S.eval(z) * (-2) / (1 - z) ** 2)


def test_second_dbar_of_z_conj_z_squared():
    # dbar^2 (z conj(z)^2) = 2z, constant in conj(z)
    e = mul(Z, intpow(conj(Z), 2))
    d2 = wirtinger_dbar(wirtinger_dbar(e))
    assert d2.eval(0.25j) == pytest.approx(0.5j)


# -------------------------------------------------- S and mobius builders

# points of the disk |z| <= 3 more than 1e-2 from S's pole at z = 1, so
# |(1 + z)/(1 - z)| <= 400 and no exponential overflows
OFF_POLE = st.complex_numbers(max_magnitude=3, allow_nan=False,
                              allow_infinity=False).filter(
                                  lambda z: abs(1 - z) > 1e-2)
COEFFS = st.complex_numbers(max_magnitude=2, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(OFF_POLE, min_size=1, max_size=16))
def test_inner_function_is_its_closed_form(zs):
    # the composed tree runs the closed form's own operations
    z = np.array(zs)
    assert np.array_equal(S.eval(z), np.exp(-(1 + z) / (1 - z)))
    for w in zs:
        assert S.eval(w) == np.exp(-(1 + w) / (1 - w))


@settings(max_examples=60, deadline=None)
@given(COEFFS, COEFFS, COEFFS, COEFFS, POLY_TREES, OFF_POLE)
@example(0j, 1 + 0j, 1 + 0j, 0j, add(Z, conj(Z)), 2.225073858507203e-309 + 0j)
def test_mobius_is_its_closed_form(a, b, c, d, g, z):
    assume(abs(a * d - b * c) > 1e-3)
    gz = g.eval(z)
    den = c * gz + d
    assume(abs(den) > 1e-3 * (abs(c * gz) + abs(d)))
    # a subnormal denominator (the example above) sends the closed form
    # itself past the float range; there is nothing to compare
    with np.errstate(over="ignore", invalid="ignore"):
        want = (a * gz + b) / den
    assume(np.isfinite(want))
    assert mobius(a, b, c, d, g).eval(z) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(OFF_POLE)
def test_inner_function_derivative_closed_form(z):
    assert wirtinger_d(S).eval(z) == pytest.approx(
        -2 * S.eval(z) / (1 - z) ** 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(COEFFS, COEFFS, COEFFS, COEFFS,
       st.complex_numbers(max_magnitude=1, allow_nan=False,
                          allow_infinity=False))
def test_mobius_derivative_closed_form(a, b, c, d, z):
    # d mobius(g) = (ad - bc) g'/(cg + d)^2 with g = exp(z), so g' = g;
    # the quotient rule's cancellation stays at roundoff while ad - bc
    # is not small against the coefficients
    g = np.exp(z)
    assume(abs(a * d - b * c) > 0.5 and abs(c * g + d) > 0.1)
    want = (a * d - b * c) * g / (c * g + d) ** 2
    assert wirtinger_d(mobius(a, b, c, d, exp(Z))).eval(z) == pytest.approx(
        want, rel=1e-12)


def test_builders_print_their_composition():
    assert str(S) == "exp(div(mul(-1,add(z,1)),add(mul(-1,z),1)))"
    for e in (S, mobius(1, 1j, 0.5, 2, intpow(Z, 2)),
              mobius(2, -1, 1j, 3, conj(Z))):
        assert parse_expr(str(e)) == e


# ----------------------------------------------------------------- parser


CASES = [
    ("z", 0.3 + 0.1j, 0.3 + 0.1j),
    ("i", 0j, 1j),
    ("-2.5", 0j, -2.5),
    ("1e-3", 0j, 1e-3),
    ("cplx(1,-2)", 0j, 1 - 2j),
    ("add(z, 1, i)", 2j, 1 + 3j),
    ("mul(sub(1, z), S)", 0j, math.exp(-1)),
    ("pow(z, 3)", 2j, -8j),
    ("pow(z, -1)", 2j, -0.5j),
    ("div(conj(z), z)", 1j, -1),
    ("neg(exp(0))", 0j, -1),
    ("log(exp(1))", 0j, 1),
    ("mobius(1, 0, 0, 1, z)", 3j, 3j),
    ("  add( z ,\t2 ) ", 1j, 2 + 1j),
]


@pytest.mark.parametrize("text, at, want", CASES, ids=[c[0] for c in CASES])
def test_parser_evaluates(text, at, want):
    assert parse_expr(text).eval(at) == pytest.approx(want)


# text, the fragment naming the case, the exact message, the position
PARSE_ERRORS = [
    ("frob(z)", "unknown function", "unknown function 'frob'", 0),
    ("add(z)", "takes >= 2 arguments", "add takes >= 2 arguments, got 1", 0),
    ("div(z, z, z)", "takes 2 arguments", "div takes 2 arguments, got 3", 0),
    ("pow(z, z)", "integer literal",
     "pow exponent must be an integer literal", 7),
    ("pow(z, 1.5)", "integer literal",
     "pow exponent must be an integer literal", 7),
    ("cplx(z, 1)", "real number literals",
     "cplx takes two real number literals", 5),
    ("mobius(z, 0, 0, 1, z)", "must be constants",
     "mobius coefficients must be constants", 7),
    ("mobius(1, 2, 2, 4, z)", "ad - bc",
     "degenerate Moebius map: ad - bc = 0", 0),
    ("add(1, 2) z", "trailing input", "trailing input 'z'", 10),
    ("mul(1, ", "expected expression", "expected expression, found None", 7),
    ("@", "unexpected character", "unexpected character '@'", 0),
    ("add(1; 2)", "unexpected character", "unexpected character ';'", 5),
    ("", "expected expression", "expected expression, found None", 0),
    ("exp z", "expected '('", "expected '(', found 'z'", 4),
    ("add(1 2)", "expected ',' or ')'", "expected ',' or ')', found '2'", 6),
    # literals past the float range, at the literal
    ("pow(z, 1e400)", "float range", "constant out of float range", 7),
    ("add(z, 1e400)", "float range", "constant out of float range", 7),
    # the builder's own errors, at the form's name
    ("div(z, 0)", "zero denominator", "constant zero denominator", 0),
    ("div(1, sub(1, 1))", "zero denominator", "constant zero denominator", 0),
    ("pow(0, -1)", "negative power", "0.0 to a negative or complex power", 0),
    ("pow(2, 1e20)", "overflow", "complex exponentiation", 0),
    ("pow(1e200, 2)", "overflow", "complex exponentiation", 0),
    # constants folded past the float range, at the form's name: the
    # constant itself, a sum's term and a product's factor
    ("mul(1e200, 1e200)", "float range", "constant out of float range", 0),
    ("mul(cplx(1e200, 1e200), cplx(1e200, 1e200))", "float range",
     "constant out of float range", 0),
    ("add(z, 1e308, 1e308)", "float range", "constant out of float range", 0),
    ("add(1, mul(z, div(z, 1e-320)))", "float range",
     "constant out of float range", 14),
]


@pytest.mark.parametrize("text, message, pos",
                         [(t, m, p) for t, _, m, p in PARSE_ERRORS],
                         ids=[f"{t}-{f}" for t, f, _, _ in PARSE_ERRORS])
def test_parser_errors_are_positioned(text, message, pos):
    with pytest.raises(ExprParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_nesting_stops_one_level_past_the_cap():
    # MAX_NESTING levels of forms or minus signs parse; the first token
    # one level deeper is the error's position
    m = MAX_NESTING
    assert parse_expr("neg(" * m + "z" + ")" * m).eval(0.5) == 0.5
    assert parse_expr("-" * m + "z").eval(0.5) == 0.5
    for text, pos in [("neg(" * (m + 1) + "z" + ")" * (m + 1), 4 * m + 4),
                      ("-" * (m + 1) + "z", m + 1)]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert str(err.value) == (f"expression nested deeper than {m} "
                                  f"levels (at position {pos})")


def test_non_finite_constants_print():
    assert str(mul(Const(1e200), Const(1e200), Z)) == "mul(inf,z)"
    assert str(Const(complex(math.nan, 1.0))) == "cplx(nan,1)"
    assert str(Const(complex(1.0, -math.inf))) == "cplx(1,-inf)"
    err = PoleError(div(Z, mul(Const(1e200), Const(1e200), Z)), 0j)
    assert str(err) == "pole of div(z,mul(inf,z)) hit at z = 0j"


def test_parse_error_position_points_at_offender():
    with pytest.raises(ExprParseError) as err:
        parse_expr("add(z, frob(z))")
    assert err.value.pos == 7


def test_str_reparses_to_same_function():
    for e in MIXED_TREES + [parse_expr(c[0]) for c in CASES]:
        back = parse_expr(str(e))
        assert back == e
        for z in POINTS:
            assert back.eval(z) == pytest.approx(e.eval(z), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(POLY_TREES)
def test_print_parse_roundtrip(t):
    # add and mul leave the constant of a sum or product they flatten
    # where it stood (mul(z, mul(2, z)) is mul(z,2,z)), and parsing that
    # text folds it (mul(2,z,z)); so a drawn tree parses back to the same
    # function, and its reparse is a fixed point of print and parse
    e = parse_expr(str(t))
    assert parse_expr(str(e)) == e
    for z in POINTS:
        assert e.eval(z) == pytest.approx(t.eval(z), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6),
       st.complex_numbers(max_magnitude=2, allow_nan=False,
                          allow_infinity=False))
def test_polynomial_roundtrip(coeffs, z):
    e = add(*[mul(const(c), intpow(Z, k)) for k, c in enumerate(coeffs)])
    want = sum(c * z ** k for k, c in enumerate(coeffs))
    assert e.eval(z) == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert parse_expr(str(e)).eval(z) == pytest.approx(want, rel=1e-9, abs=1e-9)


# ------------------------------------------------------ directional probe


def test_probe_detects_disagreeing_limits():
    rep = directional_limit_probe(div(conj(Z), Z), 0j, (1, 1j),
                                  (0.1, 0.05, 0.025, 0.0125))
    assert rep.tail_means[0] == pytest.approx(1.0)
    assert rep.tail_means[1] == pytest.approx(-1.0)
    assert rep.limits_disagree
    assert rep.skipped == []


def test_probe_agreement_for_smooth_function():
    rep = directional_limit_probe(intpow(Z, 2), 0j, (1, 1j, -1),
                                  (0.1, 0.05, 0.025, 0.0125, 0.00625))
    assert not rep.limits_disagree
    assert all(s <= rep.tol for s in rep.tail_spreads)


def test_probe_records_pole_hits():
    f = div(const(1), sub(Z, const(0.9)))
    rep = directional_limit_probe(f, 1 + 0j, (-1,), (0.2, 0.1, 0.05))
    assert rep.samples[0][1] is None
    assert len(rep.skipped) == 1
    assert rep.skipped[0][1] == 0.1


def test_probe_radial_vs_tangential_inner_factor():
    # toward the singular boundary point, every interior ray settles at 0
    # while the along-circle samples keep unit modulus and never settle
    radii = tuple(2.0 ** -k for k in range(3, 11))
    rays = directional_limit_probe(S, 1 + 0j, (-1, -1 + 0.5j), radii)
    assert rays.tail_means[0] == pytest.approx(0.0, abs=1e-12)
    assert rays.tail_means[1] == pytest.approx(0.0, abs=1e-12)
    assert not rays.limits_disagree
    circle = [complex(np.exp(1j * t)) for t in (0.1, 0.05, 0.025)]
    assert all(abs(S.eval(w)) == pytest.approx(1.0) for w in circle)
