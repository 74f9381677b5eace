"""Symbolic complex expressions with Wirtinger calculus.

Expression trees are built from the variable z, complex constants,
conj, sums, products, quotients, integer powers, exp and log (principal
branch); one node class per primitive.  Compound maps are builders over
these: `mobius(a, b, c, d, g)` returns the quotient (a g + b)/(c g + d),
and the atomic inner function

    S(z) = exp(-(1 + z)/(1 - z))

is the module constant `S`, the standard example of a bounded
holomorphic function on the unit disk whose modulus tends to 0 along
the radius toward 1 while staying 1 on the rest of the circle.  Their
evaluation, poles, derivatives and Taylor series all come from the
primitive nodes, and `str` prints the composition.

The two first-order operators are the Wirtinger derivatives

    d   = (d/dx - i d/dy)/2      (holomorphic direction)
    dbar = (d/dx + i d/dy)/2     (anti-holomorphic direction)

A tree containing no conj node is annihilated by dbar; this is checked
syntactically by `is_conj_free` and falls out of the derivative rules,
which produce a literal zero tree after constant folding.

Trees are immutable; the smart constructors (`add`, `mul`, ...) fold
constants for readability but perform no other rewriting.
"""

from __future__ import annotations

import cmath
import re as _re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ComplexExpr", "Const", "Var", "Conj", "Sum", "Product", "Quotient",
    "IntPow", "Exp", "Log",
    "Z", "S", "add", "sub", "mul", "div", "neg", "intpow", "exp", "log",
    "conj", "mobius", "const",
    "PoleError", "ExprParseError",
    "evaluate", "wirtinger_d", "wirtinger_dbar", "is_conj_free",
    "as_callable", "parse_expr", "directional_limit_probe", "DirectionalProbe",
]


class PoleError(ArithmeticError):
    """A denominator or a log argument vanished at an evaluation point.
    Carries the offending subtree and one point."""

    def __init__(self, node: "ComplexExpr", at: complex):
        self.node = node
        self.at = at
        super().__init__(f"pole of {node} hit at z = {at}")


class ExprParseError(ValueError):
    """Parse failure with a character position into the source text."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


def _fmt_complex(c: complex) -> str:
    def fmt_real(x: float) -> str:
        # the range test first: int() raises on inf and nan, which repr
        # prints
        if abs(x) < 1e15 and x == int(x):
            return str(int(x))
        return repr(x)

    if c.imag == 0:
        return fmt_real(c.real)
    return f"cplx({fmt_real(c.real)},{fmt_real(c.imag)})"


class ComplexExpr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    def eval(self, z):
        """Evaluate at a complex scalar or ndarray.

        Raises PoleError if any point hits a declared singular set
        (a zero denominator, such as S's at z = 1, or log(0)).
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._ev(np.asarray(z, dtype=complex) if not np.isscalar(z) else z)

    def _ev(self, z):
        raise NotImplementedError

    # operator sugar: useful when building test cases by hand
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, k):
        return intpow(self, k)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        raise NotImplementedError

    def __repr__(self):
        return str(self)


def _as_expr(x) -> ComplexExpr:
    if isinstance(x, ComplexExpr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise TypeError(f"cannot coerce {x!r} to ComplexExpr")


@dataclass(frozen=True, repr=False)
class Const(ComplexExpr):
    value: complex

    def _ev(self, z):
        if np.isscalar(z):
            return self.value
        return np.full(np.shape(z), self.value, dtype=complex)

    def __str__(self):
        return _fmt_complex(self.value)


@dataclass(frozen=True, repr=False)
class Var(ComplexExpr):
    def _ev(self, z):
        return z

    def __str__(self):
        return "z"


@dataclass(frozen=True, repr=False)
class Conj(ComplexExpr):
    arg: ComplexExpr

    def _ev(self, z):
        return np.conjugate(self.arg._ev(z))

    def __str__(self):
        return f"conj({self.arg})"


@dataclass(frozen=True, repr=False)
class Sum(ComplexExpr):
    terms: tuple

    def _ev(self, z):
        acc = self.terms[0]._ev(z)
        for t in self.terms[1:]:
            acc = acc + t._ev(z)
        return acc

    def __str__(self):
        return "add(" + ",".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True, repr=False)
class Product(ComplexExpr):
    factors: tuple

    def _ev(self, z):
        acc = self.factors[0]._ev(z)
        for f in self.factors[1:]:
            acc = acc * f._ev(z)
        return acc

    def __str__(self):
        return "mul(" + ",".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True, repr=False)
class Quotient(ComplexExpr):
    num: ComplexExpr
    den: ComplexExpr

    def _ev(self, z):
        d = self.den._ev(z)
        if np.any(d == 0):
            raise PoleError(self, _first_hit(z, d == 0))
        return self.num._ev(z) / d

    def __str__(self):
        return f"div({self.num},{self.den})"


@dataclass(frozen=True, repr=False)
class IntPow(ComplexExpr):
    base: ComplexExpr
    exponent: int

    def _ev(self, z):
        b = self.base._ev(z)
        if self.exponent < 0 and np.any(b == 0):
            raise PoleError(self, _first_hit(z, b == 0))
        return b ** self.exponent

    def __str__(self):
        return f"pow({self.base},{self.exponent})"


@dataclass(frozen=True, repr=False)
class Exp(ComplexExpr):
    arg: ComplexExpr

    def _ev(self, z):
        return np.exp(self.arg._ev(z))

    def __str__(self):
        return f"exp({self.arg})"


@dataclass(frozen=True, repr=False)
class Log(ComplexExpr):
    """Principal branch; the cut along the negative real axis of the
    argument is documented, not tracked."""

    arg: ComplexExpr

    def _ev(self, z):
        a = self.arg._ev(z)
        if np.any(a == 0):
            raise PoleError(self, _first_hit(z, a == 0))
        return np.log(a)

    def __str__(self):
        return f"log({self.arg})"


def _first_hit(z, hits) -> complex:
    if np.isscalar(z):
        return complex(z)
    return complex(np.asarray(z)[np.asarray(hits)].flat[0])


Z = Var()


def const(c) -> Const:
    return Const(complex(c))


def add(*terms) -> ComplexExpr:
    flat = []
    acc = 0j
    for t in map(_as_expr, terms):
        if isinstance(t, Const):
            acc += t.value
        elif isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if acc != 0 or not flat:
        flat.append(Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def neg(x) -> ComplexExpr:
    return mul(Const(-1.0 + 0j), _as_expr(x))


def sub(a, b) -> ComplexExpr:
    return add(_as_expr(a), neg(b))


def mul(*factors) -> ComplexExpr:
    flat = []
    acc = 1.0 + 0j
    for f in map(_as_expr, factors):
        if isinstance(f, Const):
            acc *= f.value
        elif isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if acc == 0:
        # drops sibling pole sets; fine for derivative trees, where the
        # vanished factor makes the whole term vanish off the pole set
        return Const(0j)
    if acc != 1 or not flat:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def div(a, b) -> ComplexExpr:
    a, b = _as_expr(a), _as_expr(b)
    if isinstance(a, Const) and a.value == 0:
        return Const(0j)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        if b.value == 1:
            return a
        return mul(Const(1.0 / b.value), a)
    return Quotient(a, b)


def intpow(base, k) -> ComplexExpr:
    base = _as_expr(base)
    if not isinstance(k, (int, np.integer)):
        raise TypeError("intpow exponent must be an integer")
    k = int(k)
    if k == 0:
        return Const(1.0 + 0j)
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** k)
    return IntPow(base, k)


def exp(arg) -> ComplexExpr:
    return Exp(_as_expr(arg))


def log(arg) -> ComplexExpr:
    return Log(_as_expr(arg))


def conj(arg) -> ComplexExpr:
    arg = _as_expr(arg)
    if isinstance(arg, Const):
        return Const(arg.value.conjugate())
    if isinstance(arg, Conj):
        return arg.arg
    return Conj(arg)


def mobius(a, b, c, d, arg) -> ComplexExpr:
    """The Moebius map (a*arg + b)/(c*arg + d) as a quotient tree."""
    a, b, c, d = (complex(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("degenerate Moebius map: ad - bc = 0")
    return div(add(mul(a, arg), b), add(mul(c, arg), d))


S = exp(div(neg(add(1, Z)), sub(1, Z)))


def evaluate(expr: ComplexExpr, z):
    """Functional form of expr.eval."""
    return expr.eval(z)


def is_conj_free(expr: ComplexExpr) -> bool:
    """True when no conj node occurs anywhere in the tree.  Such trees
    are holomorphic off their pole sets and dbar kills them."""
    if isinstance(expr, Conj):
        return False
    for name in ("arg", "num", "den", "base"):
        sub_ = getattr(expr, name, None)
        if sub_ is not None and not is_conj_free(sub_):
            return False
    for name in ("terms", "factors"):
        subs = getattr(expr, name, None)
        if subs is not None and not all(is_conj_free(t) for t in subs):
            return False
    return True


def wirtinger_d(expr: ComplexExpr) -> ComplexExpr:
    """Holomorphic Wirtinger derivative as a new tree."""
    return _wirtinger(expr, bar=False)


def wirtinger_dbar(expr: ComplexExpr) -> ComplexExpr:
    """Anti-holomorphic Wirtinger derivative as a new tree."""
    return _wirtinger(expr, bar=True)


def _wirtinger(expr: ComplexExpr, bar: bool) -> ComplexExpr:
    # d (bar False) or dbar (bar True); the two rules differ only at z
    # (d z = 1, dbar z = 0) and at conj, which swaps them.  Subtrees
    # recurse through the public names.
    deriv = wirtinger_dbar if bar else wirtinger_d
    if isinstance(expr, Const):
        return Const(0j)
    if isinstance(expr, Var):
        return Const(0j if bar else 1.0 + 0j)
    if isinstance(expr, Conj):
        return conj((wirtinger_d if bar else wirtinger_dbar)(expr.arg))
    if isinstance(expr, Sum):
        return add(*[deriv(t) for t in expr.terms])
    if isinstance(expr, Product):
        return _product_rule(expr.factors, deriv)
    if isinstance(expr, Quotient):
        return _quotient_rule(expr, deriv)
    if isinstance(expr, IntPow):
        return mul(Const(complex(expr.exponent)),
                   intpow(expr.base, expr.exponent - 1),
                   deriv(expr.base))
    if isinstance(expr, Exp):
        return mul(expr, deriv(expr.arg))
    if isinstance(expr, Log):
        return div(deriv(expr.arg), expr.arg)
    raise TypeError(f"unknown node {type(expr).__name__}")


def _product_rule(factors, deriv):
    terms = []
    for i in range(len(factors)):
        rest = factors[:i] + factors[i + 1:]
        terms.append(mul(deriv(factors[i]), *rest))
    return add(*terms)


def _quotient_rule(expr, deriv):
    f, g = expr.num, expr.den
    return div(sub(mul(deriv(f), g), mul(f, deriv(g))), intpow(g, 2))


def as_callable(f) -> Callable:
    """Adapt an expression or a plain callable to a point function."""
    if isinstance(f, ComplexExpr):
        return f.eval
    if callable(f):
        return f
    raise TypeError("expected ComplexExpr or callable")


# directional_limit_probe: a ray settles over its last _PROBE_TAIL
# samples, and _PROBE_TOL bounds both settledness and disagreement
_PROBE_TAIL = 3
_PROBE_TOL = 1e-3


@dataclass
class DirectionalProbe:
    """Samples of a function along rays toward a point.

    samples[d][k] is the value at z0 + radii[k]*directions[d], or None
    where evaluation hit a pole (recorded in `skipped`).  The tail of a
    ray is its last few non-None samples; `limits_disagree` is set when
    two rays have internally settled tails (spread <= tol) whose means
    differ by more than tol.
    """

    z0: complex
    directions: tuple
    radii: tuple
    tol: float
    samples: list
    skipped: list
    tail_means: list
    tail_spreads: list
    limits_disagree: bool


def directional_limit_probe(f, z0, directions, radii) -> DirectionalProbe:
    """Probe directional limits of f at z0.

    Parameters
    ----------
    f : ComplexExpr or callable
    z0 : complex
    directions : sequence of complex (normalized internally)
    radii : decreasing sequence of positive floats
    """
    fn = as_callable(f)
    z0 = complex(z0)
    dirs = tuple(complex(d) / abs(complex(d)) for d in directions)
    radii = tuple(float(r) for r in radii)
    samples, skipped = [], []
    for d in dirs:
        row = []
        for r in radii:
            zp = z0 + r * d
            try:
                row.append(complex(fn(zp)))
            except PoleError as err:
                row.append(None)
                skipped.append((d, r, str(err)))
        samples.append(row)

    tail_means, tail_spreads = [], []
    for row in samples:
        vals = [v for v in row if v is not None][-_PROBE_TAIL:]
        if not vals:
            tail_means.append(None)
            tail_spreads.append(None)
            continue
        tail_means.append(sum(vals) / len(vals))
        tail_spreads.append(max(abs(a - b) for a in vals for b in vals))

    disagree = False
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            mi, mj = tail_means[i], tail_means[j]
            if mi is None or mj is None:
                continue
            if (tail_spreads[i] <= _PROBE_TOL
                    and tail_spreads[j] <= _PROBE_TOL
                    and abs(mi - mj) > _PROBE_TOL):
                disagree = True
    return DirectionalProbe(z0, dirs, radii, _PROBE_TOL, samples, skipped,
                            tail_means, tail_spreads, disagree)


# --- parser -----------------------------------------------------------------
#
# Prefix functional syntax, e.g.  mul(sub(1,z),S)
#
#   expr   := NUMBER | '-' expr | 'z' | 'i' | 'S' | form
#   form   := NAME '(' expr (',' expr)* ')'      NAME a key of _FORMS
#
# Whitespace is insignificant.  A _FORMS row gives a name its least and
# most argument counts (None: no most), its builder and, for three
# names, a literal rule: pow's exponent must fold to an integer
# constant, cplx's two parts to real constants, and mobius's first four
# coefficients to constants.  Constants stay finite.  A form's argument
# and a minus sign's operand sit one level deeper than the form or sign;
# MAX_NESTING levels are allowed, which keeps the recursive parser, and
# the evaluators and derivative layers that walk the tree, well inside
# Python's recursion limit.  Every error is an ExprParseError with a
# position:
#   - an unexpected character, a token out of place, an unknown name or
#     a broken literal rule, at the offending character or token;
#   - an expression nested deeper than MAX_NESTING levels, at its first
#     token;
#   - a wrong argument count, at the form's name;
#   - a ValueError, ZeroDivisionError or OverflowError of the builder
#     (a constant zero denominator, a degenerate Moebius map, a
#     constant power past the float range), at the form's name;
#   - a number literal past the float range, at the literal, and a
#     constant that a form folds past it, at the form's name.

_TOKEN = _re.compile(r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                     r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                     r"|(?P<punct>[(),-])|(?P<bad>\S)")
_ATOMS = {"z": Z, "i": Const(1j), "S": S}
MAX_NESTING = 100
# name: (least, most, builder[, rule's argument indices, test, message]);
# the builder receives the values of a rule's constants in their place
_FORMS = {
    "add": (2, None, add), "sub": (2, 2, sub), "mul": (2, None, mul),
    "div": (2, 2, div), "neg": (1, 1, neg), "exp": (1, 1, exp),
    "log": (1, 1, log), "conj": (1, 1, conj),
    "pow": (2, 2, lambda b, k: intpow(b, int(k.real)), (1,),
            lambda c: c.imag == 0 and c.real.is_integer(),
            "pow exponent must be an integer literal"),
    "cplx": (2, 2, lambda a, b: Const(complex(a.real, b.real)), (0, 1),
             lambda c: c.imag == 0, "cplx takes two real number literals"),
    "mobius": (5, 5, mobius, (0, 1, 2, 3), lambda c: True,
               "mobius coefficients must be constants"),
}


def _finite(e: ComplexExpr, pos: int) -> ComplexExpr:
    # a form folds constants into the node it returns or into that
    # node's own terms or factors; deeper ones were checked when built
    for c in (e, *getattr(e, "terms", ()), *getattr(e, "factors", ())):
        if isinstance(c, Const) and not cmath.isfinite(c.value):
            raise ExprParseError("constant out of float range", pos)
    return e


def parse_expr(text: str) -> ComplexExpr:
    """Parse the prefix expression syntax of the comment above this
    function; every error is an ExprParseError with a character
    position."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ExprParseError(f"unexpected character {m.group()!r}",
                                 m.start())
        toks.append((m.lastgroup, m.group(), m.start()))
    toks.append((None, None, len(text)))
    k = 0

    def expr(depth: int) -> ComplexExpr:
        nonlocal k
        kind, val, pos = toks[k]
        if depth > MAX_NESTING:
            raise ExprParseError(
                f"expression nested deeper than {MAX_NESTING} levels", pos)
        k += 1
        if kind == "num":
            return _finite(Const(complex(float(val))), pos)
        if val == "-":
            return neg(expr(depth + 1))
        if val in _ATOMS:
            return _ATOMS[val]
        if kind != "name":
            raise ExprParseError(f"expected expression, found {val!r}", pos)
        if val not in _FORMS:
            raise ExprParseError(f"unknown function {val!r}", pos)
        name, name_pos = val, pos
        lo, hi, build, *rule = _FORMS[name]
        _, val, pos = toks[k]
        k += 1
        if val != "(":
            raise ExprParseError(f"expected '(', found {val!r}", pos)
        args, at = [], []
        while not args or val == ",":
            at.append(toks[k][2])
            args.append(expr(depth + 1))
            _, val, pos = toks[k]
            k += 1
        if val != ")":
            raise ExprParseError(f"expected ',' or ')', found {val!r}", pos)
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = f">= {lo}" if hi is None else str(lo)
            raise ExprParseError(
                f"{name} takes {want} arguments, got {len(args)}", name_pos)
        if rule:
            which, test, message = rule
            for j in which:
                if not (isinstance(args[j], Const) and test(args[j].value)):
                    raise ExprParseError(message, at[j])
                args[j] = args[j].value
        try:
            e = build(*args)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise ExprParseError(str(err), name_pos) from None
        return _finite(e, name_pos)

    e = expr(0)
    kind, val, pos = toks[k]
    if kind is not None:
        raise ExprParseError(f"trailing input {val!r}", pos)
    return e
