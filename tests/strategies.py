"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from dbarkit.expr import Z, add, conj, const, intpow, mul

# pole-free trees: polynomials in z and conj(z) built from the
# constructors, small enough that central differences stay accurate
POLY_TREES = st.recursive(
    st.one_of(st.just(Z), st.just(conj(Z)),
              st.complex_numbers(max_magnitude=2, allow_nan=False,
                                 allow_infinity=False).map(const)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: mul(*ts)),
        st.tuples(kids, st.integers(0, 3)).map(lambda t: intpow(*t))),
    max_leaves=6)
