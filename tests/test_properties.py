"""Property-based checks of the polynomial ring with hypothesis.

The ring axioms, the Leibniz rule for ``partial`` and ``substitute`` as a ring
homomorphism are checked on generated polynomials over Q in x, y, z, and so is
Mora's initial ideal against the brute-force truncation oracle.  The runs are
derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arcspace.polyalg import Poly, VarSet, initial_ideal  # noqa: E402
from arcspace.polyalg.oracles import initial_ideal_mismatches  # noqa: E402

VS = VarSet(["x", "y", "z"])

checked = settings(max_examples=60, deadline=None, derandomize=True)

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys(max_exponent: int = 3, max_terms: int = 4):
    monomials = st.tuples(*[st.integers(0, max_exponent)] * len(VS))
    return st.dictionaries(monomials, coefficients, max_size=max_terms).map(
        lambda terms: Poly(VS, terms))


variables = st.sampled_from([v.name for v in VS])
# each value a constant or a small polynomial; a left-out variable stays
substitutions = st.dictionaries(variables, coefficients | polys(1, 3), max_size=len(VS))


@checked
@given(polys(), polys(), polys())
def test_addition_is_a_commutative_group(f, g, h):
    zero = Poly.zero(VS)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f + zero == f
    assert f + (-f) == zero == f - f
    assert f - g == f + (-g)


@checked
@given(polys(), polys(), polys(), coefficients)
def test_multiplication_is_a_commutative_monoid_that_distributes(f, g, h, c):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * Poly.one(VS) == f
    assert (f * Poly.zero(VS)).is_zero()
    assert f * (g + h) == f * g + f * h
    assert f.scale(c) == f * Poly.const(VS, c)


@checked
@given(polys(), polys(), variables)
def test_partial_obeys_the_leibniz_rule(f, g, v):
    assert (f * g).partial(v) == f.partial(v) * g + f * g.partial(v)
    assert (f + g).partial(v) == f.partial(v) + g.partial(v)


@checked
@given(polys(2, 3), polys(2, 3), substitutions, coefficients)
def test_substitute_is_a_ring_homomorphism(f, g, mapping, c):
    def phi(p):
        return p.substitute(mapping)

    assert phi(f + g) == phi(f) + phi(g)
    assert phi(f * g) == phi(f) * phi(g)
    assert phi(Poly.const(VS, c)) == Poly.const(VS, c)
    assert phi(Poly.one(VS)) == Poly.one(VS)


# no constant term, total degree <= 3, at most 3 terms: larger cubic systems
# can run Mora for minutes within its budget
local_monomials = st.tuples(*[st.integers(0, 3)] * len(VS)).filter(
    lambda m: 1 <= sum(m) <= 3)
local_polys = st.dictionaries(local_monomials, coefficients.filter(bool),
                              min_size=1, max_size=3).map(lambda terms: Poly(VS, terms))


@checked
@given(st.lists(local_polys, min_size=1, max_size=2))
def test_mora_initial_ideal_agrees_with_the_truncation_oracle(gens):
    assert initial_ideal_mismatches(gens, initial_ideal(gens), 4) == []
