"""Property-based checks of the polynomial ring with hypothesis.

The ring axioms, the Leibniz rule for ``partial`` and ``substitute`` as a ring
homomorphism are checked on generated polynomials over Q in x, y, z, and so is
Mora's initial ideal against the brute-force truncation oracle.  The
fraction-free division kernel is checked against the copy-per-step reference
loops of ``test_reduction``.  The runs are derandomized, so every run draws
the same examples.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arcspace.errors import ResourceLimitError  # noqa: E402
from arcspace.polyalg import (  # noqa: E402
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Poly,
    VarSet,
    initial_ideal,
    mora_normal_form,
    normal_form,
)
from arcspace.polyalg.groebner import _Budget  # noqa: E402
from arcspace.polyalg.oracles import initial_ideal_mismatches  # noqa: E402
from arcspace.polyalg.orders import leading_monomial  # noqa: E402

from test_reduction import reference_mora_normal_form, reference_normal_form  # noqa: E402

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


# coefficients with denominators 1-7, and leading coefficients that are
# integers other than 1 and -1: the division kernel's scaled steps
fractions_to_7 = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
non_units = st.integers(-6, 6).filter(lambda c: abs(c) > 1)


@st.composite
def reducers(draw, order, monomials):
    """A polynomial of 2-4 terms whose leading coefficient is a non-unit."""
    terms = draw(st.dictionaries(monomials, fractions_to_7, min_size=2, max_size=4))
    terms[leading_monomial(Poly(VS, terms), order)] = draw(non_units)
    return Poly(VS, terms)


def _outcome(reduce, budget):
    try:
        return reduce(), budget.remaining
    except ResourceLimitError:
        return "exhausted", budget.remaining


def fraction_polys(monomials, max_terms):
    return st.dictionaries(monomials, fractions_to_7, min_size=3, max_size=max_terms).map(
        lambda terms: Poly(VS, terms))


GLOBAL_ORDERS = [GREVLEX, GRLEX, LEX, MonomialOrder("grevlex", (2, 0, 1))]
# reducers of degree <= 2 divide many terms of a dividend of degree <= 4
small_monomials = st.tuples(*[st.integers(0, 2)] * len(VS)).filter(lambda m: sum(m) <= 2)
dividend_monomials = st.tuples(*[st.integers(0, 3)] * len(VS)).filter(lambda m: sum(m) <= 4)


@checked
@given(st.sampled_from(GLOBAL_ORDERS), st.data())
def test_normal_form_equals_the_copy_per_step_loop(order, data):
    f = data.draw(fraction_polys(dividend_monomials, 8))
    basis = data.draw(st.lists(reducers(order, small_monomials), min_size=2, max_size=3))
    budget, ref_budget = _Budget(), _Budget()
    assert normal_form(f, basis, order, budget) \
        == reference_normal_form(f, basis, order, ref_budget)
    assert budget.remaining == ref_budget.remaining


# Mora's weak normal form can take many steps on some draws; both loops must
# then run out of this budget at the same step
MORA_WORK = 4_000


@checked
@given(st.data())
def test_mora_normal_form_equals_the_copy_per_step_loop(data):
    f = data.draw(fraction_polys(local_monomials, 6))
    basis = data.draw(st.lists(reducers(ANTIGRLEX, local_monomials), min_size=2, max_size=3))
    budget, ref_budget = _Budget(MORA_WORK), _Budget(MORA_WORK)
    assert _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=budget), budget) \
        == _outcome(lambda: reference_mora_normal_form(f, basis, ANTIGRLEX, ref_budget, []),
                    ref_budget)
