import itertools

import pytest

from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    Poly,
    VarSet,
    groebner_basis,
    monomial_dim,
    parse_poly,
    reduces_to_zero,
    spolynomial,
)
from arcspace.polyalg.groebner import minimalize
from arcspace.polyalg.orders import leading_monomial


@pytest.fixture
def vs():
    return VarSet(["x", "y"])


def test_already_reduced_pair(vs):
    basis = groebner_basis([parse_poly("x", vs), parse_poly("y", vs)], GREVLEX)
    assert sorted(str(g) for g in basis) == ["x", "y"]


def test_zero_ideal(vs):
    assert groebner_basis([Poly.zero(vs)], GREVLEX) == []


def test_local_order_rejected(vs):
    from arcspace.polyalg import ANTIGRLEX

    with pytest.raises(ValueError):
        groebner_basis([parse_poly("x", vs)], ANTIGRLEX)


def quotient_monomials_by_exhaustion(lms, nvars, bound=12):
    """Enumerate standard monomials (not divisible by any leading monomial)."""
    from arcspace.polyalg.poly import monomial_divides

    found = []
    for mono in itertools.product(range(bound), repeat=nvars):
        if not any(monomial_divides(lm, mono) for lm in lms):
            found.append(mono)
            if len(found) > 10_000:
                raise AssertionError("quotient not finite within the bound")
    return found


def test_zero_dimensional_example(vs):
    gens = [parse_poly("x^2 - y", vs), parse_poly("y^2 - x", vs)]
    basis = groebner_basis(gens, GREVLEX)
    # ideal membership of the input generators: zero normal form
    for g in gens:
        assert reduces_to_zero(g, basis, GREVLEX)
    lms = [leading_monomial(g, GREVLEX) for g in basis]
    assert monomial_dim(lms, 2) == 0
    # oracle: the quotient has a finite monomial basis, found by exhaustion
    standard = quotient_monomials_by_exhaustion(lms, 2)
    assert 1 <= len(standard) <= 16
    assert (0, 0) in standard


@pytest.mark.parametrize("order", [GREVLEX, GRLEX, LEX])
def test_spolynomial_post_check(order):
    vs = VarSet(["x", "y", "z"])
    gens = [
        parse_poly("x^2 + y*z - 1", vs),
        parse_poly("x*z - y", vs),
        parse_poly("y^2 - z", vs),
    ]
    basis = groebner_basis(gens, order)
    for g in gens:
        assert reduces_to_zero(g, basis, order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spolynomial(basis[i], basis[j], order)
            assert reduces_to_zero(s, basis, order)


def test_reduced_basis_is_deterministic(vs):
    gens = [parse_poly("x^3 - 2*x*y", vs), parse_poly("x^2*y - 2*y^2 + x", vs)]
    b1 = groebner_basis(gens, GREVLEX)
    b2 = groebner_basis(list(reversed(gens)), GREVLEX)
    assert [str(g) for g in b1] == [str(g) for g in b2]


def test_minimalize_drops_proper_divisors_under_every_order(vs):
    # the local order ranks x above x^2, so a scan by order key would meet
    # the divisor last; the scan by degree meets it first under every order
    x, x2 = parse_poly("x", vs), parse_poly("x^2", vs)
    for order in (ANTIGRLEX, GREVLEX, GRLEX, LEX):
        assert minimalize([x, x2], order) == [x]
        assert minimalize([x2, x], order) == [x]
