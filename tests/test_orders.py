import itertools
import random
from fractions import Fraction

import pytest

from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Poly,
    VarSet,
    parse_poly,
)
from arcspace.polyalg.orders import ecart, leading_monomial, leading_term, make_monic

from conftest import tuple_key, tuple_leading_monomial


def test_global_vs_local():
    assert GREVLEX.is_global and GRLEX.is_global and LEX.is_global
    assert ANTIGRLEX.is_local and not ANTIGRLEX.is_global


def test_one_is_smallest_globally_largest_locally():
    one = (0, 0, 0)
    x = (1, 0, 0)
    for order in (GREVLEX, GRLEX, LEX):
        assert order.key(x) > order.key(one)
    assert ANTIGRLEX.key(one) > ANTIGRLEX.key(x)


def test_antigrlex_reverses_grlex():
    rng = random.Random(3)
    for _ in range(60):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        assert ANTIGRLEX.compare(a, b) == -GRLEX.compare(a, b)


def test_grevlex_vs_grlex_disagree():
    # x*z^2 vs y^2*z: same degree; grlex prefers the lex-larger x*z^2,
    # grevlex penalizes the trailing variable harder
    a, b = (1, 0, 2), (0, 2, 1)
    assert GRLEX.compare(a, b) > 0
    assert GREVLEX.compare(a, b) < 0


def test_orders_are_semigroup_orders():
    rng = random.Random(8)
    for order in (GREVLEX, GRLEX, LEX, ANTIGRLEX):
        for _ in range(40):
            a = tuple(rng.randint(0, 3) for _ in range(3))
            b = tuple(rng.randint(0, 3) for _ in range(3))
            c = tuple(rng.randint(0, 3) for _ in range(3))
            cmp_ab = order.compare(a, b)
            shifted = order.compare(tuple(x + y for x, y in zip(a, c)),
                                    tuple(x + y for x, y in zip(b, c)))
            assert cmp_ab == shifted


def test_priority_permutation():
    reversed_lex = MonomialOrder("lex", priority=(2, 1, 0))
    assert reversed_lex.compare((1, 0, 0), (0, 0, 1)) < 0
    with pytest.raises(ValueError):
        MonomialOrder("lex", priority=(0, 0, 1))
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex")


def test_leading_data():
    vs = VarSet(["x", "y"])
    f = parse_poly("3*x^2 + y", vs)
    assert leading_monomial(f, GREVLEX) == (2, 0)
    assert leading_monomial(f, ANTIGRLEX) == (0, 1)
    assert leading_term(f, GREVLEX) == parse_poly("3*x^2", vs)
    assert make_monic(f, GREVLEX) == parse_poly("x^2 + 1/3*y", vs)
    assert ecart(f, ANTIGRLEX) == 1


def test_make_monic_returns_a_monic_input_itself():
    vs = VarSet(["x", "y"])
    f = parse_poly("x^2 - 2*y", vs)
    assert make_monic(f, GREVLEX) is f
    g = parse_poly("-2*x^2 + y", vs)
    assert make_monic(g, GREVLEX) == parse_poly("x^2 - 1/2*y", vs)
    assert make_monic(g, ANTIGRLEX) is g  # y leads locally, with coefficient 1
    h = parse_poly("x^2 + 3*y", vs)
    assert make_monic(h, ANTIGRLEX) == parse_poly("1/3*x^2 + y", vs)
    assert h == parse_poly("x^2 + 3*y", vs)  # the input is left as it was


def test_zero_polynomial_has_no_leading_term():
    vs = VarSet(["x"])
    with pytest.raises(ValueError):
        leading_monomial(Poly.zero(vs), GREVLEX)


def test_priority_must_cover_every_variable():
    # a 2-position priority on 3 variables used to ignore z: compare gave 0
    # and the leader of z + z^2 depended on the order the terms were inserted
    vs = VarSet(["x", "y", "z"])
    order = MonomialOrder("grlex", priority=(1, 0))
    for text in ("z + z^2", "z^2 + z"):
        with pytest.raises(ValueError, match="2 positions .* 3 variables"):
            leading_monomial(parse_poly(text, vs), order)
    with pytest.raises(ValueError, match="2 positions .* 3 variables"):
        order.compare((0, 0, 1), (0, 0, 2))
    with pytest.raises(ValueError, match="2 positions .* 3 variables"):
        order.key((0, 0, 1))
    with pytest.raises(ValueError, match="4 positions .* 3 variables"):
        leading_monomial(parse_poly("z", vs), MonomialOrder("lex", priority=(3, 2, 1, 0)))


@pytest.mark.parametrize("priority", [None, (2, 0, 3, 1)])
@pytest.mark.parametrize("kind", ["grevlex", "grlex", "lex", "antigrlex"])
def test_ranks_match_the_tuple_keys(kind, priority):
    """leading_monomial, ecart, key and compare against the tuple key."""
    order = MonomialOrder(kind, priority)
    vs = VarSet(["a", "b", "c", "d"])
    rng = random.Random(f"{kind}/{priority}")
    for _ in range(80):
        terms = {}
        size = rng.randint(1, 40)
        while len(terms) < size:
            terms[tuple(rng.randint(0, 4) for _ in range(4))] = Fraction(rng.randint(1, 9))
        f = Poly(vs, terms)
        lm = tuple_leading_monomial(f, order)
        assert leading_monomial(f, order) == lm
        assert leading_monomial(Poly(vs, dict(reversed(terms.items()))), order) == lm
        assert ecart(f, order) == f.total_degree() - sum(lm)
        monos = list(f.terms)
        assert sorted(monos, key=order.key) == sorted(monos, key=lambda m: tuple_key(order, m))
        for a, b in zip(monos, monos[1:] + monos[:1]):
            ka, kb = tuple_key(order, a), tuple_key(order, b)
            assert order.compare(a, b) == (ka > kb) - (ka < kb)
