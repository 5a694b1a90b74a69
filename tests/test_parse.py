import random

import pytest

from arcspace.errors import NegativeExponentError, ParseError, UnknownVariableError
from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    LEX,
    Poly,
    VarSet,
    parse_poly,
    poly_to_string,
)

from conftest import random_poly


@pytest.fixture
def vs():
    return VarSet(["x0", "x1", "x2", "x3"])


def test_two_term_quadric(vs):
    p = parse_poly("x0*x3 + x1*x2", vs)
    assert len(p.terms) == 2
    assert p.coefficient((1, 0, 0, 1)) == 1
    assert p.coefficient((0, 1, 1, 0)) == 1


def test_power_zero_is_one():
    vs = VarSet(["x"])
    assert parse_poly("x^0", vs) == Poly.one(vs)


def test_cancellation_gives_empty_term_map():
    vs = VarSet(["x"])
    assert parse_poly("2/3*x^2 - 2/3*x^2", vs).terms == {}


def test_rational_literals():
    from fractions import Fraction

    vs = VarSet(["x"])
    p = parse_poly("-7/2 + 3*x", vs)
    assert p.constant_term() == Fraction(-7, 2)


def test_jet_variable_names():
    vs = VarSet(["x0_3", "y_1"])
    p = parse_poly("x0_3 * y_1", vs)
    assert p.total_degree() == 2


def test_unknown_variable_reports_name_and_position(vs):
    with pytest.raises(UnknownVariableError) as err:
        parse_poly("x0 + bogus", vs)
    assert err.value.name == "bogus"
    assert err.value.position == 5


def test_syntax_error_reports_position(vs):
    with pytest.raises(ParseError) as err:
        parse_poly("x0 + ", vs)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x0 x1", vs)  # implicit multiplication not in the grammar
    with pytest.raises(ParseError):
        parse_poly("x0 / x1", vs)  # division only inside rational literals


def test_negative_exponent(vs):
    with pytest.raises(NegativeExponentError):
        parse_poly("x0^-2", vs)


def test_parentheses_and_unary_minus(vs):
    p = parse_poly("-(x0 - x1)^2", vs)
    q = parse_poly("-x0^2 + 2*x0*x1 - x1^2", vs)
    assert p == q


def test_round_trip_random(vs):
    rng = random.Random(11)
    for order in (GREVLEX, LEX, ANTIGRLEX):
        for _ in range(20):
            p = random_poly(vs, rng, max_degree=4, terms=6)
            assert parse_poly(poly_to_string(p, order), vs) == p


def test_canonical_descending_order():
    vs = VarSet(["x", "y"])
    p = parse_poly("y + x^2", vs)
    assert poly_to_string(p, GREVLEX) == "x^2 + y"
    assert poly_to_string(p, ANTIGRLEX) == "y + x^2"
    assert poly_to_string(Poly.zero(vs)) == "0"


def test_fraction_rendering():
    vs = VarSet(["x"])
    assert poly_to_string(parse_poly("2/3*x^2 - x + 5", vs)) == "2/3*x^2 - x + 5"
    assert poly_to_string(parse_poly("-1/2", vs)) == "-1/2"


@pytest.mark.parametrize("text, position", [
    ("x0^²", 3),          # superscript two as an exponent
    ("2²*x0", 1),         # ... inside an integer literal
    ("x0^²*x1", 3),
    ("٣*x0", 0),          # an Arabic-Indic digit, which int() would read as 3
    ("1/²", 2),
])
def test_only_ascii_digits_make_integer_literals(vs, text, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text, vs)
    assert type(err.value) is ParseError
    assert err.value.position == position
    assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"
