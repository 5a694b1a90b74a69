import pytest

from arcspace.errors import InsufficientPrecisionError, NotMonicError
from arcspace.polyalg import Poly, TPoly, VarSet, div_monic_t, parse_poly, substitute_tpoly


@pytest.fixture
def qvars():
    return VarSet(["q0", "q1"])


def tpoly(varset, *coeff_texts):
    return TPoly(varset, [parse_poly(s, varset) for s in coeff_texts])


def test_symbolic_cubic_division(qvars):
    # g = t^3, q = t^2 + q1*t + q0
    g = tpoly(qvars, "0", "0", "0", "1")
    q = tpoly(qvars, "q0", "q1", "1")
    quot, rem = div_monic_t(g, q)
    assert quot == tpoly(qvars, "-q1", "1")
    assert rem == tpoly(qvars, "q0*q1", "q1^2 - q0")
    # multiply-back oracle
    assert quot * q + rem == g


def test_divisor_t_power_truncates(qvars):
    g = tpoly(qvars, "q0", "q1", "1", "q0*q1")
    q = TPoly(qvars, [Poly.zero(qvars)] * 2 + [Poly.one(qvars)])  # t^2
    quot, rem = div_monic_t(g, q)
    assert rem == tpoly(qvars, "q0", "q1")
    assert quot * q + rem == g


def test_small_degree_dividend(qvars):
    g = tpoly(qvars, "q0", "q1")
    q = tpoly(qvars, "0", "q0", "1")
    quot, rem = div_monic_t(g, q)
    assert quot.is_zero()
    assert rem == g


def test_not_monic_rejected(qvars):
    g = tpoly(qvars, "0", "0", "1")
    q = tpoly(qvars, "1", "q0")
    with pytest.raises(NotMonicError):
        div_monic_t(g, q)


def test_multiply_back_random(qvars):
    import random

    from conftest import random_poly

    rng = random.Random(31)
    for _ in range(10):
        g = TPoly(qvars, [random_poly(qvars, rng, 2, 2) for _ in range(5)])
        q = TPoly(qvars, [random_poly(qvars, rng, 1, 2) for _ in range(2)] + [Poly.one(qvars)])
        quot, rem = div_monic_t(g, q)
        assert quot * q + rem == g
        assert rem.degree() < q.degree()


def test_substitute_tpoly():
    ambient = VarSet(["x", "y"])
    target = VarSet(["a", "b"])
    f = parse_poly("x*y + y^2", ambient)
    xval = tpoly(target, "a", "1")       # a + t
    yval = tpoly(target, "b")            # b
    result = substitute_tpoly(f, [xval, yval])
    assert result == tpoly(target, "a*b + b^2", "b")


def test_precision_truncates_and_bounds_coefficients(qvars):
    g = TPoly(qvars, [parse_poly(s, qvars) for s in ("q0", "q1", "1", "q0*q1")], 2)
    assert g.coeffs == tpoly(qvars, "q0", "q1").coeffs and g.precision == 2
    assert TPoly(qvars, [parse_poly("q0", qvars), Poly.zero(qvars)], 2).degree() == 0
    assert g.coefficient(1) == parse_poly("q1", qvars)
    with pytest.raises(InsufficientPrecisionError):
        g.coefficient(2)
    # an exact t-polynomial has zeros past its degree
    assert tpoly(qvars, "q0").coefficient(5).is_zero()


def test_precision_min_rule(qvars):
    a = TPoly(qvars, [parse_poly(s, qvars) for s in ("1", "q0", "q1")], 3)
    b = TPoly(qvars, [parse_poly(s, qvars) for s in ("q1", "1")], 5)
    exact = tpoly(qvars, "q0", "0", "0", "1")
    assert (a + b).precision == (a - b).precision == (a * b).precision == 3
    assert (a + exact).precision == (a * exact).precision == 3
    assert (exact + exact).precision is None and (exact * exact).precision is None
    # the product keeps exactly the coefficients below the precision
    assert (a * b).coeffs == (tpoly(qvars, "1", "q0", "q1") * tpoly(qvars, "q1", "1")).coeffs[:3]
    assert (a * exact).coeffs == tpoly(qvars, "q0", "q0^2", "q0*q1").coeffs
    assert (-a).precision == a.scale(parse_poly("q0", qvars)).precision == 3
    zero = TPoly.zero(qvars) * a
    assert zero.is_zero() and zero.precision == 3


def test_precision_is_part_of_equality(qvars):
    coeffs = [parse_poly("q0", qvars), parse_poly("q1", qvars)]
    assert TPoly(qvars, coeffs, 2) == TPoly(qvars, coeffs + [Poly.one(qvars)], 2)
    assert TPoly(qvars, coeffs, 2) != TPoly(qvars, coeffs, 3)
    assert TPoly(qvars, coeffs, 2) != TPoly(qvars, coeffs)


def test_division_rejects_truncated_operands(qvars):
    q = tpoly(qvars, "q0", "1")
    g = TPoly(qvars, [parse_poly("q1", qvars), Poly.one(qvars)], 4)
    with pytest.raises(ValueError):
        div_monic_t(g, q)
    with pytest.raises(ValueError):
        tpoly(qvars, "q1", "1").div_monic(TPoly(qvars, q.coeffs, 4))


def test_substitute_tpoly_at_truncated_values():
    # (a + t + b*t^2)^2 mod t^3 = a^2 + 2a t + (1 + 2ab) t^2
    ambient = VarSet(["x"])
    target = VarSet(["a", "b"])
    xval = TPoly(target, [parse_poly(s, target) for s in ("a", "1", "b")], 3)
    result = substitute_tpoly(parse_poly("x^2 + 1", ambient), [xval])
    assert result == TPoly(target, [parse_poly(s, target) for s in
                                    ("a^2 + 1", "2*a", "1 + 2*a*b")], 3)
