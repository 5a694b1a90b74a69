import random
import re
from fractions import Fraction

import pytest

from arcspace.errors import VarsetMismatchError
from arcspace.polyalg import Poly, VarSet, parse_poly

from conftest import random_poly


@pytest.fixture
def vs():
    return VarSet(["x", "y", "z"])


def test_ring_axioms_on_random_triples(vs):
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (random_poly(vs, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == Poly.zero(vs)
        assert a * Poly.one(vs) == a


def test_product_of_conjugates(vs):
    assert parse_poly("(x+y)*(x-y)", vs) == parse_poly("x^2 - y^2", vs)


def test_partial_derivative_monomial_rule():
    vs = VarSet(["x0", "x1", "x2", "x3"])
    g = parse_poly("x0*x3 + x1*x2", vs)
    assert g.partial("x3") == parse_poly("x0", vs)


def test_partial_derivative_power_rule(vs):
    assert parse_poly("x^2*y", vs).partial("x") == parse_poly("2*x*y", vs)


def test_partial_matches_finite_differences(vs):
    # central difference (f(x+h) - f(x-h)) / 2h is exact when deg_x <= 2
    rng = random.Random(3)
    f = parse_poly("x^2*y", vs)
    df = f.partial("x")
    for _ in range(3):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        h = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        up = f.evaluate([a[0] + h, a[1], a[2]])
        dn = f.evaluate([a[0] - h, a[1], a[2]])
        assert df.evaluate(a) == (up - dn) / (2 * h)
        assert df.evaluate(a) == 2 * a[0] * a[1]
    # any degree: the exact quotient (f(x+h) - f(x)) / h at h = 0 is df/dx
    ext = VarSet(["x", "y", "z", "h"])
    for _ in range(10):
        g = random_poly(vs, rng)
        ge = g.extended(ext)
        diff = ge.substitute({"x": parse_poly("x + h", ext)}) - ge
        quotient = Poly(ext, {m[:3] + (m[3] - 1,): c for m, c in diff.terms.items()})
        lifted = Poly(ext, {m + (0,): c for m, c in g.partial("x").terms.items()})
        assert quotient.substitute({"h": 0}) == lifted


def test_ring_operators(vs):
    a = parse_poly("x + 1", vs)
    b = parse_poly("y", vs)
    assert a + b == parse_poly("x + y + 1", vs)
    assert a - b == parse_poly("x - y + 1", vs)
    assert a * b == parse_poly("x*y + y", vs)


def test_varset_mismatch_raises(vs):
    other = VarSet(["x", "y"])
    with pytest.raises(VarsetMismatchError):
        parse_poly("x", vs) + parse_poly("x", other)
    with pytest.raises(VarsetMismatchError):
        parse_poly("x", vs) * parse_poly("y", other)


def test_zero_polynomial_has_empty_term_map(vs):
    p = parse_poly("2/3*x^2 - 2/3*x^2", vs)
    assert p.is_zero()
    assert p.terms == {}


def test_substitution_and_extension(vs):
    f = parse_poly("x^2 + y", vs)
    g = f.substitute({"x": parse_poly("y + 1", vs)})
    assert g == parse_poly("y^2 + 2*y + 1 + y", vs)
    big = VarSet(["x", "y", "z", "w"])
    assert f.extended(big) == parse_poly("x^2 + y", big)


def test_restricted_inverts_extended(vs):
    rng = random.Random(29)
    big = VarSet(["x", "y", "z", "w"])
    for _ in range(20):
        f = random_poly(vs, rng)
        assert f.extended(big).restricted(vs) == f
        assert f.restricted(vs) == f
    assert parse_poly("x*y - 1/2", vs).restricted(VarSet(["x", "y"])) \
        == parse_poly("x*y - 1/2", VarSet(["x", "y"]))
    with pytest.raises(VarsetMismatchError, match="outside the target"):
        parse_poly("x + w", big).restricted(vs)
    with pytest.raises(VarsetMismatchError, match="not a prefix"):
        parse_poly("x", vs).restricted(VarSet(["y"]))


def test_substitute_matches_every_variable_reference(vs):
    from conftest import substitute_every_variable

    rng = random.Random(23)
    for _ in range(25):
        f = random_poly(vs, rng, max_degree=4, terms=5)
        mapping = {}
        for v in vs:
            kind = rng.randrange(3)
            if kind == 1:
                mapping[v.name] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            elif kind == 2:
                mapping[v] = random_poly(vs, rng, max_degree=2, terms=2)
        assert f.substitute(mapping) == substitute_every_variable(f, mapping)
        assert f.substitute({}) == f
        constants = {v: rng.randint(-2, 2) for v in vs}
        assert f.substitute(constants) == Poly.const(vs, f.evaluate(
            [constants[v] for v in vs]))


def test_partial_of_triple_product(vs):
    f = parse_poly("x*y*z", vs)
    assert f.partial("y") == parse_poly("x*z", vs)


def test_evaluate(vs):
    f = parse_poly("x^2*y - 3*z + 1/2", vs)
    assert f.evaluate([2, 3, Fraction(1, 3)]) == Fraction(4 * 3) - 1 + Fraction(1, 2)


@pytest.mark.parametrize("bad", [0.1, "1/2"])
def test_evaluate_takes_rational_coordinates_only(vs, bad):
    # a float would be computed with its binary rounding, a str parsed
    f = parse_poly("x^2 + y", vs)
    with pytest.raises(TypeError):
        f.evaluate([bad, 0, 0])


@pytest.mark.parametrize("bad", [0.5, "x", None, 1j])
def test_substitute_takes_polys_ints_and_fractions_only(vs, bad):
    # a float would bring its binary rounding in; none of these has a varset
    f = parse_poly("x^2 + y", vs)
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        f.substitute({"x": bad})
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        f.substitute({"y": parse_poly("z", vs), "x": bad})


def test_pow(vs):
    x_plus_y = parse_poly("x + y", vs)
    assert x_plus_y ** 0 == Poly.one(vs)
    assert x_plus_y ** 3 == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", vs)
