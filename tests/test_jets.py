import itertools
import random
import sys
from fractions import Fraction

import pytest

from arcspace.errors import (
    InsufficientPrecisionError,
    InvalidCodimError,
    PointNotOnSchemeError,
    VarsetMismatchError,
)
from arcspace.jets import (
    AffineScheme,
    Arc,
    eval_along_arc,
    hs_derivative,
    jacobian_ideal,
    jet_ideal,
    jet_ideal_at,
    jet_jacobian_at,
    jet_varset,
    ord_along_arc,
    truncate_arc,
)
from arcspace.localgeom import jacobian_at, translate_to_origin
from arcspace.polyalg import OrdResult, Poly, TPoly, TruncSeries, VarSet, parse_poly
from arcspace.polyalg.tpoly import substitute_tpoly

from conftest import convolution_hs_derivative, monomial_arc, random_arc, random_poly


def hs_by_substitution(f, p):
    """Oracle: substitute x -> sum_j x_j t^j and read the t^p coefficient."""
    target = jet_varset(f.varset, p)
    values = []
    for v in f.varset:
        coeffs = [Poly.variable(target, v.derived(j)) for j in range(p + 1)]
        values.append(TPoly(target, coeffs))
    return substitute_tpoly(f, values).coefficient(p)


def test_a_tall_jet_varset_is_built_level_by_level():
    """A level far past the recursion limit, which a document may ask for
    once it lifts the precision cap, is built like a low one, and the levels
    below it share its variables."""
    vs = VarSet(["x", "y"])
    n = 2 * sys.getrecursionlimit()
    target = jet_varset(vs, n)
    assert target.vars == tuple(v.derived(j) for j in range(n + 1) for v in vs)
    low = jet_varset(vs, 3)
    assert low.is_prefix_of(target)
    assert all(a is b for a, b in zip(low.vars, target.vars))
    assert jet_varset(vs, n) is target


def test_a_negative_jet_level_is_refused():
    """Once levels are built, a negative level must not cut a set from them:
    -2 used to return the level-2 set of a built tower, and the cache kept
    it."""
    vs = VarSet(["x", "y"])
    jet_varset(vs, 3)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match=f"nonnegative, not {n}"):
            jet_varset(vs, n)
    assert len(jet_varset(vs, 2)) == 6


def test_a_derivative_into_a_varset_below_its_order_is_refused():
    vs = VarSet(["x", "y"])
    f = parse_poly("x^2*y + y", vs)
    for p, below in ((2, 1), (3, 0), (1, 0)):
        with pytest.raises(VarsetMismatchError, match=f"through level {p}"):
            hs_derivative(f, p, jet_varset(vs, below))
    with pytest.raises(VarsetMismatchError, match="x_0"):
        hs_derivative(f, 0, vs)
    assert hs_derivative(f, 2, jet_varset(vs, 3)) == hs_derivative(f, 2).extended(
        jet_varset(vs, 3))


def test_hs_leibniz_forced():
    vs = VarSet(["x", "y"])
    d1 = hs_derivative(parse_poly("x*y", vs), 1)
    target = jet_varset(vs, 1)
    assert d1 == parse_poly("x_0*y_1 + x_1*y_0", target)


def test_hs_order_zero_is_substitution():
    vs = VarSet(["x0", "x1", "x2", "x3"])
    f = parse_poly("x0*x3 + x1*x2", vs)
    d0 = hs_derivative(f, 0)
    target = jet_varset(vs, 0)
    assert d0 == parse_poly("x0_0*x3_0 + x1_0*x2_0", target)


def test_hs_square():
    vs = VarSet(["x"])
    d2 = hs_derivative(parse_poly("x^2", vs), 2)
    target = jet_varset(vs, 2)
    assert d2 == parse_poly("2*x_0*x_2 + x_1^2", target)
    assert d2 == hs_by_substitution(parse_poly("x^2", vs), 2)


def test_hs_matches_substitution_oracle_random():
    vs = VarSet(["x", "y", "z"])
    rng = random.Random(13)
    for _ in range(20):
        f = random_poly(vs, rng, max_degree=3, terms=3)
        p = rng.randint(0, 4)
        assert hs_derivative(f, p) == hs_by_substitution(f, p)


def test_jet_ideal_matches_convolution_reference():
    # one composite per generator gives every D_p the per-order convolution gives
    rng = random.Random(7)
    names = ["x", "y", "z", "w"]
    for nvars in range(1, 5):
        vs = VarSet(names[:nvars])
        for n in range(7):
            gens = tuple(g for g in (random_poly(vs, rng, max_degree=4, terms=3)
                                     for _ in range(2)) if not g.is_zero())
            if not gens:
                continue
            X = AffineScheme(vs, gens)
            target = jet_varset(vs, n)
            expected = [convolution_hs_derivative(g, p, target) for g in gens
                        for p in range(n + 1)]
            assert jet_ideal(X, n) == expected
            p = rng.randint(0, n)
            assert hs_derivative(gens[0], p) == convolution_hs_derivative(gens[0], p)


def test_hs_derivative_into_larger_varset_matches_reference():
    vs = VarSet(["x", "y", "z"])
    rng = random.Random(11)
    for _ in range(12):
        f = random_poly(vs, rng, max_degree=4, terms=4)
        p = rng.randint(0, 4)
        target = jet_varset(vs, p + rng.randint(1, 3))
        dp = hs_derivative(f, p, varset=target)
        assert dp.varset == target
        assert dp == convolution_hs_derivative(f, p, target)


def test_hs_weight_scaling():
    # x_i^(j) -> lambda^j x_i^(j) multiplies D_p(f) by lambda^p
    vs = VarSet(["x", "y"])
    rng = random.Random(19)
    for _ in range(8):
        f = random_poly(vs, rng, max_degree=3, terms=3)
        p = rng.randint(0, 3)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        dp = hs_derivative(f, p)
        target = dp.varset
        mapping = {}
        for v in target:
            j = v.indices[-1]
            mapping[v] = Poly.variable(target, v).scale(lam ** j)
        assert dp.substitute(mapping) == dp.scale(lam ** p)


def test_chain_rule_identity(quadric):
    # d(g^(p)) / d(y^(q)) = D_(p-q)(dg/dy), exactly
    g = quadric.generators[0]
    y = quadric.ambient[3]
    dgdy = g.partial(y)
    for p in range(5):
        gp = hs_derivative(g, p)
        for q in range(p + 1):
            lhs = gp.partial(y.derived(q))
            rhs = hs_derivative(dgdy, p - q, varset=gp.varset)
            assert lhs == rhs


def test_jet_ideal_line_in_plane():
    vs = VarSet(["x", "y"])
    X = AffineScheme(vs, (parse_poly("y", vs),))
    gens = jet_ideal(X, 1)
    target = jet_varset(vs, 1)
    assert gens == [parse_poly("y_0", target), parse_poly("y_1", target)]


def test_jet_ideal_vanishes_along_solution_arcs(quadric):
    # arc on X: (s(t), u(t), v(t), -(u*v)/s) with s a unit; use s = 1 + t
    # and solve the last component exactly to high order
    s = TruncSeries([1, 1])
    u = TruncSeries([0, 2, 1])
    v = TruncSeries([1, 0, 3])
    # w = -(u*v)/s as a truncated series: multiply u*v by the inverse of s
    inv_s_coeffs = [Fraction(1)]
    for k in range(1, 12):
        inv_s_coeffs.append(-inv_s_coeffs[k - 1])  # 1/(1+t) = sum (-t)^k
    inv_s = TruncSeries(inv_s_coeffs, precision=12)
    w = (u * v * inv_s).scale(-1)
    arc = Arc(quadric.ambient, [s, u, v, w])
    for gp in jet_ideal(quadric, 2):
        jp = truncate_arc(arc, 2)
        assert gp.evaluate(jp.values) == 0
    composite = eval_along_arc(quadric.generators[0], arc)
    assert all(c == 0 for c in composite.coeffs[:3])


def test_eval_and_ord_golden_values(quadric):
    jac = jacobian_ideal(quadric)
    assert [str(p) for p in jac] == ["x3", "x2", "x1", "x0"]
    assert ord_along_arc(jac, monomial_arc(quadric, 1)) == OrdResult.exact(1)
    for m in (2, 3, 5):
        assert ord_along_arc(jac, monomial_arc(quadric, m)) == OrdResult.exact(m)


def test_ord_of_constant_is_zero(quadric):
    one = Poly.one(quadric.ambient)
    assert ord_along_arc(one, monomial_arc(quadric, 3)) == OrdResult.exact(0)


def test_ord_valuation_property(quadric):
    rng = random.Random(29)
    arc = random_arc(quadric.ambient, rng)
    for _ in range(10):
        f = random_poly(quadric.ambient, rng, 2, 3)
        g = random_poly(quadric.ambient, rng, 2, 3)
        rf, rg = ord_along_arc(f, arc), ord_along_arc(g, arc)
        if rf.is_exact and rg.is_exact:
            assert ord_along_arc(f * g, arc) == OrdResult.exact(rf.value + rg.value)


def test_jacobian_hypersurface_gradient():
    vs = VarSet(["x", "y"])
    X = AffineScheme(vs, (parse_poly("y^2 - x^3", vs),))
    assert [str(p) for p in jacobian_ideal(X, 1)] == ["-3*x^2", "2*y"]


def test_jacobian_ci_minors_match_hand_expansion():
    vs = VarSet(["x0", "x1", "x2", "x3"])
    rng = random.Random(37)
    for _ in range(5):
        f1 = random_poly(vs, rng, 2, 3)
        f2 = random_poly(vs, rng, 2, 3)
        if f1.is_zero() or f2.is_zero():
            continue
        X = AffineScheme(vs, (f1, f2), 2)
        minors = jacobian_ideal(X, 2)
        assert len(minors) == 6
        idx = 0
        for a, b in itertools.combinations(range(4), 2):
            va, vb = vs[a], vs[b]
            hand = f1.partial(va) * f2.partial(vb) - f1.partial(vb) * f2.partial(va)
            assert minors[idx] == hand
            idx += 1


def test_jacobian_invalid_codim(quadric):
    with pytest.raises(InvalidCodimError):
        jacobian_ideal(quadric, 0)  # 4x4 minors of a 1x4 matrix
    # d = N gives the empty minor, i.e. the unit ideal
    assert jacobian_ideal(quadric, 4) == [Poly.one(quadric.ambient)]


def test_truncate_arc_basics(quadric):
    arc = monomial_arc(quadric, 2)
    jp = truncate_arc(arc, 2)
    nonzero = {v.name: x for v, x in zip(jp.varset, jp.values) if x}
    assert nonzero == {"x0_2": 1}
    jp0 = truncate_arc(arc, 0)
    assert jp0.values == arc.special_point()


def test_negative_levels_are_refused(quadric):
    with pytest.raises(ValueError, match="nonnegative"):
        jet_ideal(quadric, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        truncate_arc(monomial_arc(quadric, 1), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        jet_jacobian_at(quadric, monomial_arc(quadric, 1), -1)


def test_truncate_arc_precision_guard(quadric):
    comps = [TruncSeries([0, 1], precision=3) for _ in range(4)]
    arc = Arc(quadric.ambient, comps)
    truncate_arc(arc, 2)
    with pytest.raises(InsufficientPrecisionError):
        truncate_arc(arc, 3)


def test_jet_point_satisfies_ideal_iff_ord_exceeds_level(quadric):
    rng = random.Random(43)
    g = quadric.generators[0]
    for _ in range(12):
        arc = random_arc(quadric.ambient, rng, degree=3)
        n = rng.randint(0, 3)
        jp = truncate_arc(arc, n)
        jet_gens = jet_ideal(quadric, n)
        satisfies = all(gp.evaluate(jp.values) == 0 for gp in jet_gens)
        res = ord_along_arc(g, arc)
        ord_exceeds = res.is_infinite or (res.is_exact and res.value > n)
        assert satisfies == ord_exceeds


def test_hs_consistency_with_arc_coefficients(quadric):
    # f^(p) evaluated at the truncated arc = t^p coefficient of f(alpha(t))
    rng = random.Random(47)
    polys = [random_poly(quadric.ambient, rng, 2, 3) for _ in range(5)]
    polys.append(quadric.generators[0])
    arcs = [random_arc(quadric.ambient, rng, degree=4) for _ in range(20)]
    arcs.append(monomial_arc(quadric, 2))
    for f in polys:
        for arc in arcs[:7]:
            series = eval_along_arc(f, arc)
            for p in range(0, 7, 2):
                fp = hs_derivative(f, p)
                jp = truncate_arc(arc, p)
                assert fp.evaluate(jp.values) == series.coefficient(p)


def _rational_arc(varset, rng, degree):
    """Exact arc with non-integral coefficients, constant terms included."""
    return Arc(varset, [TruncSeries([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(rng.randint(0, degree + 1))])
                        for _ in varset])


def _nonzero_poly(varset, rng):
    while True:
        f = random_poly(varset, rng, max_degree=3, terms=4)
        if not f.is_zero():
            return f


def test_jet_jacobian_at_is_the_jacobian_of_the_jet_ideal(quadric, ci_fixture):
    # the chain rule dD_k(g)/dx_i_j = D_(k-j)(dg/dx_i) against the Jacobian of
    # the jet ideal itself, entry for entry: c = 1 and c = 2, rational
    # coefficients, arcs on and off X, levels 0-6
    rng = random.Random(71)
    vs = VarSet(["x", "y", "z"])
    cases = [(quadric, monomial_arc(quadric, 2)), (ci_fixture, monomial_arc(ci_fixture, 1))]
    for c in (1, 2):
        for _ in range(3):
            X = AffineScheme(vs, tuple(_nonzero_poly(vs, rng) for _ in range(c)))
            cases += [(X, random_arc(vs, rng, degree=3)), (X, _rational_arc(vs, rng, 3))]
    assert any(any(arc.special_point()) for _, arc in cases)
    assert any(c.denominator != 1 for X, _ in cases for g in X.generators
               for c in g.terms.values())
    for X, arc in cases:
        for n in range(7):
            got = jet_jacobian_at(X, arc, n)
            assert got == jacobian_at(jet_ideal(X, n), truncate_arc(arc, n))
            assert len(got) == len(X.generators) * (n + 1)
            assert all(type(x) is Fraction for row in got for x in row)


def test_jet_jacobian_at_keeps_the_precision_guard(quadric):
    arc = Arc(quadric.ambient, [TruncSeries([1, k, 2], precision=3) for k in range(4)])
    assert jet_jacobian_at(quadric, arc, 2) == jacobian_at(jet_ideal(quadric, 2),
                                                          truncate_arc(arc, 2))
    for n in (3, 4):
        with pytest.raises(InsufficientPrecisionError) as got:
            jet_jacobian_at(quadric, arc, n)
        with pytest.raises(InsufficientPrecisionError) as before:
            truncate_arc(arc, n)
        assert (got.value.needed, got.value.have, str(got.value)) == (
            before.value.needed, before.value.have, str(before.value))


def _arc_on_scheme(rng, c):
    """A scheme in x, y, z with c generators and an arc on it.

    Along alpha = (p(s(t)), q(s(t)), s(t)) both x - p(z) and y - q(z)
    vanish, so every combination r1*(x - p(z)) + r2*(y - q(z)) does too.
    p, q, r1, r2 and s have non-integral coefficients; s has a nonzero
    constant term.
    """
    vs, zs = VarSet(["x", "y", "z"]), VarSet(["z"])
    s = TruncSeries([Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))]
                    + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
    p, q = (random_poly(zs, rng, max_degree=2, terms=3) for _ in range(2))
    alpha = Arc(vs, [eval_along_arc(p, Arc(zs, [s])), eval_along_arc(q, Arc(zs, [s])), s])

    def in_z(f):
        return Poly(vs, {(0, 0, e): k for (e,), k in f.terms.items()})

    lines = [Poly.variable(vs, "x") - in_z(p), Poly.variable(vs, "y") - in_z(q)]
    gens = []
    while len(gens) < c:
        r1, r2 = (random_poly(vs, rng, max_degree=1, terms=2) for _ in range(2))
        g = r1 * lines[0] + r2 * lines[1]
        if not g.is_zero():
            gens.append(g)
    return AffineScheme(vs, tuple(gens)), alpha


def _shifted_oracle(X, arc, n):
    return translate_to_origin(jet_ideal(X, n), truncate_arc(arc, n))


def _first_failure(X, arc, n):
    """(i, k) of the first D_k(g_i), generator-major, that does not vanish
    at the arc's n-jet: k is the order of g_i along the arc."""
    for i, g in enumerate(X.generators, 1):
        res = ord_along_arc(g, arc)
        if res.is_exact and res.value <= n:
            return i, res.value
    return None


def test_jet_ideal_at_is_the_translated_jet_ideal(quadric, ci_fixture):
    # c = 1 and the CI fixture (c = 2), random schemes through random arcs
    # with non-integral coefficients and nonzero constant terms, and arcs off
    # the scheme, at levels 0-6
    rng = random.Random(131)
    vs = VarSet(["x", "y", "z"])
    on = [(quadric, monomial_arc(quadric, 2)), (ci_fixture, monomial_arc(ci_fixture, 1))]
    off = [(quadric, Arc.from_strings(quadric.ambient, ["1", "t", "1", "t^3"]))]
    for c in (1, 2):
        for _ in range(3):
            on.append(_arc_on_scheme(rng, c))
            X = AffineScheme(vs, tuple(_nonzero_poly(vs, rng) for _ in range(c)))
            off += [(X, random_arc(vs, rng, degree=3)), (X, _rational_arc(vs, rng, 3))]
    assert all(any(arc.special_point()) for _, arc in on[2:])
    assert all(any(k.denominator != 1 for comp in arc.components for k in comp.coeffs)
               for _, arc in on[2:])
    raised = 0
    for X, arc in on + off:
        for n in range(7):
            failure = _first_failure(X, arc, n)
            if failure is not None:
                with pytest.raises(PointNotOnSchemeError):
                    _shifted_oracle(X, arc, n)
                with pytest.raises(PointNotOnSchemeError) as got:
                    jet_ideal_at(X, arc, n)
                i, k = failure
                assert f"D_{k}(g_{i}) does not vanish" in str(got.value)
                raised += 1
                continue
            got, expected = jet_ideal_at(X, arc, n), _shifted_oracle(X, arc, n)
            assert got == expected
            assert [g.varset for g in got] == [g.varset for g in expected]
            assert all(type(x) is Fraction for g in got for x in g.terms.values())
    assert all(_first_failure(X, arc, 6) is None for X, arc in on)
    assert raised > len(off)


def test_jet_ideal_at_keeps_the_precision_guard(quadric):
    arc = Arc(quadric.ambient, [TruncSeries([0, k, 2], precision=3) for k in range(4)])
    assert jet_ideal_at(quadric, arc, 0) == _shifted_oracle(quadric, arc, 0)
    for n in (3, 4):
        with pytest.raises(InsufficientPrecisionError) as got:
            jet_ideal_at(quadric, arc, n)
        with pytest.raises(InsufficientPrecisionError) as before:
            truncate_arc(arc, n)
        assert (got.value.needed, got.value.have, str(got.value)) == (
            before.value.needed, before.value.have, str(before.value))
    with pytest.raises(ValueError, match="nonnegative"):
        jet_ideal_at(quadric, arc, -1)


def test_jet_ideal_at_rejects_an_arc_over_another_varset(quadric):
    arc = Arc.from_strings(VarSet(["y0", "y1", "y2", "y3"]), ["t", "0", "0", "0"])
    with pytest.raises(VarsetMismatchError):
        jet_ideal_at(quadric, arc, 1)
