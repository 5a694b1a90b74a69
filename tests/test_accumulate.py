"""The in-place accumulating kernel against the copy-per-add loops it replaced.

Sums and products of ``Poly`` and ``TPoly``, the composition kernel
(``poly._composed``, behind ``Poly.substitute``, ``substitute_tpoly``,
``eval_along_arc`` and the jet ideals), ``drinfeld._ModReducer.reduce``,
``spolynomial`` and the integer rows of ``linalg`` are compared with the
reference loops in ``conftest.py`` on seeded random inputs, and the
composition kernel also on compositions whose degree crosses the limit of
each width of packed fields it picks.  Every result must equal the
reference, hold only Fraction coefficients (ints for the integer rows),
share no dict with its inputs, and leave the inputs unchanged.
"""

import random
import re
from fractions import Fraction

import pytest

from arcspace.drinfeld import _ModReducer, build_drinfeld_model, choose_projection, ci_reduce
from arcspace.errors import VarsetMismatchError
from arcspace.jets import (
    AffineScheme,
    Arc,
    eval_along_arc,
    hs_derivative,
    jet_ideal,
    jet_ideal_at,
    jet_varset,
)
from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    Poly,
    TPoly,
    TruncSeries,
    VarSet,
    exact_rank,
    fraction_free_echelon,
    make_monic,
    poly_det,
    reduce_row,
    spolynomial,
    substitute_tpoly,
)
from arcspace.polyalg.linalg import _as_integer_rows
from arcspace.polyalg.poly import _accumulate, _Fields, _finished, _packed_values, monomial_mul
from arcspace.polyalg.tpoly import _substituted

from conftest import (
    copy_add,
    copy_compose,
    copy_integer_rows,
    copy_jet_ideal,
    copy_mod_reduce,
    copy_model_equations,
    copy_mul,
    copy_series_add,
    copy_spolynomial,
    copy_substitute_tpoly,
    copy_tpoly_add,
    copy_tpoly_mul,
    copy_universal_jet,
)

VS = VarSet(["x", "y", "z"])
OTHER = VarSet(["y", "x", "z"])


def _poly(rng, varset=VS, terms=4, degree=3):
    """Zero, integral or fractional coefficients, a third of the time each."""
    kind = rng.randrange(3)
    if kind == 0:
        return Poly.zero(varset)
    data = {}
    for _ in range(rng.randint(1, terms)):
        mono = [0] * len(varset)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(len(varset))] += 1
        c = Fraction(rng.randint(-5, 5), 1 if kind == 1 else rng.randint(1, 4))
        data[tuple(mono)] = data.get(tuple(mono), 0) + c
    return Poly(varset, data)


def _tpoly(rng, varset=VS, length=4, precision=True):
    coeffs = [_poly(rng, varset, terms=3, degree=2) for _ in range(rng.randint(0, length))]
    prec = rng.choice([None, None, 1, 2, 3, 5]) if precision else None
    return TPoly(varset, coeffs, prec)


def _polys_of(x):
    return list(x.coeffs) if isinstance(x, TPoly) else [x]


def _snapshot(*inputs):
    return [dict(p.terms) for x in inputs for p in _polys_of(x)]


def _check_fresh(result, *inputs):
    """Fraction coefficients only, no zero term, and no dict shared with an
    input or with another coefficient of the result; inputs unchanged is
    checked by the caller against a snapshot."""
    seen = {id(p.terms) for x in inputs for p in _polys_of(x)}
    for p in _polys_of(result):
        assert all(type(c) is Fraction for c in p.terms.values()), p.terms
        assert all(p.terms.values())
        assert id(p.terms) not in seen
        seen.add(id(p.terms))
    if isinstance(result, TPoly):
        assert not result.coeffs or not result.coeffs[-1].is_zero()


def test_poly_sums_and_products_match_the_copying_loops():
    rng = random.Random(20261018)
    nonzero = 0
    for _ in range(150):
        p, q, r = _poly(rng), _poly(rng), _poly(rng)
        before = _snapshot(p, q, r)
        cases = [
            (p + q, copy_add(p, q)),
            (p - q, copy_add(p, q, -1)),
            (p * q, copy_mul(p, q)),
            (Poly.sum_of(VS, [p, q, r]), copy_add(copy_add(p, q), r)),
            (Poly.sum_of(VS, []), Poly.zero(VS)),
            # the cross terms of (p + q)(p - q) cancel inside one product
            ((p + q) * (p - q), copy_add(copy_mul(p, p), copy_mul(q, q), -1)),
            (p + -p, Poly.zero(VS)),
            (poly_det([[p, q], [p, q]]), Poly.zero(VS)),
            (poly_det([[p, q], [r, p]]), copy_add(copy_mul(p, p), copy_mul(q, r), -1)),
        ]
        for got, want in cases:
            assert got == want
            _check_fresh(got, p, q, r)
        nonzero += not p.is_zero()  # so that p + -p cancelled every term
        assert _snapshot(p, q, r) == before
    assert nonzero > 50


def test_tpoly_sums_and_products_match_the_copying_loops():
    rng = random.Random(7)
    stripped = 0
    for _ in range(120):
        a, b, c = _tpoly(rng), _tpoly(rng), _tpoly(rng)
        # b2 cancels the top coefficient of a, so the sum must strip it
        b2 = TPoly(VS, [Poly.zero(VS)] * (len(a.coeffs) - 1) + [-a.coeffs[-1]]
                   if a.coeffs else [], b.precision)
        cp = _poly(rng)
        before = _snapshot(a, b, c, b2, cp)
        cases = [
            (a * b, copy_tpoly_mul(a, b)),
            (a + b, copy_tpoly_add(a, b)),
            (a - b, copy_tpoly_add(a, b, -1)),
            (a + b2, copy_tpoly_add(a, b2)),
            (TPoly.sum_of(VS, [a, b, c]), copy_tpoly_add(copy_tpoly_add(a, b), c)),
            (a.scale(cp), TPoly(VS, [copy_mul(x, cp) for x in a.coeffs], a.precision)),
            ((a + b) * (a - b), copy_tpoly_add(copy_tpoly_mul(a, a), copy_tpoly_mul(b, b), -1)),
        ]
        for got, want in cases:
            assert got == want
            assert got.precision == want.precision
            _check_fresh(got, a, b, c, b2, cp)
        stripped += len((a + b2).coeffs) < len(a.coeffs) and (a + b2).precision is None
        assert _snapshot(a, b, c, b2, cp) == before
    assert stripped > 10


def _keep_y(c, mono):
    return Poly(VS, {(0, mono[1], 0): c})


def _constant(rng):
    """Zero, an int or a non-integral Fraction, a third of the time each."""
    return rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(2, 4))])


def _nonzero_poly(rng):
    while (p := _poly(rng)).is_zero():
        pass
    return p


def _as_poly(value):
    return value if isinstance(value, Poly) else Poly.const(VS, value)


def test_compose_sum_matches_the_copying_loop():
    rng = random.Random(11)
    target = VarSet(["q0", "q1"])
    mixed_values = mixed_arcs = fractional_arcs = 0
    for _ in range(60):
        f = _poly(rng, terms=5, degree=3)
        values = [_tpoly(rng, target, length=3) for _ in VS]
        before = _snapshot(f, *values)
        got = substitute_tpoly(f, values)
        assert got == copy_substitute_tpoly(f, values)
        assert got.precision == copy_substitute_tpoly(f, values).precision
        _check_fresh(got, f, *values)
        assert _snapshot(f, *values) == before
        mixed_values += len({v.precision is None for v in values}) == 2

        # y is left alone; z is a polynomial or an int or Fraction constant
        mapping = {"x": _poly(rng), "z": rng.choice([_poly(rng), _constant(rng)])}
        before = _snapshot(f, *map(_as_poly, mapping.values()))
        want = copy_compose(f, [mapping["x"], None, _as_poly(mapping["z"])], _keep_y,
                            Poly.zero(VS), copy_add, copy_mul)
        got = f.substitute(mapping)
        assert got == want
        _check_fresh(got, f, *(v for v in mapping.values() if isinstance(v, Poly)))
        assert _snapshot(f, *map(_as_poly, mapping.values())) == before
        constants = {v: _constant(rng) for v in ("x", "y", "z")}
        got = f.substitute(constants)
        assert got == copy_compose(f, [Poly.const(VS, constants[v]) for v in ("x", "y", "z")],
                                   lambda c, mono: Poly.const(VS, c), Poly.zero(VS),
                                   copy_add, copy_mul)
        _check_fresh(got, f)
        assert f.substitute({}) == f

        # integral, non-integral and zero coefficients, interior zeros included
        comps = [TruncSeries([_constant(rng) for _ in range(rng.randint(0, 4))],
                             rng.choice([None, 3, 6])) for _ in VS]
        series = eval_along_arc(f, Arc(VS, comps))
        want = copy_compose(f, comps, lambda c, mono: TruncSeries.constant(c),
                            TruncSeries.zero(), copy_series_add, TruncSeries.__mul__)
        assert series == want
        assert all(type(c) is Fraction for c in series.coeffs)
        mixed_arcs += len({c.precision is None for c in comps}) == 2
        fractional_arcs += any(x.denominator != 1 for c in comps for x in c.coeffs)
    assert mixed_values > 20 and mixed_arcs > 20 and fractional_arcs > 20

    # a composite that cancels to zero: x^2 - y at (t + q0, (t + q0)^2)
    u = TPoly(target, [Poly.variable(target, "q0"), Poly.one(target)])
    f = Poly(VS, {(2, 0, 0): 1, (0, 1, 0): -1})
    values = [u, u * u, TPoly.zero(target)]
    assert substitute_tpoly(f, values) == copy_substitute_tpoly(f, values) == TPoly.zero(target)

    # the zero f composes to zero, exact whatever the precision of the values
    zero = Poly.zero(VS)
    values = [TPoly(target, [Poly.one(target)], 2) for _ in VS]
    assert substitute_tpoly(zero, values) == copy_substitute_tpoly(zero, values)
    assert substitute_tpoly(zero, values) == TPoly.zero(target)
    arc = Arc(VS, [TruncSeries([1, 2], 2) for _ in VS])
    assert eval_along_arc(zero, arc) == TruncSeries.zero()
    assert zero.substitute({"x": Poly.variable(VS, "y"), "z": 3}) == zero
    assert zero.substitute({}) == zero


@pytest.mark.parametrize("degree, width", [(127, 8), (128, 16), (32767, 16), (32768, 32)])
def test_compositions_across_each_field_limit(degree, width):
    """The kernel packs in the narrowest fields whose limit, 128 at 8 bits
    and 32768 at 16, exceeds the degree of the result: at and past each
    limit, every composition still equals the reference loops.  Past 8 bits
    the value of x is one term of degree 1024, so few powers reach it."""
    x, y, z = (Poly.variable(VS, v) for v in ("x", "y", "z"))
    target = VarSet(["q0", "q1"])
    q0, q1 = Poly.variable(target, "q0"), Poly.variable(target, "q1")
    # x^a * y^b reaches the degree at x = y^2 + z, or y^1024 past 8 bits, and
    # at x = q1^2 + q0*t, or q1^1024, whose t^0 coefficient carries it
    step = 2 if degree < 1 << 8 else 1024
    a, b = divmod(degree, step)
    f = Poly(VS, {(a, b, 0): 1, (0, 0, 1): Fraction(-1, 2)})
    xval = y * y + z if step == 2 else y ** step
    xt = TPoly(target, [q1 * q1, q0] if step == 2 else [q1 ** step], 3)
    yt, zt = TPoly(target, [q0, Poly.one(target)], 4), TPoly(target, [q1])

    # y left alone: a head of degree - 1 times z reaches the degree too
    g = f + Poly(VS, {(0, degree - 1, 1): 3})
    assert _packed_values(g, [[xval.terms], None, [z.terms]], 3)[1].width == width
    got = g.substitute({"x": xval, "z": z})
    assert got == copy_compose(g, [xval, None, z], _keep_y, Poly.zero(VS), copy_add, copy_mul)
    assert got.total_degree() == degree

    assert _substituted(f, [xt, yt, zt])[2].width == width
    got = substitute_tpoly(f, [xt, yt, zt])
    assert got == copy_substitute_tpoly(f, [xt, yt, zt])
    assert got.precision == 3 and got.coefficient(0).total_degree() == degree

    comps = [TruncSeries([1, -1], 3), TruncSeries([-1, 0, 1], 5), TruncSeries([0, 2])]
    assert eval_along_arc(f, Arc(VS, comps)) == copy_compose(
        f, comps, lambda c, mono: TruncSeries.constant(c), TruncSeries.zero(),
        copy_series_add, TruncSeries.__mul__)

    # a value of that degree for x, which h lacks, is never read, on the zero
    # polynomial too: the fields stay at 8 bits and the results are exact
    big, bigt = y ** degree, TPoly(target, [q1 ** degree])
    for h in (Poly(VS, {(0, 1, 1): 2, (0, 0, 0): -1}), Poly.zero(VS)):
        assert _packed_values(h, [[big.terms], None, [z.terms]], 3)[1].width == 8
        got = h.substitute({"x": big, "z": z})
        assert got == h == copy_compose(h, [big, None, z], _keep_y, Poly.zero(VS),
                                        copy_add, copy_mul)
        assert _substituted(h, [bigt, yt, zt])[2].width == 8
        assert substitute_tpoly(h, [bigt, yt, zt]) == copy_substitute_tpoly(h, [bigt, yt, zt])


def test_jet_ideals_match_the_per_generator_construction():
    rng = random.Random(17)
    for X, arc, e in _model_cases(rng):
        for n in range(2 * e + 1):
            assert jet_ideal_at(X, arc, n) == copy_jet_ideal(X, n, arc)
    for _ in range(12):
        X = AffineScheme(VS, tuple(_nonzero_poly(rng) for _ in range(rng.randint(1, 2))))
        for n in range(3):
            assert jet_ideal(X, n) == copy_jet_ideal(X, n)
        f, p = X.generators[0], rng.randint(0, 3)
        larger = jet_varset(VS, p + rng.randint(0, 2))
        want = copy_substitute_tpoly(f, copy_universal_jet(VS, p, larger)).coefficient(p)
        assert hs_derivative(f, p, larger) == want


def test_mod_reducer_matches_the_copying_loop():
    rng = random.Random(3)
    zero_remainders = 0
    for _ in range(60):
        dq = rng.randint(1, 3)
        q = TPoly(VS, [_poly(rng, terms=2, degree=1) for _ in range(dq)] + [Poly.one(VS)])
        g = _tpoly(rng, length=7, precision=False)
        if rng.random() < 0.3:
            g = g * q  # an exact multiple leaves no remainder
        before = _snapshot(g, q)
        # reduce takes q and g packed in fields that hold every product (the
        # coefficients of q are linear, so t^k mod q has degree below k), and
        # g unfinished, as tpoly._substituted hands it over: integral
        # coefficients as ints, in dicts that reduce may consume
        fields = _Fields.for_degree(len(VS), max((c.total_degree() for c in g.coeffs), default=0)
                                    + len(g.coeffs))

        def packed(p):
            return {fields.pack(m): x.numerator if x.denominator == 1 else x
                    for m, x in p.terms.items()}

        accs = [packed(c) for c in g.coeffs]
        # reduce hands its accumulators back packed; the model finishes them
        # on first read
        coeffs = _ModReducer([packed(c) for c in q.coeffs], VS, fields).reduce(accs)
        assert len(coeffs) == dq
        got = TPoly(VS, [_finished(VS, acc, fields) for acc in coeffs])
        want = copy_mod_reduce(g, q)
        assert got == want == g.div_monic(q)[1]
        _check_fresh(got, g, q)
        assert _snapshot(g, q) == before
        zero_remainders += got.is_zero() and not g.is_zero()
    assert zero_remainders > 5


A4 = VarSet(["x0", "x1", "x2", "x3"])


def _series(coeffs):
    return TruncSeries([Fraction(x) for x in coeffs])


def _rational(rng):
    """A nonzero coefficient, half-integral a third of the time."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _model_cases(rng):
    """(scheme, arc, e): arcs with Jacobian contact order e on the CI
    fixture, and e = 1, 2, 3 on the quadric cone and the sum-of-squares cone."""
    ci = AffineScheme(A4, (Poly(A4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (0, 0, 2, 0): 1}),
                           Poly(A4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): 1, (0, 0, 0, 2): -1})), 2)
    quadric = AffineScheme(A4, (Poly(A4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}),))
    sos = AffineScheme(A4, (Poly(A4, {(1, 0, 0, 1): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1}),))
    for _ in range(2):
        comps = [[0, _rational(rng), _rational(rng)], [], [], []]
        yield ci, Arc(A4, [_series(x) for x in comps]), 2
    for e in (1, 2, 3):
        # (a*c, a*d, b*c, -b*d) lies on the quadric cone, Jacobian order e
        a, b = ([0] * (e - 1) + [_rational(rng), _rational(rng)] for _ in range(2))
        cc, dd = ([0, _rational(rng), _rational(rng)] for _ in range(2))
        comps = [_mul(a, cc), _mul(a, dd), _mul(b, cc), [-x for x in _mul(b, dd)]]
        yield quadric, Arc(A4, [_series(x) for x in comps]), e
        # x0 = alpha*t^e, x3 = -(x1^2 + x2^2)/x0 on the sum-of-squares cone
        alpha = _rational(rng)
        u, v = [_rational(rng), _rational(rng)], [_rational(rng), _rational(rng)]
        x3 = [-(x + y) / alpha for x, y in zip(_mul(u, u), _mul(v, v))]
        comps = [[0] * e + [alpha], [0] * e + u, [0] * e + v, [0] * e + x3]
        yield sos, Arc(A4, [_series(x) for x in comps]), e


def test_model_equations_match_the_finish_then_reduce_chain():
    rng = random.Random(29)
    fractional_points = 0
    for X, arc, e in _model_cases(rng):
        seed = rng.randrange(1000)
        Xci = ci_reduce(X, arc, seed=seed)
        proj, order = choose_projection(Xci, arc, seed=seed)
        assert order == e
        model = build_drinfeld_model(Xci, proj, arc, e)
        assert list(model.equations) == copy_model_equations(Xci, proj, e)
        _check_fresh(TPoly(model.varset, model.equations), *Xci.generators)
        fractional_points += any(x.denominator != 1 for x in model.z)
    assert fractional_points >= 2


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX, ANTIGRLEX], ids=lambda o: o.kind)
def test_spolynomial_matches_the_copying_loop(order):
    rng = random.Random(5)
    monic = 0
    for _ in range(80):
        f, g = _poly(rng), _poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        if rng.random() < 0.5:
            f, g = make_monic(f, order), make_monic(g, order)
            monic += 1
        before = _snapshot(f, g)
        got = spolynomial(f, g, order)
        assert got == copy_spolynomial(f, g, order)
        _check_fresh(got, f, g)
        assert spolynomial(f, f, order).is_zero()
        assert _snapshot(f, g) == before
    assert monic > 10


def test_integer_rows_match_the_fraction_loop():
    rng = random.Random(13)
    for _ in range(100):
        width = rng.randint(1, 6)
        rows = [[rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                 for _ in range(width)] for _ in range(rng.randint(0, 5))]
        # an all-int row, which is copied as it is
        rows.insert(rng.randint(0, len(rows)), [rng.randint(-9, 9) for _ in range(width)])
        got = _as_integer_rows(rows)
        assert got == copy_integer_rows(rows)
        assert all(type(x) is int for row in got for x in row)
        assert not any(g is r for g, r in zip(got, rows))


def test_a_product_names_the_product_of_its_monomials():
    """Packed and tuple monomials multiply differently, so a product in
    ``_accumulate`` without its monomial product is an error, not a guess."""
    acc = {}
    with pytest.raises(TypeError):
        _accumulate(acc, {(1, 0, 0): 1}, {(0, 1, 0): 1})
    assert acc == {}
    _accumulate(acc, {(1, 0, 0): 1}, {(0, 1, 0): 1}, 2, monomial_mul)
    _accumulate(acc, {(1, 1, 0): 1})
    assert acc == {(1, 1, 0): 3}


def test_varset_mismatches_still_raise():
    x, y = Poly.variable(VS, "x"), Poly.variable(OTHER, "x")
    tx, ty = TPoly.constant(x), TPoly.constant(y)
    calls = [
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: Poly.sum_of(VS, [x, y]),
        lambda: tx + ty, lambda: tx - ty, lambda: tx * ty, lambda: TPoly.sum_of(VS, [tx, ty]),
        lambda: tx.div_monic(TPoly.t_power(OTHER, 1)),
        lambda: spolynomial(x, y, GREVLEX),
        lambda: poly_det([[x, x], [y, y]]),
        # a zero first entry over VS labels the result; the rest are over OTHER
        lambda: poly_det([[Poly.zero(VS), y], [y, y]]),
        lambda: substitute_tpoly(x, [tx, ty, tx]),
    ]
    for call in calls:
        with pytest.raises(VarsetMismatchError):
            call()


def test_non_rational_coefficients_are_rejected():
    """A float carries its binary rounding into Q: 0.1 became
    3602879701896397/36028797018963968.  Only int and Fraction are taken."""
    vs = VarSet(["x", "y"])
    for bad in (0.1, "1/2", 1j):
        calls = [
            lambda: Poly(vs, {(1, 0): bad}),
            lambda: Poly.const(vs, bad),
            lambda: Poly.one(vs).scale(bad),
            lambda: exact_rank([[1, bad]]),
            lambda: fraction_free_echelon([[bad, 1]]),
            lambda: reduce_row([bad, 1], [[1, 0]], [0]),
            lambda: TruncSeries([1, bad]),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                call()
    p = Poly(vs, {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): True})
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Poly.const(vs, Fraction(3, 4)).constant_term() == Fraction(3, 4)
    assert exact_rank([[1, Fraction(1, 2)], [2, 1]]) == 1
