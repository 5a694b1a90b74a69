"""The in-place accumulating kernel against the copy-per-add loops it replaced.

Sums and products of ``Poly`` and ``TPoly``, the sum inside ``compose``,
``drinfeld._ModReducer.reduce``, ``spolynomial`` and the integer rows of
``linalg`` are compared with the reference loops in ``conftest.py`` on seeded
random inputs.  Every result must equal the reference, hold only Fraction
coefficients (ints for the integer rows), share no dict with its inputs, and
leave the inputs unchanged.
"""

import random
import re
from fractions import Fraction

import pytest

from arcspace.drinfeld import _ModReducer
from arcspace.errors import VarsetMismatchError
from arcspace.jets import Arc, eval_along_arc
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

from conftest import (
    copy_add,
    copy_compose,
    copy_integer_rows,
    copy_mod_reduce,
    copy_mul,
    copy_series_add,
    copy_spolynomial,
    copy_substitute_tpoly,
    copy_tpoly_add,
    copy_tpoly_mul,
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
            (TPoly.combination(a, [(cp, b), (cp, c)]),
             copy_tpoly_add(copy_tpoly_add(a, TPoly(VS, [copy_mul(x, cp) for x in b.coeffs],
                                                    b.precision)),
                            TPoly(VS, [copy_mul(x, cp) for x in c.coeffs], c.precision))),
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


def test_compose_sum_matches_the_copying_loop():
    rng = random.Random(11)
    target = VarSet(["q0", "q1"])
    for _ in range(60):
        f = _poly(rng, terms=5, degree=3)
        values = [_tpoly(rng, target, length=3) for _ in VS]
        before = _snapshot(f, *values)
        got = substitute_tpoly(f, values)
        assert got == copy_substitute_tpoly(f, values)
        assert got.precision == copy_substitute_tpoly(f, values).precision
        _check_fresh(got, f, *values)
        assert _snapshot(f, *values) == before

        mapping = {"x": _poly(rng), "z": _poly(rng)}
        want = copy_compose(f, [mapping["x"], None, mapping["z"]], _keep_y, Poly.zero(VS),
                            copy_add, copy_mul)
        got = f.substitute(mapping)
        assert got == want
        _check_fresh(got, f, *mapping.values())

        comps = [TruncSeries([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))],
                             rng.choice([None, 3, 6])) for _ in VS]
        series = eval_along_arc(f, Arc(VS, comps))
        want = copy_compose(f, comps, lambda c, mono: TruncSeries.constant(c),
                            TruncSeries.zero(), copy_series_add, TruncSeries.__mul__)
        assert series == want
        assert all(type(c) is Fraction for c in series.coeffs)

    # a composite that cancels to zero: x^2 - y at (t + q0, (t + q0)^2)
    u = TPoly(target, [Poly.variable(target, "q0"), Poly.one(target)])
    f = Poly(VS, {(2, 0, 0): 1, (0, 1, 0): -1})
    values = [u, u * u, TPoly.zero(target)]
    assert substitute_tpoly(f, values) == copy_substitute_tpoly(f, values) == TPoly.zero(target)


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
        got = _ModReducer(q).reduce(g)
        want = copy_mod_reduce(g, q)
        assert got == want == g.div_monic(q)[1]
        _check_fresh(got, g, q)
        assert _snapshot(g, q) == before
        zero_remainders += got.is_zero() and not g.is_zero()
    assert zero_remainders > 5


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
        got = _as_integer_rows(rows)
        assert got == copy_integer_rows(rows)
        assert all(type(x) is int for row in got for x in row)


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
        lambda: _ModReducer(TPoly(VS, [x, Poly.one(VS)])).reduce(
            TPoly(OTHER, [y, y, Poly.one(OTHER)])),
        # below the degree of q no table row is used, so only reduce's own check sees it
        lambda: _ModReducer(TPoly(VS, [x, x, Poly.one(VS)])).reduce(TPoly(OTHER, [y])),
        lambda: TPoly.combination(tx, [(y, tx)]),
        lambda: TPoly.combination(tx, [(x, ty)]),
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
