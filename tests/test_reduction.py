"""The in-place reduction step against the copy-per-step loops it replaced.

The reference loops below copy the remainder on every step and rescan it for
its leading monomial with the tuple key; ``mora_normal_form`` and
``normal_form`` must take the same steps, return the same polynomials and
charge the same work: a reduction step costs the reducer's terms plus the
remainder's, and moving a leading term to the remainder costs nothing.  The
divisions work on packed monomials; exponents too wide for the packed fields
must still give the reference loops' results and charges.
"""

import math
import random
from bisect import insort
from fractions import Fraction

import pytest

from arcspace.errors import ResourceLimitError, VarsetMismatchError
from arcspace.jets import jet_ideal, truncate_arc
from arcspace.localgeom import translate_to_origin
from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Poly,
    VarSet,
    groebner,
    initial_ideal,
    mora,
    parse_poly,
)
from arcspace.polyalg.groebner import _Budget, _Remainder, normal_form
from arcspace.polyalg.mora import mora_normal_form

from conftest import (
    dividend_poly,
    monomial_arc,
    random_poly,
    reference_buchberger,
    tuple_key,
    tuple_leading_monomial,
    work_spent,
)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _shifted(g, mono, coeff):
    return Poly(g.varset, {tuple(x + y for x, y in zip(m, mono)): c * coeff
                           for m, c in g.terms.items()})


def _ecart(f, order):
    return f.total_degree() - sum(tuple_leading_monomial(f, order))


def reference_mora_normal_form(f, basis, order, budget, appended):
    if f.is_zero():
        return f
    pool = [g for g in basis if not g.is_zero()]
    data = [(_ecart(g, order), tuple_leading_monomial(g, order), i, g)
            for i, g in enumerate(pool)]
    h = f
    while not h.is_zero():
        lm = tuple_leading_monomial(h, order)
        candidates = [d for d in data if _divides(d[1], lm)]
        if not candidates:
            return h
        eh = _ecart(h, order)
        eg, lmg, _, g = min(candidates, key=lambda d: (d[0], tuple_key(order, d[1]), d[2]))
        if eg > eh:
            data.append((eh, lm, len(data), h))
            appended.append(h)
        budget.spend(len(g.terms) + len(h.terms))
        quotient = tuple(x - y for x, y in zip(lm, lmg))
        h = h - _shifted(g, quotient, h.terms[lm] / g.terms[lmg])
    return h


def reference_normal_form(f, basis, order, budget):
    if f.is_zero() or not basis:
        return f
    lms = [tuple_leading_monomial(g, order) for g in basis]
    remainder = Poly.zero(f.varset)
    h = f
    while not h.is_zero():
        lm = tuple_leading_monomial(h, order)
        for g, lmg in zip(basis, lms):
            if _divides(lmg, lm):
                budget.spend(len(g.terms) + len(h.terms))
                quotient = tuple(x - y for x, y in zip(lm, lmg))
                h = h - _shifted(g, quotient, h.terms[lm] / g.terms[lmg])
                break
        else:
            lead = Poly(h.varset, {lm: h.terms[lm]})
            remainder = remainder + lead
            h = h - lead
    return remainder


class RemainderSpy:
    """Checks every remainder against a scan and every step against a
    Fraction-valued step, and records what a remainder hands out.

    A remainder holds its polynomial as ``scale * terms`` with int terms at
    packed monomials; the spy decodes them with the remainder's packing and
    checks them at exponent tuples.  It checks the heap's leader (the least
    rank under the order) and the bounded ecart against a scan of the terms:
    the ecart when the scan's is below the bound, and None otherwise.
    After each reduction step it checks that the reducer's ecart was handed
    in, that the terms are ints, that ``scale * terms`` equals the remainder
    before the step minus the multiple of the reducer that cancels its
    leading term (the copy-per-step loops' step), and that the terms are
    primitive whenever the step had to scale them up (a != 1).  A step with
    scale 1 and a reducer of leading coefficient 1 must call no gcd and leave
    the scale alone.  It records every Poly a remainder hands out (results)
    and every integer copy Mora pools, each with a copy of its terms taken
    when it was handed out.
    """

    def __init__(self, monkeypatch):
        self.handed: list[tuple[Poly, dict]] = []
        self.pooled: list[tuple[dict, dict, object]] = []
        self.steps = {"integral": 0, "scaled": 0}
        self.gcd_calls = 0
        self.packing = None  # of the remainder last asked for its leader
        lead, snapshot = _Remainder.lead, _Remainder.snapshot
        ecart_below = _Remainder.ecart_below
        reduce = _Remainder.reduce

        def checked_lead(remainder):
            lm = lead(remainder)
            self.packing = packing = remainder.packing
            rank = packing.order.ranker(packing.nvars)
            assert lm == min(remainder.terms, key=lambda p: rank(packing.unpack(p)),
                             default=None)
            return lm

        def checked_ecart_below(remainder, lm, bound):
            e = ecart_below(remainder, lm, bound)
            unpack = remainder.packing.unpack
            scan = max(sum(unpack(p)) for p in remainder.terms) - sum(unpack(lm))
            assert e == (scan if scan < bound else None)
            return e

        def checked_reduce(remainder, G, lmg, eg, lm):
            unpack = remainder.packing.unpack
            assert eg == max(sum(unpack(p)) for p in G) - sum(unpack(lmg))
            expected = _value(remainder)
            factor = Fraction(remainder.terms[lm] * remainder.scale) / G[lmg]
            quotient = tuple(x - y for x, y in zip(unpack(lm), unpack(lmg)))
            for p, c in G.items():
                m = tuple(x + y for x, y in zip(unpack(p), quotient))
                if v := expected.get(m, 0) - factor * c:
                    expected[m] = v
                else:
                    del expected[m]
            a = abs(G[lmg]) // math.gcd(G[lmg], remainder.terms[lm])
            integral = remainder.scale == 1 and G[lmg] == 1
            scale, calls = remainder.scale, self.gcd_calls
            reduce(remainder, G, lmg, eg, lm)
            assert all(type(c) is int for c in remainder.terms.values())
            assert _value(remainder) == expected
            if a != 1:
                self.steps["scaled"] += 1
                assert math.gcd(*remainder.terms.values()) in (0, 1)
            if integral:
                self.steps["integral"] += 1
                assert self.gcd_calls == calls and remainder.scale is scale

        def counted_gcd(*args):
            self.gcd_calls += 1
            return math.gcd(*args)

        def checked_snapshot(remainder):
            p = snapshot(remainder)
            assert p.terms is not remainder.terms
            self.handed.append((p, dict(p.terms)))
            return p

        def checked_insort(data, entry):
            self.pooled.append((entry[4], dict(entry[4]), self.packing))
            insort(data, entry)

        monkeypatch.setattr(_Remainder, "lead", checked_lead)
        monkeypatch.setattr(_Remainder, "ecart_below", checked_ecart_below)
        monkeypatch.setattr(_Remainder, "reduce", checked_reduce)
        monkeypatch.setattr(_Remainder, "snapshot", checked_snapshot)
        monkeypatch.setattr(groebner, "gcd", counted_gcd)
        monkeypatch.setattr(mora, "insort", checked_insort)

    def check_unchanged(self):
        for p, terms in self.handed:
            assert p.terms == terms
            assert all(type(c) is Fraction for c in p.terms.values())
        for G, terms, _ in self.pooled:
            assert G == terms
            assert all(type(c) is int for c in G.values())


def _value(remainder):
    """The terms of the polynomial a remainder stands for, scale * terms, at
    exponent tuples."""
    s, unpack = remainder.scale, remainder.packing.unpack
    return {unpack(p): s * c for p, c in remainder.terms.items()}


def _proportional(G, h, packing):
    """True if the int terms G at packed monomials are a nonzero multiple of
    the Poly h."""
    terms = {packing.unpack(p): c for p, c in G.items()}
    if terms.keys() != h.terms.keys():
        return False
    ratios = {Fraction(c) / h.terms[m] for m, c in terms.items()}
    return len(ratios) == 1


def _outcome(call):
    try:
        return call()
    except ResourceLimitError:
        return "exhausted"


def _local_case(rng, vs):
    """Random generators without constant term and a random f to reduce."""
    polys = []
    while len(polys) < 4:
        p = random_poly(vs, rng, max_degree=3, terms=rng.randint(2, 4))
        p = p - Poly.const(vs, p.constant_term())
        if not p.is_zero():
            polys.append(p)
    return polys[0], polys[1:]


# Mora's weak normal form terminates, but on some random inputs only after
# many steps; those cases check that both loops run out at the same step
WORK = 4_000


def test_mora_step_matches_the_copy_per_step_loop(monkeypatch):
    vs = VarSet(["x", "y", "z"])
    rng = random.Random(401)
    spy = RemainderSpy(monkeypatch)
    pooled = 0
    for _ in range(80):
        f, basis = _local_case(rng, vs)
        appended: list = []
        ref_budget, budget = _Budget(WORK), _Budget(WORK)
        expected = _outcome(lambda: reference_mora_normal_form(
            f, basis, ANTIGRLEX, ref_budget, appended))
        handed, pooled_before = len(spy.handed), len(spy.pooled)
        got = _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=budget))
        assert got == expected
        assert budget.remaining == ref_budget.remaining
        if got == "exhausted":
            continue
        # one snapshot, for the result; one integer copy per pool append,
        # each a multiple of the remainder the reference loop pooled
        assert len(spy.handed) - handed == 1
        assert got is spy.handed[-1][0]
        copies = [(G, packing) for G, _, packing in spy.pooled[pooled_before:]]
        assert len(copies) == len(appended)
        assert all(_proportional(G, h, packing) for (G, packing), h in zip(copies, appended))
        pooled += len(appended)
        work = WORK - ref_budget.remaining
        for limit in sorted({0, 1, work // 2, work - 1}):
            assert _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=_Budget(limit))) \
                == _outcome(lambda: reference_mora_normal_form(
                    f, basis, ANTIGRLEX, _Budget(limit), []))
    assert pooled > 0
    assert spy.steps["integral"] > 0 and spy.steps["scaled"] > 0
    spy.check_unchanged()


def test_mora_sorted_pool_breaks_ties_by_position(monkeypatch):
    vs = VarSet(["x", "y", "z"])
    # equal ecart (1) and equal leading monomial (x): the earlier entry wins
    f = parse_poly("x", vs)
    for basis, expected in (
            (["x + y^2", "x + z^2"], "-y^2"),
            (["x + z^2", "x + y^2"], "-z^2")):
        pool = [parse_poly(g, vs) for g in basis]
        got = mora_normal_form(f, pool, ANTIGRLEX, budget=_Budget())
        assert got == reference_mora_normal_form(f, pool, ANTIGRLEX, _Budget(), [])
        assert got == parse_poly(expected, vs)

    # a remainder that joins the pool goes in at its place in the order, not
    # at the end.  It never ties with an entry already there on (ecart, key):
    # such an entry would divide LM(h) with ecart(h) and be the reducer, and a
    # reducer of ecart <= ecart(h) does not pool h.  Later steps must pick what
    # the reference loop picks.
    inserted = {"inside": 0, "tied": 0}

    def checked_insort(data, entry):
        assert entry[2] == len(data)  # the largest position so far
        inserted["tied"] += any(d[:2] == entry[:2] for d in data)
        inserted["inside"] += any(d > entry for d in data)
        insort(data, entry)

    monkeypatch.setattr(mora, "insort", checked_insort)
    rng = random.Random(419)
    for _ in range(80):
        f, basis = _local_case(rng, vs)
        assert _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=_Budget(WORK))) \
            == _outcome(lambda: reference_mora_normal_form(
                f, basis, ANTIGRLEX, _Budget(WORK), []))
    assert inserted["inside"] > 0 and inserted["tied"] == 0


@pytest.mark.parametrize("order", [GREVLEX, GRLEX, LEX, MonomialOrder("grlex", (2, 0, 1)),
                                   MonomialOrder("lex", (1, 2, 0))])
def test_normal_form_matches_the_copy_per_step_loop(order, monkeypatch):
    vs = VarSet(["x", "y", "z"])
    rng = random.Random(f"normal-form/{order}")
    spy = RemainderSpy(monkeypatch)
    tripped = completed = 0
    for _ in range(40):
        f = random_poly(vs, rng, max_degree=4, terms=rng.randint(1, 12))
        basis = [g for g in (random_poly(vs, rng, max_degree=3, terms=rng.randint(1, 4))
                             for _ in range(rng.randint(1, 4))) if not g.is_zero()]
        ref_budget, budget = _Budget(), _Budget()
        expected = reference_normal_form(f, basis, order, ref_budget)
        got = normal_form(f, basis, order, budget)
        assert got == expected
        assert budget.remaining == ref_budget.remaining
        assert all(type(c) is Fraction for c in got.terms.values())
        work = budget.limit - budget.remaining
        for limit in sorted({*range(0, 8), max(work - 1, 0), work, 300}):
            ref_budget, budget = _Budget(limit), _Budget(limit)
            got = _outcome(lambda: normal_form(f, basis, order, budget))
            assert got == _outcome(lambda: reference_normal_form(f, basis, order, ref_budget))
            assert budget.remaining == ref_budget.remaining
            assert (got == "exhausted") == (limit < work)
            tripped += got == "exhausted"
            completed += got != "exhausted" and limit < 300
    # the comparison is not vacuous: some limits trip, some small ones suffice
    assert tripped and completed
    assert spy.steps["scaled"] > 0


def test_normal_form_pays_nothing_for_terms_no_reducer_divides():
    vs = VarSet(["x", "y"])
    f = parse_poly("x^2 + 3*x*y - y^3", vs)
    budget = _Budget(0)
    assert normal_form(f, [parse_poly("x^3 - y", vs)], GREVLEX, budget) == f
    assert budget.remaining == 0


def test_normal_form_on_homogeneous_forms_under_the_local_order(monkeypatch):
    vs = VarSet(["x", "y", "z"])
    rng = random.Random(409)
    RemainderSpy(monkeypatch)
    for _ in range(40):
        forms = [random_poly(vs, rng, max_degree=3, terms=4).homogeneous_part(d)
                 for d in (3, 2, 2, 3)]
        f, basis = forms[0], [g for g in forms[1:] if not g.is_zero()]
        ref_budget, budget = _Budget(), _Budget()
        assert normal_form(f, basis, ANTIGRLEX, budget) \
            == reference_normal_form(f, basis, ANTIGRLEX, ref_budget)
        assert budget.remaining == ref_budget.remaining


def test_jet_ideal_reductions_match_the_copy_per_step_loops(quadric, monkeypatch):
    """Every division inside initial_ideal of the level-4 jet ideal of the
    quadric cone, translated to the jet of (t^3, 0, 0, 0): remainders join
    Mora's pool there."""
    gens = translate_to_origin(jet_ideal(quadric, 4), truncate_arc(monomial_arc(quadric, 3), 4))
    spy = RemainderSpy(monkeypatch)
    seen = {"mora": 0, "pooled": 0, "groebner": 0, "forwarded": 0, "integral": 0, "kept": 0,
            "pairs": 0}

    def forwarded(basis, order, ints):
        # leading monomials the completion loop hands in are those of basis
        assert ints is None or list(ints.lms) == [tuple_leading_monomial(g, order) for g in basis]
        seen["forwarded"] += ints is not None

    def integral(basis, ints):
        # the record handed in holds basis itself and, in its positions, the
        # packed leading monomials and ecarts of basis, and integer multiples
        # that are None (not made yet) or multiples of basis; made ones are
        # kept for later divisions of the same basis computation
        if ints is not None:
            packing = ints.packing
            assert ints.polys is basis
            assert [packing.unpack(p) for p in ints.leads] \
                == [tuple_leading_monomial(g, ANTIGRLEX) for g in basis]
            assert ints.ecarts == [_ecart(g, ANTIGRLEX) for g in basis]
            assert len(ints.forms) == len(basis)
            assert all(_proportional(G, g, packing)
                       for G, g in zip(ints.forms, basis) if G is not None)
            seen["integral"] += 1
            seen["kept"] += sum(G is not None for G in ints.forms)
        return ints

    def checked_mora(f, basis, order=ANTIGRLEX, budget=None, ints=None):
        budget = budget if budget is not None else _Budget()
        ref_budget = _Budget(budget.remaining)
        appended: list = []
        seen["pairs"] += isinstance(f, tuple)
        expected = reference_mora_normal_form(dividend_poly(f, basis, order), basis, order,
                                              ref_budget, appended)
        forwarded(basis, order, ints)
        got = mora_normal_form(f, basis, order, budget=budget, ints=integral(basis, ints))
        integral(basis, ints)
        assert got == expected
        assert budget.remaining == ref_budget.remaining
        seen["mora"] += 1
        seen["pooled"] += len(appended)
        return got

    def checked_nf(f, basis, order, budget=None, ints=None):
        budget = budget if budget is not None else _Budget()
        ref_budget = _Budget(budget.remaining)
        forwarded(basis, order, ints)
        got = normal_form(f, basis, order, budget, ints=integral(basis, ints))
        integral(basis, ints)
        seen["pairs"] += isinstance(f, tuple)
        assert got == reference_normal_form(dividend_poly(f, basis, order), basis, order,
                                            ref_budget)
        assert budget.remaining == ref_budget.remaining
        seen["groebner"] += 1
        return got

    monkeypatch.setattr(mora, "mora_normal_form", checked_mora)
    monkeypatch.setattr(groebner, "normal_form", checked_nf)
    forms = initial_ideal(gens)
    assert forms
    assert seen["mora"] > 0 and seen["pooled"] > 0 and seen["groebner"] > 0
    assert seen["forwarded"] > 0 and seen["integral"] > 0 and seen["kept"] > 0
    assert seen["pairs"] > 0
    assert spy.steps["integral"] > 0  # every reducer here is integral and monic
    spy.check_unchanged()

    # the whole standard basis runs out of work at the same limit either way
    monkeypatch.setattr(mora, "mora_normal_form", mora_normal_form)
    work = work_spent(monkeypatch, mora.mora_standard_basis, gens)
    new = [_outcome(lambda: mora.mora_standard_basis(gens, work_limit=w))
           for w in (work - 1, work)]

    def reference(f, basis, order=ANTIGRLEX, budget=None, ints=None):
        return reference_mora_normal_form(dividend_poly(f, basis, order), basis, order,
                                          budget, [])

    monkeypatch.setattr(mora, "mora_normal_form", reference)
    old = [_outcome(lambda: mora.mora_standard_basis(gens, work_limit=w))
           for w in (work - 1, work)]
    assert new == old
    assert new[0] == "exhausted" and new[1] != "exhausted"



@pytest.mark.parametrize("reduce", [
    lambda f, basis: mora_normal_form(f, basis),
    lambda f, basis: normal_form(f, basis, GREVLEX),
], ids=["mora_normal_form", "normal_form"])
def test_reducers_over_another_varset_are_rejected(reduce):
    """y over (y, x) has the exponent vector of x over (x, y); without a
    varset check it would reduce x to zero."""
    f = Poly.variable(VarSet(["x", "y"]), "x")
    g = Poly.variable(VarSet(["y", "x"]), "y")
    with pytest.raises(VarsetMismatchError):
        reduce(f, [g])


@pytest.mark.parametrize("reduce, to_zero", [
    (lambda f, basis: mora_normal_form(f, basis),
     lambda f, basis: mora.mora_reduces_to_zero(f, basis)),
    (lambda f, basis: normal_form(f, basis, GREVLEX),
     lambda f, basis: groebner.reduces_to_zero(f, basis, GREVLEX)),
], ids=["mora_normal_form", "normal_form"])
def test_zero_reducers_are_dropped(reduce, to_zero):
    """A zero reducer has no leading term; both normal forms divide by the
    others, and a zero f is returned before the varsets are compared."""
    vs = VarSet(["x", "y"])
    zero, x = Poly.zero(vs), Poly.variable(vs, "x")
    f = parse_poly("x^2 + y", vs)
    assert reduce(f, [zero, x, zero]) == reduce(f, [x])
    assert reduce(f, [zero]) == f
    assert to_zero(parse_poly("x^2 + x*y", vs), [zero, x])
    assert reduce(Poly.zero(VarSet(["y", "x"])), [zero, x]).is_zero()


# Exponents of 2^15 and more do not fit the 16-bit fields a division first
# packs monomials in, and x^(2^70) does not fit 64-bit ones either: the
# division must still take the copy-per-step loop's steps, not wrapped ones.
BIG = 2 ** 70
WIDE_NORMAL_FORMS = [
    (GREVLEX, "x^40001*y + x^3", ["x^40000 - y"]),            # a dividend past the fields
    (GREVLEX, "(x^40000 - y)*(x + 2*z^2 - 3)", ["x^40000 - y"]),  # a multiple of the reducer
    (LEX, "x^2 + x*z", ["x - y^20000"]),                      # x*y^20000 steps to y^40000
    (MonomialOrder("lex", (1, 0, 2)), "x*y^2 + z", ["y - x^20000*z"]),  # x^20001*y*z steps
    (GRLEX, f"x^{BIG}*y + 1/2*z", ["y - z", f"x^{BIG} - x"]),
]
WIDE_MORA_NORMAL_FORMS = [
    ("y", ["y - x^40000"]),                                  # a reducer past the fields
    ("x*y + y^2", ["y - x^20000"]),                          # y*x^20000 steps to x^40000
    ("(y - x^40000)*(1 + x + 3*z)", ["y - x^40000"]),         # a multiple of the reducer
    ("2*y*z + x^3*z", ["y - x^20000", "z - 1/3*x^20000*y"]),  # a pooled remainder steps
    ("y + z^2", [f"y - x^{BIG}"]),
]


def _widened(monkeypatch):
    """Counts the times a division widens its fields."""
    count = [0]
    widen = groebner._Reducers.widen

    def counted(reducers):
        count[0] += 1
        widen(reducers)

    monkeypatch.setattr(groebner._Reducers, "widen", counted)
    return count


@pytest.mark.parametrize("order, f, basis", WIDE_NORMAL_FORMS)
def test_normal_form_with_exponents_past_the_fields(order, f, basis, monkeypatch):
    widened = _widened(monkeypatch)
    vs = VarSet(["x", "y", "z"])
    f, basis = parse_poly(f, vs), [parse_poly(g, vs) for g in basis]
    ref_budget, budget = _Budget(), _Budget()
    expected = reference_normal_form(f, basis, order, ref_budget)
    assert normal_form(f, basis, order, budget) == expected
    assert budget.remaining == ref_budget.remaining
    assert widened[0] > 0
    work = budget.limit - budget.remaining
    for limit in (work - 1, work):
        assert _outcome(lambda: normal_form(f, basis, order, _Budget(limit))) \
            == _outcome(lambda: reference_normal_form(f, basis, order, _Budget(limit)))


@pytest.mark.parametrize("f, basis", WIDE_MORA_NORMAL_FORMS)
def test_mora_normal_form_with_exponents_past_the_fields(f, basis, monkeypatch):
    widened = _widened(monkeypatch)
    vs = VarSet(["x", "y", "z"])
    f, basis = parse_poly(f, vs), [parse_poly(g, vs) for g in basis]
    ref_budget, budget = _Budget(), _Budget()
    expected = reference_mora_normal_form(f, basis, ANTIGRLEX, ref_budget, [])
    assert mora_normal_form(f, basis, ANTIGRLEX, budget=budget) == expected
    assert budget.remaining == ref_budget.remaining
    assert widened[0] > 0
    work = budget.limit - budget.remaining
    for limit in (work - 1, work):
        assert _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=_Budget(limit))) \
            == _outcome(lambda: reference_mora_normal_form(
                f, basis, ANTIGRLEX, _Budget(limit), []))


def _pair_overflows(monkeypatch):
    """The S-pairs (i, j) whose build raised _Overflow, each with the field
    width it was built in."""
    overflowed = []
    spair = groebner._Reducers.spair

    def recorded(reducers, i, j):
        try:
            return spair(reducers, i, j)
        except groebner._Overflow:
            overflowed.append((i, j, reducers.packing.width))
            raise

    monkeypatch.setattr(groebner._Reducers, "spair", recorded)
    return overflowed


def test_a_basis_computation_keeps_its_widened_reducers(monkeypatch):
    """The third division of this Buchberger run is the S-pair of x*y -
    z^20000 and x*z^20000 - y^2: its lcm x*y*z^20000 fits the 16-bit fields,
    but z^20000 times the first element's tail z^20000 does not, so building
    it widens them; the two divisions after it use the widened reducers
    without widening again."""
    widened = _widened(monkeypatch)
    overflowed = _pair_overflows(monkeypatch)
    vs = VarSet(["x", "y", "z"])
    gens = [parse_poly(g, vs) for g in ("x*y - z^20000", "x^2 - y")]
    raw = groebner.buchberger(gens, LEX)
    assert widened[0] == 1
    assert overflowed == [(0, 2, 16)]
    reduced = groebner.groebner_basis(gens, LEX)

    def reference(f, basis, order, budget=None, ints=None):
        return reference_normal_form(dividend_poly(f, basis, order), basis, order, budget)

    monkeypatch.setattr(groebner, "normal_form", reference)
    assert raw == groebner.buchberger(gens, LEX)
    assert reduced == groebner.groebner_basis(gens, LEX)
    assert parse_poly("y^3 - z^40000", vs) in reduced


# S-pairs of elements that fit 16-bit fields but whose shifted terms do not;
# each run widens once, where the pair is built, and returns size elements
WIDE_PAIRS = [
    # the lcm x^20000*y^20000 itself has degree 40000
    (GREVLEX, ("x^20000*y - z", "x*y^20000 - z"), (0, 1), 4),
    # the lcm of z^20000 + x*z^10000 and z^30000 + z^20000 fits, a shifted
    # tail z^40000 does not, and z^10000 + y must then divide it
    (LEX, ("x*y - z^20000", "x^2 - y", "z^10000 + y"), (3, 4), 5),
]


@pytest.mark.parametrize("order, gens, pair, size", WIDE_PAIRS)
def test_an_s_pair_past_the_fields_is_built_again_wider(order, gens, pair, size, monkeypatch):
    """Building the S-pair widens the fields, once, and the run takes the
    reference loop's steps, results and charges."""
    widened = _widened(monkeypatch)
    overflowed = _pair_overflows(monkeypatch)
    vs = VarSet(["x", "y", "z"])
    gens = [parse_poly(g, vs) for g in gens]
    work = work_spent(monkeypatch, groebner.buchberger, gens, order)
    assert widened[0] == 1
    assert overflowed == [(*pair, 16)]
    raw = groebner.buchberger(gens, order)
    assert raw == reference_buchberger(gens, order)
    assert len(raw) == size
    assert work == work_spent(monkeypatch, reference_buchberger, gens, order)
