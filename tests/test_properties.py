"""Property-based checks of the polynomial ring with hypothesis.

The ring axioms, the Leibniz rule for ``partial`` and ``substitute`` as a ring
homomorphism are checked on generated polynomials over Q in x, y, z, and so is
Mora's initial ideal against the brute-force truncation oracle, and the
initial forms of a standard basis against their Buchberger completion.  The
fraction-free division kernel is checked against the copy-per-step reference
loops of ``test_reduction``, the bounded ecart of a remainder against a scan
of its terms, and the S-pairs the completion loop builds at packed monomials
against ``spolynomial``.  A remainder that enters a basis record packed is
checked against the same remainder appended as a monic Poly, also when the
record widens after it entered, and an element of the basis a record opens
with against the same element entered as a remainder.  The one completion
loop behind every basis is checked against sympy's reduced Groebner bases
(when sympy is installed) and for independence of the order of the
generators.  The packed exponent vectors of the division kernel are checked
against the tuple operations and order keys they stand for, and the parser
against the printer and its error positions.  The runs are derandomized, so
every run draws the same examples.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

try:
    import sympy
except ImportError:  # the sympy cross-check is skipped, the rest runs
    sympy = None

from arcspace.errors import ParseError, ResourceLimitError, VarsetMismatchError  # noqa: E402
from arcspace.polyalg import (  # noqa: E402
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Poly,
    VarSet,
    groebner_basis,
    initial_ideal,
    mora_normal_form,
    mora_standard_basis,
    normal_form,
    parse_poly,
    poly_to_string,
    spolynomial,
)
from arcspace.polyalg import groebner  # noqa: E402
from arcspace.polyalg.groebner import (  # noqa: E402
    _Budget,
    _cleared,
    _Overflow,
    _Packing,
    _Reducers,
    _Remainder,
    buchberger,
    interreduce,
    minimalize,
    reduces_to_zero,
)
from arcspace.polyalg.oracles import initial_ideal_mismatches  # noqa: E402
from arcspace.polyalg.orders import leading_monomial, make_monic  # noqa: E402
from arcspace.polyalg.poly import monomial_div, monomial_divides, monomial_mul  # noqa: E402

from conftest import reference_buchberger  # noqa: E402
from test_reduction import (  # noqa: E402
    WIDE_MORA_NORMAL_FORMS,
    WIDE_NORMAL_FORMS,
    reference_mora_normal_form,
    reference_normal_form,
)

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


PAIR_ORDERS = [GREVLEX, GRLEX, LEX, ANTIGRLEX, MonomialOrder("grevlex", (2, 0, 1))]


@checked
@given(st.sampled_from(PAIR_ORDERS), st.data())
def test_a_packed_s_pair_is_the_s_polynomial(order, data):
    """The dividend the completion loop hands a division for the pair (i, j)
    of its record, built from the elements' integer multiples, is
    spolynomial(G[i], G[j]); with a monomial multiple of an element in G,
    some S-polynomials are zero."""
    G = data.draw(st.lists(reducers(order, small_monomials), min_size=2, max_size=4))
    if data.draw(st.booleans()):
        G.append(G[0] * Poly(VS, {data.draw(small_monomials): Fraction(data.draw(non_units))}))
    record = _Reducers(order, G)
    for i, j in combinations(range(len(G)), 2):
        h = _Remainder((i, j), record, _Budget())
        assert all(type(c) is int for c in h.terms.values())
        assert h.snapshot() == spolynomial(G[i], G[j], order)


# Mora's weak normal form can take many steps on some draws; both loops must
# then run out of this budget at the same step
MORA_WORK = 4_000


# -- a division's remainder entering the record packed ---------------------------

# every global kind, one with a priority, and the local order with and without one
ENTRY_ORDERS = [GREVLEX, GRLEX, LEX, MonomialOrder("grevlex", (2, 0, 1)), ANTIGRLEX,
                MonomialOrder("antigrlex", (1, 2, 0))]
# int coefficients leave remainders of content other than 1 and with negative
# leading coefficients; Fractions leave remainders with a scale
int_coefficients = st.integers(-9, 9).filter(bool)


def _widened_to(record, width):
    while record.packing.width < width:
        record.widen()
    return record


def _entered_alike(packed, plain):
    """The record packed, whose later elements entered packed, holds what the
    record plain, of the same elements appended as Polys, holds: leads,
    packed leads, ecarts, Polys and forms.  A form is the element made monic
    and cleared (``_cleared``): primitive, with a positive leading
    coefficient."""
    _widened_to(plain, packed.packing.width)
    assert packed.lms == plain.lms
    assert packed.leads == plain.leads
    assert packed.ecarts == plain.ecarts
    assert packed.elements() == plain.elements()
    for i, g in enumerate(plain.elements()):
        assert packed.forms[i] == plain.forms[i] == _cleared(g, packed.packing.pack)[0]


@checked
@given(st.sampled_from(ENTRY_ORDERS), st.booleans(), st.data())
def test_a_remainder_enters_packed_as_its_monic_poly_would(order, integral, data):
    """The remainder of a division (Buchberger's full normal form under a
    global order, Mora's weak one under a local order) enters the record it
    was divided by as its int terms, scale dropped.  That element has the
    lead, packed lead, ecart and form of the remainder made monic and
    appended as a Poly, and its Poly, made only when read, is that monic
    remainder."""
    coefficient = int_coefficients if integral else fractions_to_7
    dividends, monomials = ((local_monomials, local_monomials) if order.is_local
                            else (dividend_monomials, small_monomials))
    f = Poly(VS, data.draw(st.dictionaries(dividends, coefficient, min_size=1, max_size=6)))
    basis = data.draw(st.lists(st.dictionaries(monomials, coefficient, min_size=1, max_size=3)
                               .map(lambda terms: Poly(VS, terms)), min_size=1, max_size=3))
    record = _Reducers(order, basis)
    divide = mora_normal_form if order.is_local else normal_form
    budget = _Budget(MORA_WORK)
    r = _outcome(lambda: divide(f, record.polys, order, budget=budget, ints=record), budget)[0]
    if r == "exhausted" or r.is_zero():
        return
    assert isinstance(r, _Remainder)
    h = r.snapshot()
    n = len(record.polys)
    record.append(r)
    assert record.polys[n] is None  # made when read
    F, lead = record.forms[n], record.leads[n]
    assert F[lead] > 0 and math.gcd(*F.values()) == 1
    assert record.poly(n) == make_monic(h, order)
    _entered_alike(record, _Reducers(order, [*basis, h]))


def _entered_and_widened(monkeypatch):
    """Counts the widenings of a record holding an element that has no Poly
    yet, since it entered packed or not monic, and the widenings inside an
    interreduction.  A widening repacks the forms, so it makes no element a
    Poly."""
    seen = {"packed": 0, "interreducing": 0}
    widen, interreduced = _Reducers.widen, groebner._interreduced
    inside = [False]

    def counted_widen(record):
        unmade = [i for i, g in enumerate(record.polys) if g is None]
        seen["packed"] += bool(unmade)
        seen["interreducing"] += inside[0]
        widen(record)
        assert all(record.polys[i] is None for i in unmade)

    def counted_interreduced(*args):
        inside[0] = True
        try:
            return interreduced(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(_Reducers, "widen", counted_widen)
    monkeypatch.setattr(groebner, "_interreduced", counted_interreduced)
    return seen


WIDE_DIVISIONS = [*WIDE_NORMAL_FORMS,
                  *((ANTIGRLEX, f, basis) for f, basis in WIDE_MORA_NORMAL_FORMS)]
VSW = VarSet(["x", "y", "z", "w"])


@pytest.mark.parametrize("order, f, basis", WIDE_DIVISIONS)
def test_a_record_widens_after_a_packed_entry(order, f, basis, monkeypatch):
    """A record that widens after a remainder entered it packed repacks that
    element's form and makes no Poly of it.  The record opens with w^5 and
    the packed remainder of 2*w^3 - 4*w^2, which no reducer of the fixture
    divides, and then takes the fixture's reducers, in a fourth variable w
    that none of them reads.  Appending them or dividing f by the record
    widens it; the division returns and charges what the copy-per-step loop
    does on the record's Polys, and the widened record holds what a record
    of those Polys, widened as far, holds."""
    seen = _entered_and_widened(monkeypatch)
    if order.priority is not None:
        order = MonomialOrder(order.kind, (*order.priority, 3))
    f, basis = parse_poly(f, VSW), [parse_poly(g, VSW) for g in basis]
    local = order.is_local
    divide = mora_normal_form if local else normal_form
    record = _Reducers(order, [parse_poly("w^5", VSW)])
    r = divide(parse_poly("2*w^3 - 4*w^2", VSW), record.polys, order, ints=record)
    assert isinstance(r, _Remainder)
    elements = [*record.elements(), *(make_monic(g, order) for g in (r.snapshot(), *basis))]
    record.append(r)
    for g in basis:
        record.append(g)
    budget, ref_budget = _Budget(), _Budget()
    got = divide(f, record.polys, order, budget=budget, ints=record)
    if local:
        expected = reference_mora_normal_form(f, elements, order, ref_budget, [])
    else:
        expected = reference_normal_form(f, elements, order, ref_budget)
    assert got.snapshot() == expected
    assert budget.remaining == ref_budget.remaining
    assert seen["packed"] > 0
    _entered_alike(record, _Reducers(order, elements))


# -6*x^2 + 4*y has content 2 and, under grevlex, a negative leading
# coefficient; x^40000*y + z is past the 16-bit fields, which widen on entry
BASIS_ENTRIES = [(order, g) for g in ("-6*x^2 + 4*y", "x^40000*y + z")
                 for order in (GREVLEX, ANTIGRLEX)]


@pytest.mark.parametrize("order, g", BASIS_ENTRIES)
def test_a_record_opened_from_a_basis_holds_every_form_on_entry(order, g):
    """Every element of the basis a record opens with enters as its packed
    primitive form, made on entry, with a positive leading coefficient: the
    form, lead and ecart the same element has when it enters as the
    remainder of a division by the record.  Its Poly is kept when it is
    monic, as w^5 is, and made from the form when read otherwise."""
    w5, g = parse_poly("w^5", VSW), parse_poly(g, VSW)
    monic = make_monic(g, order)
    plain = _Reducers(order, [w5, g])
    assert plain.polys[0] is w5 and plain.polys[1] is (g if monic is g else None)
    assert (plain.packing.width > 16) == (g.total_degree() >= 2**15)
    for F, lead in zip(plain.forms, plain.leads):
        assert F[lead] > 0 and math.gcd(*F.values()) == 1
    packed = _Reducers(order, [w5])
    divide = mora_normal_form if order.is_local else normal_form
    r = divide(g, packed.polys, order, ints=packed)
    assert isinstance(r, _Remainder)
    packed.append(r)
    _entered_alike(packed, plain)
    assert plain.poly(1) == monic


# -- a record lifted to more variables, as a jet window hands a level up ---------

VS2 = VarSet(["x", "y"])
PRIORITY = MonomialOrder("antigrlex", (2, 0, 1))
# (width the record over x, y opens with, its elements, order over x, y, z):
# 8-bit fields, the default 16-bit ones, and ones that widen to 32 bits as
# x - y^40000 enters; under the priority order, which ranks z first and
# x, y as antigrlex does, the packed keys carry a rank, so the lift repacks
LIFTS = [
    (8, ["x - y^2 + 3*x*y", "2*x*y + y^3", "-4*y^2 + 1/3*x^2*y"], ANTIGRLEX),
    (16, ["x - y^2 + 3*x*y", "2*x*y + y^3", "-4*y^2 + 1/3*x^2*y"], ANTIGRLEX),
    (16, ["x - y^40000", "2*x*y + y^3"], ANTIGRLEX),
    (16, ["x - y^2 + 3*x*y", "2*x*y + y^3", "-4*y^2 + 1/3*x^2*y"], PRIORITY),
    (16, ["x - y^40000", "2*x*y + y^3"], PRIORITY),
]


def _opened(order, polys, width):
    """The record of polys, with fields of width bits to start with."""
    record = _Reducers(order)
    record.varset, record.packing = polys[0].varset, _Packing(order, len(polys[0].varset), width)
    for g in polys:
        record.append(g)
    return record


@pytest.mark.parametrize("width, basis, order", LIFTS)
def test_a_lifted_record_holds_what_the_extended_elements_would(width, basis, order):
    """A record over x, y lifted to x, y, z under order holds what the record
    of its elements made Polys over x, y, z (``Poly.extended``) and appended
    holds, in fields as wide: leads, packed leads, ecarts, Polys and forms.
    Under antigrlex in declaration order each packed key is the one below
    shifted up by one field; under the priority order it is repacked, and
    the shift would be wrong.  No element is made a Poly by the lift."""
    below = _opened(ANTIGRLEX, [parse_poly(g, VS2) for g in basis], width)
    assert below.packing.width == (32 if "40000" in basis[0] else width)
    lifted = below.lifted(VS, order)
    assert (lifted.varset, lifted.order) == (VS, order)
    assert lifted.packing.width == below.packing.width
    assert lifted.polys == [None] * len(below.leads)
    shifted = [p << below.packing.width for p in below.leads]
    assert (lifted.leads == shifted) == (order == ANTIGRLEX)
    extended = [g.extended(VS) for g in below.elements()]
    _entered_alike(lifted, _opened(order, extended, width))
    with pytest.raises(VarsetMismatchError):
        below.lifted(VarSet(["y", "x", "z"]), order)


# x - y^3 steps to x - y*z^40000, past the 16-bit fields, when the
# interreduction divides it by y - z^20000, which entered packed
WIDE_IDEALS = [
    (LEX, ["x - y^3", "y - z^20000"]),
    (MonomialOrder("lex", (2, 1, 0)), ["z - y^3", "y - x^20000"]),
]


@pytest.mark.parametrize("order, gens", WIDE_IDEALS)
def test_an_interreduction_widens_a_record_with_packed_entries(order, gens, monkeypatch):
    """groebner_basis, whose completion enters remainders packed, returns the
    reduced basis the divisions of Polys give, interreduce(minimalize(...))
    of the reference Buchberger loop, where the fields widen inside the
    interreduction with an element that entered packed and has no Poly."""
    seen = _entered_and_widened(monkeypatch)
    gens = [parse_poly(g, VS) for g in gens]
    got = groebner_basis(gens, order)
    assert seen["packed"] > 0 and seen["interreducing"] > 0
    assert got == interreduce(minimalize(reference_buchberger(gens, order), order), order)


@checked
@given(st.data())
def test_mora_normal_form_equals_the_copy_per_step_loop(data):
    f = data.draw(fraction_polys(local_monomials, 6))
    basis = data.draw(st.lists(reducers(ANTIGRLEX, local_monomials), min_size=2, max_size=3))
    budget, ref_budget = _Budget(MORA_WORK), _Budget(MORA_WORK)
    assert _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=budget), budget) \
        == _outcome(lambda: reference_mora_normal_form(f, basis, ANTIGRLEX, ref_budget, []),
                    ref_budget)


def _degree_ecart(h, lm, bound):
    """The ecart of the remainder h by a scan of its terms when it is below
    bound, else None: what ``_Remainder.ecart_below`` stands for."""
    degree = h.packing.degree
    e = max(degree(m) for m in h.terms) - degree(lm)
    return e if e < bound else None


def monomials_of_degree(d):
    return st.tuples(*[st.integers(0, d)] * len(VS)).filter(lambda m: sum(m) == d)


@st.composite
def top_cancelling_divisions(draw):
    """f = c*x^s*g + r with g = a*x_v + b*x^t (deg t = 3) and every term of r
    of degree deg(s) + 2: with g the only reducer, the first step cancels the
    term of highest degree, deg(s) + 3, and leaves r, all of one degree."""
    v = draw(st.integers(0, len(VS) - 1))
    lead = tuple(int(k == v) for k in range(len(VS)))
    g = Poly(VS, {lead: Fraction(draw(non_units)),
                  draw(monomials_of_degree(3)): draw(fractions_to_7)})
    s = draw(monomials_of_degree(draw(st.integers(0, 1))))
    r = draw(st.dictionaries(monomials_of_degree(sum(s) + 2), fractions_to_7, min_size=1,
                             max_size=3))
    f = g * Poly(VS, {s: draw(fractions_to_7)}) + Poly(VS, r)
    return f, [g]


# a longer division can grow its ints to hundreds of thousands of bits, since
# the budget counts terms and not their size
ECART_WORK = 1_000


@checked
@given(st.booleans(), st.data())
def test_the_bounded_ecart_is_the_scanned_one_after_every_step(top_cancelling, data):
    """After every step of a Mora division under antigrlex the bounded read
    equals the scan for bounds 0-4, also when the step cancelled the term of
    highest degree, which a maximum kept from before the step gets wrong."""
    if top_cancelling:
        f, basis = data.draw(top_cancelling_divisions())
    else:
        f = data.draw(fraction_polys(local_monomials, 6))
        basis = data.draw(st.lists(reducers(ANTIGRLEX, local_monomials), min_size=2,
                                   max_size=3))
    reduce = _Remainder.reduce
    dropped = []

    def checked_reduce(h, G, lmg, eg, lm):
        top = max(h.packing.degree(m) for m in h.terms)
        reduce(h, G, lmg, eg, lm)
        if h.terms:
            lead = h.lead()
            for bound in range(5):
                assert h.ecart_below(lead, bound) == _degree_ecart(h, lead, bound)
            dropped.append(max(h.packing.degree(m) for m in h.terms) < top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Remainder, "reduce", checked_reduce)
        budget = _Budget(ECART_WORK)
        _outcome(lambda: mora_normal_form(f, basis, ANTIGRLEX, budget=budget), budget)
    if top_cancelling:
        assert dropped[0]


# -- the one completion loop: small ideals, so that lex bases stay small too --
# generators of total degree <= 2 with at most 3 terms; a coefficient may be
# 0, so a zero generator is drawn too, and must be skipped
ideal_monomials = st.tuples(*[st.integers(0, 2)] * len(VS)).filter(lambda m: sum(m) <= 2)
ideals = st.lists(st.dictionaries(ideal_monomials, coefficients, min_size=1, max_size=3).map(
    lambda terms: Poly(VS, terms)), min_size=2, max_size=3)


def _as_sympy(f, symbols):
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, mono):
            term *= s ** e
        expr += term
    return expr


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@checked
@given(st.sampled_from(["grevlex", "grlex", "lex"]), ideals)
def test_groebner_basis_equals_sympys_reduced_basis(name, gens):
    order = {"grevlex": GREVLEX, "grlex": GRLEX, "lex": LEX}[name]
    symbols = sympy.symbols("x y z")
    theirs = sympy.groebner([_as_sympy(g, symbols) for g in gens], *symbols,
                            order=name, domain="QQ")
    assert {_as_sympy(g, symbols) for g in groebner_basis(gens, order)} \
        == {sympy.expand(e) for e in theirs.exprs}


@checked
@given(st.sampled_from(GLOBAL_ORDERS), ideals, st.data())
def test_groebner_basis_ignores_the_order_of_the_generators(order, gens, data):
    shuffled = data.draw(st.permutations(gens))
    assert groebner_basis(shuffled, order) == groebner_basis(gens, order)


# like local_polys, of degree <= 2: three cubics can run Mora for minutes
local_quadrics = st.dictionaries(local_monomials.filter(lambda m: sum(m) <= 2),
                                 coefficients.filter(bool), min_size=1,
                                 max_size=3).map(lambda terms: Poly(VS, terms))


@checked
@given(st.lists(local_quadrics, min_size=2, max_size=3), st.data())
def test_mora_leading_ideal_ignores_the_order_of_the_generators(gens, data):
    # a minimal standard basis depends on the order of its generators, but its
    # leading monomials generate the leading ideal minimally, which does not
    shuffled = data.draw(st.permutations(gens))

    def leading(basis):
        return {leading_monomial(g, ANTIGRLEX) for g in basis}

    assert leading(mora_standard_basis(shuffled, ANTIGRLEX)) \
        == leading(mora_standard_basis(gens, ANTIGRLEX))


@checked
@given(st.lists(local_quadrics, min_size=2, max_size=3), st.data())
def test_initial_ideal_ignores_the_order_of_the_generators(gens, data):
    # the standard basis depends on the order of the generators, but the
    # reduced basis of the initial ideal does not
    shuffled = data.draw(st.permutations(gens))
    assert initial_ideal(shuffled, ANTIGRLEX) == initial_ideal(gens, ANTIGRLEX)


# quadratic forms: an ideal they generate is homogeneous, its own tangent
# cone, and there Mora's S-pairs add to the initial ideal, as x^3 does to
# (x*y, x^2 + y^2); the quadrics above rarely make such an ideal
homogeneous_quadrics = st.dictionaries(
    st.sampled_from([m for m in product(range(3), repeat=len(VS)) if sum(m) == 2]),
    coefficients.filter(bool), min_size=1, max_size=3).map(lambda terms: Poly(VS, terms))


@checked
@given(st.lists(local_quadrics, min_size=1, max_size=3)
       | st.lists(homogeneous_quadrics, min_size=2, max_size=3))
@example([Poly(VS, {(1, 1, 0): 1}), Poly(VS, {(2, 0, 0): 1, (0, 2, 0): 1})])
def test_initial_forms_of_a_standard_basis_are_a_groebner_basis(gens):
    # LM(g) lies in in(g) under the local degree order, so the initial forms
    # of a standard basis G already form a Groebner basis of the initial
    # ideal: each of their S-pairs reduces to zero, and completing them by
    # Buchberger adds nothing that interreduction alone does not give
    forms = [g.initial_form() for g in mora_standard_basis(gens, ANTIGRLEX)]
    for f, g in combinations(forms, 2):
        assert reduces_to_zero(spolynomial(f, g, ANTIGRLEX), forms, ANTIGRLEX)
    completed = buchberger(forms, ANTIGRLEX)
    assert initial_ideal(gens) \
        == interreduce(minimalize(completed, ANTIGRLEX), ANTIGRLEX)


# -- packed exponent vectors: every order kind, with and without a priority --

ORDER_KINDS = ["lex", "grlex", "grevlex", "antigrlex"]


@st.composite
def packings(draw):
    """A packing of 1-5 variables under a drawn order; its width is 16 bits or
    one that ``_Reducers.widen`` reaches, 128 bits past struct's widths."""
    nvars = draw(st.integers(1, 5))
    priority = draw(st.none() | st.permutations(range(nvars)).map(tuple))
    order = MonomialOrder(draw(st.sampled_from(ORDER_KINDS)), priority)
    return _Packing(order, nvars, draw(st.sampled_from([16, 16, 32, 128])))


def exponent_vectors(packing):
    """Vectors whose products of three still pack: small ones, and ones of
    degree up to a third of the limit."""
    top = packing.limit // (3 * packing.nvars) - 1
    return st.lists(st.integers(0, 3) | st.integers(0, top),
                    min_size=packing.nvars, max_size=packing.nvars).map(tuple)


@checked
@given(st.data())
def test_packed_monomials_stand_for_the_exponent_tuples(data):
    packing = data.draw(packings())
    order, pack = packing.order, packing.pack
    a, c = data.draw(exponent_vectors(packing)), data.draw(exponent_vectors(packing))
    b = data.draw(st.sampled_from([c, monomial_mul(a, c)]))  # a divides b half the time
    pa, pb = pack(a), pack(b)
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert packing.degree(pa) == sum(a)
    # the leader has the least packed int, as it has the least rank
    rank = order.ranker(packing.nvars)
    assert (pa < pb) == (rank(a) < rank(b)) == (order.key(a) > order.key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == pack(monomial_mul(a, b))
    guard = packing.guard
    assert (((pb | guard) - pa) & guard == guard) == monomial_divides(a, b)
    if monomial_divides(a, b):
        assert pb - pa == pack(monomial_div(b, a))


@checked
@given(st.data())
def test_a_degree_past_the_fields_does_not_pack(data):
    packing = data.draw(packings())
    a = list(data.draw(exponent_vectors(packing)))
    a[data.draw(st.integers(0, packing.nvars - 1))] += packing.limit
    with pytest.raises(_Overflow):
        packing.pack(tuple(a))


# -- the parser against the printer ---------------------------------------------

ORDERS = [GREVLEX, GRLEX, LEX, ANTIGRLEX, MonomialOrder("grevlex", (2, 0, 1))]


@checked
@given(polys(max_terms=6), st.sampled_from(ORDERS))
def test_printed_polynomials_parse_back(f, order):
    assert parse_poly(poly_to_string(f, order), VS) == f


@checked
@given(polys(), st.data())
def test_a_changed_character_parses_or_reports_a_position_in_the_text(f, data):
    text = poly_to_string(f)
    i = data.draw(st.integers(0, len(text) - 1))
    ch = data.draw(st.sampled_from("0123456789+-*/^() _xyzw²٣") | st.characters())
    text = text[:i] + ch + text[i + 1:]
    try:
        parse_poly(text, VS)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
