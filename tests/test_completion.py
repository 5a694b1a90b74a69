"""The one S-pair completion loop, ``groebner._complete``, against the two loops
it replaced (``reference_buchberger`` and ``reference_mora_standard_basis`` in
``conftest.py``), on seeded random ideals.

Both must give equal bases, hand the same ordered sequence of inputs to the
normal forms (recorded by patching the module globals the loops look them up
in), leave the same work budget and trip the same limits.  Each basis
computation spends one budget, interreduction included.
"""

import random
from fractions import Fraction

import pytest

from arcspace.errors import ResourceLimitError
from arcspace.polyalg import ANTIGRLEX, GREVLEX, GRLEX, LEX, MonomialOrder, Poly, VarSet
from arcspace.polyalg import groebner, mora, orders
from arcspace.polyalg.groebner import _Budget, buchberger, groebner_basis, interreduce
from arcspace.polyalg.mora import mora_standard_basis
from arcspace.polyalg.orders import leading_monomial
from arcspace.polyalg.poly import monomial_degree, monomial_divides, monomial_lcm, monomial_mul

from conftest import (
    division_inputs,
    reference_buchberger,
    reference_mora_standard_basis,
    tuple_leading_monomial,
    work_spent,
)

VS = VarSet(["x", "y", "z"])


def _traced(monkeypatch, fn, *args):
    """The outcome of fn(*args) and, for each call of groebner.normal_form or
    mora.mora_normal_form it made, the name, the inputs and the work budget
    left after the call (None without a budget).  A pair dividend is
    recorded, before the call, as the S-polynomial it stands for.  The
    completion loop and the interreduction hand in the record of their
    basis, whose elements are Polys only once they leave it: the divisors
    are recorded as the record's elements, read without storing them in it
    (``division_inputs``), and the record must be as long as they are, with
    the element being interreduced, since the benchmark's spans read its
    size."""
    calls = []

    def recorder(name, original):
        def record(f, basis, order, *rest, **kwargs):
            dividend, divisors = division_inputs(f, basis, order)
            assert len(basis) == len(divisors) + isinstance(f, int)
            try:
                return original(f, basis, order, *rest, **kwargs)
            finally:
                budget = kwargs.get("budget")
                calls.append((name, dividend, tuple(divisors),
                              None if budget is None else budget.remaining))
        return record

    with monkeypatch.context() as m:
        for module, name in ((groebner, "normal_form"), (mora, "mora_normal_form")):
            m.setattr(module, name, recorder(name, getattr(module, name)))
        try:
            outcome = fn(*args)
        except ResourceLimitError:
            outcome = ResourceLimitError
    return outcome, calls


def _ideals(seed: int, count: int, degrees: tuple[int, ...], terms: int):
    """Seeded ideals of 4 or 5 generators in x, y, z, each a sum of terms of
    the given degrees: many pairs share an lcm, so the tie-break matters."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(4, 5)):
            data = {}
            for _ in range(terms):
                mono = [0] * len(VS)
                for _ in range(rng.choice(degrees)):
                    mono[rng.randrange(len(VS))] += 1
                data[tuple(mono)] = Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
            gens.append(Poly(VS, data))
        yield gens


@pytest.mark.parametrize("order", [
    GREVLEX, GRLEX, LEX, MonomialOrder("grevlex", (2, 0, 1)), MonomialOrder("lex", (1, 2, 0)),
], ids=["grevlex", "grlex", "lex", "grevlex-priority", "lex-priority"])
def test_buchberger_matches_the_reference_loop(monkeypatch, order):
    tripped = completed = 0
    for gens in _ideals(5, 12, (2,), 3):
        W = work_spent(monkeypatch, buchberger, gens, order)
        for limit in sorted({1, W // 2, max(W - 1, 0), W, groebner.DEFAULT_WORK_LIMIT}):
            got = _traced(monkeypatch, buchberger, gens, order, _Budget(limit))
            want = _traced(monkeypatch, reference_buchberger, gens, order, limit)
            assert got == want
            assert (got[0] is ResourceLimitError) == (limit < W)
            if got[0] is ResourceLimitError:
                tripped += 1
            elif got[1]:
                completed += 1
    # the comparison is not vacuous: some limits trip, some runs reduce pairs
    assert tripped and completed


@pytest.mark.parametrize("order", [ANTIGRLEX, MonomialOrder("antigrlex", (2, 0, 1))],
                         ids=["antigrlex", "antigrlex-priority"])
@pytest.mark.parametrize("degrees, terms", [((2,), 3), ((2, 3), 2)],
                         ids=["quadrics", "binomials"])
def test_mora_matches_the_reference_loop_at_the_work_limit(monkeypatch, order, degrees, terms):
    worked = interreduced = 0
    for gens in _ideals(5, 12, degrees, terms):
        # the whole computation's spend, interreduction included
        W = work_spent(monkeypatch, mora_standard_basis, gens, order)
        for limit in (W - 1, W):
            got = _traced(monkeypatch, mora_standard_basis, gens, order, limit)
            want = _traced(monkeypatch, reference_mora_standard_basis, gens, order, limit)
            assert got == want
            if W:
                assert (got[0] is ResourceLimitError) == (limit == W - 1)
        worked += W > 0
        interreduced += any(call[0] == "normal_form" for call in got[1])
    assert worked
    if degrees == (2,):
        assert interreduced



@pytest.mark.parametrize("order", [ANTIGRLEX, MonomialOrder("antigrlex", (2, 0, 1))],
                         ids=["antigrlex", "antigrlex-priority"])
@pytest.mark.parametrize("degrees, terms", [((2,), 3), ((2, 3), 2)],
                         ids=["quadrics", "binomials"])
def test_mora_from_a_standard_basis_matches_from_scratch(order, degrees, terms):
    """A standard basis B of the first generators, extended by the others,
    gives the leading ideal and the initial forms of the whole ideal."""
    grew = 0
    for gens in _ideals(11, 12, degrees, terms):
        B = mora_standard_basis(gens[:2], order)
        got = mora_standard_basis(gens[2:], order, basis=B)
        want = mora_standard_basis(gens, order)
        lms = {leading_monomial(g, order) for g in got}
        assert lms == {leading_monomial(g, order) for g in want}
        assert (interreduce([g.initial_form() for g in got], order)
                == interreduce([g.initial_form() for g in want], order))
        grew += lms != {leading_monomial(g, order) for g in B}
    # the comparison is not vacuous: the new generators enlarge the leading ideal
    assert grew


@pytest.mark.parametrize("order", [ANTIGRLEX, MonomialOrder("antigrlex", (2, 0, 1))],
                         ids=["antigrlex", "antigrlex-priority"])
@pytest.mark.parametrize("degree", [2, 3], ids=["quadrics", "cubics"])
def test_mora_from_a_standard_basis_skips_its_ideal(monkeypatch, order, degree):
    """A generator already in the ideal of the standard basis B the loop
    starts from never enters, and the whole computation spends one budget."""
    x, z = Poly.variable(VS, "x"), Poly.variable(VS, "z")
    # an element entering the record updates the pairs; the pair loop, which
    # starts once every generator has been reduced, hands pair dividends to
    # the normal form
    events = []
    update, mora_normal_form = groebner._update_pairs, mora.mora_normal_form

    def divided(f, *args, **kwargs):
        if isinstance(f, tuple):
            events.append("pair")
        return mora_normal_form(f, *args, **kwargs)

    monkeypatch.setattr(groebner, "_update_pairs",
                        lambda *args: events.append("enter") or update(*args))
    monkeypatch.setattr(mora, "mora_normal_form", divided)
    grew = 0
    for gens in _ideals(13, 12, (degree,), 3):
        # reduced against B alone, the first new generator reduces to zero
        gens.insert(2, x * gens[0] - z * gens[1])
        B = mora_standard_basis(gens[:2], order)
        want = {leading_monomial(g, order) for g in mora_standard_basis(gens, order)}
        events.clear()
        got = mora_standard_basis(gens[2:], order, basis=B)
        assert {leading_monomial(g, order) for g in got} == want
        # the generators that entered the record, before the first S-pair
        assert (events + ["pair"]).index("pair") == len(gens) - 3
        work_spent(monkeypatch, mora_standard_basis, gens[2:], order,
                   groebner.DEFAULT_WORK_LIMIT, B)
        grew += want != {leading_monomial(g, order) for g in B}
    # the comparison is not vacuous: the new generators enlarge the leading ideal
    assert grew


@pytest.mark.parametrize("degrees, terms", [((2,), 3), ((2, 3), 2)],
                         ids=["quadrics", "binomials"])
def test_mora_from_a_packed_basis_matches_from_its_polys(monkeypatch, degrees, terms):
    """The standard basis mora_standard_basis returns is a read-only
    sequence over its packed record, which a later call opens with as it is,
    also lifted to more variables (``extended``): the completion hands the
    normal forms the same dividends, spends the same work and returns the
    same basis as from the same elements as a list of Polys, made Polys
    over the larger varset by ``Poly.extended``."""
    below_vs = VarSet(["x", "y"])
    grew = 0
    for gens in _ideals(17, 12, degrees, terms):
        # the terms of the first generators free of z make an ideal in x, y
        low = [Poly(below_vs, {m[:2]: c for m, c in g.terms.items() if not m[2]})
               for g in gens[:2]]
        B = mora_standard_basis(low)
        assert len(B) == len(list(B)) and B == list(B) == B[:] and B[-1] == list(B)[-1]
        for new, basis, polys in ((low[1:], B, list(B)),
                                  (gens[2:], B.extended(VS), [g.extended(VS) for g in B])):
            W = work_spent(monkeypatch, mora_standard_basis, new, ANTIGRLEX,
                           groebner.DEFAULT_WORK_LIMIT, polys)
            for limit in (W - 1, W):
                got = _traced(monkeypatch, mora_standard_basis, new, ANTIGRLEX, limit, basis)
                want = _traced(monkeypatch, mora_standard_basis, new, ANTIGRLEX, limit, polys)
                assert got == want
        grew += len(mora_standard_basis(gens[2:], basis=B.extended(VS))) > len(B)
    # the comparison is not vacuous: the new generators enlarge the basis
    assert grew


def _chain_removals(monkeypatch):
    """The pairs the chain criterion removes from the live pairs P (a dict
    from each pair to its lcm), recorded while the completion loops run;
    each must keep its heap entry until it is popped and skipped."""
    removed = []
    update = groebner._update_pairs

    def recording(lms, P, heap, order):
        before = set(P)
        update(lms, P, heap, order)
        stale = before - P.keys()
        assert stale <= {pair for _, pair in heap}
        removed.extend(stale)

    monkeypatch.setattr(groebner, "_update_pairs", recording)
    return removed


@pytest.mark.parametrize("compute, reference, order", [
    (buchberger, reference_buchberger, GREVLEX),
    (mora_standard_basis, reference_mora_standard_basis, ANTIGRLEX),
], ids=["buchberger", "mora"])
def test_pairs_removed_after_they_were_pushed_are_skipped(monkeypatch, compute, reference, order):
    """The pair heap deletes lazily: a pair the chain criterion drops after it
    was pushed is skipped when popped, so the normal forms see the inputs of
    the reference loop, which selects by a minimum over the live set."""
    removed = _chain_removals(monkeypatch)
    for gens in _ideals(5, 12, (2, 3), 2):
        assert _traced(monkeypatch, compute, gens, order) \
            == _traced(monkeypatch, reference, gens, order)
    assert removed


@pytest.mark.parametrize("compute, order", [
    (groebner_basis, GREVLEX), (groebner_basis, LEX),
], ids=["groebner_basis-grevlex", "groebner_basis-lex"])
def test_reduced_bases_run_out_at_their_whole_spend(monkeypatch, compute, order):
    """The one budget covers completion and interreduction: it runs out at
    W - 1 and suffices at W, W the work of the whole computation."""
    beyond_completion = 0
    for gens in _ideals(7, 6, (2,), 3):
        W = work_spent(monkeypatch, compute, gens, order)
        with pytest.raises(ResourceLimitError):
            compute(gens, order, W - 1)
        assert compute(gens, order, W) == compute(gens, order)
        beyond_completion += W > work_spent(monkeypatch, buchberger, gens, order)
    # the interreduction is paid from the same budget
    assert beyond_completion


def test_a_completion_computes_no_leading_monomial_and_clears_each_generator_once(
        monkeypatch):
    """buchberger, groebner_basis and mora_standard_basis build no
    S-polynomial as a Poly, compute no leading monomial of a Poly and scale
    none: every element enters the basis as its packed primitive form, its
    lead the least packed key, and the minimalization, the interreduction
    and the final sort read the leads the elements entered with.  The
    first nonzero generator is cleared of its denominators once, when it
    enters the basis, and each later one once, as the dividend of its
    division; a division's remainder enters packed, so no remainder is
    cleared.  Calls through every name of leading_monomial count."""
    calls: list = []
    for module in (orders, groebner, mora):
        if hasattr(module, "leading_monomial"):
            def counted(f, order, original=module.leading_monomial):
                calls.append(f)
                return original(f, order)
            monkeypatch.setattr(module, "leading_monomial", counted)

    def built(*args):
        raise AssertionError("an S-polynomial was built as a Poly")

    monkeypatch.setattr(groebner, "spolynomial", built)
    scaled: list = []
    scale = Poly.scale

    def counted_scale(f, c):
        scaled.append(f)
        return scale(f, c)

    monkeypatch.setattr(Poly, "scale", counted_scale)
    cleared: list = []
    clear = groebner._cleared

    def counted_clear(f, pack):
        cleared.append(f)
        return clear(f, pack)

    monkeypatch.setattr(groebner, "_cleared", counted_clear)
    entered: list = []
    append = groebner._Reducers.append

    def recorded_append(record, g):
        entered.append(g)
        append(record, g)

    monkeypatch.setattr(groebner._Reducers, "append", recorded_append)

    def monic(f, order):
        return f.scale(1 / f.terms[tuple_leading_monomial(f, order)])

    grown = interreduced = sorted_only = 0
    for compute, order, degrees, terms in (
            (buchberger, GREVLEX, (2,), 3), (groebner_basis, GREVLEX, (2,), 3),
            (mora_standard_basis, ANTIGRLEX, (2,), 3), (mora_standard_basis, ANTIGRLEX, (2, 3), 2)):
        for ideal in _ideals(5, 6, degrees, terms):
            # a zero generator is skipped, and the product reduces to zero
            gens = [Poly.zero(VS), *ideal, ideal[0] * ideal[1]]
            nonzero = [g for g in gens if not g.is_zero()]
            calls.clear()
            scaled.clear()
            cleared.clear()
            entered.clear()
            out = compute(gens, order)
            assert calls == [] and scaled == []
            assert [id(f) for f in cleared] == [id(g) for g in nonzero]
            # the first generator enters as a Poly, every remainder packed
            assert entered[0] is nonzero[0]
            assert all(isinstance(r, groebner._Remainder) for r in entered[1:])
            if compute is buchberger:
                # each element is the monic multiple of what entered
                assert out == [monic(g if isinstance(g, Poly) else g.snapshot(), order)
                               for g in entered]
            # groebner_basis interreduces, and mora_standard_basis does so when
            # its basis is homogeneous and sorts it otherwise
            reduced = compute is groebner_basis or (
                compute is mora_standard_basis and all(g.is_homogeneous() for g in out))
            grown += len(entered) > len(ideal)
            interreduced += reduced and len(out) > 0
            sorted_only += compute is mora_standard_basis and not reduced
    # the comparison is not vacuous: S-pair remainders enter, the
    # interreductions return elements, and some standard bases are only sorted
    assert grown and interreduced and sorted_only


_KINDS = [MonomialOrder(kind, priority) for kind in ("grevlex", "grlex", "lex", "antigrlex")
          for priority in (None, (2, 0, 3, 1))]
_KIND_IDS = [f"{o.kind}{'-priority' if o.priority else ''}" for o in _KINDS]


@pytest.mark.parametrize("order", _KINDS, ids=_KIND_IDS)
def test_new_pairs_have_divisibility_minimal_lcms(order):
    """When a leading monomial enters, ``_update_pairs`` forms a pair for each
    lcm with it that no other such lcm divides, save the coprime ones, one
    pair per lcm (the least partner), keyed by its lcm's degree first.  The
    leads x*y*w, x*y, x*z are the case the order key alone missed under the
    local order: the pair of x*y*w and x*z, lcm x*y*z*w, was kept although
    x*y*z, the lcm of x*y and x*z, divides it."""
    rng = random.Random(29)
    cases = [[(1, 1, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0)]]
    for _ in range(40):
        cases.append([tuple(rng.randint(0, 2) for _ in range(4))
                      for _ in range(rng.randint(3, 7))])
    dropped = 0
    for lms in cases:
        P: dict = {}
        heap: list = []
        for f in range(len(lms)):
            before = set(P)
            groebner._update_pairs(lms[:f + 1], P, heap, order)
            with_f: dict = {}
            for i in range(f):
                with_f.setdefault(monomial_lcm(lms[i], lms[f]), []).append(i)
            minimal = [L for L in with_f
                       if not any(M != L and monomial_divides(M, L) for M in with_f)]
            want = {(min(with_f[L]), f): L for L in minimal
                    if all(L != monomial_mul(lms[i], lms[f]) for i in with_f[L])}
            assert {p: L for p, L in P.items() if p not in before} == want
            pushed = {pair: key for key, pair in heap if pair[1] == f}
            assert pushed == {p: (monomial_degree(L), order.key(L)) for p, L in want.items()}
            dropped += len(minimal) < len(with_f)
    assert dropped
    # the named case: of the lcms x*y*z*w and x*y*z with x*z, only the second
    P, heap = {}, []
    for f in range(3):
        groebner._update_pairs(cases[0][:f + 1], P, heap, order)
    assert (0, 2) not in P and (1, 2) in P


def _selections(monkeypatch):
    """For each S-pair the completion loop hands to a normal form, the lcm of
    its leading monomials and the lcms of the pairs still live then."""
    live: dict = {}
    selected = []
    update = groebner._update_pairs

    def recording(lms, P, heap, order):
        live["lms"], live["P"] = lms, P
        update(lms, P, heap, order)

    def divided(original):
        def divide(f, *args, **kwargs):
            if isinstance(f, tuple):
                lms = live["lms"]
                selected.append((monomial_lcm(lms[f[0]], lms[f[1]]), list(live["P"].values())))
            return original(f, *args, **kwargs)
        return divide

    monkeypatch.setattr(groebner, "_update_pairs", recording)
    for module, name in ((groebner, "normal_form"), (mora, "mora_normal_form")):
        monkeypatch.setattr(module, name, divided(getattr(module, name)))
    return selected


@pytest.mark.parametrize("order", [ANTIGRLEX, MonomialOrder("antigrlex", (2, 0, 1))],
                         ids=["antigrlex", "antigrlex-priority"])
def test_mora_divides_the_pair_of_least_lcm_degree_first(monkeypatch, order):
    """Under the local order the pair taken next has the least lcm degree of
    the live pairs (the sugar choice), not the least lcm under the order,
    which is one of the highest degree."""
    selected = _selections(monkeypatch)
    for gens in _ideals(5, 12, (2, 3), 2):
        mora_standard_basis(gens, order)
    higher = 0
    for L, others in selected:
        assert all(monomial_degree(L) <= monomial_degree(M) for M in others)
        higher += any(monomial_degree(L) < monomial_degree(M) for M in others)
    # the comparison is not vacuous: pairs of higher degree were waiting
    assert higher


@pytest.mark.parametrize("order", [
    GREVLEX, GRLEX, MonomialOrder("grevlex", (2, 0, 1)), MonomialOrder("grlex", (1, 2, 0)),
], ids=["grevlex", "grlex", "grevlex-priority", "grlex-priority"])
def test_degree_orders_select_pairs_as_by_the_order_key_alone(monkeypatch, order):
    """Under grevlex and grlex the order key reads the degree first, so
    keying a pair by its lcm's degree before the order key changes nothing:
    Buchberger divides the same inputs, in the same order, as the loop keyed
    by the order key of the lcm alone."""
    pairs = 0
    for gens in _ideals(5, 12, (2, 3), 2):
        got = _traced(monkeypatch, buchberger, gens, order)
        with monkeypatch.context() as m:
            m.setattr(groebner, "_pair_key", lambda L, order: order.key(L))
            want = _traced(monkeypatch, buchberger, gens, order)
        assert got == want
        pairs += len(got[1]) > len(gens)
    # the comparison is not vacuous: S-pairs were divided
    assert pairs
