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
from arcspace.polyalg.groebner import _Budget, buchberger, groebner_basis
from arcspace.polyalg.mora import canonical_initial_forms, mora_standard_basis
from arcspace.polyalg.orders import leading_monomial

from conftest import (
    dividend_poly,
    record_elements,
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
    completion loop hands in the record of its basis (``ints``), whose
    elements are Polys only once they leave it: the basis is recorded as the
    record's elements, read without storing them in it, and it must be as
    long as they are, since the benchmark's spans read its size."""
    calls = []

    def recorder(name, original):
        def record(f, basis, order, *rest, **kwargs):
            ints = kwargs.get("ints")
            elements = basis if ints is None else record_elements(ints)
            assert len(basis) == len(elements)
            dividend = dividend_poly(f, elements, order, ints)
            try:
                return original(f, basis, order, *rest, **kwargs)
            finally:
                budget = kwargs.get("budget")
                calls.append((name, dividend, tuple(elements),
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
        assert (canonical_initial_forms([g.initial_form() for g in got], order)
                == canonical_initial_forms([g.initial_form() for g in want], order))
        grew += lms != {leading_monomial(g, order) for g in B}
    # the comparison is not vacuous: the new generators enlarge the leading ideal
    assert grew


@pytest.mark.parametrize("order", [ANTIGRLEX, GREVLEX], ids=["antigrlex", "grevlex"])
@pytest.mark.parametrize("degree", [2, 3], ids=["quadrics", "cubics"])
def test_canonicalization_from_a_reduced_basis_matches_from_scratch(monkeypatch, order, degree):
    """The reduced basis B of the first forms, extended by the others, gives
    the reduced basis of all of them within one budget; a new form already in
    the ideal of B never enters the completion."""
    x, z = Poly.variable(VS, "x"), Poly.variable(VS, "z")
    # an element entering the record updates the pairs; the pair loop, which
    # starts once every generator has been reduced, hands pair dividends to
    # the normal form
    events = []
    update, normal_form = groebner._update_pairs, groebner.normal_form

    def divided(f, *args, **kwargs):
        if isinstance(f, tuple):
            events.append("pair")
        return normal_form(f, *args, **kwargs)

    monkeypatch.setattr(groebner, "_update_pairs",
                        lambda *args: events.append("enter") or update(*args))
    monkeypatch.setattr(groebner, "normal_form", divided)
    grew = 0
    for forms in _ideals(13, 12, (degree,), 3):
        forms.append(x * forms[0] - z * forms[1])
        B = canonical_initial_forms(forms[:2], order)
        want = canonical_initial_forms(forms, order)
        events.clear()
        assert canonical_initial_forms(forms[2:], order, basis=B) == want
        # the generators that entered G, before the first S-pair
        assert (events + ["pair"]).index("pair") == len(forms) - 3
        work_spent(monkeypatch, canonical_initial_forms, forms[2:], order,
                   groebner.DEFAULT_WORK_LIMIT, B)
        grew += want != B
    # the comparison is not vacuous: the new forms enlarge the basis
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
    (canonical_initial_forms, ANTIGRLEX), (canonical_initial_forms, GREVLEX),
], ids=["groebner_basis-grevlex", "groebner_basis-lex",
        "canonical_initial_forms-antigrlex", "canonical_initial_forms-grevlex"])
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


def test_buchberger_computes_each_leading_monomial_once(monkeypatch):
    """buchberger, groebner_basis and mora_standard_basis build no
    S-polynomial as a Poly and compute the leading monomial of no polynomial
    twice: the first nonzero generator once, when it enters the basis and is
    made monic from it, and each later generator once, when it is made monic
    before its division.  A division's remainder enters the basis packed, so
    no leading monomial of a remainder is computed, none is scaled monic and
    none is cleared of its denominators again: ``Poly.scale`` and
    ``_cleared`` only meet generators and their monic multiples.  The
    minimalization, the interreduction and the final sort read the leads the
    elements entered with, and the interreduction makes each remainder it
    returns a monic Poly from its packed terms.  Calls through every name of
    leading_monomial count."""
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
            assert len({id(f) for f in calls}) == len(calls)
            assert len(calls) == len(nonzero)
            assert all(any(f is g for g in nonzero) for f in calls)
            # the first generator enters as a Poly, every remainder packed
            assert entered[0] is nonzero[0]
            assert all(isinstance(r, groebner._Remainder) for r in entered[1:])
            assert all(any(f is g for g in nonzero) for f in scaled)
            monics = [monic(g, order) for g in nonzero]
            assert all(any(f == g for g in monics) for f in cleared)
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
