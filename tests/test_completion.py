"""The one S-pair completion loop, ``groebner._complete``, against the two loops
it replaced (``reference_buchberger`` and ``reference_mora_standard_basis`` in
``conftest.py``), on seeded random ideals.

Both must give equal bases, hand the same ordered sequence of inputs to the
normal form (recorded by patching the module global the loops look it up
in), leave the same work budget and trip the same limits.
"""

import random
from fractions import Fraction

import pytest

from arcspace.errors import ResourceLimitError
from arcspace.polyalg import ANTIGRLEX, GREVLEX, GRLEX, LEX, MonomialOrder, Poly, VarSet
from arcspace.polyalg import groebner, mora
from arcspace.polyalg.groebner import buchberger
from arcspace.polyalg.mora import mora_standard_basis

from conftest import reference_buchberger, reference_mora_standard_basis

VS = VarSet(["x", "y", "z"])


def _traced(monkeypatch, module, name, fn, *args):
    """The outcome of fn(*args) and, for each call of module.name it made, the
    inputs and the work budget left after the call (None without a budget)."""
    calls = []
    original = getattr(module, name)

    def record(f, basis, *rest, **kwargs):
        try:
            return original(f, basis, *rest, **kwargs)
        finally:
            budget = kwargs.get("budget")
            calls.append((f, tuple(basis), None if budget is None else budget.remaining))

    with monkeypatch.context() as m:
        m.setattr(module, name, record)
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
        for limit in (1, 2, 4, groebner.DEFAULT_STEP_LIMIT):
            got = _traced(monkeypatch, groebner, "normal_form", buchberger, gens, order, limit)
            want = _traced(monkeypatch, groebner, "normal_form",
                           reference_buchberger, gens, order, limit)
            assert got == want
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
    worked = 0
    for gens in _ideals(5, 12, degrees, terms):
        _, calls = _traced(monkeypatch, mora, "mora_normal_form",
                           mora_standard_basis, gens, order)
        W = mora.DEFAULT_WORK_LIMIT - calls[-1][2] if calls else 0
        for limit in (W - 1, W):
            got = _traced(monkeypatch, mora, "mora_normal_form",
                          mora_standard_basis, gens, order, limit)
            want = _traced(monkeypatch, mora, "mora_normal_form",
                           reference_mora_standard_basis, gens, order, limit)
            assert got == want
            if W:
                assert (got[0] is ResourceLimitError) == (limit == W - 1)
        worked += W > 0
    assert worked

