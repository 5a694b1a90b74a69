"""Mora's tangent cone algorithm: weak normal forms and standard bases.

Under the local order a leading term has minimal total degree.  Reduction uses
the ecart trick: intermediate remainders join the reducer pool, which makes
the division terminate even though the order is not well-founded.  The weak
normal form h of f satisfies u*f = sum q_i g_i + h for a unit u of the local
ring, and either h = 0 or no leading monomial of the pool divides LM(h).
The reducer is the pool entry of least (ecart, order key of its leading
monomial, position) whose leading monomial divides LM(h).  The pool is sorted
by that tuple once per division, so each step takes the first entry that
divides; a remainder that joins the pool is inserted in order, and since its
position is the largest so far it follows every entry it ties with.

The reduction step is groebner's ``_Remainder``, shared with ``normal_form``:
the remainder is one exact scale times integer terms, changed in place at the
shifted terms of the reducer, and a heap yields LM(h), so no step copies h.
The ecart of h is read only for the pool test (h joins when its ecart is
below the reducer's), and only as far as that test needs: the terms are read
newest first until one reaches the bound (``_Remainder.ecart_below``).  A
reducer of ecart 0 settles it at the first term, and under the local order a
step adds its terms of highest degree last, so the read seldom scans all of
h.  Every monomial of the division is one packed int (``groebner._Packing``),
ordered as the monomial order ranks it: the pool is keyed by the negated
packed leading monomial in place of the order key, and its divisibility scan
is one subtraction and mask per entry.  The elements of the basis enter the
pool from the completion loop's record (``groebner._Reducers``), where each
element entered once as its packed primitive form, its integer multiple,
with its packed leading monomial and ecart read off it.  The loop hands
each S-pair in as its positions in the record, and the record builds the
S-polynomial from the two integer multiples at packed monomials, so it is
never a Poly.  A remainder that joins the pool joins as a copy of its
integer terms, scale left behind (a reducer's multiple plays no part in the
step), because pool entries must not change under later steps.  The
remainder goes back to the loop packed and enters its record as its int
terms (``groebner._Reducers.append``); only a caller that passed no record
gets it as a Poly of Fractions at exponent tuples.

The standard basis is groebner's completion loop, ``_complete``, with the
weak normal form in place of the full one: each generator is first replaced
by its weak normal form against those kept before it, which stays in the
ideal (unit multipliers) and makes the reducers of the pair loop smaller.
The loop takes the S-pair of least lcm degree first (``groebner._pair_key``):
under the local order the smallest lcm has the highest degree, so the
normal strategy of the global orders would divide the pairs of highest
degree first and form many pairs that a low-degree remainder found later
makes useless.
Given a ``basis`` that is already a standard basis, such as the one of the
jet ideal a level down, the loop reduces the generators against it too and
forms only the S-pairs with the new elements.  A standard basis leaves
packed, as a sequence over its record (``groebner._Basis``), and comes back
in as it is, or lifted to the variables of the level above (``extended``):
no element is cleared or made a Poly again.  The minimalization, the
interreduction and the final sort read the leading monomials the loop
computed as each element entered, and the homogeneity test its ecarts.  A
standard basis spends one groebner ``_Budget`` across all of its divisions;
the step charge is the one ``_Remainder.reduce`` makes for ``normal_form``
too.

The initial ideal needs no second completion.  Under the local degree order
the leading monomial of g lies in its initial form in(g), so the initial
forms of a standard basis G of I are a Groebner basis of the initial ideal
in(I), minimal when G is (Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, 5.5; Mora, "An algorithm to compute the equations of
tangent cones", EUROCAM 1982).  Interreducing them gives its reduced basis.
They are read off the packed forms (``_reduced_initial_forms``).
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .orders import ANTIGRLEX, MonomialOrder
from .groebner import (
    DEFAULT_WORK_LIMIT,
    _Basis,
    _Budget,
    _complete,
    _divided,
    _interreduced,
    _minimal,
    _moved,
    _mover,
    _Reducers,
    _Remainder,
)
from .poly import Poly


def mora_normal_form(f: Poly | tuple[int, int], basis: list[Poly],
                     order: MonomialOrder = ANTIGRLEX, budget: _Budget | None = None,
                     ints: _Reducers | None = None) -> Poly | _Remainder:
    """Weak normal form of f against basis (Mora reduction).  The arguments,
    the checks, the record and the result, a Poly unless ints is given, are
    those of ``groebner.normal_form``, through the same entry,
    ``groebner._divided``.

    Reducer selection: minimal ecart, ties by leading monomial under the
    order, then by position in the pool (kept sorted, see the module
    docstring).
    """

    def divide(h: _Remainder, record: _Reducers) -> _Remainder:
        guard = record.packing.guard
        # (ecart, minus the packed leading monomial, which sorts as its order
        # key does, pool position, packed leading monomial, integer terms),
        # sorted: tuple order is the reducer tie-break
        data = sorted((eg, -lmg, i, lmg, G) for i, (lmg, eg, G)
                      in enumerate(zip(record.leads, record.ecarts, record.forms)))
        while (lm := h.lead()) is not None:
            probe = lm | guard
            for eg, _, _, lmg, G in data:
                if (probe - lmg) & guard == guard:  # lmg divides lm
                    break
            else:
                break
            if (eh := h.ecart_below(lm, eg)) is not None:
                # h joins as its integer terms: the scale plays no part in a reducer
                insort(data, (eh, -lm, len(data), lm, dict(h.terms)))
            h.reduce(G, lmg, eg, lm)
        return h

    return _divided(f, basis, order, budget, ints, divide)


def mora_standard_basis(gens: list[Poly], order: MonomialOrder = ANTIGRLEX,
                        work_limit: int = DEFAULT_WORK_LIMIT,
                        basis: Sequence[Poly] = ()) -> Sequence[Poly]:
    """Standard basis of the ideal generated by basis + gens in the localization
    at 0, computed within one budget of work_limit terms touched.

    basis, when given, must be a standard basis of its own ideal under the
    order: its S-pairs are not formed again, and gens are reduced against it
    (see ``groebner._complete``); a basis this function returned enters
    packed, as it is.  Leading terms of the output generate the leading-term
    ideal.  The result is minimal and monic, greatest leading monomial first,
    a read-only sequence over the packed record (``groebner._Basis``); tails
    are fully interreduced only when every element is homogeneous (tail
    reduction need not terminate under a local order).
    """
    if not order.is_local:
        raise ValueError("mora_standard_basis needs the local order")
    budget = _Budget(work_limit)

    def nf(f: Poly | tuple[int, int], record: _Reducers) -> Poly | _Remainder:
        # mora_normal_form is read from the globals at each call (see groebner._buchberger)
        return mora_normal_form(f, record.polys, order, budget=budget, ints=record)

    record = _complete(gens, order, nf, basis)
    kept = _minimal(record.lms)
    # under the local order an element is homogeneous exactly when its ecart is 0
    if not any(record.ecarts[k] for k in kept):
        return _Basis(_interreduced(record.kept(kept), budget))  # sorted as below
    # the least packed lead is the greatest leading monomial
    return _Basis(record.kept(sorted(kept, key=record.leads.__getitem__)))


def _reduced_initial_forms(basis: _Basis, below: _Basis | None = None) -> _Basis:
    """The reduced basis of the initial ideal, read off basis, a minimal
    standard basis as ``mora_standard_basis`` returns it.

    A homogeneous basis (every ecart 0) is that reduced basis already and
    is returned as it is.  Otherwise the initial form of each element, the
    terms of its packed form whose degree field is the lead's, enters a
    record of the same packing, interreduced within one default budget.
    below, when given, is this function's result for a smaller ideal over a
    prefix of the variables (the jet ideal a level down): an element whose
    packed lead is one of its leads, moved to this packing, hands on that
    form, already reduced, in place of its own.  The reduced basis is
    unique, so the result is the same without below.
    """
    record = basis.record
    if not any(record.ecarts):
        return basis
    packing = record.packing
    dshift, dmask = packing.dshift, packing.dmask
    reduced = {}
    if below is not None:
        move = _mover(below.record.packing, packing)
        reduced = {move(lead): F for lead, F in zip(below.record.leads, below.record.forms)}
    forms = record.kept(())
    for lead, F in zip(record.leads, record.forms):
        G = reduced.get(lead)
        if G is not None:
            forms.append(_moved(G, move))
        else:
            d = lead >> dshift & dmask
            forms.append({m: c for m, c in F.items() if m >> dshift & dmask == d})
    return _Basis(_interreduced(forms, _Budget()))


def initial_ideal(gens: list[Poly], order: MonomialOrder = ANTIGRLEX) -> list[Poly]:
    """Generators of the initial ideal: lowest-degree forms of a standard basis.

    The ideal must already be centered at the origin (translate first).  The
    initial forms of its minimal standard basis are a minimal Groebner basis
    of ini(a) (see the module docstring), and the returned forms are their
    interreduction, the reduced Groebner basis of ini(a) for the same local
    order (see ``_reduced_initial_forms``).  The standard basis and the
    interreduction each spend one default budget.
    """
    return list(_reduced_initial_forms(mora_standard_basis(gens, order)))


def mora_reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder = ANTIGRLEX) -> bool:
    return mora_normal_form(f, basis, order).is_zero()
