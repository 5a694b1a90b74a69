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
the remainder is changed in place at the shifted terms of the reducer, a heap
of the order's ranks yields LM(h), and a count of term degrees gives the ecart
of h, so no step copies h or scans it.  Only a remainder that joins the pool
is copied, because pool entries must not change under later steps.

The standard basis is groebner's S-pair completion loop, ``_complete``, with
the weak normal form in place of the full one, after a pre-interreduction of
the generators.  Given a ``basis`` that is already a standard basis, such as
the one of the jet ideal a level down, the pre-interreduction starts from it
and the loop forms only the S-pairs with the new generators.  The
canonicalization of initial forms climbs the tower the same way: given the
reduced Groebner basis of the initial ideal a level down, Buchberger starts
from it, and only the forms that do not reduce to zero against it enter the
completion.  A standard basis, and a canonicalization of initial forms, each
spend one groebner ``_Budget`` across all of their divisions; the step
charge is the one ``_Remainder.reduce`` makes for ``normal_form`` too.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .orders import ANTIGRLEX, MonomialOrder, leading_monomial, make_monic
from .groebner import (
    DEFAULT_WORK_LIMIT,
    _Budget,
    _check_varsets,
    _complete,
    _reduce_in_turn,
    _Remainder,
    buchberger,
    interreduce,
    minimalize,
)
from .poly import Monomial, Poly, monomial_divides


def mora_normal_form(f: Poly, basis: list[Poly], order: MonomialOrder = ANTIGRLEX,
                     budget: _Budget | None = None,
                     lms: Sequence[Monomial] | None = None) -> Poly:
    """Weak normal form of f against basis (Mora reduction), paid from budget
    (a fresh default one when None).  lms, when given, are the leading
    monomials of basis, in the same positions, and basis has no zero element;
    when None, zeros are dropped and the leading monomials computed.

    Reducer selection: minimal ecart, ties by leading monomial under the
    order, then by position in the pool (kept sorted, see the module
    docstring).
    """
    if f.is_zero():
        return f
    _check_varsets(f, basis)
    if lms is None:
        basis = [g for g in basis if not g.is_zero()]
        lms = [leading_monomial(g, order) for g in basis]
    # (ecart, order key of the leading monomial, pool position, leading
    # monomial, reducer), sorted: tuple order is the reducer tie-break
    data = sorted((g.total_degree() - sum(lmg), order.key(lmg), i, lmg, g)
                  for i, (g, lmg) in enumerate(zip(basis, lms)))
    h = _Remainder(f, order, budget)
    while (lm := h.lead()) is not None:
        for eg, _, _, lmg, g in data:
            if monomial_divides(lmg, lm):
                break
        else:
            break
        eh = h.ecart(lm)
        if eg > eh:
            insort(data, (eh, order.key(lm), len(data), lm, h.snapshot()))
        h.reduce(g, lmg, lm)
    return h.snapshot()


def mora_standard_basis(gens: list[Poly], order: MonomialOrder = ANTIGRLEX,
                        work_limit: int = DEFAULT_WORK_LIMIT,
                        basis: Sequence[Poly] = ()) -> list[Poly]:
    """Standard basis of the ideal generated by basis + gens in the localization
    at 0, computed within one budget of work_limit terms touched.

    basis, when given, must be a standard basis of its own ideal under the
    order: its S-pairs are not formed again, and it seeds the interreduction
    of gens.  Leading terms of the output generate the leading-term ideal.  The
    result is minimal and monic; tails are fully interreduced only when every
    element is homogeneous (tail reduction need not terminate under a local
    order).
    """
    if not order.is_local:
        raise ValueError("mora_standard_basis needs the local order")
    budget = _Budget(work_limit)

    def nf(f: Poly, pool: list[Poly], lms: list[Monomial]) -> Poly:
        # mora_normal_form is read from the globals at each call (see groebner.buchberger)
        return mora_normal_form(f, pool, order, budget=budget, lms=lms)

    known = [make_monic(g, order) for g in basis if not g.is_zero()]
    # progressive interreduction of the input: each generator is replaced by
    # its weak normal form against the ones already kept, which stays in the
    # ideal (unit multipliers) and makes the reducers in the pair loop smaller
    pre = _reduce_in_turn([make_monic(g, order) for g in gens if not g.is_zero()],
                          order, nf, known)
    G = minimalize(_complete(pre, order, nf, known), order)
    if all(g.is_homogeneous() for g in G):
        return interreduce(G, order, budget)  # sorted as below
    return sorted(G, key=lambda g: order.key(leading_monomial(g, order)), reverse=True)


def canonical_initial_forms(forms: list[Poly], order: MonomialOrder = ANTIGRLEX,
                            work_limit: int = DEFAULT_WORK_LIMIT,
                            basis: Sequence[Poly] = ()) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by the homogeneous
    basis + forms, computed within one budget of work_limit terms touched.

    basis, when given, must be a Groebner basis of its own ideal under the
    order, such as the initial forms of the jet ideal a level down:
    Buchberger starts from it (see ``groebner.buchberger``).  Buchberger
    completion terminates on homogeneous input for any semigroup order
    (reductions are degreewise finite), and the reduced basis is unique, so
    the output is canonical either way.
    """
    if not basis and all(f.is_zero() for f in forms):
        return []
    budget = _Budget(work_limit)
    return interreduce(minimalize(buchberger(forms, order, budget, basis), order),
                       order, budget)


def initial_ideal(gens: list[Poly], order: MonomialOrder = ANTIGRLEX) -> list[Poly]:
    """Generators of the initial ideal: lowest-degree forms of a standard basis.

    The ideal must already be centered at the origin (translate first).  The
    returned forms are the reduced Groebner basis of ini(a) for the same local
    order.  The standard basis and the canonicalization each spend one
    default budget.
    """
    basis = mora_standard_basis(gens, order)
    return canonical_initial_forms([g.initial_form() for g in basis], order)


def mora_reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder = ANTIGRLEX) -> bool:
    return mora_normal_form(f, basis, order).is_zero()
