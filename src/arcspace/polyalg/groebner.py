"""Buchberger's algorithm and reduced Groebner bases for global orders.

The S-pair completion loop, ``_complete``, is written once, with the normal
form as its argument (Greuel-Pfister, ch. 1): ``buchberger`` passes the full
normal form and ``mora.mora_standard_basis`` Mora's weak one.  Pair selection
is the normal strategy (smallest lcm under the active order, ties by pair
index); pair elimination uses the lcm and chain criteria, as is standard.
Each pair is keyed once, when it is formed, on a heap, and a pair the chain
criterion drops later is skipped when it reaches the top.  The loop hands
the normal form the leading monomials it keeps, so no division recomputes
them.  Everything is deterministic.  The loop can start from a ``basis``
whose own S-pairs are known to reduce, such as the standard basis of a
smaller ideal: only the pairs with the new generators are formed, under the
same criteria.  ``buchberger`` given such a basis first reduces each new
generator against it and drops those that reduce to zero; this is how
``mora.canonical_initial_forms`` climbs a jet tower.

Division works on a ``_Remainder``, which ``normal_form`` here and
``mora.mora_normal_form`` share: the remainder's terms live in one dict that a
reduction step changes in place, only at the shifted terms of the reducer,
and a heap of order ranks yields its leading monomial (heap division, after
Monagan and Pearce, J. Symbolic Comput. 46 (2011)).  Neither loop copies the
remainder or rescans it for its leading term.

Each basis computation spends one work budget, a ``_Budget``, across all of
its divisions, interreduction included; ``_Remainder.reduce`` charges every
step the reducer's terms plus the remainder's, so the cutoff is deterministic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Sequence

from ..errors import ResourceLimitError, VarsetMismatchError
from .orders import MonomialOrder, leading_monomial, make_monic
from .poly import (
    Monomial,
    Poly,
    _accumulate,
    _finished,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_WORK_LIMIT = 20_000_000


class _Budget:
    """Work countdown shared by every division of one basis computation.

    Work is counted in terms touched, so a computation on huge polynomials
    trips the limit after comparable effort to one on many small ones.
    """

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int = DEFAULT_WORK_LIMIT):
        self.limit = self.remaining = limit

    def spend(self, cost: int) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise ResourceLimitError(
                f"reduction work budget of {self.limit} terms exhausted")


class _Remainder:
    """A polynomial under division, changed in place.

    ``terms`` holds each integral coefficient as an int, because int
    arithmetic is many times faster than Fraction's and most coefficients met
    in reducing jet ideals are integral (the share measured on the benchmark
    workloads is in the ``poly`` module docstring); ``snapshot`` and ``pop``
    hand out Fractions.
    ``heap`` holds (rank, monomial) entries under the order's rank; an entry
    whose term has since cancelled is dropped when it reaches the top.
    ``degrees`` counts the terms of each total degree, so the ecart needs no
    scan of the terms.  ``budget`` pays for each reduction step.
    """

    __slots__ = ("varset", "terms", "rank", "heap", "degrees", "budget")

    def __init__(self, f: Poly, order: MonomialOrder, budget: _Budget | None):
        self.budget = budget or _Budget()
        self.varset = f.varset
        self.terms = {m: c.numerator if c.denominator == 1 else c for m, c in f.terms.items()}
        self.rank = rank = order.ranker(len(f.varset))
        self.heap = [(rank(m), m) for m in self.terms]
        heapify(self.heap)
        self.degrees = Counter(map(sum, self.terms))

    def lead(self) -> Monomial | None:
        """The leading monomial; None once the remainder is zero."""
        heap, terms = self.heap, self.terms
        while heap:
            m = heap[0][1]
            if m in terms:
                return m
            heappop(heap)
        return None

    def ecart(self, lm: Monomial) -> int:
        """Total degree minus the degree of the leading monomial lm."""
        return max(self.degrees) - sum(lm)

    def _remove(self, m: Monomial) -> int | Fraction:
        degrees = self.degrees
        d = sum(m)
        degrees[d] -= 1
        if not degrees[d]:
            del degrees[d]
        return self.terms.pop(m)

    def pop(self, m: Monomial) -> Fraction:
        """Remove the term at m; returns its coefficient."""
        return Fraction(self._remove(m))

    def reduce(self, g: Poly, lmg: Monomial, lm: Monomial) -> None:
        """Subtract the multiple of g whose leading term is the term at lm.

        Touches only the shifted terms of g; the term at lm cancels exactly
        and is removed without arithmetic.  The step costs the reducer's
        terms plus the remainder's, paid before anything changes.
        """
        terms, heap, rank, degrees = self.terms, self.heap, self.rank, self.degrees
        self.budget.spend(len(g.terms) + len(terms))
        minus = -self._remove(lm) / g.terms[lmg]
        if minus.denominator == 1:
            minus = minus.numerator
        shift = monomial_div(lm, lmg)
        for m, c in g.terms.items():
            if m == lmg:
                continue
            c = minus * (c.numerator if c.denominator == 1 else c)
            m = monomial_mul(m, shift)
            old = terms.get(m)
            if old is None:
                terms[m] = c
                heappush(heap, (rank(m), m))
                degrees[sum(m)] += 1
            elif s := old + c:
                terms[m] = s
            else:
                self._remove(m)

    def snapshot(self) -> Poly:
        """An immutable copy: its terms dict is not the working one."""
        return _finished(self.varset, self.terms)


def _check_varsets(f: Poly, basis: list[Poly]) -> None:
    """Raise VarsetMismatchError unless every reducer is over f's varset.

    A reduction step reads exponent positions, so a reducer over another
    varset would otherwise be applied silently at the wrong variables.
    """
    for g in basis:
        if g.varset != f.varset:
            raise VarsetMismatchError(
                f"reducer over a different variable set: {g.varset!r} vs {f.varset!r}"
            )


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder,
                budget: _Budget | None = None, lms: Sequence[Monomial] | None = None) -> Poly:
    """Full remainder of f on division by basis, paid from budget (a fresh
    default one when None).  lms, when given, are the leading monomials of
    basis, in the same positions; they are computed when None.

    Terminates for any global order; for the local order it is safe only on
    homogeneous inputs (used that way by the standard-basis interreduction).
    Moving a leading term to the remainder costs nothing.
    """
    if f.is_zero() or not basis:
        return f
    _check_varsets(f, basis)
    if lms is None:
        lms = [leading_monomial(g, order) for g in basis]
    h = _Remainder(f, order, budget)
    remainder = Poly.zero(f.varset)
    while (lm := h.lead()) is not None:
        for g, lmg in zip(basis, lms):
            if monomial_divides(lmg, lm):
                h.reduce(g, lmg, lm)
                break
        else:
            # later leading monomials are smaller, so lm is a new term here
            remainder.terms[lm] = h.pop(lm)
    return remainder


def spolynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """S(f, g) = (L/lt(f)) f - (L/lt(g)) g, L the lcm of the leading
    monomials, built in one accumulator.  A leading coefficient of 1, as on
    the monic bases of ``buchberger`` and ``mora_standard_basis``, scales
    nothing."""
    if f.varset != g.varset:
        raise VarsetMismatchError(
            f"operands over different variable sets: {f.varset!r} vs {g.varset!r}")
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = monomial_lcm(lmf, lmg)
    acc: dict[Monomial, Fraction | int] = {}
    for h, lm, sign in ((f, lmf, 1), (g, lmg, -1)):
        lc = h.terms[lm]
        _accumulate(acc, h.terms, {monomial_div(lcm, lm): 1 if lc == 1 else 1 / lc}, sign)
    return _finished(f.varset, acc)


def _update_pairs(lmG: list, P: set, heap: list, order: MonomialOrder) -> None:
    """Gebauer-Moeller style update of the pair set P, in place, when the last
    of the leading monomials lmG enters the basis.  Each new pair is also
    pushed onto heap as (order key of its lcm, pair); a pair the chain
    criterion removes from P stays on heap until it is popped."""
    f_index = len(lmG) - 1
    lmf = lmG[f_index]
    # chain criterion on existing pairs
    P.difference_update([
        (i, j)
        for (i, j) in P
        if monomial_divides(lmf, L := monomial_lcm(lmG[i], lmG[j]))
        and L != monomial_lcm(lmG[i], lmf)
        and L != monomial_lcm(lmG[j], lmf)
    ])
    lcms: dict = {}
    for i in range(f_index):
        lcms.setdefault(monomial_lcm(lmG[i], lmf), []).append(i)
    minimal = []
    for L in sorted(lcms, key=order.key):
        if all(not monomial_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        # lcm (product) criterion: skip coprime leading monomials
        if any(monomial_lcm(lmG[i], lmf) == monomial_mul(lmG[i], lmf) for i in lcms[L]):
            continue
        pair = (min(lcms[L]), f_index)
        P.add(pair)
        heappush(heap, (order.key(L), pair))


def _complete(gens: list[Poly], order: MonomialOrder,
              nf: Callable[[Poly, list[Poly], list[Monomial]], Poly],
              basis: Sequence[Poly] = ()) -> list[Poly]:
    """The S-pair completion of basis + gens, all nonzero, made monic: the pair
    of least lcm under the order (ties by pair index) is taken next, and the
    remainder nf(s, G, lmG) of its S-polynomial s enters the basis unless it
    is zero; lmG holds the leading monomials of G.

    The S-pairs among the elements of basis must already be known to reduce
    (basis is a Groebner or standard basis of its own ideal): they open the
    list G with no pairs among themselves, and only pairs with a later
    element are formed.

    Each pair is keyed once, when it is formed, on a heap; P is the set of
    live pairs, so an entry whose pair the chain criterion has since removed
    is skipped when it reaches the top.
    """
    G = [make_monic(f, order) for f in basis]
    lmG = [leading_monomial(f, order) for f in G]
    P: set = set()
    heap: list = []

    def enter(f: Poly) -> None:
        G.append(make_monic(f, order))
        lmG.append(leading_monomial(f, order))
        _update_pairs(lmG, P, heap, order)

    for f in gens:
        enter(f)
    while P:
        pair = heappop(heap)[1]
        if pair not in P:
            continue
        P.remove(pair)
        i, j = pair
        r = nf(spolynomial(G[i], G[j], order), G, lmG)
        if not r.is_zero():
            enter(r)
    return G


def _reduce_in_turn(gens: list[Poly], order: MonomialOrder,
                    nf: Callable[[Poly, list[Poly], list[Monomial]], Poly],
                    basis: Sequence[Poly] = ()) -> list[Poly]:
    """Each of gens, in turn, replaced by its remainder nf(f, pool, lms)
    against basis and the ones kept before it (lms the pool's leading
    monomials) and made monic; zero remainders are dropped.  What is kept
    generates the same ideal together with basis, and gives the pair loop
    smaller reducers."""
    pool = list(basis)
    lms = [leading_monomial(g, order) for g in pool]
    for f in gens:
        r = nf(f, pool, lms) if pool else f
        if not r.is_zero():
            pool.append(make_monic(r, order))
            lms.append(leading_monomial(r, order))
    return pool[len(basis):]


def buchberger(gens: list[Poly], order: MonomialOrder,
               budget: _Budget | None = None, basis: Sequence[Poly] = ()) -> list[Poly]:
    """Raw (non-reduced) Groebner basis of basis + gens; every division is
    paid from budget (a fresh default one when None).

    basis, when given, must be a Groebner basis of its own ideal: its S-pairs
    are not formed again, and each generator is first reduced against basis
    and the generators kept before it, so that only nonzero remainders enter
    the completion.
    """
    budget = budget or _Budget()

    def nf(f: Poly, G: list[Poly], lms: list[Monomial]) -> Poly:
        # normal_form is read from the globals at each call: a wrapper must see every division
        return normal_form(f, G, order, budget=budget, lms=lms)

    gens = [f for f in gens if not f.is_zero()]
    if basis:
        gens = _reduce_in_turn(gens, order, nf, basis)
    return _complete(gens, order, nf, basis)


def minimalize(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    """Drop elements whose leading monomial is divisible by another's.

    Scanning by leading-monomial degree meets every proper divisor first,
    under global and local orders alike.
    """
    kept: list[Poly] = []
    kept_lms: list = []
    for f in sorted(basis, key=lambda g: monomial_degree(leading_monomial(g, order))):
        lmf = leading_monomial(f, order)
        if not any(monomial_divides(lm, lmf) for lm in kept_lms):
            kept.append(f)
            kept_lms.append(lmf)
    return kept


def interreduce(basis: list[Poly], order: MonomialOrder,
                budget: _Budget | None = None) -> list[Poly]:
    """Each element, all nonzero, reduced by the others and made monic, sorted
    with the greatest leading monomial first; divisions are paid from budget
    (a fresh default one when None)."""
    budget = budget or _Budget()
    lms = [leading_monomial(g, order) for g in basis]
    out = []
    for i, f in enumerate(basis):
        r = normal_form(f, basis[:i] + basis[i + 1:], order, budget=budget,
                        lms=lms[:i] + lms[i + 1:])
        if not r.is_zero():
            out.append(make_monic(r, order))
    return sorted(out, key=lambda g: order.key(leading_monomial(g, order)), reverse=True)


def groebner_basis(gens: list[Poly], order: MonomialOrder,
                   work_limit: int = DEFAULT_WORK_LIMIT) -> list[Poly]:
    """Reduced Groebner basis (unique for the given global order), computed
    within one budget of work_limit terms touched."""
    if not order.is_global:
        raise ValueError("groebner_basis needs a global order; use mora_standard_basis")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    budget = _Budget(work_limit)
    G = buchberger(nonzero, order, budget)
    return interreduce(minimalize(G, order), order, budget)


def reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder) -> bool:
    return normal_form(f, basis, order).is_zero()
