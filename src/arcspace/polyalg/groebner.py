"""Buchberger's algorithm and reduced Groebner bases for global orders.

Pair selection is the normal strategy (smallest lcm under the active order,
ties by pair index); pair elimination uses the lcm and chain criteria, as is
standard.  Everything is deterministic.

Division works on a ``_Remainder``, which ``normal_form`` here and
``mora.mora_normal_form`` share: the remainder's terms live in one dict that a
reduction step changes in place, only at the shifted terms of the reducer,
and a heap of order ranks yields its leading monomial (heap division, after
Monagan and Pearce, J. Symbolic Comput. 46 (2011)).  Neither loop copies the
remainder or rescans it for its leading term.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush

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

DEFAULT_STEP_LIMIT = 2_000_000


class _Remainder:
    """A polynomial under division, changed in place.

    ``terms`` holds each integral coefficient as an int, because int
    arithmetic is many times faster than Fraction's and most coefficients met
    in reducing jet ideals are integral (see ROADMAP item 2); ``snapshot`` and
    ``pop`` hand out Fractions.
    ``heap`` holds (rank, monomial) entries under the order's rank; an entry
    whose term has since cancelled is dropped when it reaches the top.
    ``degrees`` counts the terms of each total degree, so the ecart needs no
    scan of the terms.
    """

    __slots__ = ("varset", "terms", "rank", "heap", "degrees")

    def __init__(self, f: Poly, order: MonomialOrder):
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
        and is removed without arithmetic.
        """
        terms, heap, rank, degrees = self.terms, self.heap, self.rank, self.degrees
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
                step_limit: int = DEFAULT_STEP_LIMIT) -> Poly:
    """Full remainder of f on division by basis.

    Terminates for any global order; for the local order it is safe only on
    homogeneous inputs (used that way by the standard-basis interreduction).
    """
    if f.is_zero() or not basis:
        return f
    _check_varsets(f, basis)
    lms = [leading_monomial(g, order) for g in basis]
    h = _Remainder(f, order)
    remainder = Poly.zero(f.varset)
    steps = 0
    while (lm := h.lead()) is not None:
        steps += 1
        if steps > step_limit:
            raise ResourceLimitError("division step limit exceeded")
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


def _update_pairs(G: list[Poly], lmG: list, P: set, f_index: int, order: MonomialOrder) -> set:
    """Gebauer-Moeller style pair update when G[f_index] enters the basis."""
    lmf = lmG[f_index]
    # chain criterion on existing pairs
    P = {
        (i, j)
        for (i, j) in P
        if not monomial_divides(lmf, monomial_lcm(lmG[i], lmG[j]))
        or monomial_lcm(lmG[i], lmG[j]) == monomial_lcm(lmG[i], lmf)
        or monomial_lcm(lmG[i], lmG[j]) == monomial_lcm(lmG[j], lmf)
    }
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
        P.add((min(lcms[L]), f_index))
    return P


def buchberger(gens: list[Poly], order: MonomialOrder,
               step_limit: int = DEFAULT_STEP_LIMIT) -> list[Poly]:
    """Raw (non-reduced) Groebner basis."""
    G: list[Poly] = []
    lmG: list = []
    P: set = set()
    for f in gens:
        if f.is_zero():
            continue
        G.append(make_monic(f, order))
        lmG.append(leading_monomial(f, order))
        P = _update_pairs(G, lmG, P, len(G) - 1, order)
    while P:
        i, j = min(P, key=lambda p: (order.key(monomial_lcm(lmG[p[0]], lmG[p[1]])), p))
        P.remove((i, j))
        s = spolynomial(G[i], G[j], order)
        r = normal_form(s, G, order, step_limit)
        if not r.is_zero():
            G.append(make_monic(r, order))
            lmG.append(leading_monomial(r, order))
            P = _update_pairs(G, lmG, P, len(G) - 1, order)
    return G


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


def interreduce(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    out = []
    for i, f in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        r = normal_form(f, others, order)
        if not r.is_zero():
            out.append(make_monic(r, order))
    return sorted(out, key=lambda g: order.key(leading_monomial(g, order)), reverse=True)


def groebner_basis(gens: list[Poly], order: MonomialOrder,
                   step_limit: int = DEFAULT_STEP_LIMIT) -> list[Poly]:
    """Reduced Groebner basis (unique for the given global order)."""
    if not order.is_global:
        raise ValueError("groebner_basis needs a global order; use mora_standard_basis")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    G = buchberger(nonzero, order, step_limit)
    return interreduce(minimalize(G, order), order)


def reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder) -> bool:
    return normal_form(f, basis, order).is_zero()
