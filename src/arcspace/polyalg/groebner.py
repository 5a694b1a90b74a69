"""Buchberger's algorithm and reduced Groebner bases for global orders.

Pair selection is the normal strategy (smallest lcm under the active order,
ties by pair index); pair elimination uses the lcm and chain criteria, as is
standard.  Everything is deterministic.
"""

from __future__ import annotations

from ..errors import ResourceLimitError
from .orders import MonomialOrder, leading_monomial, make_monic
from .poly import (
    Poly,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_STEP_LIMIT = 2_000_000


def term_mul(f: Poly, mono, coeff) -> Poly:
    """Multiply by a single term coeff*x^mono."""
    p = Poly.__new__(Poly)
    p.varset = f.varset
    p.terms = {monomial_mul(m, mono): c * coeff for m, c in f.terms.items()}
    return p


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder,
                step_limit: int = DEFAULT_STEP_LIMIT) -> Poly:
    """Full remainder of f on division by basis.

    Terminates for any global order; for the local order it is safe only on
    homogeneous inputs (used that way by the standard-basis interreduction).
    """
    if f.is_zero() or not basis:
        return f
    lms = [leading_monomial(g, order) for g in basis]
    remainder = Poly.zero(f.varset)
    h = f
    steps = 0
    while not h.is_zero():
        steps += 1
        if steps > step_limit:
            raise ResourceLimitError("division step limit exceeded")
        lm = leading_monomial(h, order)
        for g, lmg in zip(basis, lms):
            if monomial_divides(lmg, lm):
                factor = h.terms[lm] / g.terms[lmg]
                h = h - term_mul(g, monomial_div(lm, lmg), factor)
                break
        else:
            remainder = remainder + Poly(h.varset, {lm: h.terms[lm]})
            h = h - Poly(h.varset, {lm: h.terms[lm]})
    return remainder


def spolynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = monomial_lcm(lmf, lmg)
    sf = term_mul(f, monomial_div(lcm, lmf), 1 / f.terms[lmf])
    sg = term_mul(g, monomial_div(lcm, lmg), 1 / g.terms[lmg])
    return sf - sg


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
