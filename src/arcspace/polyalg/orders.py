"""Monomial orders: three global ones and the local antigraded order.

grevlex, grlex and lex are global (1 is the smallest monomial).  antigrlex is
local, defined by x^a < x^b iff x^b <_grlex x^a, so 1 is the largest monomial
and a leading term has minimal total degree.  Variable priority defaults to
declaration order; an explicit permutation of positions may be supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Monomial, Poly, monomial_degree

_KINDS = ("grevlex", "grlex", "lex", "antigrlex")


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    priority: tuple[int, ...] | None = None  # permutation of varset positions

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.priority is not None and sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of 0..n-1")

    @property
    def is_global(self) -> bool:
        return self.kind != "antigrlex"

    @property
    def is_local(self) -> bool:
        return self.kind == "antigrlex"

    def key(self, mono: Monomial):
        """Sort key; larger key means larger monomial under this order."""
        e = mono if self.priority is None else tuple(mono[p] for p in self.priority)
        if self.kind == "lex":
            return e
        deg = sum(e)
        if self.kind == "grlex":
            return (deg, e)
        if self.kind == "grevlex":
            return (deg, tuple(-x for x in reversed(e)))
        # antigrlex: reverse of grlex
        return (-deg, tuple(-x for x in e))

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")
ANTIGRLEX = MonomialOrder("antigrlex")


def leading_monomial(f: Poly, order: MonomialOrder) -> Monomial:
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    return max(f.terms, key=order.key)


def leading_coefficient(f: Poly, order: MonomialOrder) -> Fraction:
    return f.terms[leading_monomial(f, order)]


def leading_term(f: Poly, order: MonomialOrder) -> Poly:
    m = leading_monomial(f, order)
    return Poly(f.varset, {m: f.terms[m]})


def make_monic(f: Poly, order: MonomialOrder) -> Poly:
    c = leading_coefficient(f, order)
    return f.scale(1 / c)


def ecart(f: Poly, order: MonomialOrder) -> int:
    """Total degree minus leading-monomial degree (inhomogeneity defect)."""
    return f.total_degree() - monomial_degree(leading_monomial(f, order))
