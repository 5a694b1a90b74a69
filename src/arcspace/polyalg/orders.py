"""Monomial orders: three global ones and the local antigraded order.

grevlex, grlex and lex are global (1 is the smallest monomial).  antigrlex is
local, defined by x^a < x^b iff x^b <_grlex x^a, so 1 is the largest monomial
and a leading term has minimal total degree.  Variable priority defaults to
declaration order; an explicit permutation of positions may be supplied, and
it must have one position per variable of the monomials it ranks.

Each order is defined once, by its rank: a flat tuple of ints, cheap to build,
such that the larger of two monomials has the smaller rank.  With e the
exponents in priority order and d = sum(e) the total degree:

    lex        -e             the leader has the largest e
    grlex      (-d, *-e)      the largest degree, then the largest e
    grevlex    (-d, *e[::-1]) the largest degree, then the smallest e read backwards
    antigrlex  (d, *e)        the smallest degree, then the smallest e

The leading monomial is the term of least rank (``min``), which is also what a
heap of ranks yields first; ``key`` negates the rank, so a larger key means a
larger monomial, and ``compare`` reads the two ranks the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg
from typing import Callable

from .poly import Monomial, Poly

_RANKS: dict[str, Callable[[Monomial], tuple[int, ...]]] = {
    "lex": lambda e: tuple(map(neg, e)),
    "grlex": lambda e: (-sum(e), *map(neg, e)),
    "grevlex": lambda e: (-sum(e),) + e[::-1],
    "antigrlex": lambda e: (sum(e),) + e,
}


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    priority: tuple[int, ...] | None = None  # permutation of varset positions

    def __post_init__(self):
        if self.kind not in _RANKS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.priority is not None and sorted(self.priority) != list(range(len(self.priority))):
            raise ValueError("priority must be a permutation of 0..n-1")

    @property
    def is_global(self) -> bool:
        return self.kind != "antigrlex"

    @property
    def is_local(self) -> bool:
        return self.kind == "antigrlex"

    def ranker(self, nvars: int) -> Callable[[Monomial], tuple[int, ...]]:
        """The rank of monomials in nvars variables; the leader has the least.

        Raises ValueError when the priority does not have nvars positions, so
        that no variable is silently left out of the comparison.
        """
        rank = _RANKS[self.kind]
        p = self.priority
        if p is None:
            return rank
        if len(p) != nvars:
            raise ValueError(f"priority has {len(p)} positions but the monomials "
                             f"have {nvars} variables")
        if p == tuple(range(nvars)):  # also the only case where itemgetter
            return rank               # of one position would return an int
        permute = itemgetter(*p)
        return lambda m: rank(permute(m))

    def key(self, mono: Monomial) -> tuple[int, ...]:
        """Sort key; larger key means larger monomial under this order."""
        return tuple(map(neg, self.ranker(len(mono))(mono)))

    def compare(self, a: Monomial, b: Monomial) -> int:
        rank = self.ranker(len(a))
        ra, rb = rank(a), rank(b)
        return (ra < rb) - (ra > rb)


GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")
ANTIGRLEX = MonomialOrder("antigrlex")


def leading_monomial(f: Poly, order: MonomialOrder) -> Monomial:
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    return min(f.terms, key=order.ranker(len(f.varset)))


def leading_coefficient(f: Poly, order: MonomialOrder) -> Fraction:
    return f.terms[leading_monomial(f, order)]


def leading_term(f: Poly, order: MonomialOrder) -> Poly:
    m = leading_monomial(f, order)
    return Poly(f.varset, {m: f.terms[m]})


def make_monic(f: Poly, order: MonomialOrder) -> Poly:
    """f divided by its leading coefficient; f itself when that is already 1
    (a Poly is immutable, so the caller cannot tell)."""
    c = leading_coefficient(f, order)
    return f if c == 1 else f.scale(1 / c)


def ecart(f: Poly, order: MonomialOrder) -> int:
    """Total degree minus leading-monomial degree (inhomogeneity defect)."""
    return f.total_degree() - sum(leading_monomial(f, order))
