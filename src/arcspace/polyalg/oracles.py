"""Brute-force linear-algebra oracle for initial ideals.

Independent of the standard-basis machinery: the degree-<=D graded pieces of
the initial ideal are read off a sparse echelon form of all truncated products
x^s*g (terms of degree > D dropped), computed by exact elimination over Q.

A row is a dict from monomials to coefficients.  Its pivot is its least
monomial in columns ordered by ascending (degree, lex), and a pivot row is
stored scaled to 1 at its pivot.  A row is inserted by subtracting pivot rows
until its least monomial is no pivot, so no two pivot rows share a pivot.  A
row whose pivot sits in degree k then has no terms below degree k, and any
element of the span whose lowest degree is k is a combination of rows with
pivots in degree >= k; so the degree-k parts of the rows pivoting in degree k
span the degree-k piece of ini(a) (Greuel-Pfister, ch. 5).  For homogeneous
forms every row is its own degree-k part, so the same routine yields the
degree-<=D part of the ideal they generate.  Used to cross-check
initial_ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from ..errors import VarsetMismatchError
from .poly import Monomial, Poly, monomial_degree, monomial_mul

Row = dict[Monomial, Fraction]


def monomials_up_to(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of total degree <= degree, ascending (degree, lex)."""
    out: list[Monomial] = []
    for d in range(degree + 1):
        level = []
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            level.append(tuple(e))
        out.extend(sorted(level))
    return out


def _column(mono: Monomial) -> tuple[int, Monomial]:
    return monomial_degree(mono), mono


def _reduce(row: Row, pivots: dict[Monomial, Row]) -> Monomial | None:
    """Subtract pivot rows from row in place until its least monomial is no
    pivot; return that monomial, or None once the row is zero."""
    while row:
        lead = min(row, key=_column)
        pivot_row = pivots.get(lead)
        if pivot_row is None:
            return lead
        c = row[lead]
        for mono, v in pivot_row.items():
            w = row.get(mono, 0) - c * v
            if w:
                row[mono] = w
            else:
                del row[mono]
    return None


def _echelon(rows: list[Row]) -> dict[Monomial, Row]:
    """Pivot rows keyed by pivot, each scaled to 1 at its pivot."""
    pivots: dict[Monomial, Row] = {}
    for row in rows:
        lead = _reduce(row, pivots)
        if lead is not None:
            inv = 1 / row[lead]
            pivots[lead] = {mono: c * inv for mono, c in row.items()}
    return pivots


def _initial_piece(polys: Sequence[Poly], degree: int) -> dict[Monomial, Row]:
    """Echelon of the degree-<=degree pieces of ini(polys), one pivot row per
    pivot, each row homogeneous."""
    products = []
    for g in polys:
        low = g.min_degree()
        if low < 0:
            continue
        for s in monomials_up_to(len(g.varset), degree - low):
            row: Row = {}
            for mono, c in g.terms.items():
                t = monomial_mul(s, mono)
                if monomial_degree(t) <= degree:
                    row[t] = c
            products.append(row)
    forms = []
    for lead, row in _echelon(products).items():
        k = monomial_degree(lead)
        forms.append({mono: c for mono, c in row.items() if monomial_degree(mono) == k})
    return _echelon(forms)


def _member(mono: Monomial, piece: dict[Monomial, Row]) -> bool:
    return _reduce({mono: Fraction(1)}, piece) is None


def _check_varsets(polys: Sequence[Poly], varset) -> None:
    if any(p.varset != varset for p in polys):
        raise VarsetMismatchError("generators and forms over different varsets")


def monomial_in_homogeneous_ideal(forms: Sequence[Poly], mono: Monomial) -> bool:
    """Membership of a monomial in the ideal generated by homogeneous forms."""
    if not forms:
        return False
    _check_varsets(forms, forms[0].varset)
    if len(mono) != len(forms[0].varset):
        raise VarsetMismatchError("monomial and forms over different varsets")
    return _member(mono, _initial_piece(forms, monomial_degree(mono)))


def initial_ideal_mismatches(gens: Sequence[Poly], forms: Sequence[Poly],
                             degree: int) -> list[Monomial]:
    """Monomials of degree 1..degree, in monomials_up_to order, on which the
    ideal of the homogeneous forms and ini(gens) disagree about membership
    (empty list = agreement)."""
    if not gens:
        raise ValueError("need generators")
    if degree < 1:
        raise ValueError(f"truncation degree must be at least 1, not {degree}")
    varset = gens[0].varset
    _check_varsets([*gens, *forms], varset)
    oracle = _initial_piece(gens, degree)
    claimed = _initial_piece(forms, degree)
    return [mono for mono in monomials_up_to(len(varset), degree)[1:]
            if _member(mono, claimed) != _member(mono, oracle)]
