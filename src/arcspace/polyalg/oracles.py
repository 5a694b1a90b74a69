"""Brute-force linear-algebra oracle for initial ideals.

Independent of the standard-basis machinery: the degree-<=D graded pieces of
the initial ideal are read off from an echelon form of all truncated products
(generator x monomial), with columns ordered by ascending (degree, lex).  A
row whose pivot sits in degree k has every lower-degree entry equal to zero,
so its degree-k part is an initial form, and those parts span the degree-k
piece of ini(a).  Used to cross-check initial_ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .linalg import fraction_free_echelon, reduce_row
from .poly import Monomial, Poly, monomial_degree, monomial_mul


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


def _poly_row(p: Poly, col: dict[Monomial, int]) -> list[Fraction]:
    row = [Fraction(0)] * len(col)
    for mono, c in p.terms.items():
        if mono in col:
            row[col[mono]] = c
    return row


class InitialIdealOracle:
    """Graded membership data for ini(a) up to a degree bound."""

    def __init__(self, gens: Sequence[Poly], degree: int):
        if not gens:
            raise ValueError("need generators")
        self.varset = gens[0].varset
        self.degree = degree
        self.monos = monomials_up_to(len(self.varset), degree)
        self.col = {m: i for i, m in enumerate(self.monos)}
        rows: list[list[Fraction]] = []
        for g in gens:
            if g.is_zero():
                continue
            low = g.min_degree()
            for m in self.monos:
                if monomial_degree(m) + low > degree:
                    continue
                prod: dict[Monomial, Fraction] = {}
                for gm, gc in g.terms.items():
                    t = monomial_mul(m, gm)
                    if monomial_degree(t) <= degree:
                        prod[t] = prod.get(t, Fraction(0)) + gc
                p = Poly(g.varset, prod)
                if not p.is_zero():
                    rows.append(_poly_row(p, self.col))
        echelon, pivots = fraction_free_echelon(rows)
        self._ini_by_degree: dict[int, list[list[Fraction]]] = {}
        for row, piv in zip(echelon, pivots):
            k = monomial_degree(self.monos[piv])
            ini_row = [
                Fraction(x) if monomial_degree(self.monos[j]) == k else Fraction(0)
                for j, x in enumerate(row)
            ]
            self._ini_by_degree.setdefault(k, []).append(ini_row)
        self._echelon_by_degree = {
            k: fraction_free_echelon(rows_k) for k, rows_k in self._ini_by_degree.items()
        }

    def contains_monomial(self, mono: Monomial) -> bool:
        k = monomial_degree(mono)
        if k > self.degree:
            raise ValueError("monomial exceeds the oracle degree bound")
        if k not in self._echelon_by_degree:
            return False
        ech, piv = self._echelon_by_degree[k]
        target = [Fraction(0)] * len(self.monos)
        target[self.col[mono]] = Fraction(1)
        return all(x == 0 for x in reduce_row(target, ech, piv))


def _homogeneous_piece(forms: Sequence[Poly], nvars: int, k: int):
    """Column index and echelon of all degree-k multiples of homogeneous forms."""
    monos_k = [m for m in monomials_up_to(nvars, k) if monomial_degree(m) == k]
    col = {m: i for i, m in enumerate(monos_k)}
    rows = []
    for f in forms:
        df = f.total_degree()
        if df < 0 or df > k:
            continue
        shifts = [m for m in monomials_up_to(nvars, k - df)
                  if monomial_degree(m) == k - df]
        for m in shifts:
            prod = {monomial_mul(m, fm): fc for fm, fc in f.terms.items()}
            rows.append(_poly_row(Poly(f.varset, prod), col))
    echelon, pivots = fraction_free_echelon(rows)
    return col, echelon, pivots


def _piece_contains(piece, mono: Monomial) -> bool:
    col, echelon, pivots = piece
    target = [Fraction(0)] * len(col)
    target[col[mono]] = Fraction(1)
    return all(x == 0 for x in reduce_row(target, echelon, pivots))


def monomial_in_homogeneous_ideal(forms: Sequence[Poly], mono: Monomial) -> bool:
    """Membership of a monomial in the ideal generated by homogeneous forms."""
    return _piece_contains(
        _homogeneous_piece(forms, len(mono), monomial_degree(mono)), mono)


def default_truncation_degree(gens: Sequence[Poly]) -> int:
    """Default degree bound for truncated local checks: max(4, 1 + max deg)."""
    return max(4, 1 + max((g.total_degree() for g in gens if not g.is_zero()),
                          default=0))


def initial_ideal_mismatches(gens: Sequence[Poly], forms: Sequence[Poly],
                             degree: int | None = None) -> list[Monomial]:
    """Monomials of degree <= degree on which the returned initial forms and
    the brute-force oracle disagree about membership (empty list = agreement)."""
    if degree is None:
        degree = default_truncation_degree(gens)
    if degree < 1:
        raise ValueError(f"truncation degree must be at least 1, not {degree}")
    oracle = InitialIdealOracle(gens, degree)
    nvars = len(oracle.varset)
    pieces = {k: _homogeneous_piece(forms, nvars, k) for k in range(1, degree + 1)}
    bad = []
    for mono in oracle.monos:
        k = monomial_degree(mono)
        if k == 0:
            continue
        if _piece_contains(pieces[k], mono) != oracle.contains_monomial(mono):
            bad.append(mono)
    return bad
