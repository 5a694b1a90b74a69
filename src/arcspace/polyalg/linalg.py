"""Exact linear algebra over Q.

Rank and echelon forms use fraction-free (Bareiss) elimination on
denominator-cleared integer rows.  Pivots are chosen deterministically: columns
scanned in declaration order, first row with a nonzero entry wins.  No pivoting
by magnitude — meaningless over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .poly import rational


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _as_integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, as ints; an entry that is
    not an int or a Fraction is a TypeError."""
    out = []
    for row in rows:
        denom = 1
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} is not an int or a Fraction")
            if x.denominator != 1:
                denom = _lcm(denom, x.denominator)
        out.append([x.numerator * (denom // x.denominator) for x in row])
    return out


def fraction_free_echelon(rows: Sequence[Sequence[Fraction | int]]):
    """Bareiss elimination.

    Returns (echelon, pivot_cols): integer rows in echelon form (zero rows
    dropped) and the pivot column of each retained row.
    """
    m = _as_integer_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            if all(x == 0 for x in m[i]):
                continue
            mic = m[i][c]
            for j in range(ncols):
                m[i][j] = (m[i][j] * piv - mic * m[r][j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return [m[i] for i in range(r)], pivot_cols


def exact_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    echelon, _ = fraction_free_echelon(rows)
    return len(echelon)


def reduce_row(row: Sequence[Fraction | int], echelon: Sequence[Sequence[int]],
               pivot_cols: Sequence[int]) -> list[Fraction]:
    """Eliminate the pivot positions of `row` against an echelon basis."""
    out = [rational(x) for x in row]
    for erow, c in zip(echelon, pivot_cols):
        if out[c] != 0:
            factor = out[c] / erow[c]
            for j in range(len(out)):
                if erow[j]:
                    out[j] -= factor * erow[j]
    return out


def rank_modulo(rows: Sequence[Sequence[Fraction | int]],
                modulo: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the row span of `rows` inside the quotient by span(`modulo`)."""
    stacked = [list(r) for r in modulo] + [list(r) for r in rows]
    return exact_rank(stacked) - exact_rank(modulo)
