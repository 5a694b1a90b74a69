"""Exact linear algebra over Q.

Rank and echelon forms use fraction-free (Bareiss) elimination on
denominator-cleared integer rows.  Pivots are chosen deterministically: columns
scanned in declaration order, first row with a nonzero entry wins.  No pivoting
by magnitude — meaningless over Q.

``reduce_row`` is fraction-free too: it hands back the primitive integer row
that is a positive multiple of the remainder over Q, which has the same span
and the same zero pattern.  A rank that is expected to be full is certified by
one elimination modulo the prime P = 2^61 - 1 (``certified_rank``): the rank
of an integer matrix mod P is at most its rank over Q, which is at most its
number of rows, so full rank mod P proves full rank over Q.  Only a shortfall
mod P runs Bareiss over Q (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 5).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# the Mersenne prime the full-rank certificate works modulo
P = (1 << 61) - 1


def _as_integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, as ints (an all-int row is
    copied as it is); an entry that is not an int or a Fraction is a
    TypeError, and rows of differing lengths are a ValueError."""
    out = []
    for k, row in enumerate(rows):
        if out and len(row) != len(out[0]):
            raise ValueError(f"ragged matrix: row {k} has {len(row)} entries, "
                             f"row 0 has {len(out[0])}")
        if set(map(type, row)) == {int}:
            out.append(list(row))
            continue
        denom = 1
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} is not an int or a Fraction")
            if x.denominator != 1:
                denom = lcm(denom, x.denominator)
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
        prow = m[r]
        piv = prow[c]
        for i in range(r + 1, nrows):
            row = m[i]
            if any(row):
                mic = row[c]
                m[i] = [(x * piv - mic * y) // prev for x, y in zip(row, prow)]
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return [m[i] for i in range(r)], pivot_cols


def exact_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    echelon, _ = fraction_free_echelon(rows)
    return len(echelon)


def certified_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """The rank of rows over Q, for rows expected to be independent: their
    number when one elimination mod P finds them independent, else
    ``exact_rank(rows)``."""
    pivots: list[tuple[int, list[int]]] = []
    for row in _as_integer_rows(rows):
        row = [x % P for x in row]
        for c, prow in pivots:
            f = row[c]
            if f:
                row = [(x - f * y) % P for x, y in zip(row, prow)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            return exact_rank(rows)
        inv = pow(row[c], -1, P)
        pivots.append((c, [x * inv % P for x in row]))
    return len(pivots)


def reduce_row(row: Sequence[Fraction | int], echelon: Sequence[Sequence[int]],
               pivot_cols: Sequence[int]) -> list[int]:
    """Eliminate the pivot positions of `row` against an echelon basis.

    The result is the primitive integer row that is a positive multiple of
    the remainder over Q: each step cross-multiplies by the pivot over the
    gcd, and the content is divided out at the end."""
    out = _as_integer_rows([row])[0]
    for erow, c in zip(echelon, pivot_cols):
        b = out[c]
        if b:
            a = erow[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            out = [a * x - b * y for x, y in zip(out, erow)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def rank_modulo(rows: Sequence[Sequence[Fraction | int]],
                modulo: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the row span of `rows` inside the quotient by span(`modulo`)."""
    stacked = [list(r) for r in modulo] + [list(r) for r in rows]
    return exact_rank(stacked) - exact_rank(modulo)
