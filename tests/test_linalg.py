import math
import random

import pytest
from fractions import Fraction

import arcspace.polyalg.linalg as linalg
from arcspace.polyalg import (
    certified_rank,
    exact_rank,
    fraction_free_echelon,
    rank_modulo,
    reduce_row,
)

from conftest import copy_fraction_free_echelon, copy_reduce_row


def naive_rank(rows):
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_matches_naive_elimination():
    rng = random.Random(17)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        assert exact_rank(m) == naive_rank(m)


def test_rank_of_rank_deficient_matrix():
    rng = random.Random(4)
    base = random_matrix(rng, 2, 5)
    dependent = [
        [3 * a - 2 * b for a, b in zip(base[0], base[1])],
        [a + b for a, b in zip(base[0], base[1])],
    ]
    assert exact_rank(base + dependent) == exact_rank(base)


def test_reduce_row_kills_span_members():
    rng = random.Random(8)
    rows = random_matrix(rng, 3, 6)
    ech, piv = fraction_free_echelon(rows)
    combo = [2 * a - b + 5 * c for a, b, c in zip(rows[0], rows[1], rows[2])]
    assert all(x == 0 for x in reduce_row(combo, ech, piv))
    outside = [x + 1 for x in combo]
    assert any(x != 0 for x in reduce_row(outside, ech, piv))


def test_rank_modulo():
    rows = [[1, 0, 0], [0, 1, 0]]
    modulo = [[1, 1, 0]]
    assert rank_modulo(rows, modulo) == 1
    assert rank_modulo(rows, []) == 2


def test_echelon_pivots_are_deterministic():
    m = [[0, 2, 1], [0, 2, 3], [1, 1, 1]]
    ech, piv = fraction_free_echelon(m)
    assert piv == [0, 1, 2]
    assert len(ech) == 3


@pytest.mark.parametrize("rows, k, length, width", [
    ([[1, 0], [0, 0, 5]], 1, 3, 2),
    ([[0, 0], [0, 0, 5]], 1, 3, 2),
    ([[1, 0, 0], [0, 5]], 1, 2, 3),
])
def test_ragged_matrix_is_refused(rows, k, length, width):
    # the width read off the first row would drop or miss the longer row's
    # entries and give a wrong rank, or index past the shorter one
    message = f"row {k} has {length} entries, row 0 has {width}"
    with pytest.raises(ValueError, match=message):
        exact_rank(rows)
    with pytest.raises(ValueError, match=message):
        fraction_free_echelon(rows)


def _entry(rng):
    """An int or a Fraction, zero a third of the time."""
    if rng.random() < 1 / 3:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_rows(rng, nrows, ncols, rank):
    """nrows rows of width ncols in the span of `rank` random rows."""
    base = [[_entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)]) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0))
                     for j in range(ncols)])
    return rows


def test_reduce_row_is_the_primitive_multiple_of_the_fraction_loop():
    rng = random.Random(2261)
    zero = nonzero = 0
    for _ in range(300):
        ncols = rng.randint(1, 7)
        spanned = _random_rows(rng, rng.randint(0, 5), ncols, rng.randint(0, 4))
        ech, piv = fraction_free_echelon(spanned)
        # a member of the span half the time, so that the remainder is zero
        row = (_random_rows(rng, 1, ncols, 1)[0] if rng.random() < 0.5 or not spanned
               else [sum(c * r[j] for c, r in zip([rng.randint(-2, 2) for _ in spanned], spanned))
                     for j in range(ncols)])
        want = copy_reduce_row(row, ech, piv)
        got = reduce_row(row, ech, piv)
        assert all(type(x) is int for x in got)
        assert [x == 0 for x in got] == [x == 0 for x in want]
        if not any(want):
            zero += 1
            continue
        nonzero += 1
        k = next(j for j, x in enumerate(want) if x)
        scale = got[k] / want[k]
        assert scale > 0
        assert got == [scale * x for x in want]
        assert math.gcd(*got) == 1
    assert zero > 50 and nonzero > 50


@pytest.fixture
def fallbacks(monkeypatch):
    """The row lists certified_rank hands to exact_rank, in call order."""
    calls = []
    exact = linalg.exact_rank

    def recording_rank(rows):
        calls.append(rows)
        return exact(rows)

    monkeypatch.setattr(linalg, "exact_rank", recording_rank)
    return calls


def test_certified_rank_matches_exact_rank(fallbacks):
    rng = random.Random(3709)
    full = deficient = 0
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols, rng.randint(0, min(nrows, ncols) + 1))
        if rng.random() < 0.5:
            rows = [[x.numerator if x.denominator == 1 else x for x in r] for r in rows]
        del fallbacks[:]
        rank = certified_rank(rows)
        assert rank == exact_rank(rows) == naive_rank(rows)
        if rank == nrows:
            full += 1
            assert fallbacks == []  # certified mod P, no elimination over Q
        else:
            deficient += 1
            assert fallbacks == [rows]
    assert full > 50 and deficient > 50


@pytest.mark.parametrize("rows", [
    [[linalg.P, 0], [0, 1]],
    [[1, 1], [1, 1 + linalg.P]],
    [[Fraction(1, 2), 3], [Fraction(1, 2), Fraction(3 + 2 * linalg.P, 1)]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 5 * linalg.P ** 2]],
])
def test_a_rank_that_drops_mod_p_falls_back_to_q(rows, fallbacks):
    # independent over Q, dependent mod P: the elimination mod P finds a
    # shortfall, and Bareiss over Q gives the rank
    assert certified_rank(rows) == len(rows) == exact_rank(rows)
    assert fallbacks == [rows]


def _entry(rng):
    """Zero half the time, else an int or a non-integral Fraction."""
    if rng.random() < 0.5:
        return 0
    return rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(2, 5))])


def test_echelon_matches_the_scanning_loop():
    """Rows that are zero from the start, or become zero when a repeated or
    dependent row is eliminated, are skipped, and the echelon rows and pivot
    columns stay those of the loop that scanned every row at every step."""
    # the pivot row [2, 0] swaps with the zero row, so [0, -1] stays ahead
    # of [0, 2] and pivots column 1; with the zero row dropped first, the
    # swap would move [0, -1] behind [0, 2]
    rows = [[0, 0], [0, -1], [0, 2], [2, 0]]
    assert fraction_free_echelon(rows) == copy_fraction_free_echelon(rows)
    assert fraction_free_echelon(rows) == ([[2, 0], [0, -2]], [0, 1])
    rng = random.Random(31)
    zero_rows = 0
    for _ in range(400):
        width = rng.randint(1, 6)
        rows = [[_entry(rng) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0 or not rows:
                new = [0] * width
            elif kind == 1:
                new = list(rng.choice(rows))
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = _entry(rng), _entry(rng)
                new = [s * x + t * y for x, y in zip(a, b)]
            rows.insert(rng.randint(0, len(rows)), new)
        before = [list(row) for row in rows]
        echelon, pivots = fraction_free_echelon(rows)
        assert (echelon, pivots) == copy_fraction_free_echelon(rows)
        assert all(type(x) is int for row in echelon for x in row)
        assert rows == before
        zero_rows += len(echelon) < len(rows)
    assert zero_rows > 150
