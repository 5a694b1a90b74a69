import random

import pytest
from fractions import Fraction

from arcspace.polyalg import exact_rank, fraction_free_echelon, rank_modulo, reduce_row


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
