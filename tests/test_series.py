import pytest
from fractions import Fraction

from arcspace.errors import InsufficientPrecisionError
from arcspace.polyalg import OrdResult, TruncSeries, combine_ord_min


def test_ord_exact():
    s = TruncSeries([0, 0, 1, 0, 0, 1])  # t^2 + t^5, exact
    assert s.ord() == OrdResult.exact(2)
    assert str(s.ord()) == "2"


def test_ord_zero_exact_is_infinity():
    assert TruncSeries([]).ord() == OrdResult.infinity()
    assert str(OrdResult.infinity()) == "infinity"


def test_ord_zero_truncated_is_exhausted():
    s = TruncSeries([], precision=12)
    assert s.ord() == OrdResult.exhausted(12)
    assert str(s.ord()) == ">=12"


def test_trailing_zeros_trimmed_and_truncated():
    s = TruncSeries([1, 0, 0], precision=2)
    assert s.coeffs == (1,)
    t = TruncSeries([1, 2, 3, 4], precision=2)
    assert t.coeffs == (1, 2)


def test_add_mul_precision_min_rule():
    a = TruncSeries([1, 1], precision=5)
    b = TruncSeries([0, 1, 2], precision=3)
    assert (a + b).precision == 3
    assert (a * b).precision == 3
    exact = TruncSeries([2])
    assert (a * exact).precision == 5
    assert (exact * exact).precision is None


def test_mul_values():
    a = TruncSeries([1, 1])           # 1 + t
    b = TruncSeries([1, -1])          # 1 - t
    assert (a * b).coeffs == (1, 0, -1)
    c = TruncSeries([0, 1], precision=3)   # t mod t^3
    assert (c * c).coeffs == (0, 0, 1)
    assert (c * c).precision == 3


def test_coefficient_access_and_precision_guard():
    s = TruncSeries([0, 1], precision=4)
    assert s.coefficient(1) == 1
    assert s.coefficient(3) == 0
    with pytest.raises(InsufficientPrecisionError):
        s.coefficient(4)
    exact = TruncSeries([0, 1])
    assert exact.coefficient(100) == 0


def test_series_operators():
    a = TruncSeries([1])
    b = TruncSeries([0, 1])
    assert (a + b).coeffs == (1, 1)
    assert (a * b).coeffs == (0, 1)


def test_combine_ord_min_conservative():
    assert combine_ord_min([OrdResult.exact(3), OrdResult.exact(1)]) == OrdResult.exact(1)
    assert combine_ord_min([OrdResult.exact(1), OrdResult.exhausted(5)]) == OrdResult.exact(1)
    # an exhausted bound below the best exact order wins conservatively
    assert combine_ord_min([OrdResult.exact(7), OrdResult.exhausted(5)]) == OrdResult.exhausted(5)
    assert combine_ord_min([OrdResult.infinity(), OrdResult.exhausted(5)]) == OrdResult.exhausted(5)
    assert combine_ord_min([OrdResult.infinity(), OrdResult.infinity()]) == OrdResult.infinity()
    # a one-shot iterable is read once: its bounds are not lost
    assert combine_ord_min(iter([OrdResult.exact(7), OrdResult.exhausted(5)])) \
        == OrdResult.exhausted(5)
    assert combine_ord_min(r for r in [OrdResult.infinity(), OrdResult.exhausted(5)]) \
        == OrdResult.exhausted(5)


def test_scale():
    s = TruncSeries([0, 1], precision=6)
    assert s.scale(Fraction(1, 2)).coeffs == (0, Fraction(1, 2))
