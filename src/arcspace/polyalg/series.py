"""Truncated univariate power series in t over Q.

A series stores its known coefficients plus either a precision N (known mod
t^N) or the exact flag (precision None): an exact series is a polynomial whose
omitted coefficients are genuinely zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ..errors import InsufficientPrecisionError
from .poly import rational


@dataclass(frozen=True)
class OrdResult:
    """t-adic order of a series: a definite value, a lower bound, or infinity."""

    kind: str  # "exact" | "exhausted" | "infinity"
    value: int | None = None

    @classmethod
    def exact(cls, k: int) -> "OrdResult":
        return cls("exact", k)

    @classmethod
    def exhausted(cls, precision: int) -> "OrdResult":
        return cls("exhausted", precision)

    @classmethod
    def infinity(cls) -> "OrdResult":
        return cls("infinity")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinity"

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "exhausted":
            return f">={self.value}"
        return "infinity"


def combine_ord_min(results: Iterable[OrdResult]) -> OrdResult:
    """Minimum of several orders, resolved conservatively.

    An Exhausted(N) wins over any Exact(k) with k > N: the true minimum could
    sit anywhere in [N, k], so only the lower bound survives.
    """
    exacts: list[int] = []
    bounds: list[int] = []
    for r in results:
        if r.kind == "exact":
            exacts.append(r.value)
        elif r.kind == "exhausted":
            bounds.append(r.value)
    if exacts and (not bounds or min(exacts) <= min(bounds)):
        return OrdResult.exact(min(exacts))
    if bounds:
        return OrdResult.exhausted(min(bounds))
    return OrdResult.infinity()


def min_precision(a: int | None, b: int | None) -> int | None:
    """Precision of a sum or product: the smaller known one (None is exact)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncSeries:
    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: Iterable[Fraction | int], precision: int | None = None):
        cs = [rational(c) for c in coeffs]
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be nonnegative")
            cs = cs[:precision]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision: int | None = None) -> "TruncSeries":
        return cls((), precision)

    @staticmethod
    def sum_of(items: Iterable["TruncSeries"]) -> "TruncSeries":
        """The sum of items, added up in place; its precision is the least of theirs."""
        cs: list[Fraction] = []
        precision = None
        for x in items:
            precision = min_precision(precision, x.precision)
            cs += [Fraction(0)] * (len(x.coeffs) - len(cs))
            for k, c in enumerate(x.coeffs):
                cs[k] += c
        return TruncSeries(cs, precision)

    @classmethod
    def constant(cls, c: Fraction | int, precision: int | None = None) -> "TruncSeries":
        return cls((c,), precision)

    # -- queries -----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.precision is None

    def is_zero(self) -> bool:
        """True if every known coefficient vanishes (mod t^N when inexact)."""
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if k < len(self.coeffs):
            return self.coeffs[k]
        if self.exact or k < self.precision:
            return Fraction(0)
        raise InsufficientPrecisionError(k + 1, self.precision)

    def ord(self) -> OrdResult:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return OrdResult.exact(k)
        if self.exact:
            return OrdResult.infinity()
        return OrdResult.exhausted(self.precision)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c) or "0"
        tail = "" if self.exact else f" + O(t^{self.precision})"
        return f"TruncSeries({body}{tail})"

    # -- arithmetic (conservative min precision rule) ------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries.sum_of((self, other))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries.sum_of((self, -other))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.precision)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        prec = min_precision(self.precision, other.precision)
        if not self.coeffs or not other.coeffs:
            return TruncSeries((), prec)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec is not None:
            n = min(n, prec)
        cs = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0 or i >= n:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                cs[i + j] += a * b
        return TruncSeries(cs, prec)

    def scale(self, c: Fraction | int) -> "TruncSeries":
        c = rational(c)
        return TruncSeries([x * c for x in self.coeffs], self.precision)
