"""Univariate polynomials in t whose coefficients are multivariate Polys.

Used for congruences mod q(t) and mod q(t)^2: division by a monic divisor is
exact over any commutative coefficient ring.  Known only mod t^N (a
precision), a TPoly also carries the universal jet that jet ideals come from.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InsufficientPrecisionError, NotMonicError, VarsetMismatchError
from .poly import Poly, compose
from .series import min_precision
from .varset import VarSet


class TPoly:
    """Coefficients of t^0, t^1, ...; known mod t^precision, or exact when the
    precision is None, with the min rule of TruncSeries in +, - and *."""

    __slots__ = ("varset", "coeffs", "precision")

    def __init__(self, varset: VarSet, coeffs: Sequence[Poly], precision: int | None = None):
        cs = list(coeffs)
        for c in cs:
            if c.varset != varset:
                raise VarsetMismatchError("coefficient over a different varset")
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be nonnegative")
            del cs[precision:]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.varset = varset
        self.coeffs = tuple(cs)
        self.precision = precision

    @classmethod
    def zero(cls, varset: VarSet) -> "TPoly":
        return cls(varset, ())

    @classmethod
    def constant(cls, c: Poly) -> "TPoly":
        return cls(c.varset, (c,))

    @classmethod
    def t_power(cls, varset: VarSet, k: int) -> "TPoly":
        return cls(varset, [Poly.zero(varset)] * k + [Poly.one(varset)])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == Poly.one(self.varset)

    def coefficient(self, k: int) -> Poly:
        if k < len(self.coeffs):
            return self.coeffs[k]
        if self.precision is None or k < self.precision:
            return Poly.zero(self.varset)
        raise InsufficientPrecisionError(k + 1, self.precision)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TPoly)
            and self.varset == other.varset
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def _get(self, i: int) -> Poly:
        return self.coeffs[i] if i < len(self.coeffs) else Poly.zero(self.varset)

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(self.varset, [self._get(i) + other._get(i) for i in range(n)],
                     min_precision(self.precision, other.precision))

    def __sub__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(self.varset, [self._get(i) - other._get(i) for i in range(n)],
                     min_precision(self.precision, other.precision))

    def __neg__(self) -> "TPoly":
        return TPoly(self.varset, [-c for c in self.coeffs], self.precision)

    def __mul__(self, other: "TPoly") -> "TPoly":
        prec = min_precision(self.precision, other.precision)
        if self.is_zero() or other.is_zero():
            return TPoly(self.varset, (), prec)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec is not None:
            n = min(n, prec)
        out = [Poly.zero(self.varset) for _ in range(n)]
        for i, a in enumerate(self.coeffs[:n]):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs[:n - i]):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TPoly(self.varset, out, prec)

    def scale(self, c: Poly) -> "TPoly":
        return TPoly(self.varset, [x * c for x in self.coeffs], self.precision)

    def div_monic(self, q: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Exact division by a monic divisor: self = quot*q + rem, deg rem < deg q."""
        if self.precision is not None or q.precision is not None:
            raise ValueError("division needs exact t-polynomials")
        if not q.is_monic():
            raise NotMonicError("divisor is not monic in t")
        dq = q.degree()
        rem = list(self.coeffs)
        if len(rem) <= dq:
            return TPoly.zero(self.varset), self
        quot = [Poly.zero(self.varset)] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            quot[k - dq] = c
            rem[k] = Poly.zero(self.varset)
            for j in range(dq):
                rem[k - dq + j] = rem[k - dq + j] - c * q.coeffs[j]
        return TPoly(self.varset, quot), TPoly(self.varset, rem[:dq])


def div_monic_t(g: TPoly, q: TPoly) -> tuple[TPoly, TPoly]:
    """g = quot*q + rem with deg_t(rem) < deg_t(q), exact over the coefficient ring."""
    if g.varset != q.varset:
        raise VarsetMismatchError("operands over different varsets")
    return g.div_monic(q)


def substitute_tpoly(f: Poly, values: Sequence[TPoly]) -> TPoly:
    """Evaluate a multivariate polynomial at t-polynomial values.

    `values` is aligned with f's varset; all values share one target varset.
    """
    if len(values) != len(f.varset):
        raise ValueError("need one value per variable")
    if not values:
        raise ValueError("empty varset")
    target = values[0].varset
    for v in values:
        if v.varset != target:
            raise VarsetMismatchError("values over different varsets")
    return compose(f, values, lambda c, mono: TPoly.constant(Poly.const(target, c)),
                   TPoly.zero(target))
