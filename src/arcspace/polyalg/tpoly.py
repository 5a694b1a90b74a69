"""Univariate polynomials in t whose coefficients are multivariate Polys.

Used for congruences mod q(t) and mod q(t)^2: division by a monic divisor is
exact over any commutative coefficient ring.  Known only mod t^N (a
precision), a TPoly also carries the universal jet that jet ideals come from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import InsufficientPrecisionError, NotMonicError, VarsetMismatchError
from .poly import Monomial, Poly, _accumulate, _finished, compose
from .series import min_precision
from .varset import VarSet


def _check(a: VarSet, b: VarSet) -> None:
    if a != b:
        raise VarsetMismatchError(f"operands over different varsets: {a!r} vs {b!r}")


class TPoly:
    """Coefficients of t^0, t^1, ...; known mod t^precision, or exact when the
    precision is None, with the min rule of TruncSeries in +, - and *.

    Sums and products keep one accumulator per t-coefficient (see the
    ``poly`` module), so no coefficient is copied once per summand."""

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
    def sum_of(cls, varset: VarSet, items: Iterable["TPoly"]) -> "TPoly":
        """The sum of items, all over varset; its precision is the least of theirs."""
        accs: list[dict[Monomial, Fraction | int]] = []
        precision = None
        for x in items:
            _check(varset, x.varset)
            precision = min_precision(precision, x.precision)
            accs += ({} for _ in range(len(x.coeffs) - len(accs)))
            for acc, c in zip(accs, x.coeffs):
                _accumulate(acc, c.terms)
        return cls(varset, [_finished(varset, acc) for acc in accs], precision)

    @classmethod
    def combination(cls, base: "TPoly", pairs: Iterable[tuple[Poly, "TPoly"]]) -> "TPoly":
        """base plus the sum of c*x over the pairs (c, x), all over base's
        varset, in one accumulator per t-coefficient; its precision is the
        least of base's and the x's."""
        varset = base.varset
        precision = base.precision
        accs = [dict(c.terms) for c in base.coeffs]
        for c, x in pairs:
            _check(varset, c.varset)
            _check(varset, x.varset)
            precision = min_precision(precision, x.precision)
            if c.terms:
                accs += ({} for _ in range(len(x.coeffs) - len(accs)))
                for acc, xk in zip(accs, x.coeffs):
                    if xk.terms:
                        _accumulate(acc, xk.terms, c.terms)
        return cls(varset, [_finished(varset, acc) for acc in accs], precision)

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

    def __add__(self, other: "TPoly") -> "TPoly":
        return TPoly.sum_of(self.varset, (self, other))

    def __sub__(self, other: "TPoly") -> "TPoly":
        return TPoly.sum_of(self.varset, (self, -other))

    def __neg__(self) -> "TPoly":
        return TPoly(self.varset, [-c for c in self.coeffs], self.precision)

    def __mul__(self, other: "TPoly") -> "TPoly":
        _check(self.varset, other.varset)
        prec = min_precision(self.precision, other.precision)
        if self.is_zero() or other.is_zero():
            return TPoly(self.varset, (), prec)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if prec is not None:
            n = min(n, prec)
        accs: list[dict[Monomial, Fraction | int]] = [{} for _ in range(n)]
        for i, a in enumerate(self.coeffs[:n]):
            if a.terms:
                for acc, b in zip(accs[i:], other.coeffs):
                    if b.terms:
                        _accumulate(acc, a.terms, b.terms)
        return TPoly(self.varset, [_finished(self.varset, acc) for acc in accs], prec)

    def scale(self, c: Poly) -> "TPoly":
        return TPoly(self.varset, [x * c for x in self.coeffs], self.precision)

    def div_monic(self, q: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Exact division by a monic divisor: self = quot*q + rem, deg rem < deg q."""
        _check(self.varset, q.varset)
        if self.precision is not None or q.precision is not None:
            raise ValueError("division needs exact t-polynomials")
        if not q.is_monic():
            raise NotMonicError("divisor is not monic in t")
        dq = q.degree()
        vs = self.varset
        if len(self.coeffs) <= dq:
            return TPoly.zero(vs), self
        rem = [dict(c.terms) for c in self.coeffs]
        quot = [Poly.zero(vs)] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            if rem[k]:
                c = quot[k - dq] = _finished(vs, rem[k])
                for acc, qj in zip(rem[k - dq:k], q.coeffs):
                    if qj.terms:
                        _accumulate(acc, c.terms, qj.terms, -1)
        return TPoly(vs, quot), TPoly(vs, [_finished(vs, acc) for acc in rem[:dq]])


def div_monic_t(g: TPoly, q: TPoly) -> tuple[TPoly, TPoly]:
    """g = quot*q + rem with deg_t(rem) < deg_t(q), exact over the coefficient ring."""
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
                   lambda terms: TPoly.sum_of(target, terms))
