"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a dense exponent tuple aligned with the declaring VarSet; a
polynomial maps monomials to nonzero Fractions, and only Fractions: a
constructor accepts int and Fraction coefficients and rejects any other type
(a float would bring its binary rounding in).  Values are immutable after
construction and every operation is a pure function of its inputs.

Sums and products are built by one in-place kernel, ``_accumulate``: it adds
a term dict, or the product of two term dicts, into a mutable accumulator
dict, which holds each integral coefficient as an int and drops the terms
that cancel.  Int arithmetic is many times faster than Fraction's, and
integral coefficients dominate: on the perfbench workloads (seeds 1 and 2)
99.9% of the products the kernel forms on model-build have two integral
factors, and 80-87% on jet-ecodim and verify-dgk.  ``_finished`` turns an
accumulator into a Poly of Fractions that shares no dict with it.  A sum of
many terms is one accumulator (``Poly.sum_of``, ``TPoly.sum_of``,
``TPoly.combination``), not a chain of copies.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from ..errors import VarsetMismatchError
from .varset import VarId, VarSet

Monomial = tuple[int, ...]
R = TypeVar("R")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if x^a divides x^b."""
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b (caller guarantees divisibility)."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


def monomial_support(a: Monomial) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(a) if e)


def rational(c: Fraction | int) -> Fraction:
    """c as a Fraction; any type but int and Fraction is a TypeError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _accumulate(acc: dict[Monomial, Fraction | int], a: Mapping[Monomial, Fraction | int],
                b: Mapping[Monomial, Fraction | int] | None = None,
                c: Fraction | int = 1) -> None:
    """Add c*a, or c*a*b when b is given, into the accumulator acc, in place.

    a and b are term dicts of nonzero coefficients and c is nonzero.  acc
    holds each integral coefficient met here as an int and loses every term
    that cancels; it shares nothing with a or b.
    """
    get = acc.get
    bs = None if b is None else [(m, y.numerator if y.denominator == 1 else y)
                                 for m, y in b.items()]
    for ma, x in a.items():
        if x.denominator == 1:
            x = x.numerator
        if c != 1:
            x = x * c
        if bs is None:
            s = get(ma, 0) + x
            if s:
                acc[ma] = s
            else:
                del acc[ma]
            continue
        for mb, y in bs:
            m = tuple(map(add, ma, mb))
            s = get(m, 0) + x * y
            if s:
                acc[m] = s
            else:
                del acc[m]


def _finished(varset: VarSet, acc: Mapping[Monomial, Fraction | int]) -> "Poly":
    """The Poly of an accumulator: Fraction coefficients in a dict of its own."""
    p = Poly.__new__(Poly)
    p.varset = varset
    p.terms = {m: x if type(x) is Fraction else Fraction(x) for m, x in acc.items()}
    return p


class Poly:
    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        n = len(varset)
        if terms:
            for mono, coeff in terms.items():
                c = rational(coeff)
                if c == 0:
                    continue
                if len(mono) != n:
                    raise ValueError(f"exponent tuple {mono} has wrong length for {varset!r}")
                clean[mono] = c
        self.varset = varset
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, varset: VarSet) -> "Poly":
        return cls(varset)

    @classmethod
    def sum_of(cls, varset: VarSet, polys: Iterable["Poly"]) -> "Poly":
        """The sum of polys, all over varset, added up in one accumulator."""
        acc: dict[Monomial, Fraction | int] = {}
        for p in polys:
            if p.varset != varset:
                raise VarsetMismatchError(
                    f"operands over different variable sets: {varset!r} vs {p.varset!r}")
            _accumulate(acc, p.terms)
        return _finished(varset, acc)

    @classmethod
    def const(cls, varset: VarSet, c: Fraction | int) -> "Poly":
        return cls(varset, {(0,) * len(varset): c})

    @classmethod
    def one(cls, varset: VarSet) -> "Poly":
        return cls.const(varset, 1)

    @classmethod
    def variable(cls, varset: VarSet, v: VarId | str) -> "Poly":
        expt = [0] * len(varset)
        expt[varset.position(v)] = 1
        return cls(varset, {tuple(expt): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.varset), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def min_degree(self) -> int:
        """Lowest total degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(map(sum, self.terms))

    def degree_in(self, v: VarId | str) -> int:
        i = self.varset.position(v)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.varset != other.varset:
            raise VarsetMismatchError(
                f"operands over different variable sets: {self.varset!r} vs {other.varset!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc = dict(self.terms)
        _accumulate(acc, other.terms)
        return _finished(self.varset, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc = dict(self.terms)
        _accumulate(acc, other.terms, c=-1)
        return _finished(self.varset, acc)

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.varset = self.varset
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        self._check(other)
        acc: dict[Monomial, Fraction | int] = {}
        _accumulate(acc, self.terms, other.terms)
        return _finished(self.varset, acc)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "Poly":
        c = rational(c)
        if c == 0:
            return Poly.zero(self.varset)
        p = Poly.__new__(Poly)
        p.varset = self.varset
        p.terms = {m: coeff * c for m, coeff in self.terms.items()}
        return p

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.varset)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.varset == other.varset
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; polynomials are compared, not hashed

    def __repr__(self) -> str:
        from .parse import poly_to_string

        return f"Poly({poly_to_string(self)})"

    def __str__(self) -> str:
        from .parse import poly_to_string

        return poly_to_string(self)

    # -- calculus and substitution ------------------------------------------

    def partial(self, v: VarId | str) -> "Poly":
        """Formal partial derivative."""
        i = self.varset.position(v)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + c * e
        return Poly(self.varset, out)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Value at a rational point given as a sequence aligned to the varset."""
        if len(point) != len(self.varset):
            raise ValueError("point has wrong length")
        vals = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, c in self.terms.items():
            prod = c
            for i, e in enumerate(mono):
                if e:
                    if not vals[i]:
                        break
                    prod *= vals[i] ** e
            else:
                total += prod
        return total

    def substitute(self, mapping: Mapping[VarId | str, "Poly | Fraction | int"]) -> "Poly":
        """Substitute polynomials (or constants) for some variables; the
        variables the mapping leaves out stay as they are."""
        varset = self.varset
        values: list[Poly | None] = [None] * len(varset)
        for key, val in mapping.items():
            if isinstance(val, (Fraction, int)):
                val = Poly.const(varset, val)
            elif val.varset != varset:
                raise VarsetMismatchError("substitution value over a different varset")
            values[varset.position(key)] = val
        kept = [v is None for v in values]

        def head(c: Fraction, mono: Monomial) -> Poly:
            return Poly(varset, {tuple(e if k else 0 for e, k in zip(mono, kept)): c})

        return compose(self, values, head, lambda terms: Poly.sum_of(varset, terms))

    def extended(self, new_varset: VarSet) -> "Poly":
        """Re-express over a larger varset of which the current one is a prefix."""
        if not self.varset.is_prefix_of(new_varset):
            raise VarsetMismatchError("current varset is not a prefix of the target")
        pad = (0,) * (len(new_varset) - len(self.varset))
        p = Poly.__new__(Poly)
        p.varset = new_varset
        p.terms = {m + pad: c for m, c in self.terms.items()}
        return p

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly(self.varset, {m: c for m, c in self.terms.items()
                                  if monomial_degree(m) == degree})

    def initial_form(self) -> "Poly":
        """Lowest-degree homogeneous part (the zero polynomial maps to itself)."""
        if not self.terms:
            return self
        return self.homogeneous_part(self.min_degree())


def compose(f: Poly, values: Sequence[R | None], head: Callable[[Fraction, Monomial], R],
            sum_of: Callable[[Iterable[R]], R]) -> R:
    """f evaluated at ring elements: the sum, over the terms c*x^a of f, of
    head(c, a) times values[i]**a_i for every i whose value is not None.

    `head` turns a term into the ring element its product starts from; it
    sees the whole exponent, so it can keep the exponents of the variables
    left alone.  Each power values[i]**e is computed once, from the one below.
    `sum_of` is the ring's in-place sum; it receives the products one by one
    and gives the ring's zero for a zero f.
    """
    powers: list[list[R]] = [[v] for v in values]

    def products() -> Iterator[R]:
        for mono, c in f.terms.items():
            term = head(c, mono)
            for i, e in enumerate(mono):
                if e and values[i] is not None:
                    pw = powers[i]
                    while len(pw) < e:
                        pw.append(pw[-1] * values[i])
                    term = term * pw[e - 1]
            yield term

    return sum_of(products())


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no determinant here; handle 0x0 upstream")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    first = rows[0][0]
    acc: dict[Monomial, Fraction | int] = {}
    for j in range(n):
        entry = rows[0][j]
        # zero entries too: the result is labelled with the first entry's varset
        first._check(entry)
        if entry.is_zero():
            continue
        minor = poly_det([[rows[i][k] for k in range(n) if k != j] for i in range(1, n)])
        entry._check(minor)
        _accumulate(acc, entry.terms, minor.terms, -1 if j % 2 else 1)
    return _finished(first.varset, acc)


def poly_adjugate(rows: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Classical adjoint; the 1x1 convention is adj = (1)."""
    n = len(rows)
    varset = rows[0][0].varset
    if n == 1:
        return [[Poly.one(varset)]]
    adj = [[Poly.zero(varset) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = poly_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj
