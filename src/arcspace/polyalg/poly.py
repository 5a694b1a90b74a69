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
many terms is one accumulator (``Poly.sum_of``, ``TPoly.sum_of``), not a chain
of copies.

Composition is one routine on these accumulators, ``_composed``, and it
serves ``Poly.substitute`` (each value one term dict), ``tpoly._substituted``
(jet ideals and the model) and ``jets.eval_along_arc`` (constants over no
variables).  The model's t-polynomials stay accumulators from end to end:
``drinfeld._ModReducer.reduce`` adds the reductions mod q(t) into them, and
only the remainder coefficients that become model equations are finished
(``substitute_tpoly`` finishes every coefficient instead).

Division goes further and holds no Fraction and no exponent tuple while it
works: ``groebner._Remainder`` keeps the polynomial under division as one
exact Fraction scale times a dict of ints, the denominators cleared once on
entry, and reduces it by integer multiples of the reducers, kept in the
record of the basis (``groebner._Reducers``), cross-multiplying when a
leading coefficient does not divide the other (fraction-free elimination).  A remainder that joins
Mora's reducer pool joins as a copy of its ints.  Holding only the integral
coefficients as ints is not enough there: on seed-1 passes of verify-dgk and
jet-ecodim, 20-22% of the reducer terms a step reads and 38-39% of the
remainder terms they meet are not integral.  The dicts of a division are
keyed by packed monomials (``groebner._Packing``), one int per exponent
vector, since a step forms the product of a monomial and a shift for every
term of the reducer: on 36 variables (Python 3.11, 2-CPU VM) ``monomial_mul``
takes about 1.2 us and the packed sum 0.05 us, and a dict lookup 0.17 us at a
tuple and 0.09 us at a packed int.  Tuples are packed once on entry, and a
remainder that enters the record of a basis stays packed there; it is
unpacked only when it leaves, in a returned basis or a public division's
result.

Values at a rational point follow the same idiom: ``Poly.evaluate`` (and
``localgeom.jacobian_at``) hold integral coefficients and coordinates as ints,
form each power p_i^k once per call and sum in ints until a non-integral
factor comes in, and hand out a Fraction at the end.  On a seed-1 model-build
pass every coefficient they read is integral (33262 terms evaluated, 36546
read for Jacobians), as are 4504 of the 4896 coordinates of the evaluation
points and 1107 of the 1248 of the Jacobian points.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from ..errors import VarsetMismatchError
from .varset import VarId, VarSet

Monomial = tuple[int, ...]


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


def _add_product(out: list[dict[Monomial, Fraction | int]],
                 a: Sequence[Mapping[Monomial, Fraction | int]],
                 b: Sequence[Mapping[Monomial, Fraction | int]] | None,
                 c: Fraction | int, precision: int | None) -> list[dict[Monomial, Fraction | int]]:
    """Add c*a*b, or c*a when b is None, into out, in place, and return out.

    Each argument is a list of term dicts, one per t-coefficient; out is
    extended as needed but never past the precision."""
    size = len(a) if b is None else len(a) + len(b) - 1
    if precision is not None:
        size = min(size, precision)
    out += ({} for _ in range(size - len(out)))
    for i, x in enumerate(a[:size]):
        if not x:
            continue
        if b is None:
            _accumulate(out[i], x, None, c)
            continue
        for acc, y in zip(out[i:size], b):
            if y:
                _accumulate(acc, x, y, c)
    return out


def _composed(f: "Poly", values: Sequence[Sequence[Mapping[Monomial, Fraction | int]] | None],
              precisions: Sequence[int | None], nvars: int
              ) -> tuple[list[dict[Monomial, Fraction | int]], int | None]:
    """f at t-polynomial values, unfinished: one accumulator per t-coefficient
    and the precision of the result.

    values[i] is a list of term dicts in nvars variables, one per
    t-coefficient, known mod t^precisions[i] (None: exact).  A None value
    leaves its variable alone (so nvars == len(f.varset)): the exponents of
    all such variables form one monomial that heads the term, one product
    per term in place of a power and a product per variable.  The precision
    is the least precision of the values of the variables that occur in f
    (None for a constant f), and every product is cut there.  Each power
    values[i]**e is formed once, from the one below.
    """
    occurring = {i for mono in f.terms for i, e in enumerate(mono) if e}
    precision = min((precisions[i] for i in occurring if precisions[i] is not None), default=None)
    keeps = None in values
    powers = [[v] for v in values]
    one = [{(0,) * nvars: 1}]
    total: list[dict[Monomial, Fraction | int]] = []
    for mono, c in f.terms.items():
        factors = []
        if keeps:
            head = tuple(0 if v is not None else e for e, v in zip(mono, values))
            if any(head):
                factors.append([{head: 1}])
        for i, e in enumerate(mono):
            if e and values[i] is not None:
                pw = powers[i]
                while len(pw) < e:
                    pw.append(_add_product([], pw[-1], pw[0], 1, precision))
                factors.append(pw[e - 1])
        head = factors[0] if factors else one
        for x in factors[1:-1]:
            head = _add_product([], head, x, 1, precision)
        _add_product(total, head, factors[-1] if len(factors) > 1 else None,
                     c.numerator if c.denominator == 1 else c, precision)
    return total, precision


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
        """Value at a rational point given as a sequence aligned to the varset;
        a coordinate that is not an int or a Fraction is a TypeError.

        Integral coefficients and coordinates are held as ints, each power
        p_i^k is formed once, and the terms are summed in ints until a
        non-integral factor comes in; the value is handed out as a Fraction.
        A term is dropped at its first vanishing factor.
        """
        if len(point) != len(self.varset):
            raise ValueError("point has wrong length")
        vals = [x.numerator if x.denominator == 1 else x for x in map(rational, point)]
        powers: dict[tuple[int, int], Fraction | int] = {}
        total: Fraction | int = 0
        for mono, c in self.terms.items():
            prod = c.numerator if c.denominator == 1 else c
            for i, e in enumerate(mono):
                if e:
                    x = vals[i]
                    if not x:
                        break
                    if e == 1:
                        prod *= x
                        continue
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[i, e] = x ** e
                    prod *= p
            else:
                total += prod
        return total if type(total) is Fraction else Fraction(total)

    def substitute(self, mapping: Mapping[VarId | str, "Poly | Fraction | int"]) -> "Poly":
        """Substitute polynomials (or constants) for some variables; the
        variables the mapping leaves out stay as they are.  A value that is
        not a Poly, an int or a Fraction is a TypeError."""
        varset = self.varset
        values: list[list[Mapping[Monomial, Fraction | int]] | None] = [None] * len(varset)
        for key, val in mapping.items():
            if not isinstance(val, Poly):
                val = Poly.const(varset, val)  # a TypeError unless an int or a Fraction
            elif val.varset != varset:
                raise VarsetMismatchError("substitution value over a different varset")
            values[varset.position(key)] = [val.terms]
        accs, _ = _composed(self, values, [None] * len(varset), len(varset))
        return _finished(varset, accs[0] if accs else {})

    def extended(self, new_varset: VarSet) -> "Poly":
        """Re-express over a larger varset of which the current one is a prefix."""
        if not self.varset.is_prefix_of(new_varset):
            raise VarsetMismatchError("current varset is not a prefix of the target")
        pad = (0,) * (len(new_varset) - len(self.varset))
        p = Poly.__new__(Poly)
        p.varset = new_varset
        p.terms = {m + pad: c for m, c in self.terms.items()}
        return p

    def restricted(self, new_varset: VarSet) -> "Poly":
        """Re-express over a prefix of the current varset: the inverse of
        ``extended``.  A term in a dropped variable is a VarsetMismatchError."""
        if not new_varset.is_prefix_of(self.varset):
            raise VarsetMismatchError("target is not a prefix of the current varset")
        k = len(new_varset)
        if any(any(m[k:]) for m in self.terms):
            raise VarsetMismatchError("polynomial involves a variable outside the target")
        p = Poly.__new__(Poly)
        p.varset = new_varset
        p.terms = {m[:k]: c for m, c in self.terms.items()}
        return p

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly(self.varset, {m: c for m, c in self.terms.items()
                                  if monomial_degree(m) == degree})

    def initial_form(self) -> "Poly":
        """Lowest-degree homogeneous part (the zero polynomial maps to itself)."""
        if not self.terms:
            return self
        return self.homogeneous_part(self.min_degree())


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
