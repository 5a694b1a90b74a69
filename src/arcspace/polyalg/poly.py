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
factors, and 80-87% on jet-ecodim and verify-dgk.  The monomial of a product
is formed by the function the kernel is passed: ``monomial_mul`` on the
exponent tuples of ``Poly.__mul__``, ``poly_det``, ``groebner.spolynomial``
and the ``TPoly`` product and division, and int addition on packed monomials
(below), so one loop serves both.  ``_finished`` turns an accumulator into a
Poly of Fractions at exponent tuples that shares no dict with it.  A sum of
many terms is one accumulator (``Poly.sum_of``, ``TPoly.sum_of``), not a chain
of copies.

The kernels that form many products of monomials work on packed monomials,
one int per exponent vector, in the one layout ``_Fields``: every exponent
and the total degree get a field with a guard bit, so the product of two
monomials is the sum of their ints (after Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  On 36 variables (Python 3.11, 2-CPU VM) ``monomial_mul`` takes about
1.2 us and the packed sum 0.05 us, and a dict lookup 0.17 us at a tuple and
0.09 us at a packed int.  Tuples are packed once, on entry, and unpacked only
when a result leaves, in ``_finished``.

Composition is one routine on packed accumulators, ``_composed``, and it
serves ``Poly.substitute`` (each value one term dict), ``tpoly._substituted``
(jet ideals and the model) and ``jets.eval_along_arc`` (constants over no
variables, where every monomial packs to 0, so an arc's coefficients are
keyed by 0 at once).  The values of the variables that occur in f are
packed once (``_packed_values``; the others are never read), in the
narrowest fields (8, 16, 32, ... bits) whose limit exceeds a bound on the
degree of every product the composition forms, so no product overflows and
no composition is made again; the model stays in 8-bit fields.  The
model's t-polynomials stay packed accumulators from end to end:
``drinfeld._ModReducer`` builds its tables of t^k mod q(t) and mod q(t)^2 in
the same fields and adds the reductions into them, and the remainder
coefficients stay packed as the model's equations, which are finished into
Polys only on first read (``substitute_tpoly`` finishes every coefficient
instead).

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
keyed by packed monomials too, in 16-bit ``_Fields`` with the rank of the
order above them (``groebner._Packing``), widened when a division would
overflow them; a remainder that enters the record of a basis stays packed
there and is unpacked only when it leaves, in a returned basis or a public
division's result.

Values at a rational point follow the same idiom: ``Poly.evaluate`` and
``localgeom._at_point``, the one kernel behind ``localgeom.jacobian_at`` and
the model's checks at its base point, hold integral coefficients and
coordinates as ints, form each power p_i^k once per call and sum in ints
until a non-integral factor comes in.  ``_at_point`` reads the value and the
Jacobian row of each polynomial in one pass, at exponent tuples or at packed
monomials; a packed term with a vanishing factor other than one exponent 1
adds to neither, which a mask of the vanishing coordinates' fields shows
before the term is unpacked.  On a seed-1 model-build pass it reads the
model's equations once per model: 16631 terms, every coefficient integral,
14744 of them skipped unpacked, at points with 224 of 248 coordinates
integral and 161 of them 0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from struct import Struct
from typing import Callable, Iterable, Mapping, Sequence

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


class _Overflow(Exception):
    """An exponent or a total degree does not fit its field of a ``_Fields``."""


class _Fields:
    """Exponent vectors of nvars variables packed into one int each.

    Each exponent gets a field of width bits, the total degree a field above
    them all, and the top bit of every field is a guard that stays clear: an
    exponent vector packs only if its degree is below limit = 2^(width-1),
    and then every field is.  The fields form one int F(m), and
        F(a*b) = F(a) + F(b),  x^a | x^b  iff  ((F(b) | guard) - F(a)) & guard == guard,
    the degree is F(m) >> dshift, and F(b) - F(a) = F(b/a) when x^a divides
    x^b: no field borrows from its neighbour while no guard bit is set.  The
    zero vector packs to 0, and so does every vector over no variables.
    F(m) is read back by unpack from its low dshift bits, so an int with
    more above them (``groebner._Packing`` puts the rank of an order there)
    unpacks to the same vector.
    """

    __slots__ = ("nvars", "width", "limit", "guard", "dshift", "dmask", "low", "_emask",
                 "_struct")

    # struct codes of the widths struct packs; wider fields are packed byte by byte
    _CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}

    def __init__(self, nvars: int, width: int):
        self.nvars, self.width = nvars, width
        self.limit = 1 << (width - 1)
        self.dshift = width * nvars
        self.dmask = (1 << width) - 1
        self.low = self.dshift + width
        self._emask = (1 << self.dshift) - 1
        self.guard = sum(self.limit << (width * k) for k in range(nvars + 1))
        code = self._CODES.get(width)
        self._struct = Struct(f">{nvars}{code}") if code else None

    @classmethod
    def for_degree(cls, nvars: int, bound: int) -> "_Fields":
        """The narrowest fields, of 8, 16, 32, ... bits, whose limit exceeds
        bound: every vector of degree at most bound packs, and so does the
        product of any two whose degrees add up to at most bound."""
        width = 8
        while bound >= 1 << (width - 1):
            width *= 2
        return cls(nvars, width)

    def pack(self, m: Monomial) -> int:
        """F(m); raises _Overflow when the degree of m reaches limit."""
        d = sum(m)
        if d >= self.limit:
            raise _Overflow
        if self._struct is not None:
            f = int.from_bytes(self._struct.pack(*m), "big")
        else:
            nbytes = self.width // 8
            f = int.from_bytes(b"".join(x.to_bytes(nbytes, "big") for x in m), "big")
        return d << self.dshift | f

    def unpack(self, p: int) -> Monomial:
        """The exponent vector m of an int whose low bits are F(m)."""
        data = (p & self._emask).to_bytes(self.dshift // 8, "big")
        if self._struct is not None:
            return self._struct.unpack(data)
        nbytes = self.width // 8
        return tuple(int.from_bytes(data[k:k + nbytes], "big")
                     for k in range(0, len(data), nbytes))

    def degree(self, p: int) -> int:
        return p >> self.dshift & self.dmask

    def shift(self, i: int) -> int:
        """The lowest bit of the field of variable i: F(m) holds m[i] << shift(i)."""
        return self.width * (self.nvars - 1 - i)


def _accumulate(acc: dict, a: Mapping, b: Mapping | None = None, c: Fraction | int = 1,
                mul: Callable | None = None) -> None:
    """Add c*a, or c*a*b when b is given, into the accumulator acc, in place.

    a and b are term dicts of nonzero coefficients and c is nonzero.  The
    monomial of a product is mul of the two monomials, and a product names
    it, as the key kinds differ: int addition (``operator.add``) multiplies
    packed monomials (see ``_Fields``), and ``monomial_mul`` multiplies
    exponent tuples.  acc holds each integral coefficient met here as an int
    and loses every term that cancels; it shares nothing with a or b.
    """
    get = acc.get
    if b is None:
        bs = None
    elif mul is None:
        raise TypeError("a product needs the product of its monomials, mul")
    else:
        bs = [(m, y.numerator if y.denominator == 1 else y) for m, y in b.items()]
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
            m = mul(ma, mb)
            s = get(m, 0) + x * y
            if s:
                acc[m] = s
            else:
                del acc[m]


def _add_product(out: list[dict], a: Sequence[Mapping], b: Sequence[Mapping] | None,
                 c: Fraction | int, precision: int | None, mul: Callable) -> list[dict]:
    """Add c*a*b, or c*a when b is None, into out, in place, and return out.

    Each argument is a list of term dicts, one per t-coefficient, whose
    monomials multiply by mul (see ``_accumulate``); out is extended as
    needed but never past the precision."""
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
                _accumulate(acc, x, y, c, mul)
    return out


def _packed_values(f: "Poly", values: Sequence[Sequence[Mapping[Monomial, Fraction | int]] | None],
                   nvars: int, fields: _Fields | None = None
                   ) -> tuple[list[list[dict[int, Fraction | int]] | None], _Fields]:
    """The values of a composition of f (see ``_composed``), each term dict
    packed once, and the fields they are packed in.  ``_composed`` reads
    only the values of the variables that occur in f, so only those are
    packed, and an empty list stands in for each of the others.  By default
    the fields are the narrowest whose limit exceeds the degree of every
    term of the composite, sum(e_i * deg values[i]) over the terms x^e of f
    (1 for the degree of a variable left alone), which bounds every product
    ``_composed`` forms, and every value it packs, so none overflows.  A
    caller that goes on multiplying the composite passes fields wide enough
    for that too."""
    occurring = {i for mono in f.terms for i, e in enumerate(mono) if e}
    values = [v if v is None or i in occurring else [] for i, v in enumerate(values)]
    if fields is None:
        degrees = [1 if v is None else max((max(map(sum, x)) for x in v if x), default=0)
                   for v in values]
        fields = _Fields.for_degree(nvars, max(
            (sum(e * g for e, g in zip(mono, degrees)) for mono in f.terms), default=0))
    pack = fields.pack
    return [None if v is None else [{pack(m): y for m, y in x.items()} for x in v]
            for v in values], fields


def _composed(f: "Poly", values: Sequence[Sequence[Mapping[int, Fraction | int]] | None],
              precisions: Sequence[int | None], fields: _Fields
              ) -> tuple[list[dict[int, Fraction | int]], int | None]:
    """f at t-polynomial values, unfinished: one accumulator per
    t-coefficient, at monomials packed in fields, and the precision of the
    result.

    values[i] is a list of term dicts at monomials packed in fields (see
    ``_packed_values``), one per t-coefficient, known mod t^precisions[i]
    (None: exact).  A None value leaves its variable alone (so the fields
    are over the variables of f): the exponents of all such variables form
    one monomial that heads the term, packed once per term, one product per
    term in place of a power and a product per variable.  The precision is
    the least precision of the values of the variables that occur in f (None
    for a constant f), and every product is cut there.  Each power
    values[i]**e is formed once, from the one below.  The fields must hold
    every product formed here.
    """
    occurring = {i for mono in f.terms for i, e in enumerate(mono) if e}
    precision = min((precisions[i] for i in occurring if precisions[i] is not None), default=None)
    keeps = None in values
    powers = [[v] for v in values]
    one = [{0: 1}]  # the zero vector packs to 0
    total: list[dict[int, Fraction | int]] = []
    for mono, c in f.terms.items():
        factors = []
        if keeps:
            head = tuple(0 if v is not None else e for e, v in zip(mono, values))
            if any(head):
                factors.append([{fields.pack(head): 1}])
        for i, e in enumerate(mono):
            if e and values[i] is not None:
                pw = powers[i]
                while len(pw) < e:
                    pw.append(_add_product([], pw[-1], pw[0], 1, precision, add))
                factors.append(pw[e - 1])
        head = factors[0] if factors else one
        for x in factors[1:-1]:
            head = _add_product([], head, x, 1, precision, add)
        _add_product(total, head, factors[-1] if len(factors) > 1 else None,
                     c.numerator if c.denominator == 1 else c, precision, add)
    return total, precision


def _finished(varset: VarSet, acc: Mapping, fields: _Fields | None = None) -> "Poly":
    """The Poly of an accumulator: Fraction coefficients in a dict of its own,
    at its monomials, or at the exponent vectors fields unpacks them to when
    it is packed."""
    p = Poly.__new__(Poly)
    p.varset = varset
    if fields is None:
        p.terms = {m: x if type(x) is Fraction else Fraction(x) for m, x in acc.items()}
    else:
        unpack = fields.unpack
        p.terms = {unpack(m): x if type(x) is Fraction else Fraction(x) for m, x in acc.items()}
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
        _accumulate(acc, self.terms, other.terms, mul=monomial_mul)
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
        values, fields = _packed_values(self, values, len(varset))
        accs, _ = _composed(self, values, [None] * len(varset), fields)
        return _finished(varset, accs[0] if accs else {}, fields)

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
        _accumulate(acc, entry.terms, minor.terms, -1 if j % 2 else 1, monomial_mul)
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
