"""Buchberger's algorithm and reduced Groebner bases for global orders.

Every basis is built by one completion loop, ``_complete``, written once, with
the normal form as its argument (Greuel-Pfister, ch. 1): ``buchberger`` passes
the full normal form and ``mora.mora_standard_basis`` Mora's weak one.  The
loop first reduces each generator in turn against the elements kept before it,
and only the nonzero remainders enter; then it completes by S-pairs.  Pair
selection is the normal strategy (smallest lcm under the active order, ties by
pair index); pair elimination uses the lcm and chain criteria, as is standard.
Each pair is keyed once, when it is formed, on a heap, and kept with its lcm
in the set of live pairs, which the criteria read; a pair the chain criterion
drops later is skipped when it reaches the top.  The basis under construction
is one record, a ``_Reducers``, that holds each element with its leading
monomial, computed once when the element enters, and what a division reads of
it; the loop hands that record to the normal form, and the minimalization,
interreduction and final sort read the same record, so no lead is computed
twice.  Everything is deterministic.  The loop can start from a ``basis``
whose own S-pairs are known to reduce, such as the standard basis of a
smaller ideal: the generators are reduced against it too, so one already in
its ideal never enters, and only the pairs with the new elements are formed,
under the same criteria.  This is how ``mora.canonical_initial_forms`` climbs
a jet tower.

Division works on a ``_Remainder``, which ``normal_form`` here and
``mora.mora_normal_form`` share: the remainder's terms live in one dict that a
reduction step changes in place, only at the shifted terms of the reducer, and
a heap yields its leading monomial (heap division, after Monagan and Pearce,
J. Symbolic Comput. 46 (2011)).  Neither loop copies the remainder or rescans
it for its leading term.  Division is fraction-free: the remainder is one
exact scale times a dict of ints, and each reducer enters as its integer
multiple (see ``_Remainder``).  Inside a division every monomial is one int, a
packed exponent vector (``_Packing``, after Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): a product is one int addition, divisibility one subtraction and mask,
and the int order is the monomial order, so the heap holds the packed
monomials themselves.  A division reads the record of its reducers: their
packed leading monomials and ecarts, made once when each enters, and their
integer multiples, made the first time a step needs one and kept for the rest
of the basis computation.  The dividends the loop makes itself come packed
too: an S-pair is handed to the normal form as the pair of its positions in
the record and built there from the two integer multiples, each term shifted
by one int addition (``_Reducers.spair``), and an element being interreduced
starts from a copy of its own integer multiple.  The results go back packed
as well: a remainder the loop keeps enters the record as its int terms, its
integer multiple made by dividing out their content, its lead the least
packed key (``_Reducers.append``), and an interreduced element is made a
monic Poly once, from its packed remainder.  So no S-polynomial and no
intermediate remainder is ever a ``Poly``: only what leaves the record, the
returned basis and the result of a public division, is made Fractions at
exponent tuples again, and ``Poly``, the pair criteria and every public
signature stay on tuples.  A field that would overflow makes the division
start again with wider fields, so no exponent is ever wrapped (``_divided``).

Each basis computation spends one work budget, a ``_Budget``, across all of
its divisions, interreduction included; ``_Remainder.reduce`` charges every
step the reducer's terms plus the remainder's, so the cutoff is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter
from struct import Struct
from typing import Callable, Sequence

from ..errors import ResourceLimitError, VarsetMismatchError
from .orders import ANTIGRLEX, MonomialOrder, leading_monomial, make_monic
from .poly import (
    Monomial,
    Poly,
    _accumulate,
    _finished,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .varset import VarSet

DEFAULT_WORK_LIMIT = 20_000_000

# nf(f, record): the normal form the completion loop divides each generator
# and each S-pair, given as its positions (i, j) in the record, by; it
# returns the remainder packed (see ``_divided``)
_NormalForm = Callable[[Poly | tuple[int, int], "_Reducers"], "Poly | _Remainder"]


class _Budget:
    """Work countdown shared by every division of one basis computation.

    Work is counted in terms touched, so a computation on huge polynomials
    trips the limit after comparable effort to one on many small ones.
    """

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int = DEFAULT_WORK_LIMIT):
        self.limit = self.remaining = limit

    def spend(self, cost: int) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise ResourceLimitError(
                f"reduction work budget of {self.limit} terms exhausted")


class _Overflow(Exception):
    """An exponent or a total degree does not fit its field of a ``_Packing``."""


class _Packing:
    """Exponent vectors of nvars variables packed into one int each, ordered
    by the rank of order.

    Each exponent gets a field of width bits, the total degree a field above
    them all, and the top bit of every field is a guard that stays clear: an
    exponent vector packs only if its degree is below limit = 2^(width-1),
    and then every field is.  The fields form one int F(m), and
        F(a*b) = F(a) + F(b),  x^a | x^b  iff  ((F(b) | guard) - F(a)) & guard == guard,
    the degree is F(m) >> dshift, and F(b) - F(a) = F(b/a) when x^a divides
    x^b: no field borrows from its neighbour while no guard bit is set.  A
    division keeps every product below limit (see ``_Remainder.reduce``).

    Every order's rank (``MonomialOrder.ranker``) is a tuple linear in the
    exponents, with entries smaller than limit in size, so its digits in base
    2^width make one int R(m), linear too, whose order is the order of the
    tuples.  The packed monomial is P(m) = R(m) * 2^low + F(m): linear,
    ordered by rank (the leader has the least), and with F(m) in its low
    bits for the divisibility test and the degree.  The rank is read off the
    ranker, so each order is still defined once.  For antigrlex in
    declaration order the rank tuple is (d, *e), which are the fields of
    F(m), so R(m) = F(m) and P(m) is F(m) alone: the order every standard
    basis uses packs without calling the ranker.
    """

    __slots__ = ("order", "nvars", "width", "limit", "guard", "dshift", "dmask", "low",
                 "_struct", "_rank")

    # struct codes of the widths struct packs; wider fields are packed byte by byte
    _CODES = {16: "H", 32: "I", 64: "Q"}

    def __init__(self, order: MonomialOrder, nvars: int, width: int = 16):
        self.order, self.nvars, self.width = order, nvars, width
        self.limit = 1 << (width - 1)
        self.dshift = width * nvars
        self.dmask = (1 << width) - 1
        self.low = self.dshift + width
        self.guard = sum(self.limit << (width * k) for k in range(nvars + 1))
        code = self._CODES.get(width)
        self._struct = Struct(f">{nvars + 1}{code}") if code else None
        rank = order.ranker(nvars)
        self._rank = None if rank is ANTIGRLEX.ranker(nvars) else rank

    def _encode(self, digits: tuple[int, ...]) -> int:
        r = 0
        for x in digits:
            r = (r << self.width) + x
        return r

    def pack(self, m: Monomial) -> int:
        """P(m); raises _Overflow when the degree of m reaches limit."""
        d = sum(m)
        if d >= self.limit:
            raise _Overflow
        if self._struct:
            p = int.from_bytes(self._struct.pack(d, *m), "big")
        else:
            nbytes = self.width // 8
            p = int.from_bytes(b"".join(x.to_bytes(nbytes, "big") for x in (d, *m)), "big")
        if self._rank is not None:
            p += self._encode(self._rank(m)) << self.low
        return p

    def unpack(self, p: int) -> Monomial:
        """The exponent vector m of P(m)."""
        data = (p & ((1 << self.low) - 1)).to_bytes(self.low // 8, "big")
        if self._struct:
            return self._struct.unpack(data)[1:]
        nbytes = self.width // 8
        return tuple(int.from_bytes(data[k:k + nbytes], "big")
                     for k in range(nbytes, len(data), nbytes))

    def degree(self, p: int) -> int:
        return p >> self.dshift & self.dmask


def _cleared(f: Poly, pack: Callable[[Monomial], int]) -> tuple[dict[int, int], int]:
    """(F, L) with f = F / L: L the lcm of the denominators of f and F a dict
    of ints at the packed monomials of f.  F is primitive when f is monic,
    since then no prime of L divides every coefficient of F."""
    terms = f.terms
    L = lcm(*(c.denominator for c in terms.values()))
    if L == 1:
        return {pack(m): c.numerator for m, c in terms.items()}, 1
    return {pack(m): c.numerator * (L // c.denominator) for m, c in terms.items()}, L


def _monic_poly(varset: VarSet, F: dict[int, int], lead: int,
                unpack: Callable[[int], Monomial]) -> Poly:
    """The monic Poly F / F[lead] of the int terms F at packed monomials."""
    c = F[lead]
    if c == 1:
        return _finished(varset, {unpack(m): Fraction(x) for m, x in F.items()})
    return _finished(varset, {unpack(m): Fraction(x, c) for m, x in F.items()})


class _Reducers:
    """One record of a basis: each element and what a division reads of it.

    ``lms[i]`` is the leading monomial of element i, ``leads[i]`` that
    monomial packed and ``ecarts[i]`` the element's ecart, all made when it
    enters.  ``forms[i]`` is its integer multiple at packed monomials (see
    ``_cleared``), and ``polys[i]`` the element itself, monic, as a Poly.
    An element enters in one of two ways (``append``).  A Poly, a generator
    or an element of the basis the record opens with, is made monic there
    and its lead computed once; its form is made the first time a step or an
    S-pair needs it (``form``) and is None until then, since most reducers
    of a basis computation never divide anything.  A division's nonzero
    remainder enters packed: its int terms divided by their content, signed
    so that the leading one is positive, are its form, exactly the one
    ``_cleared`` makes of the monic remainder, so every later step does the
    same arithmetic and pays the same charge.  Its lead is the least packed
    key, unpacked once, and its ecart is read off the packed degree fields.
    Its Poly is None until it leaves the record (``poly``), as part of the
    returned basis.  So an element always has its Poly or its form, and
    often both.  Since an element is monic, the leading coefficient of its
    form is the scale it was multiplied by.  The completion loop keeps one
    record as its basis, so each of these is made at most once per basis
    computation.  Zero elements are dropped.  The packing is made for the
    number of variables of the first element, and its variable set is the
    record's: a Poly over another one raises VarsetMismatchError.  ``widen``
    repacks the leads and the forms made so far in fields twice as wide.

    A record also makes the dividends of the divisions it serves
    (``dividend``): an S-pair from the forms of its two elements, and the
    element a ``without`` view leaves out, ``held`` as its form and packed
    lead, from a copy of that form.
    """

    __slots__ = ("order", "varset", "packing", "polys", "lms", "leads", "ecarts", "forms",
                 "held")

    def __init__(self, order: MonomialOrder, basis: Sequence[Poly] = ()):
        self.order = order
        self.varset: VarSet | None = None
        self.packing: _Packing | None = None
        self.polys: list[Poly | None] = []
        self.lms: list[Monomial] = []
        self.leads: list[int] = []
        self.ecarts: list[int] = []
        self.forms: list[dict[int, int] | None] = []
        self.held: tuple[dict[int, int], int] | None = None
        for g in basis:
            if not g.is_zero():
                self.append(g)

    def append(self, g: Poly | _Remainder) -> None:
        """Add the nonzero g, made monic: a Poly, or the remainder a division
        by this record returned, whose int terms enter packed as they are,
        its scale dropped."""
        if isinstance(g, _Remainder):
            packing, terms = self.packing, g.terms
            lead = min(terms)
            content = gcd(*terms.values())
            if terms[lead] < 0:
                content = -content
            self.polys.append(None)
            self.lms.append(packing.unpack(lead))
            self.leads.append(lead)
            dshift, dmask = packing.dshift, packing.dmask
            self.ecarts.append(max(m >> dshift & dmask for m in terms) - packing.degree(lead))
            self.forms.append(terms if content == 1 else
                              {m: c // content for m, c in terms.items()})
            return
        if self.varset is None:
            self.varset = g.varset
        elif g.varset != self.varset:
            raise VarsetMismatchError(
                f"reducer over a different variable set: {g.varset!r} vs {self.varset!r}")
        lm = leading_monomial(g, self.order)
        c = g.terms[lm]
        self.polys.append(g if c == 1 else g.scale(1 / c))
        self.lms.append(lm)
        if self.packing is None:
            self.packing = _Packing(self.order, len(lm))
        while True:
            try:
                self.leads.append(self.packing.pack(lm))
                break
            except _Overflow:
                self.widen()
        self.ecarts.append(g.total_degree() - sum(lm))
        self.forms.append(None)

    def poly(self, i: int) -> Poly:
        """Element i as a monic Poly, made from its form the first time."""
        g = self.polys[i]
        if g is None:
            g = self.polys[i] = _monic_poly(self.varset, self.forms[i], self.leads[i],
                                            self.packing.unpack)
        return g

    def elements(self) -> list[Poly]:
        """Every element as a monic Poly (see ``poly``)."""
        return [self.poly(i) for i in range(len(self.polys))]

    def form(self, i: int) -> dict[int, int]:
        """The integer multiple of polys[i] at packed monomials; raises
        _Overflow when a term of it does not fit the fields."""
        G = self.forms[i]
        if G is None:
            G = self.forms[i] = _cleared(self.polys[i], self.packing.pack)[0]
        return G

    def make_forms(self) -> None:
        """Make every form, widening the fields until they all fit."""
        while True:
            try:
                for i in range(len(self.forms)):
                    self.form(i)
                return
            except _Overflow:
                self.widen()

    def widen(self) -> None:
        old = self.packing
        self.packing = new = _Packing(self.order, old.nvars, 2 * old.width)

        def repacked(F: dict[int, int]) -> dict[int, int]:
            return {new.pack(old.unpack(m)): c for m, c in F.items()}

        self.leads = [new.pack(old.unpack(p)) for p in self.leads]
        self.forms = [None if F is None else repacked(F) for F in self.forms]
        if self.held is not None:
            F, lead = self.held
            self.held = repacked(F), new.pack(old.unpack(lead))

    def kept(self, positions: Sequence[int]) -> _Reducers:
        """The record of the elements at positions, in that order, sharing
        what is made here."""
        view = _Reducers(self.order)
        view.varset, view.packing = self.varset, self.packing
        for name in ("polys", "lms", "leads", "ecarts", "forms"):
            items = getattr(self, name)
            setattr(view, name, [items[k] for k in positions])
        return view

    def without(self, i: int) -> _Reducers:
        """The record with its element i removed, sharing what is made here;
        the element is held, so a division of it, f = i, starts from its
        form."""
        view = self.kept([k for k in range(len(self.polys)) if k != i])
        view.held = (self.form(i), self.leads[i])
        return view

    def spair(self, i: int, j: int) -> tuple[dict[int, int], int | Fraction]:
        """(terms, scale) with S(polys[i], polys[j]) = scale * terms, terms a
        dict of ints at packed monomials (see ``spolynomial``).

        With the forms F_i = c_i*polys[i], F_j = c_j*polys[j] (c_i, c_j their
        leading coefficients), q = gcd(c_i, c_j) and L the lcm of the leads,
        terms = (c_j/q)*x^(L-lm_i)*F_i - (c_i/q)*x^(L-lm_j)*F_j without the
        two leading terms, which cancel, and scale = q/(c_i*c_j).  A shifted
        term has degree at most deg(L) + max(ecart_i, ecart_j); when that
        reaches the fields' limit this raises _Overflow, although the lcm
        terms cancel and the S-polynomial itself may fit.
        """
        packing, leads, ecarts = self.packing, self.leads, self.ecarts
        L = packing.pack(monomial_lcm(self.lms[i], self.lms[j]))
        if packing.degree(L) + max(ecarts[i], ecarts[j]) >= packing.limit:
            raise _Overflow
        Fi, Fj = self.form(i), self.form(j)
        li, lj = leads[i], leads[j]
        ci, cj = Fi[li], Fj[lj]
        q = gcd(ci, cj)
        a, minus = cj // q, -(ci // q)
        shift = L - li
        if a == 1:
            terms = {m + shift: c for m, c in Fi.items()}
        else:
            terms = {m + shift: a * c for m, c in Fi.items()}
        del terms[L]
        shift = L - lj
        for m, c in Fj.items():
            if m == lj:
                continue
            c *= minus
            m += shift
            old = terms.get(m)
            if old is None:
                terms[m] = c
            elif s := old + c:
                terms[m] = s
            else:
                del terms[m]
        return terms, 1 if ci == cj == 1 else Fraction(q, ci * cj)

    def dividend(self, f: Poly | tuple[int, int] | int) -> tuple[dict[int, int], int | Fraction]:
        """(terms, scale) with f = scale * terms, terms a fresh dict of ints
        at packed monomials: the S-pair (``spair``) when f is a pair of
        positions, a copy of the held form when f is the position of the held
        element, and f cleared of its denominators (``_cleared``) otherwise.
        Raises _Overflow when a term does not fit the fields."""
        if isinstance(f, tuple):
            return self.spair(*f)
        if isinstance(f, int):
            F, lead = self.held
            c = F[lead]
            return dict(F), 1 if c == 1 else Fraction(1, c)
        terms, L = _cleared(f, self.packing.pack)
        return terms, 1 if L == 1 else Fraction(1, L)


class _Remainder:
    """A polynomial under division, changed in place, held as scale*terms.

    ``terms`` maps packed monomials (see ``_Packing``) to ints and ``scale``
    is one exact Fraction; the polynomial is their product at every step.
    Both come from the record of the reducers (``_Reducers.dividend``): an
    S-pair is built there from the integer multiples of its two elements, an
    element the record holds starts from a copy of its own, and any other
    dividend is cleared of its denominators once, on entry.  A reducer
    comes in as an integer multiple G (see ``_Reducers``), and a step cancels
    the leading term with terms <- a*terms - b*x^shift*G, where a and b are
    the leading coefficients of G and of terms divided by their gcd q (signed
    so that a > 0), and scale <- scale / a (fraction-free elimination, as
    Bareiss's in ``linalg.fraction_free_echelon``).  When a is not 1 the
    content of terms is divided out into scale, so the ints stay as small as
    the coefficients they stand for.  When a is 1 a step is int arithmetic
    on the shifted terms of G and nothing else, and with scale 1 and a
    reducer whose leading coefficient is 1 it computes no gcd either: on
    seed-1 passes a is 1 in 92% (verify-dgk) and 97% (jet-ecodim) of the
    steps, and 48% and 75% are of the second kind.  A shifted monomial is
    one int addition, P(m) + P(lm) - P(lmg).  A division returns the
    remainder itself, its terms still packed ints (``normal_form`` puts the
    terms it moved out in their place); ``snapshot`` makes it a Poly of
    Fractions at exponent tuples for a caller that passed no record.
    ``heap`` holds the packed monomials, whose int order is the order's rank
    order; an entry whose term has since cancelled is dropped when it reaches
    the top.  The ecart is read off the terms on demand, by Mora's pool test
    alone, and only as far as a bound (``ecart_below``).  ``budget`` pays for
    each reduction step.
    """

    __slots__ = ("varset", "packing", "terms", "scale", "heap", "budget")

    def __init__(self, f: Poly | tuple[int, int] | int, reducers: _Reducers, budget: _Budget):
        self.budget = budget
        self.varset = reducers.varset  # f's too: _divided checks it
        self.packing = reducers.packing
        self.terms, self.scale = reducers.dividend(f)
        self.heap = list(self.terms)
        heapify(self.heap)

    def lead(self) -> int | None:
        """The packed leading monomial; None once the remainder is zero."""
        heap, terms = self.heap, self.terms
        while heap:
            m = heap[0]
            if m in terms:
                return m
            heappop(heap)
        return None

    def ecart_below(self, lm: int, bound: int) -> int | None:
        """The ecart (total degree minus that of the packed leading monomial
        lm) when it is below bound, else None.  The terms are read newest
        first, up to the first of degree deg(lm) + bound or more: a step adds
        its reducer's terms last, and under the local order those have the
        highest degree, so with bound 0 the first term tells."""
        packing = self.packing
        dshift, dmask = packing.dshift, packing.dmask
        base = packing.degree(lm)
        top, most = base + bound, base
        for m in reversed(self.terms):
            d = m >> dshift & dmask
            if d >= top:
                return None
            if d > most:
                most = d
        return most - base

    def is_zero(self) -> bool:
        return not self.terms

    def reduce(self, G: dict[int, int], lmg: int, eg: int, lm: int) -> None:
        """Subtract the multiple of the reducer G (integer terms at packed
        monomials, leading monomial lmg, ecart eg) that cancels the term at lm.

        Touches only the shifted terms of G unless the leading coefficient of
        G does not divide the one at lm; the term at lm cancels exactly and is
        removed without arithmetic.  The step costs the reducer's terms plus
        the remainder's, paid before anything changes.  A shifted term has
        degree at most deg(lm) + eg; when that reaches the fields' limit the
        step raises _Overflow after the payment and before any term changes.
        """
        terms, heap, packing = self.terms, self.heap, self.packing
        self.budget.spend(len(G) + len(terms))
        if packing.degree(lm) + eg >= packing.limit:
            raise _Overflow
        b = terms.pop(lm)
        a = G[lmg]
        if a != 1:
            q = gcd(a, b) if a > 0 else -gcd(a, b)
            a //= q
            b //= q
            if a != 1:
                for m, c in terms.items():
                    terms[m] = a * c
        minus = -b
        shift = lm - lmg
        for m, c in G.items():
            if m == lmg:
                continue
            c *= minus
            m += shift
            old = terms.get(m)
            if old is None:
                terms[m] = c
                heappush(heap, m)
            elif s := old + c:
                terms[m] = s
            else:
                del terms[m]
        if a != 1 and terms:
            content = gcd(*terms.values())
            if content != 1:
                for m, c in terms.items():
                    terms[m] = c // content
            self.scale = Fraction(self.scale.numerator * content, self.scale.denominator * a)

    def snapshot(self) -> Poly:
        """The polynomial, as an immutable Poly of Fractions."""
        s, unpack = self.scale, self.packing.unpack
        if s == 1:
            return _finished(self.varset, {unpack(m): c for m, c in self.terms.items()})
        n, d = s.numerator, s.denominator
        return _finished(self.varset,
                         {unpack(m): Fraction(c * n, d) for m, c in self.terms.items()})


def _divided(f: Poly | tuple[int, int] | int, basis: list[Poly], order: MonomialOrder,
             budget: _Budget | None, ints: _Reducers | None,
             divide: Callable[[_Remainder, _Reducers], _Remainder]) -> Poly | _Remainder:
    """divide(h, record) on the remainder h of f: the one entry of
    ``normal_form`` and ``mora.mora_normal_form``, with their arguments.

    A zero Poly f comes back as it is, and so does a Poly f when the record
    (ints, or made from basis when None, zero elements dropped) is empty; a
    held position is divided by an empty view too.  A record over another
    varset than a Poly f raises VarsetMismatchError, and so does a basis
    whose elements do not share one (see ``_Reducers``): a step reads
    exponent positions, so it would be applied at the wrong variables.
    h starts from the record's dividend (see ``_Reducers.dividend``) and is
    paid from budget, a fresh default one when None.  The result is h made a
    Poly when ints is None, and h itself otherwise: the completion loop and
    the interreduction hand it on packed (see ``_Reducers.append``).

    When a field overflows (an entry, a shifted term of an S-pair or a
    product of degree 2^(width-1) or more), the budget is given back what
    the attempt spent, the record is widened, and the division is made again
    from the start: it takes the same steps, so it returns and charges what
    a division with unbounded exponents does.
    """
    if isinstance(f, Poly) and f.is_zero():
        return f
    record = _Reducers(order, basis) if ints is None else ints
    if isinstance(f, Poly):
        if not record.polys:
            return f
        if f.varset != record.varset:
            raise VarsetMismatchError(
                f"reducer over a different variable set: {record.varset!r} vs {f.varset!r}")
    budget = budget or _Budget()
    remaining = budget.remaining
    while True:
        try:
            h = divide(_Remainder(f, record, budget), record)
            return h if ints is not None else h.snapshot()
        except _Overflow:
            budget.remaining = remaining
            record.widen()


def normal_form(f: Poly | tuple[int, int] | int, basis: list[Poly], order: MonomialOrder,
                budget: _Budget | None = None,
                ints: _Reducers | None = None) -> Poly | _Remainder:
    """Full remainder of f on division by basis, paid from budget (a fresh
    default one when None).  ints, when given, is the record of basis (see
    ``_Reducers``), which the division reads in place of basis and fills in
    with the integer multiples it makes; it is made from basis when None,
    which drops zero elements.  Each element divides as its monic multiple,
    which changes neither the remainder nor the charge.  f may also be a
    pair (i, j) of positions in ints, which the completion loop passes: the
    dividend is then S(basis[i], basis[j]) (see ``spolynomial``), built by
    the record at packed monomials and never made a Poly; and f may be the
    position i of the element a ``without`` view ints holds, which the
    interreduction passes: the dividend is then that element, a copy of its
    integer multiple.  The checks, and the result, a Poly unless ints is
    given, are ``_divided``'s.

    Terminates for any global order; for the local order it is safe only on
    homogeneous inputs (used that way by the standard-basis interreduction).
    Moving a leading term to the remainder costs nothing.
    """

    def divide(h: _Remainder, record: _Reducers) -> _Remainder:
        leads, ecarts, guard = record.leads, record.ecarts, record.packing.guard
        terms = h.terms
        # the terms moved out, ints under their own scale: out_scale * out
        # stands for them, and mult * c for a term c of h while h.scale is seen
        out: dict[int, int] = {}
        out_scale = seen = h.scale
        mult = 1
        while (lm := h.lead()) is not None:
            probe = lm | guard
            for i, lmg in enumerate(leads):
                if (probe - lmg) & guard == guard:  # lmg divides lm
                    h.reduce(record.form(i), lmg, ecarts[i], lm)
                    break
            else:
                # later leading monomials are smaller, so lm is a new term here
                if h.scale is not seen:  # a step divided h's scale
                    seen = h.scale
                    # seen / out_scale = mult / q: out_scale / q stands for q*out
                    r = Fraction(seen.numerator * out_scale.denominator,
                                 seen.denominator * out_scale.numerator)
                    mult, q = r.numerator, r.denominator
                    if q != 1:
                        for m, c in out.items():
                            out[m] = q * c
                        out_scale = Fraction(out_scale.numerator, out_scale.denominator * q)
                out[lm] = mult * terms.pop(lm)
        h.terms, h.scale = out, out_scale
        return h

    return _divided(f, basis, order, budget, ints, divide)


def spolynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """S(f, g) = (L/lt(f)) f - (L/lt(g)) g, L the lcm of the leading
    monomials, built in one accumulator; a leading coefficient of 1 scales
    nothing.  The completion loop does not call it: it hands each pair to
    the normal form as positions in its record, which builds the same
    polynomial at packed monomials (``_Reducers.spair``)."""
    if f.varset != g.varset:
        raise VarsetMismatchError(
            f"operands over different variable sets: {f.varset!r} vs {g.varset!r}")
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = monomial_lcm(lmf, lmg)
    acc: dict[Monomial, Fraction | int] = {}
    for h, lm, sign in ((f, lmf, 1), (g, lmg, -1)):
        lc = h.terms[lm]
        _accumulate(acc, h.terms, {monomial_div(lcm, lm): 1 if lc == 1 else 1 / lc}, sign)
    return _finished(f.varset, acc)


def _update_pairs(lms: list, P: dict, heap: list, order: MonomialOrder) -> None:
    """Gebauer-Moeller style update of the live pairs P, a dict from each
    pair to the lcm of its leading monomials, in place, when the last of the
    leading monomials lms enters the basis.  Each new pair is also pushed
    onto heap as (order key of its lcm, pair); a pair the chain criterion
    removes from P stays on heap until it is popped."""
    f_index = len(lms) - 1
    lmf = lms[f_index]
    with_f = [monomial_lcm(lm, lmf) for lm in lms[:f_index]]
    # chain criterion on existing pairs
    for pair in [(i, j) for (i, j), L in P.items()
                 if monomial_divides(lmf, L) and L != with_f[i] and L != with_f[j]]:
        del P[pair]
    lcms: dict = {}
    for i, L in enumerate(with_f):
        lcms.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(lcms, key=order.key):
        if all(not monomial_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        # lcm (product) criterion: skip coprime leading monomials
        if any(L == monomial_mul(lms[i], lmf) for i in lcms[L]):
            continue
        pair = (min(lcms[L]), f_index)
        P[pair] = L
        heappush(heap, (order.key(L), pair))


def _complete(gens: list[Poly], order: MonomialOrder, nf: _NormalForm,
              basis: Sequence[Poly] = ()) -> _Reducers:
    """The record of the S-pair completion of basis + gens, made monic.
    Zeros are skipped.  The basis under construction is one record, a
    ``_Reducers``, which opens with the elements of basis.  Each generator,
    made monic, is first replaced by its remainder nf(f, record) against the
    elements kept before it, and enters the record unless that is zero; the
    remainder enters packed, as the division left it, and an element's
    leading monomial is made once, when it enters, and its integer multiple
    once, when a division or an S-pair first needs it.  Then the pair of
    least lcm under the order (ties by pair index) is taken next: it is
    handed to nf as its positions (i, j) in the record, which builds
    S(g_i, g_j) packed, and the remainder enters the same way.

    The S-pairs among the elements of basis must already be known to reduce
    (basis is a Groebner or standard basis of its own ideal): they open the
    record with no pairs among themselves, and only pairs with a later
    element are formed.

    Each pair is keyed once, when it is formed, on a heap; P maps each live
    pair to its lcm, so an entry whose pair the chain criterion has since
    removed is skipped when it reaches the top.
    """
    record = _Reducers(order, basis)
    P: dict = {}
    heap: list = []

    def enter(f: Poly | _Remainder) -> None:
        record.append(f)
        _update_pairs(record.lms, P, heap, order)

    for f in gens:
        if record.polys and not f.is_zero():
            f = nf(make_monic(f, order), record)
        if not f.is_zero():
            enter(f)
    while P:
        pair = heappop(heap)[1]
        if P.pop(pair, None) is None:
            continue
        r = nf(pair, record)
        if not r.is_zero():
            enter(r)
    return record


def _buchberger(gens: list[Poly], order: MonomialOrder, budget: _Budget,
                basis: Sequence[Poly] = ()) -> _Reducers:
    """The record of ``buchberger``."""

    def nf(f: Poly | tuple[int, int], record: _Reducers) -> Poly | _Remainder:
        # normal_form is read from the globals at each call: a wrapper must see every division
        return normal_form(f, record.polys, order, budget=budget, ints=record)

    return _complete(gens, order, nf, basis)


def buchberger(gens: list[Poly], order: MonomialOrder,
               budget: _Budget | None = None, basis: Sequence[Poly] = ()) -> list[Poly]:
    """Raw (non-reduced) Groebner basis of basis + gens (see ``_complete``);
    every division is paid from budget (a fresh default one when None).

    basis, when given, must be a Groebner basis of its own ideal: its S-pairs
    are not formed again.
    """
    return _buchberger(gens, order, budget or _Budget(), basis).elements()


def _minimal(lms: list[Monomial]) -> list[int]:
    """Positions of the leading monomials lms that no other one divides, by
    degree (ties by position); of equal ones the first is kept.

    Scanning by degree meets every proper divisor first, under global and
    local orders alike.
    """
    kept: list[int] = []
    for k in sorted(range(len(lms)), key=lambda k: monomial_degree(lms[k])):
        if not any(monomial_divides(lms[i], lms[k]) for i in kept):
            kept.append(k)
    return kept


def minimalize(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    """A minimal Groebner basis of the ideal of the Groebner basis basis:
    the elements whose leading monomial no other one divides (see
    ``_minimal``)."""
    return [basis[k] for k in _minimal([leading_monomial(g, order) for g in basis])]


def _interreduced(record: _Reducers, budget: _Budget) -> list[Poly]:
    """``interreduce`` of the elements of record.

    Every integer multiple is made once, first, and shared by the views that
    leave one element out: each element is divided by its view, passed as
    its position, starting from a copy of its own multiple.  Each nonzero
    remainder comes back packed and is made a monic Poly once, its lead the
    least packed key.
    """
    order = record.order
    record.make_forms()
    out = []
    for i in range(len(record.polys)):
        others = record.without(i)
        r = normal_form(i, others.polys, order, budget=budget, ints=others)
        if not r.is_zero():
            unpack = r.packing.unpack
            lead = min(r.terms)
            out.append((order.key(unpack(lead)),
                        _monic_poly(record.varset, r.terms, lead, unpack)))
    out.sort(key=itemgetter(0), reverse=True)
    return [g for _, g in out]


def interreduce(basis: list[Poly], order: MonomialOrder,
                budget: _Budget | None = None) -> list[Poly]:
    """The reduced Groebner basis of the ideal of the minimal Groebner basis
    basis: each element reduced by the others and made monic, zeros
    dropped, sorted with the greatest leading monomial first; divisions are
    paid from budget (a fresh default one when None).  Raises ValueError
    when basis is not minimal, that is when the leading monomial of one
    element divides another's (see ``minimalize``): reducing both by each
    other would lose the ideal.  The basis is recorded once (see
    ``_Reducers``), for all of the divisions: each element's leading
    monomial and integer multiple are made once, and the division of an
    element starts from a copy of its own multiple (see ``_interreduced``)."""
    record = _Reducers(order, basis)
    if len(_minimal(record.lms)) < len(record.lms):
        raise ValueError("interreduce needs a minimal Groebner basis; use minimalize first")
    return _interreduced(record, budget or _Budget())


def _reduced_basis(gens: list[Poly], order: MonomialOrder, budget: _Budget,
                   basis: Sequence[Poly] = ()) -> list[Poly]:
    """interreduce(minimalize(buchberger(...))) on one record: the leads
    computed as the elements enter are the ones minimalized and interreduced."""
    record = _buchberger(gens, order, budget, basis)
    return _interreduced(record.kept(_minimal(record.lms)), budget)


def groebner_basis(gens: list[Poly], order: MonomialOrder,
                   work_limit: int = DEFAULT_WORK_LIMIT) -> list[Poly]:
    """Reduced Groebner basis (unique for the given global order), computed
    within one budget of work_limit terms touched."""
    if not order.is_global:
        raise ValueError("groebner_basis needs a global order; use mora_standard_basis")
    return _reduced_basis(gens, order, _Budget(work_limit))


def reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder) -> bool:
    return normal_form(f, basis, order).is_zero()
