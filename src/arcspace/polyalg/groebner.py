"""Buchberger's algorithm and reduced Groebner bases for global orders.

Every basis is built by one completion loop, ``_complete``, written once, with
the normal form as its argument (Greuel-Pfister, ch. 1): ``buchberger`` passes
the full normal form and ``mora.mora_standard_basis`` Mora's weak one.  The
loop first reduces each generator in turn against the elements kept before it,
and only the nonzero remainders enter; then it completes by S-pairs.  The
pair taken next is the one of least lcm degree, ties by the order's key of
the lcm and then by pair index (``_pair_key``).  Under grevlex and grlex that
is the normal strategy, the smallest lcm under the order.  Under the local
order the normal strategy would take the lcm of highest degree first, the
opposite of the sugar (ecart) choice that local standard-basis algorithms
make (Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.7
and 2.3; Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube,
please", ISSAC 1991).  Pair elimination uses the lcm and chain criteria, as
is standard; both hold under any selection order.
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
under the same criteria.  This is how ``mora.mora_standard_basis`` climbs a
jet tower, and the level below comes up packed: its basis leaves as a
``_Basis``, a sequence over its record, and the next level opens with that
record lifted to the new variables (``_Reducers.lifted``), which come last,
so under antigrlex every packed key moves by one shift (``_mover``).  No
element is cleared of its denominators or made a Poly again.

Division works on a ``_Remainder``, which ``normal_form`` here and
``mora.mora_normal_form`` share: the remainder's terms live in one dict that a
reduction step changes in place, only at the shifted terms of the reducer, and
a heap yields its leading monomial (heap division, after Monagan and Pearce,
J. Symbolic Comput. 46 (2011)).  Neither loop copies the remainder or rescans
it for its leading term.  Division is fraction-free: the remainder is one
exact scale times a dict of ints, and each reducer enters as its integer
multiple (see ``_Remainder``).  Inside a division every monomial is one int, a
packed exponent vector (after Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007): a
``_Packing`` lays the exponents out in the fields of ``poly._Fields``, the
one layout the composition kernel packs in too, and puts the order's rank
above them.  A product is one int addition, divisibility one subtraction
and mask, and the int order is the monomial order, so the heap holds the
packed monomials themselves.  A division reads the record of its reducers:
their packed leading monomials, ecarts and integer multiples, made once when
each enters and kept for the rest of the basis computation.  Every element
enters the record one way, as its packed primitive form
(``_Reducers.append``): a generator or an element of a seeded basis is
cleared of its denominators and packed once, a remainder the loop keeps
brings the int terms its division left, and either is divided by its
content and signed so that its leading coefficient, at the least packed key,
is positive.  The dividends the loop makes itself come packed too: an S-pair
is handed to the normal form as the pair of its positions in the record and
built there from the two integer multiples, each term shifted by one int
addition (``_Reducers.spair``), and an element being interreduced is handed
in as its position, starts from a copy of its own integer multiple and is
divided by the rest of the same record; an interreduced element is made a
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
from typing import Callable, Sequence

from ..errors import ResourceLimitError, VarsetMismatchError
from .orders import ANTIGRLEX, MonomialOrder, leading_monomial
from .poly import (
    Monomial,
    Poly,
    _accumulate,
    _Fields,
    _finished,
    _Overflow,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .varset import VarSet

DEFAULT_WORK_LIMIT = 20_000_000

# nf(f, record): the normal form the completion loop divides each generator
# and each S-pair, given as its positions (i, j) in the record, by; the
# record is the basis, so the remainder comes back packed (see ``_divided``)
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


class _Packing(_Fields):
    """Exponent vectors of nvars variables packed into one int each, ordered
    by the rank of order: the fields F(m) of ``poly._Fields``, with the rank
    above them.

    A division keeps every product below the fields' limit (see
    ``_Remainder.reduce``).  Every order's rank (``MonomialOrder.ranker``)
    is a tuple linear in the exponents, with entries smaller than limit in
    size, so its digits in base 2^width make one int R(m), linear too, whose
    order is the order of the tuples.  The packed monomial is
    P(m) = R(m) * 2^low + F(m): linear, ordered by rank (the leader has the
    least), and with F(m) in its low bits for the divisibility test, the
    degree and unpacking.  The rank is read off the ranker, so each order is
    still defined once.  For antigrlex in declaration order the rank tuple is
    (d, *e), which are the fields of F(m), so R(m) = F(m) and P(m) is F(m)
    alone: the order every standard basis uses packs without calling the
    ranker.
    """

    __slots__ = ("order", "_rank")

    def __init__(self, order: MonomialOrder, nvars: int, width: int = 16):
        super().__init__(nvars, width)
        self.order = order
        rank = order.ranker(nvars)
        self._rank = None if rank is ANTIGRLEX.ranker(nvars) else rank

    def _encode(self, digits: tuple[int, ...]) -> int:
        r = 0
        for x in digits:
            r = (r << self.width) + x
        return r

    def pack(self, m: Monomial) -> int:
        """P(m); raises _Overflow when the degree of m reaches limit."""
        p = _Fields.pack(self, m)
        if self._rank is not None:
            p += self._encode(self._rank(m)) << self.low
        return p


def _cleared(f: Poly, pack: Callable[[Monomial], int]) -> tuple[dict[int, int], int]:
    """(F, L) with f = F / L: L the lcm of the denominators of f and F a dict
    of ints at the packed monomials of f; raises _Overflow when a monomial
    does not fit the fields of pack."""
    terms = f.terms
    L = lcm(*(c.denominator for c in terms.values()))
    if L == 1:
        return {pack(m): c.numerator for m, c in terms.items()}, 1
    return {pack(m): c.numerator * (L // c.denominator) for m, c in terms.items()}, L


def _mover(old: _Packing, new: _Packing) -> Callable[[int], int]:
    """The map from a monomial packed by old to the same monomial, padded
    with zeros for the variables new has after old's, packed by new, whose
    fields are as wide or wider.  Without a rank in either packing and with
    equal widths it is one shift: F(m) holds m[i] at bit width*(nvars-1-i)
    and the degree above (``poly._Fields``), so k more variables move every
    field up by width*k.  Otherwise it unpacks, pads and packs."""
    k = new.nvars - old.nvars
    if old._rank is None and new._rank is None and old.width == new.width:
        s = new.width * k
        return lambda p: p << s
    pad = (0,) * k
    unpack, pack = old.unpack, new.pack
    return lambda p: pack(unpack(p) + pad)


def _moved(F: dict[int, int], move: Callable[[int], int]) -> dict[int, int]:
    """The terms F with every packed monomial moved (see ``_mover``)."""
    return {move(m): c for m, c in F.items()}


def _monic_poly(varset: VarSet, F: dict[int, int], lead: int, packing: _Packing) -> Poly:
    """The monic Poly F / F[lead] of the int terms F at packed monomials."""
    c = F[lead]
    return _finished(varset, F if c == 1 else {m: Fraction(x, c) for m, x in F.items()},
                     packing)


class _Reducers:
    """One record of a basis: each element and what a division reads of it.

    ``lms[i]`` is the leading monomial of element i, ``leads[i]`` that
    monomial packed, ``ecarts[i]`` the element's ecart and ``forms[i]`` its
    packed primitive form: its integer multiple at packed monomials, the
    content divided out and the leading coefficient positive.  Every element
    enters one way (``append``), as that form, and everything else is read
    off it: the lead is the least packed key, unpacked once, and the ecart
    comes from the packed degree fields.  A Poly, a generator or an element
    of the basis the record opens with, is cleared and packed once on entry
    (``_cleared``); a division's nonzero remainder brings its int terms, its
    scale dropped.  ``polys[i]`` is the element as a monic Poly: the Poly it
    entered as when that was monic, as the elements of a seeded standard
    basis are, and otherwise None until the element leaves the record
    (``poly``), as part of the returned basis.  An element has one signed
    primitive form, whichever way it entered, so every step does the same
    arithmetic and pays the same charge.  The completion loop keeps one
    record as its basis, so each of these is made once per basis
    computation.  Zero elements are dropped.  The packing is made for the
    number of variables of the first element, and its variable set is the
    record's: a Poly over another one raises VarsetMismatchError.
    ``widen`` repacks the leads and the forms in fields twice as wide, and
    ``append`` widens until every term of a Poly fits; ``lifted`` repacks
    them for more variables (both through ``_repack``).  A record that opens
    with a ``_Basis`` of its own order takes its elements as they are.
    ``len`` is the number of elements.

    A record also makes the dividends of the divisions it serves
    (``dividend``): an S-pair from the forms of its two elements, and an
    element being interreduced, given as its position, from a copy of its
    form.
    """

    __slots__ = ("order", "varset", "packing", "polys", "lms", "leads", "ecarts", "forms")

    def __init__(self, order: MonomialOrder, basis: Sequence[Poly] = ()):
        self.order = order
        self.varset: VarSet | None = None
        self.packing: _Packing | None = None
        self.polys: list[Poly | None] = []
        self.lms: list[Monomial] = []
        self.leads: list[int] = []
        self.ecarts: list[int] = []
        self.forms: list[dict[int, int]] = []
        if isinstance(basis, _Basis) and basis.record.order == order:
            self._take(basis.record, range(len(basis)))
            return
        for g in basis:
            if not g.is_zero():
                self.append(g)

    def __len__(self) -> int:
        return len(self.leads)

    def append(self, g: Poly | _Remainder | dict[int, int]) -> None:
        """Add the nonzero g, a Poly, the remainder of a division by this or
        another record, or int terms at monomials packed by this record, as
        its packed primitive form (see ``_Reducers``).  The record and a
        remainder whose record widened on its own are brought to the wider
        of their fields."""
        if isinstance(g, dict):
            terms = g
        elif isinstance(g, _Remainder):
            terms = g.terms
            if g.packing.width > self.packing.width:
                self._repack(g.packing)
            elif g.packing.width < self.packing.width:
                terms = _moved(terms, _mover(g.packing, self.packing))
        else:
            if self.varset is None:
                self.varset = g.varset
                self.packing = _Packing(self.order, len(g.varset))
            elif g.varset != self.varset:
                raise VarsetMismatchError(
                    f"reducer over a different variable set: {g.varset!r} vs {self.varset!r}")
            while True:
                try:
                    terms = _cleared(g, self.packing.pack)[0]
                    break
                except _Overflow:
                    self.widen()
        packing = self.packing
        lead = min(terms)
        lm = packing.unpack(lead)
        content = gcd(*terms.values())
        if terms[lead] < 0:
            content = -content
        self.polys.append(g if isinstance(g, Poly) and g.terms[lm] == 1 else None)
        self.lms.append(lm)
        self.leads.append(lead)
        dshift, dmask = packing.dshift, packing.dmask
        self.ecarts.append(max(m >> dshift & dmask for m in terms) - packing.degree(lead))
        self.forms.append(terms if content == 1 else {m: c // content for m, c in terms.items()})

    def poly(self, i: int) -> Poly:
        """Element i as a monic Poly, made from its form the first time."""
        g = self.polys[i]
        if g is None:
            g = self.polys[i] = _monic_poly(self.varset, self.forms[i], self.leads[i],
                                            self.packing)
        return g

    def elements(self) -> list[Poly]:
        """Every element as a monic Poly (see ``poly``)."""
        return [self.poly(i) for i in range(len(self))]

    def widen(self) -> None:
        """Repack the record in fields twice as wide."""
        old = self.packing
        self._repack(_Packing(self.order, old.nvars, 2 * old.width))

    def _repack(self, packing: _Packing) -> None:
        """Move the leads and the forms into packing (see ``_mover``)."""
        move = _mover(self.packing, packing)
        self.packing = packing
        self.leads = [move(p) for p in self.leads]
        self.forms = [_moved(F, move) for F in self.forms]

    def lifted(self, varset: VarSet) -> _Reducers:
        """The record of the same elements over varset, which the record's
        variable set must be a prefix of: what appending the elements made
        Polys over varset (``Poly.extended``) would hold, in fields as wide,
        with no element cleared or made a Poly."""
        if not self.varset.is_prefix_of(varset):
            raise VarsetMismatchError(
                f"record over {self.varset!r}, which is not a prefix of {varset!r}")
        pad = (0,) * (len(varset) - len(self.varset))
        record = self.kept(range(len(self.leads)))
        record.varset = varset
        record.polys = [None] * len(self.leads)
        record.lms = [lm + pad for lm in self.lms]
        record._repack(_Packing(self.order, len(varset), self.packing.width))
        return record

    def _take(self, record: _Reducers, positions: Sequence[int]) -> None:
        """Hold the elements of record at positions, in that order, sharing
        what is made there, in record's variable set and packing."""
        self.varset, self.packing = record.varset, record.packing
        for name in ("polys", "lms", "leads", "ecarts", "forms"):
            items = getattr(record, name)
            setattr(self, name, [items[k] for k in positions])

    def kept(self, positions: Sequence[int]) -> _Reducers:
        """The record of the elements at positions, in that order, sharing
        what is made here."""
        view = _Reducers(self.order)
        view._take(self, positions)
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
        Fi, Fj = self.forms[i], self.forms[j]
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
        positions, a copy of the form of element f when f is a position, and
        f cleared of its denominators (``_cleared``) otherwise.  Raises
        _Overflow when a term does not fit the fields."""
        if isinstance(f, tuple):
            return self.spair(*f)
        if isinstance(f, int):
            F = self.forms[f]
            c = F[self.leads[f]]
            return dict(F), 1 if c == 1 else Fraction(1, c)
        terms, L = _cleared(f, self.packing.pack)
        return terms, 1 if L == 1 else Fraction(1, L)


class _Basis(Sequence[Poly]):
    """The elements of a record as a read-only sequence of monic Polys, each
    made on first read (``_Reducers.poly``), equal to a list of the same
    Polys.  A record of the same order opens with ``record`` as it is (see
    ``_Reducers``), and ``extended`` lifts it to more variables.
    """

    __slots__ = ("record",)

    def __init__(self, record: _Reducers):
        self.record = record

    def __len__(self) -> int:
        return len(self.record)

    def __getitem__(self, i):
        positions = range(len(self))[i]
        if isinstance(i, slice):
            return [self.record.poly(k) for k in positions]
        return self.record.poly(positions)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _Basis)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))

    def extended(self, varset: VarSet) -> _Basis:
        """The same elements over varset, of which theirs is a prefix, still
        packed (see ``_Reducers.lifted``)."""
        return _Basis(self.record.lifted(varset))


class _Remainder:
    """A polynomial under division, changed in place, held as scale*terms.

    ``terms`` maps packed monomials (see ``_Packing``) to ints and ``scale``
    is one exact Fraction; the polynomial is their product at every step.
    Both come from the record of the reducers (``_Reducers.dividend``): an
    S-pair is built there from the integer multiples of its two elements, an
    element of the record starts from a copy of its own, and any other
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
    Fractions at exponent tuples for a caller that passed a list of Polys.
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
        s = self.scale
        if s == 1:
            return _finished(self.varset, self.terms, self.packing)
        n, d = s.numerator, s.denominator
        return _finished(self.varset, {m: Fraction(c * n, d) for m, c in self.terms.items()},
                         self.packing)


def _divided(f: Poly | tuple[int, int] | int, basis: list[Poly] | _Reducers,
             order: MonomialOrder, budget: _Budget | None,
             divide: Callable[[_Remainder, _Reducers], _Remainder]) -> Poly | _Remainder:
    """divide(h, record) on the remainder h of f: the one entry of
    ``normal_form`` and ``mora.mora_normal_form``, with their arguments.

    basis is a list of Polys, recorded here with its zero elements dropped,
    or a record itself (see ``_Reducers``).  A zero Poly f comes back as it
    is, and so does a Poly f when the record is empty.  A record over
    another varset than a Poly f raises VarsetMismatchError, and so does a
    list whose elements do not share one: a step reads exponent positions,
    so it would be applied at the wrong variables.  h starts from the
    record's dividend (see ``_Reducers.dividend``) and is paid from budget,
    a fresh default one when None.  The result is h made a Poly when basis
    is a list, and h itself when it is a record: the completion loop and the
    interreduction hand it on packed (see ``_Reducers.append``).

    When a field overflows (an entry, a shifted term of an S-pair or a
    product of degree 2^(width-1) or more), the budget is given back what
    the attempt spent, the record is widened, and the division is made again
    from the start: it takes the same steps, so it returns and charges what
    a division with unbounded exponents does.
    """
    if isinstance(f, Poly) and f.is_zero():
        return f
    record = basis if isinstance(basis, _Reducers) else _Reducers(order, basis)
    if isinstance(f, Poly):
        if not record.leads:
            return f
        if f.varset != record.varset:
            raise VarsetMismatchError(
                f"reducer over a different variable set: {record.varset!r} vs {f.varset!r}")
    budget = budget or _Budget()
    remaining = budget.remaining
    while True:
        try:
            h = divide(_Remainder(f, record, budget), record)
            return h if record is basis else h.snapshot()
        except _Overflow:
            budget.remaining = remaining
            record.widen()


def normal_form(f: Poly | tuple[int, int] | int, basis: list[Poly] | _Reducers,
                order: MonomialOrder, budget: _Budget | None = None) -> Poly | _Remainder:
    """Full remainder of f on division by basis, paid from budget (a fresh
    default one when None).  basis is a list of Polys, or the record of a
    basis (see ``_Reducers``), whose packed leads, ecarts and integer
    multiples the division reads.  Each element divides as its packed
    primitive form, which changes neither the remainder nor the charge.
    When basis is a record, f may also be a pair (i, j) of its positions,
    which the completion loop passes: the dividend is then S(g_i, g_j) (see
    ``spolynomial``), built by the record at packed monomials and never
    made a Poly; and f may be the position i of one of its elements, which
    the interreduction passes: the dividend is then that element, a copy of
    its integer multiple, divided by the others (the scan skips position
    i).  The checks, and the result, a Poly when basis is a list and packed
    when it is a record, are ``_divided``'s.

    Terminates for any global order; for the local order it is safe only on
    homogeneous inputs (used that way by the standard-basis interreduction).
    Moving a leading term to the remainder costs nothing.
    """

    skip = f if isinstance(f, int) else -1

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
                if (probe - lmg) & guard == guard and i != skip:  # lmg divides lm
                    h.reduce(record.forms[i], lmg, ecarts[i], lm)
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

    return _divided(f, basis, order, budget, divide)


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
        _accumulate(acc, h.terms, {monomial_div(lcm, lm): 1 if lc == 1 else 1 / lc}, sign,
                    monomial_mul)
    return _finished(f.varset, acc)


def _pair_key(L: Monomial, order: MonomialOrder) -> tuple:
    """The selection key of an S-pair whose leading monomials have lcm L:
    its total degree first, then its order key.  A proper divisor of L has
    a smaller key under every order, which the minimal-lcm scan of
    ``_update_pairs`` needs; and the least key is the pair of least degree,
    the sugar choice, also under the local order, where the order key alone
    would put the pair of highest degree first.  Under grevlex and grlex the
    order key already reads the degree first, so nothing changes there."""
    return monomial_degree(L), order.key(L)


def _update_pairs(lms: list, P: dict, heap: list, order: MonomialOrder) -> None:
    """Gebauer-Moeller style update of the live pairs P, a dict from each
    pair to the lcm of its leading monomials, in place, when the last of the
    leading monomials lms enters the basis.  Of the new pairs' lcms only the
    ones no other divides are kept, found by one scan by ``_pair_key``, which
    meets every proper divisor first.  Each new pair is also pushed onto
    heap as (``_pair_key`` of its lcm, pair); a pair the chain criterion
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
    for key, L in sorted((_pair_key(L, order), L) for L in lcms):
        if any(monomial_divides(M, L) for M in minimal):
            continue
        minimal.append(L)
        # lcm (product) criterion: skip coprime leading monomials
        if any(L == monomial_mul(lms[i], lmf) for i in lcms[L]):
            continue
        pair = (min(lcms[L]), f_index)
        P[pair] = L
        heappush(heap, (key, pair))


def _complete(gens: list[Poly], order: MonomialOrder, nf: _NormalForm,
              basis: Sequence[Poly] = ()) -> _Reducers:
    """The record of the S-pair completion of basis + gens, made monic.
    Zeros are skipped.  The basis under construction is one record, a
    ``_Reducers``, which opens with the elements of basis.  Each generator is
    first replaced by its remainder nf(f, record) against the elements kept
    before it, and enters the record unless that is zero; the remainder
    enters packed, as the division left it, and a generator that meets an
    empty record enters as it is.  Either way an element enters as its
    packed primitive form, once, and its lead, ecart and integer multiple
    are read off it (see ``_Reducers``).  Then the pair of least lcm
    degree, ties by the order's key of the lcm and then by pair index
    (``_pair_key``), is taken next: it is handed to nf as its positions
    (i, j) in the record, which builds S(g_i, g_j) packed, and the
    remainder enters the same way.

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
        if record and not f.is_zero():
            f = nf(f, record)
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


def _buchberger(gens: list[Poly], order: MonomialOrder, budget: _Budget) -> _Reducers:
    """The record of ``buchberger``."""

    def nf(f: Poly | tuple[int, int], record: _Reducers) -> Poly | _Remainder:
        # normal_form is read from the globals at each call: a wrapper must see every division
        return normal_form(f, record, order, budget=budget)

    return _complete(gens, order, nf)


def buchberger(gens: list[Poly], order: MonomialOrder,
               budget: _Budget | None = None) -> list[Poly]:
    """Raw (non-reduced) Groebner basis of gens (see ``_complete``); every
    division is paid from budget (a fresh default one when None)."""
    return _buchberger(gens, order, budget or _Budget()).elements()


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


def _interreduced(record: _Reducers, budget: _Budget) -> _Reducers:
    """The record of ``interreduce`` of the elements of record.

    Each element is divided inside record itself, passed as its position:
    the division starts from a copy of its integer multiple, made when it
    entered, and the scan for a divisor skips it, so every other element
    reduces it in the order it has in record.  Each nonzero remainder comes
    back packed and enters the returned record as it is
    (``_Reducers.append``), which is sorted by packed lead, the greatest
    leading monomial first; its elements are made Polys only when read.
    """
    out = record.kept(())
    for i in range(len(record)):
        r = normal_form(i, record, record.order, budget=budget)
        if not r.is_zero():
            out.append(r)
    return out.kept(sorted(range(len(out.leads)), key=out.leads.__getitem__))


def interreduce(basis: list[Poly], order: MonomialOrder,
                budget: _Budget | None = None) -> list[Poly]:
    """The reduced Groebner basis of the ideal of the minimal Groebner basis
    basis: each element reduced by the others and made monic, zeros
    dropped, sorted with the greatest leading monomial first; divisions are
    paid from budget (a fresh default one when None).  Raises ValueError
    when basis is not minimal, that is when the leading monomial of one
    element divides another's (see ``minimalize``): reducing both by each
    other would lose the ideal.  The basis is recorded once (see
    ``_Reducers``), for all of the divisions: each element enters as its
    packed primitive form, its integer multiple, from which its leading
    monomial is read, and the division of an element starts from a copy of
    its own multiple (see ``_interreduced``)."""
    record = _Reducers(order, basis)
    if len(_minimal(record.lms)) < len(record.lms):
        raise ValueError("interreduce needs a minimal Groebner basis; use minimalize first")
    return _interreduced(record, budget or _Budget()).elements()


def groebner_basis(gens: list[Poly], order: MonomialOrder,
                   work_limit: int = DEFAULT_WORK_LIMIT) -> list[Poly]:
    """Reduced Groebner basis (unique for the given global order), computed
    within one budget of work_limit terms touched: interreduce(minimalize(
    buchberger(...))) on one record, so the leads computed as the elements
    enter are the ones minimalized and interreduced."""
    if not order.is_global:
        raise ValueError("groebner_basis needs a global order; use mora_standard_basis")
    budget = _Budget(work_limit)
    record = _buchberger(gens, order, budget)
    return _interreduced(record.kept(_minimal(record.lms)), budget).elements()


def reduces_to_zero(f: Poly, basis: list[Poly], order: MonomialOrder) -> bool:
    return normal_form(f, basis, order).is_zero()
