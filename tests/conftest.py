import math
import random
from fractions import Fraction

import pytest

from arcspace.jets import AffineScheme, Arc
from arcspace.polyalg import VarSet, parse_poly


@pytest.fixture
def quadric():
    """The four-fold quadric cone V(x0*x3 + x1*x2): both golden examples live here."""
    vs = VarSet(["x0", "x1", "x2", "x3"])
    return AffineScheme(vs, (parse_poly("x0*x3 + x1*x2", vs),))


@pytest.fixture
def node():
    vs = VarSet(["x", "y"])
    return AffineScheme(vs, (parse_poly("x*y", vs),))


@pytest.fixture
def ci_fixture():
    """Two quadrics through the line x1 = x2 = x3 = 0 in A^4, a dimension-2 CI."""
    vs = VarSet(["x0", "x1", "x2", "x3"])
    return AffineScheme(
        vs,
        (parse_poly("x0*x1 + x2*x3 + x2^2", vs), parse_poly("x0*x2 + x1^2 - x3^2", vs)),
        2,
    )


def monomial_arc(scheme: AffineScheme, m: int) -> Arc:
    """The arc (t^m, 0, ..., 0)."""
    entries = [f"t^{m}"] + ["0"] * (scheme.ambient_dim - 1)
    return Arc.from_strings(scheme.ambient, entries)


def random_poly(varset: VarSet, rng: random.Random, max_degree: int = 3,
                terms: int = 4):
    """Random sparse polynomial with small rational coefficients."""
    from arcspace.polyalg import Poly

    n = len(varset)
    data = {}
    for _ in range(terms):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        num = rng.randint(-6, 6)
        den = rng.randint(1, 4)
        data[tuple(mono)] = data.get(tuple(mono), Fraction(0)) + Fraction(num, den)
    return Poly(varset, data)


def tuple_key(order, mono):
    """The tuple sort key the orders were first defined by (larger key, larger
    monomial), kept as the reference for their ranks."""
    e = mono if order.priority is None else tuple(mono[p] for p in order.priority)
    if order.kind == "lex":
        return e
    deg = sum(e)
    if order.kind == "grlex":
        return (deg, e)
    if order.kind == "grevlex":
        return (deg, tuple(-x for x in reversed(e)))
    return (-deg, tuple(-x for x in e))


def tuple_leading_monomial(f, order):
    return max(f.terms, key=lambda m: tuple_key(order, m))


def random_arc(varset: VarSet, rng: random.Random, degree: int = 4) -> Arc:
    """Random exact polynomial arc in the ambient space."""
    from arcspace.polyalg import TruncSeries

    comps = []
    for _ in range(len(varset)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(degree + 1)]
        comps.append(TruncSeries(coeffs))
    return Arc(varset, comps)


def convolution_hs_derivative(f, p: int, varset=None):
    """D_p(f) by the truncated convolution over the factors of each monomial,
    as hs_derivative was first written: the reference for the composite."""
    from arcspace.jets import jet_varset
    from arcspace.polyalg import Poly

    target = varset if varset is not None else jet_varset(f.varset, p)
    total = Poly.zero(target)
    for mono, coeff in f.terms.items():
        conv = [Poly.const(target, coeff)] + [None] * p
        for i, e in enumerate(mono):
            for _ in range(e):
                nxt = [None] * (p + 1)
                for a in range(p + 1):
                    if conv[a] is None:
                        continue
                    for b in range(p + 1 - a):
                        piece = conv[a] * Poly.variable(target, f.varset[i].derived(b))
                        nxt[a + b] = piece if nxt[a + b] is None else nxt[a + b] + piece
                conv = nxt
        if conv[p] is not None:
            total = total + conv[p]
    return total


def substitute_every_variable(f, mapping):
    """f with the mapping substituted, as Poly.substitute was first written:
    every variable gets a value (itself when unmapped), and each term is the
    product of the powers of all of them."""
    from arcspace.polyalg import Poly

    vs = f.varset
    values = [Poly.variable(vs, v) for v in vs]
    for key, val in mapping.items():
        values[vs.position(key)] = val if isinstance(val, Poly) else Poly.const(vs, val)
    out = Poly.zero(vs)
    for mono, c in f.terms.items():
        term = Poly.const(vs, c)
        for i, e in enumerate(mono):
            if e:
                term = term * values[i] ** e
        out = out + term
    return out


# -- the copy-per-add loops the in-place kernel replaced, kept as references --
# They work on Fraction dicts only and never call Poly or TPoly arithmetic.


def copy_add(p, q, sign=1):
    """p + sign*q by copying p's terms, as Poly.__add__/__sub__ were written."""
    from arcspace.errors import VarsetMismatchError
    from arcspace.polyalg import Poly

    if p.varset != q.varset:
        raise VarsetMismatchError("reference: operands over different variable sets")
    out = dict(p.terms)
    for mono, c in q.terms.items():
        s = out.get(mono, 0) + sign * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return Poly(p.varset, out)


def copy_mul(p, q):
    """p * q term by term into a Fraction dict, as Poly.__mul__ was written."""
    from arcspace.errors import VarsetMismatchError
    from arcspace.polyalg import Poly

    if p.varset != q.varset:
        raise VarsetMismatchError("reference: operands over different variable sets")
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                del out[mono]
    return Poly(p.varset, out)


def _coefficient_or_zero(a, i):
    from arcspace.polyalg import Poly

    return a.coeffs[i] if i < len(a.coeffs) else Poly.zero(a.varset)


def copy_tpoly_add(a, b, sign=1):
    """a + sign*b, one copy_add per t-coefficient, as TPoly.__add__ was written."""
    from arcspace.polyalg import TPoly
    from arcspace.polyalg.series import min_precision

    n = max(len(a.coeffs), len(b.coeffs))
    return TPoly(a.varset, [copy_add(_coefficient_or_zero(a, i), _coefficient_or_zero(b, i), sign)
                            for i in range(n)], min_precision(a.precision, b.precision))


def copy_tpoly_mul(a, b):
    """a * b with out[i + j] = out[i + j] + a_i * b_j, as TPoly.__mul__ was written."""
    from arcspace.polyalg import Poly, TPoly
    from arcspace.polyalg.series import min_precision

    prec = min_precision(a.precision, b.precision)
    if not a.coeffs or not b.coeffs:
        return TPoly(a.varset, (), prec)
    n = len(a.coeffs) + len(b.coeffs) - 1
    if prec is not None:
        n = min(n, prec)
    out = [Poly.zero(a.varset) for _ in range(n)]
    for i, x in enumerate(a.coeffs[:n]):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs[:n - i]):
            if not y.is_zero():
                out[i + j] = copy_add(out[i + j], copy_mul(x, y))
    return TPoly(a.varset, out, prec)


def copy_series_add(a, b):
    """a + b coefficient by coefficient, as TruncSeries.__add__ was written."""
    from arcspace.polyalg import TruncSeries
    from arcspace.polyalg.series import min_precision

    n = max(len(a.coeffs), len(b.coeffs))
    pad = [Fraction(0)] * n
    return TruncSeries([x + y for x, y in zip((*a.coeffs, *pad), (*b.coeffs, *pad))][:n],
                       min_precision(a.precision, b.precision))


def copy_compose(f, values, head, zero, add, mul):
    """f at ring elements by the ring's own sum and product, one copy per
    term (total = total + term), as poly.compose was first written: the sum
    over the terms c*x^a of f of head(c, a) times values[i]**a_i for every i
    whose value is not None.  The reference of the composition kernel."""
    powers = [[v] for v in values]
    total = zero
    for mono, c in f.terms.items():
        term = head(c, mono)
        for i, e in enumerate(mono):
            if e and values[i] is not None:
                pw = powers[i]
                while len(pw) < e:
                    pw.append(mul(pw[-1], values[i]))
                term = mul(term, pw[e - 1])
        total = add(total, term)
    return total


def copy_substitute_tpoly(f, values):
    """substitute_tpoly over the reference TPoly sum and product."""
    from arcspace.polyalg import Poly, TPoly

    target = values[0].varset
    return copy_compose(f, values, lambda c, mono: TPoly.constant(Poly.const(target, c)),
                        TPoly.zero(target), copy_tpoly_add, copy_tpoly_mul)


def copy_universal_jet(ambient, n, target, values=None):
    """The universal jet x_i(t) = sum_{j<=n} x_i_j t^j mod t^(n+1) over
    target, each x_i_j plus values[j * N + i] when the values of a truncated
    arc are given, built as the jets module built it for each generator."""
    from arcspace.polyalg import Poly, TPoly

    N = len(ambient)
    jets = []
    for i, v in enumerate(ambient):
        coeffs = []
        for j in range(n + 1):
            x = Poly.variable(target, v.derived(j))
            a = values[j * N + i] if values is not None else 0
            coeffs.append(x + Poly.const(target, a) if a else x)
        jets.append(TPoly(target, coeffs, n + 1))
    return jets


def copy_jet_ideal(X, n, arc=None):
    """jet_ideal(X, n), or jet_ideal_at(X, arc, n) without its check that the
    arc lies on X: each generator composed with its own copy of the
    (shifted) universal jet by the reference loops above."""
    from arcspace.jets import jet_varset, truncate_arc

    if arc is None:
        target, values = jet_varset(X.ambient, n), None
    else:
        jp = truncate_arc(arc, n)
        target, values = jp.varset, jp.values
    out = []
    for g in X.generators:
        composite = copy_substitute_tpoly(g, copy_universal_jet(X.ambient, n, target, values))
        out += [composite.coefficient(k) for k in range(n + 1)]
    return out


def copy_mod_reduce(g, qt):
    """g mod the monic qt as drinfeld._ModReducer.reduce was written: a table
    of t^k mod q, and out = out + (t^k mod q) * g_k for each k."""
    from arcspace.polyalg import Poly, TPoly

    vs, dq = qt.varset, qt.degree()
    table = [TPoly.t_power(vs, k) for k in range(dq)]
    while len(table) < len(g.coeffs):
        shifted = TPoly(vs, (Poly.zero(vs),) + table[-1].coeffs)
        top = shifted.coefficient(dq)
        if top.is_zero():
            table.append(shifted)
        else:
            table.append(TPoly(vs, [copy_add(shifted.coefficient(j),
                                             copy_mul(top, qt.coefficient(j)), -1)
                                    for j in range(dq)]))
    out = TPoly.zero(vs)
    for k, coeff in enumerate(g.coeffs):
        if coeff.is_zero():
            continue
        if k < dq:
            out = copy_tpoly_add(out, TPoly(vs, [Poly.zero(vs)] * k + [coeff]))
        else:
            out = copy_tpoly_add(out, TPoly(vs, [copy_mul(x, coeff) for x in table[k].coeffs]))
    return out


def copy_model_equations(Xci, proj, e):
    """The equations of build_drinfeld_model by the chain it first had: each
    composite substituted and finished as a TPoly, then reduced mod q or q^2
    by the reference loops above, and the zero remainders dropped."""
    from arcspace.drinfeld import model_varset
    from arcspace.polyalg import Poly, TPoly, VarId, poly_adjugate, poly_det

    d, c = proj.d, proj.c
    vs = model_varset(e, d, c)
    qt = TPoly(vs, [Poly.variable(vs, VarId("q", (n,))) for n in range(e)] + [Poly.one(vs)])
    values = ([TPoly(vs, [Poly.variable(vs, VarId("xbar", (i, n))) for n in range(2 * e)])
               for i in range(d)]
              + [TPoly(vs, [Poly.variable(vs, VarId("ybar", (j, n))) for n in range(e)])
                 for j in range(c)])
    gens = [proj.apply_to_poly(g) for g in Xci.generators]
    ymat = [[g.partial(v) for v in proj.y_vars] for g in gens]
    adj = poly_adjugate(ymat)
    q2 = copy_tpoly_mul(qt, qt)
    composites = [(g, qt) for g in gens] + [(poly_det(ymat), qt)]
    composites += [(Poly.sum_of(Xci.ambient, (adj[i][j] * gens[j] for j in range(c))), q2)
                   for i in range(c)]
    equations = []
    for f, mod in composites:
        rem = copy_mod_reduce(copy_substitute_tpoly(f, values), mod)
        equations += [rem.coefficient(k) for k in range(mod.degree())]
    return [q for q in equations if not q.is_zero()]


def copy_spolynomial(f, g, order):
    """S(f, g) from two scaled copies and a copying subtraction, as
    groebner.spolynomial was written."""
    from arcspace.polyalg import Poly, leading_monomial

    def term_mul(h, mono, coeff):
        return Poly(h.varset, {tuple(x + y for x, y in zip(m, mono)): c * coeff
                               for m, c in h.terms.items()})

    lmf, lmg = leading_monomial(f, order), leading_monomial(g, order)
    lcm = tuple(map(max, lmf, lmg))
    sf = term_mul(f, tuple(x - y for x, y in zip(lcm, lmf)), 1 / f.terms[lmf])
    sg = term_mul(g, tuple(x - y for x, y in zip(lcm, lmg)), 1 / g.terms[lmg])
    return copy_add(sf, sg, -1)


def copy_integer_rows(rows):
    """Rows cleared of denominators through Fraction(x) and int(x * D), as
    linalg._as_integer_rows was written."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        denom = 1
        for x in fr:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
        out.append([int(x * denom) for x in fr])
    return out


def copy_fraction_free_echelon(rows):
    """linalg.fraction_free_echelon with its all-zero test per row and pivot
    step written as a generator scan, as it was first written."""
    m = copy_integer_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivot_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            if all(x == 0 for x in m[i]):
                continue
            mic = m[i][c]
            for j in range(ncols):
                m[i][j] = (m[i][j] * piv - mic * m[r][j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return [m[i] for i in range(r)], pivot_cols


def copy_reduce_row(row, echelon, pivot_cols):
    """linalg.reduce_row as first written: the remainder over Q, in Fractions."""
    out = [Fraction(x) for x in row]
    for erow, c in zip(echelon, pivot_cols):
        if out[c] != 0:
            factor = out[c] / erow[c]
            for j in range(len(out)):
                if erow[j]:
                    out[j] -= factor * erow[j]
    return out


# -- the two S-pair loops groebner._complete replaced, kept as references --
# Each looks its normal form up on the library module at call time, so a test
# that patches groebner.normal_form or mora.mora_normal_form sees the calls of
# the reference and of the library alike.


def _monic_from_form(ints, F, lead):
    """The monic Poly of the int terms F at the packed monomials of the
    record ints, lead the packed leading monomial."""
    from arcspace.polyalg import Poly

    unpack, c = ints.packing.unpack, F[lead]
    return Poly(ints.varset, {unpack(m): Fraction(x, c) for m, x in F.items()})


def record_elements(ints):
    """The elements of the basis record ints as monic Polys, read without
    storing them in it: one that has no Poly yet, since it entered packed or
    not monic, is made from its form, so the record stays as the division
    leaves it."""
    return [g if g is not None else _monic_from_form(ints, F, lead)
            for g, F, lead in zip(ints.polys, ints.forms, ints.leads)]


def dividend_poly(f, basis, order, ints=None):
    """The Poly a dividend of the normal forms stands for: the completion loop
    hands in an S-pair as its positions (i, j) in basis, which is the
    S-polynomial the reference loops build, and the interreduction the
    element its record ints holds as its position, which is that element."""
    from arcspace.polyalg import groebner

    if isinstance(f, tuple):
        i, j = f
        return groebner.spolynomial(basis[i], basis[j], order)
    if isinstance(f, int):
        return _monic_from_form(ints, *ints.held)
    return f


def reference_update_pairs(G, lmG, P, f_index, order):
    """Gebauer-Moeller pair update as groebner._update_pairs was written: a
    new pair set, with every lcm of the chain criterion computed afresh.  The
    minimal lcms are found by a scan by (total degree, order key)."""
    from arcspace.polyalg.poly import (
        monomial_degree, monomial_divides, monomial_lcm, monomial_mul)

    lmf = lmG[f_index]
    P = {
        (i, j)
        for (i, j) in P
        if not monomial_divides(lmf, monomial_lcm(lmG[i], lmG[j]))
        or monomial_lcm(lmG[i], lmG[j]) == monomial_lcm(lmG[i], lmf)
        or monomial_lcm(lmG[i], lmG[j]) == monomial_lcm(lmG[j], lmf)
    }
    lcms = {}
    for i in range(f_index):
        lcms.setdefault(monomial_lcm(lmG[i], lmf), []).append(i)
    minimal = []
    for L in sorted(lcms, key=lambda L: (monomial_degree(L), order.key(L))):
        if all(not monomial_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(monomial_lcm(lmG[i], lmf) == monomial_mul(lmG[i], lmf) for i in lcms[L]):
            continue
        P.add((min(lcms[L]), f_index))
    return P


def pair_key(lmG, pair, order):
    """(total degree, order key) of the lcm of the pair's leading monomials:
    the reference loops take the pair of least key, ties by pair."""
    from arcspace.polyalg.poly import monomial_degree, monomial_lcm

    L = monomial_lcm(lmG[pair[0]], lmG[pair[1]])
    return monomial_degree(L), order.key(L)


def reference_buchberger(gens, order, work_limit=None):
    """groebner.buchberger with its own S-pair loop, as first written, with
    every division paid from one budget.  Each generator is first reduced
    against those kept before it, as in reference_mora_standard_basis: the
    two references differ only in their normal form."""
    from arcspace.polyalg import groebner
    from arcspace.polyalg.orders import leading_monomial, make_monic

    if work_limit is None:
        work_limit = groebner.DEFAULT_WORK_LIMIT
    budget = groebner._Budget(work_limit)
    seeds = [g for g in gens if not g.is_zero()]
    pre = []
    for g in seeds:
        h = groebner.normal_form(g, pre, order, budget=budget) if pre else g
        if not h.is_zero():
            pre.append(make_monic(h, order))
    G, lmG, P = [], [], set()
    for f in pre:
        G.append(f)
        lmG.append(leading_monomial(f, order))
        P = reference_update_pairs(G, lmG, P, len(G) - 1, order)
    while P:
        i, j = min(P, key=lambda p: (pair_key(lmG, p, order), p))
        P.remove((i, j))
        s = groebner.spolynomial(G[i], G[j], order)
        r = groebner.normal_form(s, G, order, budget=budget)
        if not r.is_zero():
            G.append(make_monic(r, order))
            lmG.append(leading_monomial(r, order))
            P = reference_update_pairs(G, lmG, P, len(G) - 1, order)
    return G


def reference_mora_standard_basis(gens, order, work_limit=None):
    """mora.mora_standard_basis with its own S-pair loop, as first written,
    with every division, interreduction included, paid from one budget."""
    from arcspace.polyalg import groebner, mora
    from arcspace.polyalg.orders import leading_monomial, make_monic

    if work_limit is None:
        work_limit = groebner.DEFAULT_WORK_LIMIT
    budget = groebner._Budget(work_limit)
    seeds = [g for g in gens if not g.is_zero()]
    pre = []
    for g in seeds:
        h = mora.mora_normal_form(g, pre, order, budget=budget) if pre else g
        if not h.is_zero():
            pre.append(make_monic(h, order))
    G, lmG, pairs = [], [], set()
    for g in pre:
        G.append(g)
        lmG.append(leading_monomial(g, order))
        pairs = reference_update_pairs(G, lmG, pairs, len(G) - 1, order)
    if not G:
        return []
    while pairs:
        i, j = min(pairs, key=lambda p: (pair_key(lmG, p, order), p))
        pairs.remove((i, j))
        s = groebner.spolynomial(G[i], G[j], order)
        h = mora.mora_normal_form(s, G, order, budget=budget)
        if not h.is_zero():
            G.append(make_monic(h, order))
            lmG.append(leading_monomial(h, order))
            pairs = reference_update_pairs(G, lmG, pairs, len(G) - 1, order)
    G = groebner.minimalize(G, order)
    if all(g.is_homogeneous() for g in G):
        G = groebner.interreduce(G, order, budget)
    return sorted(G, key=lambda g: order.key(leading_monomial(g, order)), reverse=True)


def work_spent(monkeypatch, compute, *args):
    """The work the basis computation compute(*args) spends from its budget.

    Asserts that it makes exactly one budget: a second one would leave part of
    the computation outside the limit a caller sets.
    """
    from arcspace.polyalg import groebner, mora

    made = []

    class Recorded(groebner._Budget):
        __slots__ = ()

        def __init__(self, *limit):
            super().__init__(*limit)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(groebner, "_Budget", Recorded)
        m.setattr(mora, "_Budget", Recorded)
        compute(*args)
    (budget,) = made
    return budget.limit - budget.remaining
