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
    """compose as first written: total = total + term, one copy per term."""
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
