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
