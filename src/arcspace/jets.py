"""Jet schemes and arcs.

Jet ideals and contact orders are both one composition read off in t, and
one routine computes it, polyalg.poly._composed (through substitute_tpoly
and eval_along_arc).  Composing g with the universal jet x_i(t) =
sum_{j<=n} x_i_j t^j mod t^(n+1) gives the universal Hasse-Schmidt
derivatives D_0(g)..D_n(g) as its coefficients, and all D_p(g_i) with
p <= n cut out the order-n jet scheme of V(g_1..g_c).  Arcs are tuples of
truncated series in t; composing a polynomial with an arc and reading the
t-adic order gives contact orders with ideals, in particular with Jacobian
(Fitting) ideals.

The jet ideal moved to a truncated arc is one composition too: the t^k
coefficient of g(alpha(t) + x(t)) mod t^(n+1), with alpha the arc's n-jet and
x(t) the universal jet, is D_k(g) with the point shifted to the origin.  It
involves only the x_i_j with j <= k, so the first m + 1 coefficients of the
level-n composite, restricted to the level-m jet variables, are the shifted
jet ideal of level m: a jet window shifts once, at its top level.

The Jacobian of the jet ideal at a truncated arc needs no jet ideal: by the
chain rule dD_k(g)/dx_i_j = D_(k-j)(dg/dx_i), so at the arc's order-n jet its
entry in row D_k(g), column x_i_j is the t^(k-j) coefficient of
(dg/dx_i)(alpha(t)) for j <= k, and 0 for j > k.

A linear change of coordinates x = T w needs no transformed scheme or arc
either.  The partials of g(T w) at T^-1 alpha are the row (dg/dx)(alpha)
times T, so the jet Jacobian of the transformed scheme at the transformed
arc is the one above times diag(T, ..., T), one block per level: the N
series of each generator are mixed by T before the rows are filled
(``drinfeld.jet_cotangent_map``).  Scaling a generator's rows by a nonzero
constant (to clear its denominators) leaves their row space alone, and
the primitive rows ``linalg.reduce_row`` leaves against an echelon basis
depend on that space alone: its pivot columns are the leading columns of
the reduced echelon form, and a remainder is the one vector of its coset
that vanishes there.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    InsufficientPrecisionError,
    InvalidCodimError,
    PointNotOnSchemeError,
    VarsetMismatchError,
)
from .polyalg.parse import parse_poly, poly_to_string
from .polyalg.poly import Poly, _composed, _Fields, poly_det
from .polyalg.series import OrdResult, TruncSeries, combine_ord_min
from .polyalg.tpoly import TPoly, substitute_tpoly
from .polyalg.varset import VarId, VarSet


# the fields of an arc's coefficients, constants over no variables: every
# monomial packs to 0, whatever the width
_NO_VARIABLES = _Fields(0, 8)


@lru_cache(maxsize=16)
def _jet_levels(ambient: VarSet) -> list[tuple[VarId, ...]]:
    """The jet variables of ambient, one tuple per order; ``jet_varset``
    appends the orders it is asked for."""
    return []


@lru_cache(maxsize=64)
def jet_varset(ambient: VarSet, n: int) -> VarSet:
    """Jet coordinates through order n, level-major; a negative n is a
    ValueError.

    Level-major layout makes the order-n set a prefix of the order-(n+1) set,
    so polynomials extend between levels by zero-padding exponents.  Each set
    is built once per (ambient, n), in a small bounded cache, since a jet
    tower asks for its levels again and again; the variables of each order
    are made once per ambient (``_jet_levels``), so a prefix test between
    levels compares them by identity.
    """
    if n < 0:
        raise ValueError(f"jet level must be nonnegative, not {n}")
    levels = _jet_levels(ambient)
    while len(levels) <= n:
        levels.append(tuple(v.derived(len(levels)) for v in ambient))
    return VarSet(itertools.chain.from_iterable(levels[:n + 1]))


@dataclass(frozen=True)
class AffineScheme:
    """Ambient coordinates, ideal generators, and an optional component dimension."""

    ambient: VarSet
    generators: tuple[Poly, ...]
    declared_dim: int | None = None

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.varset != self.ambient:
                raise VarsetMismatchError("generator over a different varset")
            if g.is_zero():
                raise ValueError("generators must be nonzero")
        if self.declared_dim is not None:
            if not 0 <= self.declared_dim <= len(self.ambient):
                raise ValueError("declared dimension out of range")
            # Krull: every component of V(g_1..g_c) in A^N has dimension >= N - c
            bound = len(self.ambient) - len(self.generators)
            if self.declared_dim < bound:
                raise ValueError(
                    f"declared dimension {self.declared_dim} is below N - c = {bound}")

    @property
    def ambient_dim(self) -> int:
        return len(self.ambient)

    @property
    def dim(self) -> int:
        """Declared dimension, or the complete-intersection default N - c."""
        if self.declared_dim is not None:
            return self.declared_dim
        d = self.ambient_dim - len(self.generators)
        if d < 0:
            raise ValueError("more generators than variables; declare a dimension")
        return d


class Arc:
    """A rational arc: one truncated series in t per ambient coordinate."""

    __slots__ = ("varset", "components")

    def __init__(self, varset: VarSet, components: Sequence[TruncSeries]):
        if len(components) != len(varset):
            raise ValueError("need one component per ambient coordinate")
        for c in components:
            if c.precision is not None and c.precision < 1:
                raise ValueError("component precision must be >= 1")
        self.varset = varset
        self.components = tuple(components)

    @classmethod
    def from_strings(cls, varset: VarSet, entries: Sequence[str],
                     precision: int | None = None) -> "Arc":
        """Parse arc entries with the polynomial grammar restricted to t."""
        tset = VarSet(["t"])
        comps = []
        for text in entries:
            p = parse_poly(text, tset)
            coeffs: list[Fraction] = []
            for mono, c in p.terms.items():
                k = mono[0]
                while len(coeffs) <= k:
                    coeffs.append(Fraction(0))
                coeffs[k] = c
            comps.append(TruncSeries(coeffs, precision))
        return cls(varset, comps)

    @property
    def precision(self) -> int | None:
        """Known precision: None when every component is exact."""
        finite = [c.precision for c in self.components if c.precision is not None]
        return min(finite) if finite else None

    def special_point(self) -> tuple[Fraction, ...]:
        return tuple(c.coefficient(0) for c in self.components)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arc)
            and self.varset == other.varset
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"Arc({', '.join(repr(c) for c in self.components)})"


@dataclass(frozen=True)
class JetPoint:
    """Truncation of an arc: a rational point of the order-n jet space."""

    level: int
    varset: VarSet  # jet variables through the level
    values: tuple[Fraction, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.values) != len(self.varset):
            raise ValueError("values misaligned with the jet varset")


# -- Hasse-Schmidt derivatives ------------------------------------------------


def _universal_jet(ambient: VarSet, n: int, target: VarSet,
                   shift: JetPoint | None = None) -> list[TPoly]:
    """The universal jet x_i(t) = sum_{j<=n} x_i_j t^j mod t^(n+1), one TPoly
    per coordinate of `ambient`, its coefficients the jet variables of
    `target`; with a shift (a truncated arc), x_i_j plus its value there."""
    N = len(ambient)
    shifts = shift.values if shift is not None else (0,) * (N * (n + 1))
    jets = []
    for i, v in enumerate(ambient):
        xs = (Poly.variable(target, v.derived(j)) for j in range(n + 1))
        coeffs = [x + Poly.const(target, a) if a else x for x, a in zip(xs, shifts[i::N])]
        jets.append(TPoly(target, coeffs, n + 1))
    return jets


def hs_derivative(f: Poly, p: int, varset: VarSet | None = None) -> Poly:
    """The p-th universal Hasse-Schmidt derivative of f, in jet coordinates.

    D_p(f) is the t^p coefficient of f(sum_j x_j t^j): it is Q-linear, sends
    a coordinate x to x_p, and satisfies D_p(gh) = sum over i+j=p of
    D_i(g) D_j(h).  The result only involves jet variables of order <= p;
    pass a larger jet varset to embed directly.  A varset without every jet
    variable of f through order p is a VarsetMismatchError.
    """
    if p < 0:
        raise ValueError("derivative order must be nonnegative")
    target = jet_varset(f.varset, p)
    if varset is not None:
        for v in target:
            if v not in varset:
                raise VarsetMismatchError(
                    f"D_{p} needs the jet variables through level {p}; "
                    f"{v} is not in the varset given")
        target = varset
    return substitute_tpoly(f, _universal_jet(f.varset, p, target)).coefficient(p)


def jet_ideal(X: AffineScheme, n: int) -> list[Poly]:
    """Defining ideal of the order-n jet scheme inside A^((n+1)N): D_0..D_n
    of each generator, read off one composite per generator."""
    if n < 0:
        raise ValueError(f"jet level must be nonnegative, not {n}")
    jets = _universal_jet(X.ambient, n, jet_varset(X.ambient, n))
    composites = [substitute_tpoly(g, jets) for g in X.generators]
    return [h.coefficient(p) for h in composites for p in range(n + 1)]


# -- evaluation along arcs ----------------------------------------------------


def eval_along_arc(f: Poly, arc: Arc) -> TruncSeries:
    """Exact composite series f(alpha(t)), to the arc's precision: the
    composition kernel over no variables, each coefficient of the arc a
    constant term."""
    if f.varset != arc.varset:
        raise VarsetMismatchError("polynomial and arc over different varsets")
    comps = arc.components
    accs, precision = _composed(f, [[{0: c} if c else {} for c in s.coeffs] for s in comps],
                                [s.precision for s in comps], _NO_VARIABLES)
    return TruncSeries([acc.get(0, 0) for acc in accs], precision)


def ord_along_arc(target: Poly | Sequence[Poly], arc: Arc) -> OrdResult:
    """t-adic order of a polynomial, or min over an ideal's generators.

    For an ideal presented by generators the minimum over generators equals
    the order of the ideal because ord along the arc is a valuation; for
    reducible schemes pass the generators of the component containing the
    arc's generic point.
    """
    if isinstance(target, Poly):
        return eval_along_arc(target, arc).ord()
    results = [eval_along_arc(g, arc).ord() for g in target]
    if not results:
        raise ValueError("empty generator list")
    return combine_ord_min(results)


def jacobian_ideal(X: AffineScheme, d: int | None = None) -> list[Poly]:
    """All (N-d)x(N-d) minors of the Jacobian matrix of the generators.

    For a hypersurface (c = 1, d = N-1) this is the list of partials.  When d
    is supplied explicitly a finiteness warning is left to the caller's
    ord computation; a provisional complete-intersection d is used otherwise.
    """
    N = X.ambient_dim
    if d is None:
        d = X.dim
    if not 0 <= d <= N:
        raise InvalidCodimError(f"d = {d} out of range 0..{N}")
    k = N - d
    gens = X.generators
    if k > len(gens) or k > N:
        raise InvalidCodimError(
            f"minor size {k} exceeds the Jacobian shape {len(gens)}x{N}")
    if k == 0:
        return [Poly.one(X.ambient)]
    rows = [[g.partial(v) for v in X.ambient] for g in gens]
    minors = []
    for ridx in itertools.combinations(range(len(gens)), k):
        for cidx in itertools.combinations(range(N), k):
            sub = [[rows[i][j] for j in cidx] for i in ridx]
            minors.append(poly_det(sub))
    return minors


def check_fitting_finite(X: AffineScheme, arc: Arc, d: int) -> OrdResult:
    """Contact order with Fitt^d; warns when the data cannot decide finiteness."""
    result = ord_along_arc(jacobian_ideal(X, d), arc)
    if result.kind == "exhausted":
        warnings.warn(
            f"ord of Fitt^{d} exhausted the arc precision ({result}); "
            "finiteness undecided", stacklevel=2)
    return result


def truncate_arc(arc: Arc, n: int) -> JetPoint:
    """Image of the arc in the order-n jet space (coefficients through t^n)."""
    if n < 0:
        raise ValueError(f"jet level must be nonnegative, not {n}")
    for comp in arc.components:
        if comp.precision is not None and n >= comp.precision:
            raise InsufficientPrecisionError(n + 1, comp.precision)
    target = jet_varset(arc.varset, n)
    values = tuple(
        comp.coefficient(j) for j in range(n + 1) for comp in arc.components
    )
    return JetPoint(n, target, values)


def jet_ideal_at(X: AffineScheme, arc: Arc, n: int) -> list[Poly]:
    """The jet ideal jet_ideal(X, n) with the point truncate_arc(arc, n)
    moved to the origin (as localgeom.translate_to_origin would), read off one
    shifted composite per generator (see the module docstring), in
    jet_ideal's order: generator-major, then k.

    A coefficient with a nonzero constant term means the arc leaves X below
    order n + 1, and raises PointNotOnSchemeError naming D_k(g_i).
    """
    jp = truncate_arc(arc, n)
    if arc.varset != X.ambient:
        raise VarsetMismatchError("scheme and arc over different varsets")
    jets = _universal_jet(X.ambient, n, jp.varset, jp)
    out = []
    for i, g in enumerate(X.generators, 1):
        composite = substitute_tpoly(g, jets)
        for k in range(n + 1):
            d = composite.coefficient(k)
            if d.constant_term() != 0:
                raise PointNotOnSchemeError(
                    f"D_{k}(g_{i}) does not vanish at the {n}-jet of the arc, "
                    f"where g_{i} = {poly_to_string(g)}")
            out.append(d)
    return out


def _partial_series(X: AffineScheme, arc: Arc, n: int) -> list[list[list[Fraction | int]]]:
    """The coefficients of t^0..t^n of (dg/dx_i)(alpha(t)), alpha the arc's
    n-jet: one list per coordinate x_i, one list of those per generator g.

    An arc over another varset is a VarsetMismatchError and an arc known
    below t^(n+1) an InsufficientPrecisionError (``truncate_arc``).  Each
    partial is composed once with the n-jet by the composition kernel over
    no variables; integral arc coefficients enter as ints, so a coefficient
    is an int unless a non-integral factor came in.
    """
    if arc.varset != X.ambient:
        raise VarsetMismatchError("scheme and arc over different varsets")
    values = truncate_arc(arc, n).values
    N = len(X.ambient)
    jet = [[{0: c.numerator if c.denominator == 1 else c} if c else {} for c in values[i::N]]
           for i in range(N)]
    precisions = [n + 1] * N
    out = []
    for g in X.generators:
        per_coordinate = []
        for v in X.ambient:
            accs, _ = _composed(g.partial(v), jet, precisions, _NO_VARIABLES)
            coeffs = [acc.get(0, 0) for acc in accs]
            per_coordinate.append(coeffs + [0] * (n + 1 - len(coeffs)))
        out.append(per_coordinate)
    return out


def _jet_rows(series: Sequence[Sequence[Sequence[Fraction | int]]], n: int,
              zero: Fraction | int) -> list[list[Fraction | int]]:
    """The block-Toeplitz rows of the jet Jacobian: for each generator's N
    series s_0..s_(N-1) (coefficients of t^0..t^n), the rows D_0(g)..D_n(g),
    whose entry in column x_i_j (level-major) is the t^(k-j) coefficient of
    s_i in row D_k(g) for j <= k, and zero for j > k."""
    rows = []
    for per_coordinate in series:
        N = len(per_coordinate)
        for k in range(n + 1):
            row = [zero] * (N * (n + 1))
            for j in range(k + 1):
                row[j * N:(j + 1) * N] = [s[k - j] for s in per_coordinate]
            rows.append(row)
    return rows


def jet_jacobian_at(X: AffineScheme, arc: Arc, n: int) -> list[list[Fraction]]:
    """jacobian_at(jet_ideal(X, n), truncate_arc(arc, n)), read off the arc.

    Rows follow jet_ideal (generator-major, then k) and columns the
    level-major jet varset.  By the chain rule in the module docstring each
    partial dg/dx_i is composed once with the arc mod t^(n+1)
    (``_partial_series``), and its coefficient of t^(k-j) fills row D_k(g),
    column x_i_j for every j <= k (``_jet_rows``).  Every entry is a Fraction.
    """
    series = [[[x if type(x) is Fraction else Fraction(x) for x in s] for s in per_coordinate]
              for per_coordinate in _partial_series(X, arc, n)]
    return _jet_rows(series, n, Fraction(0))
