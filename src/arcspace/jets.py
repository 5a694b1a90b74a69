"""Jet schemes and arcs.

Jet ideals and contact orders are both one composition (polyalg.poly.compose)
read off in t.  Composing g with the universal jet x_i(t) = sum_{j<=n} x_i_j t^j
mod t^(n+1) gives the universal Hasse-Schmidt derivatives D_0(g)..D_n(g) as its
coefficients, and all D_p(g_i) with p <= n cut out the order-n jet scheme of
V(g_1..g_c).  Arcs are tuples of truncated series in t; composing a polynomial
with an arc and reading the t-adic order gives contact orders with ideals, in
particular with Jacobian (Fitting) ideals.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InsufficientPrecisionError, InvalidCodimError, VarsetMismatchError
from .polyalg.poly import Poly, compose, poly_det
from .polyalg.series import OrdResult, TruncSeries, combine_ord_min
from .polyalg.tpoly import TPoly, substitute_tpoly
from .polyalg.varset import VarSet


def jet_varset(ambient: VarSet, n: int) -> VarSet:
    """Jet coordinates through order n, level-major.

    Level-major layout makes the order-n set a prefix of the order-(n+1) set,
    so polynomials extend between levels by zero-padding exponents.
    """
    return VarSet([v.derived(j) for j in range(n + 1) for v in ambient])


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
        from .polyalg.parse import parse_poly

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


def _universal_jet_composite(f: Poly, n: int, target: VarSet) -> TPoly:
    """f(x(t)) mod t^(n+1) at the universal jet x_i(t) = sum_{j<=n} x_i_j t^j,
    whose coefficients are the jet variables of `target`."""
    jets = [TPoly(target, [Poly.variable(target, v.derived(j)) for j in range(n + 1)], n + 1)
            for v in f.varset]
    return substitute_tpoly(f, jets)


def hs_derivative(f: Poly, p: int, varset: VarSet | None = None) -> Poly:
    """The p-th universal Hasse-Schmidt derivative of f, in jet coordinates.

    D_p(f) is the t^p coefficient of f(sum_j x_j t^j): it is Q-linear, sends
    a coordinate x to x_p, and satisfies D_p(gh) = sum over i+j=p of
    D_i(g) D_j(h).  The result only involves jet variables of order <= p;
    pass a larger jet varset to embed directly.
    """
    if p < 0:
        raise ValueError("derivative order must be nonnegative")
    target = varset if varset is not None else jet_varset(f.varset, p)
    return _universal_jet_composite(f, p, target).coefficient(p)


def jet_ideal(X: AffineScheme, n: int) -> list[Poly]:
    """Defining ideal of the order-n jet scheme inside A^((n+1)N): D_0..D_n
    of each generator, read off one composite per generator."""
    target = jet_varset(X.ambient, n)
    composites = [_universal_jet_composite(g, n, target) for g in X.generators]
    return [h.coefficient(p) for h in composites for p in range(n + 1)]


# -- evaluation along arcs ----------------------------------------------------


def eval_along_arc(f: Poly, arc: Arc) -> TruncSeries:
    """Exact composite series f(alpha(t)), to the arc's precision."""
    if f.varset != arc.varset:
        raise VarsetMismatchError("polynomial and arc over different varsets")
    return compose(f, arc.components, lambda c, mono: TruncSeries.constant(c),
                   TruncSeries.sum_of)


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
    for comp in arc.components:
        if comp.precision is not None and n >= comp.precision:
            raise InsufficientPrecisionError(n + 1, comp.precision)
    target = jet_varset(arc.varset, n)
    values = tuple(
        comp.coefficient(j) for j in range(n + 1) for comp in arc.components
    )
    return JetPoint(n, target, values)
