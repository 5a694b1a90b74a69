"""Local invariants of a finite-type ring at a rational point.

Everything reduces to exact computations after translating the point to the
origin: the embedding dimension is the ambient count minus the Jacobian rank,
the tangent cone is cut out by the initial ideal of a local standard basis,
and the embedding codimension is their difference.  Two independent pipelines
(fraction-free linear algebra and Mora standard bases) must agree on the
linear data; a mismatch signals a basis bug and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalInconsistencyError, PointNotOnSchemeError
from .jets import AffineScheme, Arc, JetPoint, jet_ideal, truncate_arc
from .polyalg.dimension import monomial_dim
from .polyalg.linalg import exact_rank
from .polyalg.mora import canonical_initial_forms, mora_standard_basis
from .polyalg.orders import ANTIGRLEX, leading_monomial
from .polyalg.parse import poly_to_string
from .polyalg.poly import Poly, monomial_degree
from .polyalg.varset import VarSet


@dataclass(frozen=True)
class LocalAnalysis:
    """Report at a rational point; `stabilized` is set only by window reports."""

    nvars: int
    jacobian_rank: int
    edim: int
    tangent_cone_dim: int
    ecodim: int
    initial_forms: tuple[Poly, ...]
    stabilized: bool | None = None

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "edim": self.edim,
            "dim": self.tangent_cone_dim,
            "ecodim": self.ecodim,
            "jacobian_rank": self.jacobian_rank,
            "initial_forms": [poly_to_string(f, ANTIGRLEX) for f in self.initial_forms],
            "stabilized": self.stabilized,
        }


def point_values(varset: VarSet, point) -> tuple[Fraction, ...]:
    """Normalize a point (JetPoint, mapping, or aligned sequence) to a tuple."""
    if isinstance(point, JetPoint):
        if point.varset != varset:
            raise ValueError("jet point over a different varset")
        return point.values
    if isinstance(point, Mapping):
        vals = [Fraction(0)] * len(varset)
        for key, val in point.items():
            vals[varset.position(key)] = Fraction(val)
        return tuple(vals)
    vals = [Fraction(v) for v in point]
    if len(vals) != len(varset):
        raise ValueError("point has wrong length")
    return tuple(vals)


def jacobian_at(gens: Sequence[Poly], point) -> list[list[Fraction]]:
    """Jacobian matrix at a point, one row per generator (no rows for no gens)."""
    if not gens:
        return []
    varset = gens[0].varset
    values = point_values(varset, point)
    return [[g.partial(v).evaluate(values) for v in varset] for g in gens]


def translate_to_origin(gens: Sequence[Poly], point) -> list[Poly]:
    """Shift coordinates so the point becomes the origin.

    The substituted generators vanish at 0 iff the originals vanish at the
    point; a nonzero constant term therefore means the point is off the scheme.
    """
    if not gens:
        raise ValueError("empty generator list")
    varset = gens[0].varset
    values = point_values(varset, point)
    mapping = {
        v: Poly.variable(varset, v) + Poly.const(varset, c)
        for v, c in zip(varset, values)
        if c != 0
    }
    out = []
    for g in gens:
        shifted = g.substitute(mapping) if mapping else g
        if shifted.constant_term() != 0:
            raise PointNotOnSchemeError(
                f"generator {poly_to_string(g)} does not vanish at the point")
        out.append(shifted)
    return out


def _find_pivot(g: Poly) -> tuple[int, Fraction] | None:
    """A variable occurring in g only as a bare degree-1 term, if any."""
    candidates: dict[int, Fraction] = {}
    for mono, c in g.terms.items():
        if monomial_degree(mono) == 1:
            candidates[mono.index(1)] = c
    if not candidates:
        return None
    for mono in g.terms:
        if monomial_degree(mono) == 1:
            continue
        for i in list(candidates):
            if mono[i]:
                del candidates[i]
        if not candidates:
            return None
    i = min(candidates)
    return i, candidates[i]


def _eliminate_smooth_directions(gens: Sequence[Poly]):
    """Split off coordinates cut out implicitly by generators c*v + h, v not in h.

    Such a generator becomes the pure coordinate v after the local automorphism
    v -> (v - h)/c, so it contributes the linear form (the generator's degree-1
    part) to the initial ideal and disappears, with v -> -h/c substituted into
    the other generators.  Returns (reduced generators, collected linear forms,
    active variable positions); the initial ideal of the input is generated by
    the linear forms together with the reduced ideal's initial forms.
    """
    varset = gens[0].varset
    active = set(range(len(varset)))
    cur = [g for g in gens if not g.is_zero()]
    linear_forms: list[Poly] = []
    progress = True
    while progress:
        progress = False
        for gi, g in enumerate(cur):
            pivot = _find_pivot(g)
            if pivot is None:
                continue
            pv, c = pivot
            linear_forms.append(g.homogeneous_part(1))
            unit = tuple(1 if t == pv else 0 for t in range(len(varset)))
            h = g - Poly(varset, {unit: c})
            value = h.scale(Fraction(-1) / c)
            cur = [p.substitute({varset[pv]: value})
                   for j, p in enumerate(cur) if j != gi]
            cur = [p for p in cur if not p.is_zero()]
            active.discard(pv)
            progress = True
            break
    return cur, linear_forms, active


def edim_at_point(gens: Sequence[Poly], point) -> int:
    """dim of the Zariski cotangent space: nvars minus the Jacobian rank."""
    varset = gens[0].varset
    values = point_values(varset, point)
    for g in gens:
        if g.evaluate(values) != 0:
            raise PointNotOnSchemeError(
                f"generator {poly_to_string(g)} does not vanish at the point")
    return len(varset) - exact_rank(jacobian_at(gens, values))


def ecodim_at_point(gens: Sequence[Poly], point) -> LocalAnalysis:
    """Full local analysis with both embedding-codimension formulas checked."""
    varset = gens[0].varset
    nvars = len(varset)
    translated = translate_to_origin(gens, point)
    jacobian_rank = exact_rank(jacobian_at(translated, (Fraction(0),) * nvars))
    reduced, pivot_forms, active = _eliminate_smooth_directions(translated)
    basis = mora_standard_basis(reduced)
    lms = [leading_monomial(g, ANTIGRLEX) for g in basis]
    tangent_cone_dim = monomial_dim(lms, len(active))
    forms = canonical_initial_forms(
        pivot_forms + [g.initial_form() for g in basis])
    # cross-checks between the pipelines: the canonical initial basis must
    # carry exactly jacobian_rank independent linear forms, and its leading
    # monomials must cut the tangent cone to the same dimension
    linear_count = sum(1 for f in forms if f.total_degree() == 1)
    if linear_count != jacobian_rank:
        raise InternalInconsistencyError(
            f"initial ideal shows {linear_count} linear forms, "
            f"Jacobian rank is {jacobian_rank}")
    full_lms = [leading_monomial(f, ANTIGRLEX) for f in forms]
    if forms and monomial_dim(full_lms, nvars) != tangent_cone_dim:
        raise InternalInconsistencyError("tangent cone dimensions disagree")
    edim = nvars - jacobian_rank
    ecodim = edim - tangent_cone_dim
    ecodim_by_height = (nvars - tangent_cone_dim) - jacobian_rank
    if ecodim != ecodim_by_height:
        raise InternalInconsistencyError(
            f"ecodim formulas disagree: {ecodim} vs {ecodim_by_height}")
    return LocalAnalysis(
        nvars=nvars,
        jacobian_rank=jacobian_rank,
        edim=edim,
        tangent_cone_dim=tangent_cone_dim,
        ecodim=ecodim,
        initial_forms=tuple(forms),
    )


def ecodim_jet(X: AffineScheme, arc: Arc, n: int) -> LocalAnalysis:
    """Local analysis of the order-n jet scheme at the truncated arc."""
    return ecodim_at_point(jet_ideal(X, n), truncate_arc(arc, n))


@dataclass(frozen=True)
class WindowReport:
    """Finite-level ecodim data over a level window, with a stabilization flag.

    The infinite-level value is only certified by stabilization together with
    outside information (e.g. the formal-model computation); the report never
    asserts equality on its own.
    """

    window: tuple[int, int]
    per_level: dict[int, LocalAnalysis]
    ecodim: int
    stabilized: bool

    def to_json(self) -> dict:
        top = self.per_level[self.window[1]]
        data = top.to_json()
        data["stabilized"] = self.stabilized
        data["window"] = list(self.window)
        data["per_level"] = {str(n): a.ecodim for n, a in sorted(self.per_level.items())}
        return data


def ecodim_window(X: AffineScheme, arc: Arc, n_lo: int, n_hi: int) -> WindowReport:
    if n_lo > n_hi or n_lo < 0:
        raise ValueError("bad window")
    per_level = {n: ecodim_jet(X, arc, n) for n in range(n_lo, n_hi + 1)}
    values = {a.ecodim for a in per_level.values()}
    return WindowReport(
        window=(n_lo, n_hi),
        per_level=per_level,
        ecodim=per_level[n_hi].ecodim,
        stabilized=len(values) == 1,
    )
