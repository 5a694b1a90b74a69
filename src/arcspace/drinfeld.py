"""Construction and verification of the finite-dimensional formal model.

For an arc whose contact order with the Jacobian ideal is e, pick a complete
intersection presentation p_1..p_c through the component and a linear change
of coordinates splitting A^N into (x_1..x_d, y_1..y_c) such that the order of
det(dp/dy) along the arc equals e (the genericity certificate).  The model
lives in A^m, m = e(1+2d+c), with coordinates the coefficients of a monic
degree-e polynomial q(t), d polynomials xbar_i(t) of degree < 2e, and c
polynomials ybar_j(t) of degree < e.  Its equations say that each p_l and
det(dp/dy) vanish mod q(t) and that adj(dp/dy)*p vanishes mod q(t)^2; the base
point records the truncated coefficients of the arc itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CertificateFailureError,
    InsufficientPrecisionError,
    InternalInconsistencyError,
    InvalidCodimError,
    VarsetMismatchError,
    VerificationError,
)
from .jets import AffineScheme, Arc, jacobian_ideal, jet_ideal, ord_along_arc, truncate_arc
from .localgeom import (
    LocalAnalysis,
    ecodim_at_point,
    ecodim_window,
    edim_at_point,
    jacobian_at,
)
from .polyalg.linalg import exact_rank, fraction_free_echelon, reduce_row
from .polyalg.poly import Poly, poly_adjugate, poly_det
from .polyalg.series import TruncSeries
from .polyalg.tpoly import TPoly, substitute_tpoly
from .polyalg.varset import VarId, VarSet

DEFAULT_RESAMPLE_LIMIT = 20
DEFAULT_COEFF_BOUND = 10


# -- integer matrix helpers ----------------------------------------------------


def _matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _unit_triangular_inverse(M, lower: bool):
    """Integer inverse of a unit triangular integer matrix."""
    n = len(M)
    inv = [[0] * n for _ in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        for i in order:
            acc = 1 if i == col else 0
            if lower:
                acc -= sum(M[i][k] * inv[k][col] for k in range(i))
            else:
                acc -= sum(M[i][k] * inv[k][col] for k in range(i + 1, n))
            inv[i][col] = acc
    return inv


def _random_unimodular(n: int, rng: random.Random, bound: int):
    """Product of random unit lower and unit upper triangular integer matrices."""
    L = _identity(n)
    U = _identity(n)
    for i in range(n):
        for j in range(i):
            L[i][j] = rng.randint(-bound, bound)
            U[j][i] = rng.randint(-bound, bound)
    T = _matmul(L, U)
    Tinv = _matmul(_unit_triangular_inverse(U, lower=False),
                   _unit_triangular_inverse(L, lower=True))
    return T, Tinv


def _as_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


# -- projections ----------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionMap:
    """Certified linear coordinate change and the (x, y) split it induces.

    Old coordinates = transform @ new coordinates; the projection to A^d keeps
    the first d new coordinates.  The transform is unimodular over Z, so arcs
    change coordinates without denominators.
    """

    ambient: VarSet
    d: int
    transform: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]
    seed: int | None = None
    attempt: int = 0

    @property
    def c(self) -> int:
        return len(self.ambient) - self.d

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The d x N matrix of the projection in the original coordinates."""
        return tuple(tuple(Fraction(x) for x in row) for row in self.inverse[: self.d])

    @property
    def x_vars(self) -> tuple[VarId, ...]:
        return self.ambient.vars[: self.d]

    @property
    def y_vars(self) -> tuple[VarId, ...]:
        return self.ambient.vars[self.d :]

    def is_identity(self) -> bool:
        return self.transform == tuple(map(tuple, _identity(len(self.ambient))))

    def apply_to_poly(self, g: Poly) -> Poly:
        """Express g in the new coordinates (substitute v_j -> sum T[j][k] w_k)."""
        if self.is_identity():
            return g
        vs = self.ambient
        mapping = {}
        for j, v in enumerate(vs):
            row = self.transform[j]
            lin = Poly(vs, {
                tuple(1 if t == k else 0 for t in range(len(vs))): Fraction(row[k])
                for k in range(len(vs)) if row[k]
            })
            mapping[v] = lin
        return g.substitute(mapping)

    def apply_to_arc(self, arc: Arc) -> Arc:
        """The same arc in the new coordinates (components mixed by T^-1)."""
        if self.is_identity():
            return arc
        comps = [TruncSeries.sum_of(arc.components[k].scale(coeff)
                                    for k, coeff in enumerate(row) if coeff)
                 for row in self.inverse]
        return Arc(arc.varset, comps)

    def transformed_scheme(self, X: AffineScheme) -> AffineScheme:
        return AffineScheme(X.ambient, tuple(self.apply_to_poly(g) for g in X.generators),
                            X.declared_dim)


def _require_exact_contact_order(X: AffineScheme, arc: Arc, d: int) -> int:
    res = ord_along_arc(jacobian_ideal(X, d), arc)
    if not res.is_exact:
        raise ValueError(
            f"contact order with Fitt^{d} is {res}; the arc must meet the "
            "smooth locus of its component with finite, determined order")
    return res.value


def ci_reduce(X: AffineScheme, arc: Arc, d: int | None = None, seed=0,
              resample_limit: int = DEFAULT_RESAMPLE_LIMIT,
              bound: int = DEFAULT_COEFF_BOUND) -> AffineScheme:
    """Complete-intersection reduction: c = N - d random combinations.

    A hypersurface presentation is returned unchanged.  Draws are accepted
    when the contact order of the reduced Jacobian ideal matches the original;
    otherwise resample, up to the limit.
    """
    if d is None:
        d = X.dim
    N = X.ambient_dim
    c = N - d
    if c < 1 or c > len(X.generators):
        raise InvalidCodimError(
            f"cannot present codimension {c} with {len(X.generators)} generators")
    if c == 1 and len(X.generators) == 1:
        return AffineScheme(X.ambient, X.generators, d)
    e = _require_exact_contact_order(X, arc, d)
    rng = _as_rng(seed)
    for _ in range(resample_limit + 1):
        rows = [[rng.randint(-bound, bound) for _ in X.generators] for _ in range(c)]
        gens = [Poly.sum_of(X.ambient, (p.scale(coeff)
                                        for coeff, p in zip(row, X.generators) if coeff))
                for row in rows]
        if any(g.is_zero() for g in gens):
            continue
        Xci = AffineScheme(X.ambient, tuple(gens), d)
        res = ord_along_arc(jacobian_ideal(Xci, d), arc)
        if res.is_exact and res.value == e:
            return Xci
    raise CertificateFailureError(
        f"no CI reduction preserved the contact order {e} in {resample_limit + 1} draws")


def choose_projection(Xci: AffineScheme, arc: Arc, seed=0,
                      resample_limit: int = DEFAULT_RESAMPLE_LIMIT,
                      bound: int = DEFAULT_COEFF_BOUND) -> tuple[ProjectionMap, int]:
    """Coordinate change certified by ord(det(dp/dy)) = ord(Jac) = e.

    Attempt 0 is the identity split (y = last c coordinates); further attempts
    draw random unimodular changes.
    """
    N = Xci.ambient_dim
    d = Xci.dim
    c = N - d
    if len(Xci.generators) != c:
        raise InvalidCodimError("choose_projection needs a complete intersection")
    e = _require_exact_contact_order(Xci, arc, d)
    rng = _as_rng(seed)
    seed_val = seed if isinstance(seed, int) else None
    for attempt in range(resample_limit + 1):
        if attempt == 0:
            T, Tinv = _identity(N), _identity(N)
        else:
            T, Tinv = _random_unimodular(N, rng, bound)
        proj = ProjectionMap(
            ambient=Xci.ambient,
            d=d,
            transform=tuple(map(tuple, T)),
            inverse=tuple(map(tuple, Tinv)),
            seed=seed_val,
            attempt=attempt,
        )
        gens_new = [proj.apply_to_poly(g) for g in Xci.generators]
        arc_new = proj.apply_to_arc(arc)
        ymat = [[g.partial(v) for v in proj.y_vars] for g in gens_new]
        dety = poly_det(ymat)
        res = ord_along_arc(dety, arc_new)
        if res.is_exact and res.value == e:
            return proj, e
    raise CertificateFailureError(
        f"no projection certified ord(det(dp/dy)) = {e} in {resample_limit + 1} attempts")


# -- the model -------------------------------------------------------------------


@dataclass(frozen=True)
class DrinfeldModel:
    """The model scheme Z in A^m together with its base point z.

    e = 0 is the smooth-contact marker: no variables, no equations.
    """

    e: int
    d: int
    c: int
    varset: VarSet
    equations: tuple[Poly, ...]
    z: tuple[Fraction, ...] = field(repr=False)
    projection: ProjectionMap

    @property
    def m(self) -> int:
        return len(self.varset)

    @property
    def is_smooth_marker(self) -> bool:
        return self.e == 0

    def q_position(self, n: int) -> int:
        return n

    def xbar_position(self, i: int, n: int) -> int:
        return self.e + i * 2 * self.e + n

    def ybar_position(self, j: int, n: int) -> int:
        return self.e + 2 * self.e * self.d + j * self.e + n


def model_varset(e: int, d: int, c: int) -> VarSet:
    names: list[VarId] = []
    names += [VarId("q", (n,)) for n in range(e)]
    names += [VarId("xbar", (i, n)) for i in range(d) for n in range(2 * e)]
    names += [VarId("ybar", (j, n)) for j in range(c) for n in range(e)]
    return VarSet(names)


class _ModReducer:
    """Remainders mod a monic q(t) via a lazy table of t^k mod q.

    The table entries only involve the coefficients of q, so reducing a big
    t-polynomial G becomes sum_k G_k * (t^k mod q): every large mixed product
    happens once instead of being dragged through the synthetic division.
    """

    def __init__(self, qt: TPoly):
        self.qt = qt
        self.dq = qt.degree()
        self.table = [TPoly.t_power(qt.varset, k) for k in range(self.dq)]

    def t_power_rem(self, k: int) -> TPoly:
        while len(self.table) <= k:
            prev = self.table[-1]
            shifted = TPoly(self.qt.varset, (Poly.zero(self.qt.varset),) + prev.coeffs)
            top = shifted.coefficient(self.dq)
            if top.is_zero():
                self.table.append(shifted)
            else:
                self.table.append(TPoly(self.qt.varset, [
                    shifted.coefficient(j) - top * self.qt.coefficient(j)
                    for j in range(self.dq)
                ]))
        return self.table[k]

    def reduce(self, g: TPoly) -> TPoly:
        """g mod q: the low coefficients of g plus every g_k * (t^k mod q),
        added up in one accumulator per t-coefficient."""
        if g.varset != self.qt.varset:
            raise VarsetMismatchError(
                f"reducing over a different varset: {g.varset!r} vs {self.qt.varset!r}")
        return TPoly.combination(TPoly(g.varset, g.coeffs[:self.dq]), [
            (coeff, self.t_power_rem(k))
            for k, coeff in enumerate(g.coeffs) if k >= self.dq and coeff.terms])


def build_drinfeld_model(Xci: AffineScheme, proj: ProjectionMap, arc: Arc,
                         e: int) -> DrinfeldModel:
    """Assemble the defining equations of Z and the point z from the arc."""
    d = proj.d
    c = proj.c
    if e == 0:
        return DrinfeldModel(0, d, c, VarSet([]), (), (), proj)
    arc_new = proj.apply_to_arc(arc)
    prec = arc_new.precision
    if prec is not None and prec < 2 * e:
        raise InsufficientPrecisionError(2 * e, prec)
    vs = model_varset(e, d, c)
    m = len(vs)

    def var_poly(idx: int) -> Poly:
        return Poly(vs, {tuple(1 if t == idx else 0 for t in range(m)): Fraction(1)})

    qt = TPoly(vs, [var_poly(n) for n in range(e)] + [Poly.one(vs)])
    values: list[TPoly] = []
    for i in range(d):
        values.append(TPoly(vs, [var_poly(e + i * 2 * e + n) for n in range(2 * e)]))
    for j in range(c):
        values.append(TPoly(vs, [var_poly(e + 2 * e * d + j * e + n) for n in range(e)]))

    gens_new = [proj.apply_to_poly(g) for g in Xci.generators]
    mod_q = _ModReducer(qt)
    mod_q2 = _ModReducer(qt * qt)
    equations: list[Poly] = []

    # p_l(xbar(t), ybar(t)) = 0 mod q(t)
    for g in gens_new:
        rem = mod_q.reduce(substitute_tpoly(g, values))
        equations += [rem.coefficient(k) for k in range(e)]

    # det(dp/dy)(xbar(t), ybar(t)) = 0 mod q(t)
    ymat = [[g.partial(v) for v in proj.y_vars] for g in gens_new]
    dety = poly_det(ymat)
    rem = mod_q.reduce(substitute_tpoly(dety, values))
    equations += [rem.coefficient(k) for k in range(e)]

    # adj(dp/dy) * p = 0 mod q(t)^2
    adj = poly_adjugate(ymat)
    for i in range(c):
        entry = Poly.sum_of(Xci.ambient, (adj[i][j] * gens_new[j] for j in range(c)))
        rem = mod_q2.reduce(substitute_tpoly(entry, values))
        equations += [rem.coefficient(k) for k in range(2 * e)]

    equations = [q for q in equations if not q.is_zero()]

    zvals = [Fraction(0)] * m
    for i in range(d):
        for n in range(2 * e):
            zvals[e + i * 2 * e + n] = arc_new.components[i].coefficient(n)
    for j in range(c):
        for n in range(e):
            zvals[e + 2 * e * d + j * e + n] = arc_new.components[d + j].coefficient(n)
    z = tuple(zvals)
    for q in equations:
        if q.evaluate(z) != 0:
            raise InternalInconsistencyError(
                "model equation does not vanish at the base point")
    return DrinfeldModel(e, d, c, vs, tuple(equations), z, proj)


# -- verification -----------------------------------------------------------------


def verify_drinfeld_edim(model: DrinfeldModel) -> int:
    """Embedding dimension at the base point; must equal 2*d*e."""
    if model.is_smooth_marker:
        return 0
    expected = 2 * model.d * model.e
    if model.equations:
        observed = edim_at_point(list(model.equations), model.z)
    else:
        observed = model.m
    if observed != expected:
        raise VerificationError("model embedding dimension", observed, expected)
    return observed


def verify_drinfeld_dims(model: DrinfeldModel) -> LocalAnalysis:
    """Local analysis of (Z, z); dim must land in [(2d-1)e, 2de].

    The ecodim of the analysis is the certified embedding codimension of the
    arc-space local ring.
    """
    if model.is_smooth_marker:
        return LocalAnalysis(0, 0, 0, 0, 0, ())
    analysis = ecodim_at_point(list(model.equations), model.z)
    lo = (2 * model.d - 1) * model.e
    hi = 2 * model.d * model.e
    if not lo <= analysis.tangent_cone_dim <= hi:
        raise VerificationError(
            "model dimension outside the certified bounds",
            analysis.tangent_cone_dim, (lo, hi))
    return analysis


def jet_cotangent_map(X: AffineScheme, proj: ProjectionMap, arc: Arc, n: int):
    """Matrix of the jet-level cotangent map, reduced modulo the jet Jacobian.

    Rows are indexed by the target jet coordinates du_i^(j) (level-major) and
    expressed against the ambient jet cotangent basis modulo the row space of
    the jet-ideal Jacobian.  Raises when the rank is below d(n+1): the
    projection was not generic enough.
    """
    Xt = proj.transformed_scheme(X)
    arct = proj.apply_to_arc(arc)
    jp = truncate_arc(arct, n)
    gens_n = jet_ideal(Xt, n)
    ech, piv = fraction_free_echelon(jacobian_at(gens_n, jp))
    nvars = len(jp.varset)
    N = X.ambient_dim
    rows = []
    for j in range(n + 1):
        for i in range(proj.d):
            unit = [Fraction(0)] * nvars
            unit[j * N + i] = Fraction(1)
            rows.append(reduce_row(unit, ech, piv))
    rank = exact_rank(rows)
    expected = proj.d * (n + 1)
    if rank != expected:
        raise VerificationError("jet cotangent rank", rank, expected)
    return rows


@dataclass(frozen=True)
class TangentReport:
    rank: int
    expected: int
    matrix: tuple[tuple[Fraction, ...], ...] = field(repr=False)


def tangent_matrix_rows(model: DrinfeldModel, arc: Arc) -> list[list[Fraction]]:
    """Raw rows of the comparison tangent map, one per target jet coordinate.

    Row (i, n) carries dxbar_i^(n) plus, for n >= e, the dq-block entries
    2 a_i^(k+2e) on dq^(l) with k + l = n - e (the differential of
    xbar(t) + c(t) q(t)^2 at the base point, truncated mod t^(2e)).
    """
    e, d = model.e, model.d
    arct = model.projection.apply_to_arc(arc)
    prec = arct.precision
    if prec is not None and prec < 3 * e:
        raise InsufficientPrecisionError(3 * e, prec)
    mvars = model.m
    rows = []
    for n in range(2 * e):
        for i in range(d):
            row = [Fraction(0)] * mvars
            row[model.xbar_position(i, n)] += 1
            if n >= e:
                for l in range(e):
                    k = n - e - l
                    if k >= 0:
                        row[model.q_position(l)] += 2 * arct.components[i].coefficient(k + 2 * e)
            rows.append(row)
    return rows


def drinfeld_tangent_check(model: DrinfeldModel, arc: Arc) -> TangentReport:
    """Linear-level check of the comparison embedding.

    The map sends (q, xbar, ybar) to xbar(t) + c(t) q(t)^2 mod t^(2e) with
    c(t) the degree->=2e tail of the arc's x-part shifted down; its differential
    at the base point is dxbar_i(t) + 2 c_i(t) t^e dq(t).  The induced map onto
    the cotangent space of (Z, z) must be surjective, i.e. of rank 2de.
    """
    if model.is_smooth_marker:
        return TangentReport(0, 0, ())
    e, d = model.e, model.d
    rows = tangent_matrix_rows(model, arc)
    ech, piv = fraction_free_echelon(jacobian_at(model.equations, model.z))
    reduced = [reduce_row(r, ech, piv) for r in rows]
    rank = exact_rank(reduced)
    expected = 2 * d * e
    if rank != expected:
        raise VerificationError("tangent-level comparison rank", rank, expected)
    return TangentReport(rank, expected, tuple(map(tuple, reduced)))


# -- full pipeline ------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    e: int
    model: DrinfeldModel
    edim: int
    analysis: LocalAnalysis | None

    def report(self, seed) -> dict:
        model = self.model
        data = {
            "e": self.e,
            "d": model.d,
            "c": model.c,
            "m": model.m,
            "edim": self.edim,
            "edim_expected": 2 * model.d * self.e,
            "dim_bounds": [(2 * model.d - 1) * self.e, 2 * model.d * self.e],
            "seed": seed,
            "certified": True,
            "equations": [str(q) for q in model.equations],
        }
        if self.analysis is not None:
            data["dim"] = self.analysis.tangent_cone_dim
            data["ecodim"] = self.analysis.ecodim
        return data


def drinfeld_pipeline(X: AffineScheme, arc: Arc, seed=0,
                      resample_limit: int = DEFAULT_RESAMPLE_LIMIT,
                      bound: int = DEFAULT_COEFF_BOUND,
                      with_dims: bool = True) -> PipelineResult:
    """ci_reduce + choose_projection + model build + quantitative checks."""
    d = X.dim
    e = _require_exact_contact_order(X, arc, d)
    rng = _as_rng(seed)
    Xci = ci_reduce(X, arc, d, rng, resample_limit, bound)
    proj, e2 = choose_projection(Xci, arc, rng, resample_limit, bound)
    if isinstance(seed, int):
        proj = ProjectionMap(proj.ambient, proj.d, proj.transform, proj.inverse,
                             seed, proj.attempt)
    if e2 != e:
        raise InternalInconsistencyError(f"contact orders disagree: {e} vs {e2}")
    model = build_drinfeld_model(Xci, proj, arc, e)
    edim = verify_drinfeld_edim(model)
    analysis = verify_drinfeld_dims(model) if with_dims else None
    return PipelineResult(e, model, edim, analysis)


def verify_dgk(X: AffineScheme, arc: Arc, seed=0, window: tuple[int, int] | None = None,
               window_width: int = 2,
               resample_limit: int = DEFAULT_RESAMPLE_LIMIT,
               bound: int = DEFAULT_COEFF_BOUND) -> dict:
    """The full verification: model quantities, cotangent ranks, jet window.

    Cross-validates the model's embedding codimension against the stabilized
    finite-level value of the jet-scheme analyses.
    """
    result = drinfeld_pipeline(X, arc, seed, resample_limit, bound, with_dims=True)
    e = result.e
    report = result.report(seed if isinstance(seed, int) else None)
    levels = sorted({n for n in (e, 2 * e - 1, 2 * e + 1) if n >= 0})
    cot = {}
    for n in levels:
        rows = jet_cotangent_map(X, result.model.projection, arc, n)
        cot[str(n)] = exact_rank(rows)
    report["jet_cotangent_ranks"] = cot
    tangent = drinfeld_tangent_check(result.model, arc)
    report["tangent_rank"] = tangent.rank
    if window is None:
        window = (2 * e, 2 * e + window_width)
    win = ecodim_window(X, arc, *window)
    report["jet_window"] = win.to_json()
    if win.stabilized and result.analysis is not None:
        if win.ecodim != result.analysis.ecodim:
            raise VerificationError(
                "stabilized jet ecodim disagrees with the model",
                win.ecodim, result.analysis.ecodim)
    report["cross_validated"] = bool(win.stabilized)
    return report
