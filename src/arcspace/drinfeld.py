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
from functools import cached_property
from math import lcm
from operator import add

from .errors import (
    CertificateFailureError,
    InsufficientPrecisionError,
    InternalInconsistencyError,
    InvalidCodimError,
    VarsetMismatchError,
    VerificationError,
)
from .jets import AffineScheme, Arc, _jet_rows, _partial_series, jacobian_ideal, ord_along_arc
from .localgeom import (  # noqa: F401 - edim_at_point stays importable from here
    LocalAnalysis,
    _at_point,
    _check_window,
    ecodim_at_point,
    ecodim_window,
    edim_at_point,
)
from .polyalg.linalg import certified_rank, fraction_free_echelon, reduce_row
from .polyalg.poly import (
    Poly,
    _accumulate,
    _add_product,
    _Fields,
    _finished,
    poly_adjugate,
    poly_det,
)
from .polyalg.series import TruncSeries
from .polyalg.tpoly import TPoly, _substituted
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
    attempt: int = 0

    @property
    def c(self) -> int:
        return len(self.ambient) - self.d

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


def _check_varsets(ambient: VarSet, proj: ProjectionMap, arc: Arc) -> None:
    """A projection or an arc over another varset than ambient is a
    VarsetMismatchError."""
    if proj.ambient != ambient:
        raise VarsetMismatchError("projection and scheme over different varsets")
    if arc.varset != ambient:
        raise VarsetMismatchError("arc and scheme over different varsets")


def _require_exact_contact_order(X: AffineScheme, arc: Arc, d: int) -> int:
    res = ord_along_arc(jacobian_ideal(X, d), arc)
    if not res.is_exact:
        raise ValueError(
            f"contact order with Fitt^{d} is {res}; the arc must meet the "
            "smooth locus of its component with finite, determined order")
    return res.value


def _check_resample_limit(resample_limit: int) -> None:
    if resample_limit < 0:
        raise ValueError(f"resample limit must be nonnegative, not {resample_limit}")


def ci_reduce(X: AffineScheme, arc: Arc, d: int | None = None, seed=0,
              resample_limit: int = DEFAULT_RESAMPLE_LIMIT, e: int | None = None) -> AffineScheme:
    """Complete-intersection reduction: c = N - d random combinations.

    A hypersurface presentation is returned unchanged.  Draws are accepted
    when the contact order of the reduced Jacobian ideal matches the original,
    e, which is certified here unless the caller has certified it;
    otherwise resample, up to the limit.
    """
    _check_resample_limit(resample_limit)
    if d is None:
        d = X.dim
    N = X.ambient_dim
    c = N - d
    if c < 1 or c > len(X.generators):
        raise InvalidCodimError(
            f"cannot present codimension {c} with {len(X.generators)} generators")
    if c == 1 and len(X.generators) == 1:
        return AffineScheme(X.ambient, X.generators, d)
    if e is None:
        e = _require_exact_contact_order(X, arc, d)
    rng = _as_rng(seed)
    for _ in range(resample_limit + 1):
        rows = [[rng.randint(-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND) for _ in X.generators]
                for _ in range(c)]
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
                      e: int | None = None) -> tuple[ProjectionMap, int]:
    """Coordinate change certified by ord(det(dp/dy)) = ord(Jac) = e.

    e, the contact order of Xci's Jacobian ideal along the arc, is certified
    here unless the caller has certified it.  Attempt 0 is the identity
    split (y = last c coordinates); further attempts draw random unimodular
    changes.
    """
    _check_resample_limit(resample_limit)
    N = Xci.ambient_dim
    d = Xci.dim
    c = N - d
    if len(Xci.generators) != c:
        raise InvalidCodimError("choose_projection needs a complete intersection")
    if e is None:
        e = _require_exact_contact_order(Xci, arc, d)
    rng = _as_rng(seed)
    for attempt in range(resample_limit + 1):
        if attempt == 0:
            T, Tinv = _identity(N), _identity(N)
        else:
            T, Tinv = _random_unimodular(N, rng, DEFAULT_COEFF_BOUND)
        proj = ProjectionMap(
            ambient=Xci.ambient,
            d=d,
            transform=tuple(map(tuple, T)),
            inverse=tuple(map(tuple, Tinv)),
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

    The equations are held packed, as the mod-q reducer leaves them: term
    dicts at monomials packed in fields, integral coefficients as ints (see
    ``_ModReducer``).  ``equations`` finishes them into Polys on first read,
    for the callers that need Polys: the report and the local analysis.
    jacobian holds the rows of their Jacobian at z, read off the packed
    terms in the pass that checked that they vanish at z.

    e = 0 is the smooth-contact marker: no variables, no equations.
    """

    e: int
    d: int
    c: int
    varset: VarSet
    z: tuple[Fraction, ...] = field(repr=False)
    projection: ProjectionMap
    packed: tuple[dict[int, Fraction | int], ...] = field(repr=False)
    fields: _Fields | None = field(repr=False, compare=False)
    jacobian: tuple[list[Fraction | int], ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.varset)

    @property
    def is_smooth_marker(self) -> bool:
        return self.e == 0

    def xbar_position(self, i: int, n: int) -> int:
        return self.varset.position(VarId("xbar", (i, n)))

    @cached_property
    def equations(self) -> tuple[Poly, ...]:
        """The equations as Polys over varset, finished on first read."""
        return tuple(_finished(self.varset, acc, self.fields) for acc in self.packed)

    @cached_property
    def jacobian_echelon(self) -> tuple[list[list[int]], list[int]]:
        """fraction_free_echelon of the equations' Jacobian at z: built once,
        shared by the edim and tangent checks."""
        return fraction_free_echelon(self.jacobian)


def model_varset(e: int, d: int, c: int) -> VarSet:
    """The model's coordinates: the coefficients q_n of q(t) = t^e + ..., then
    the 2e coefficients xbar_(i, n) of each x-part and the e coefficients
    ybar_(j, n) of each y-part."""
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
    q, the table and the t-polynomials reduced are all lists of packed
    accumulators in one layout, fields (see the ``poly`` module), whose
    limit the caller has chosen above the degree of every product formed
    here; each entry of the table is made from the one below by
    ``poly._accumulate``.  The remainder coefficients that ``reduce`` returns
    stay packed too: the model holds its equations so, and finishes them
    into Polys over varset only on first read.
    """

    def __init__(self, q: list[dict[int, int]], varset: VarSet, fields: _Fields):
        self.q = q[:-1]  # the coefficients below the leading 1
        self.dq = dq = len(self.q)
        self.varset, self.fields = varset, fields
        # table[k] holds the dq coefficients of t^k mod q
        self.table = [[{0: 1} if j == k else {} for j in range(dq)] for k in range(dq)]

    def t_power_rem(self, k: int) -> list[dict[int, int]]:
        table = self.table
        while len(table) <= k:
            prev = table[-1]
            top = prev[-1]
            # t * prev, less top * q for the t^dq it reaches
            shifted = [{}] + [dict(x) for x in prev[:-1]]
            if top:
                for acc, qj in zip(shifted, self.q):
                    if qj:
                        _accumulate(acc, top, qj, -1, add)
            table.append(shifted)
        return table[k]

    def reduce(self, g: list[dict[int, Fraction | int]]) -> list[dict[int, Fraction | int]]:
        """The dq coefficients of g mod q, for g and the result unfinished,
        packed accumulators in the reducer's fields as ``tpoly._substituted``
        hands them over.  Every g_k * (t^k mod q) is added into the low
        accumulators of g in place (g is consumed), and those are returned."""
        rem = g[:self.dq]
        rem += ({} for _ in range(self.dq - len(rem)))
        for k in range(self.dq, len(g)):
            if g[k]:
                for acc, r in zip(rem, self.t_power_rem(k)):
                    if r:
                        _accumulate(acc, g[k], r, 1, add)
        return rem


def build_drinfeld_model(Xci: AffineScheme, proj: ProjectionMap, arc: Arc,
                         e: int) -> DrinfeldModel:
    """Assemble the defining equations of Z and the point z from the arc.

    Every composite is reduced mod q(t) or q(t)^2 at packed monomials in
    one layout for the whole model (see ``_ModReducer``).  Its fields hold
    every product formed: the values are linear, so a composite of f has
    coefficients of degree at most deg f and t-degree at most
    deg f * (2e - 1), and the coefficient of t^k mod q^p has degree at most
    p * (k - pe + 1), so at most p * deg f * (2e - 1) for those k.

    A projection or an arc over another varset than Xci is a
    VarsetMismatchError, raised before any work.
    """
    _check_varsets(Xci.ambient, proj, arc)
    d = proj.d
    c = proj.c
    if e == 0:
        return DrinfeldModel(0, d, c, VarSet([]), (), proj, (), None, ())
    arc_new = proj.apply_to_arc(arc)
    prec = arc_new.precision
    if prec is not None and prec < 2 * e:
        raise InsufficientPrecisionError(2 * e, prec)
    vs = model_varset(e, d, c)

    def unknown(family: str, k: int, length: int) -> TPoly:
        """The t-polynomial with the coefficients family_(k, n), n < length."""
        return TPoly(vs, [Poly.variable(vs, VarId(family, (k, n))) for n in range(length)])

    values = ([unknown("xbar", i, 2 * e) for i in range(d)]
              + [unknown("ybar", j, e) for j in range(c)])

    gens_new = [proj.apply_to_poly(g) for g in Xci.generators]
    ymat = [[g.partial(v) for v in proj.y_vars] for g in gens_new]
    adj = poly_adjugate(ymat)
    # p_l and det(dp/dy) vanish mod q(t), adj(dp/dy) * p mod q(t)^2
    composites = ([(g, 1) for g in gens_new] + [(poly_det(ymat), 1)]
                  + [(Poly.sum_of(Xci.ambient, (adj[i][j] * gens_new[j] for j in range(c))), 2)
                     for i in range(c)])
    fields = _Fields.for_degree(len(vs), max(f.total_degree() * (1 + p * (2 * e - 1))
                                             for f, p in composites))
    qt = TPoly(vs, [Poly.variable(vs, VarId("q", (n,))) for n in range(e)] + [Poly.one(vs)])
    packed_q = [{fields.pack(m): a for m, a in x.terms.items()} for x in qt.coeffs]
    reducers = {1: _ModReducer(packed_q, vs, fields),
                2: _ModReducer(_add_product([], packed_q, packed_q, 1, None, add), vs, fields)}
    equations: list[dict[int, Fraction | int]] = []
    for f, p in composites:
        equations += reducers[p].reduce(_substituted(f, values, fields)[0])
    equations = [q for q in equations if q]

    # z: q = 0, and xbar and ybar read off the arc's x- and y-parts
    parts = {"xbar": arc_new.components[:d], "ybar": arc_new.components[d:]}
    z = tuple(Fraction(0) if v.family == "q" else
              parts[v.family][v.indices[0]].coefficient(v.indices[1]) for v in vs)
    at_z, jacobian = _at_point(equations, z, fields)
    if any(at_z):
        raise InternalInconsistencyError("model equation does not vanish at the base point")
    return DrinfeldModel(e, d, c, vs, z, proj, tuple(equations), fields, tuple(jacobian))


# -- verification -----------------------------------------------------------------


def verify_drinfeld_edim(model: DrinfeldModel) -> int:
    """Embedding dimension at the base point; must equal 2*d*e.

    build_drinfeld_model has checked that every equation vanishes at z, so
    this is m minus the rank of the Jacobian at z.
    """
    if model.is_smooth_marker:
        return 0
    expected = 2 * model.d * model.e
    observed = model.m - len(model.jacobian_echelon[0])
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
    the jet-ideal Jacobian of X in the new coordinates, at the arc in the new
    coordinates, each as the primitive integer row of ``reduce_row``.  Their
    rank d(n+1) is certified by ``certified_rank``; below it this raises:
    the projection was not generic enough.  A projection or an arc over
    another varset than X is a VarsetMismatchError, raised before any work.

    The coordinate change is read by the chain rule (see the ``jets``
    module docstring): X's own partials are composed with the arc's n-jet,
    each generator's series are cleared of denominators once and mixed by
    the transform in ints, and the integer block-Toeplitz rows are
    eliminated.  That Jacobian is the one of the transformed scheme with
    each generator's rows scaled by a positive integer, so it has the same
    row space, and the reduced rows, which depend on the row space alone,
    are the same.
    """
    _check_varsets(X.ambient, proj, arc)
    N = X.ambient_dim
    T = None if proj.is_identity() else proj.transform
    mixed = []
    for per_coordinate in _partial_series(X, arc, n):
        denom = lcm(*(x.denominator for s in per_coordinate for x in s))
        ints = [[x.numerator * (denom // x.denominator) for x in s] for s in per_coordinate]
        if T is not None:
            # column k of the new Jacobian is sum_j T[j][k] * column j
            ints = [[sum(T[j][k] * ints[j][p] for j in range(N) if T[j][k]) for p in range(n + 1)]
                    for k in range(N)]
        mixed.append(ints)
    ech, piv = fraction_free_echelon(_jet_rows(mixed, n, 0))
    nvars = N * (n + 1)
    rows = []
    for j in range(n + 1):
        for i in range(proj.d):
            unit = [0] * nvars
            unit[j * N + i] = 1
            rows.append(reduce_row(unit, ech, piv))
    rank = certified_rank(rows)
    expected = proj.d * (n + 1)
    if rank != expected:
        raise VerificationError("jet cotangent rank", rank, expected)
    return rows


@dataclass(frozen=True)
class TangentReport:
    rank: int
    expected: int


def tangent_matrix_rows(model: DrinfeldModel, arc: Arc) -> list[list[Fraction]]:
    """Raw rows of the comparison tangent map, one per target jet coordinate.

    Row (i, n) carries dxbar_i^(n) plus, for n >= e, the dq-block entries
    2 a_i^(k+2e) on dq^(l) with k + l = n - e (the differential of
    xbar(t) + c(t) q(t)^2 at the base point, truncated mod t^(2e)).  The
    coordinate q_l is column l: ``model_varset`` puts the q's first.  An
    arc over another varset than the projection is a VarsetMismatchError.
    """
    _check_varsets(model.projection.ambient, model.projection, arc)
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
                        row[l] += 2 * arct.components[i].coefficient(k + 2 * e)
            rows.append(row)
    return rows


def drinfeld_tangent_check(model: DrinfeldModel, arc: Arc) -> TangentReport:
    """Linear-level check of the comparison embedding.

    The map sends (q, xbar, ybar) to xbar(t) + c(t) q(t)^2 mod t^(2e) with
    c(t) the degree->=2e tail of the arc's x-part shifted down; its differential
    at the base point is dxbar_i(t) + 2 c_i(t) t^e dq(t).  The induced map onto
    the cotangent space of (Z, z) must be surjective, i.e. of rank 2de, which
    ``certified_rank`` certifies on the rows reduced modulo the Jacobian.
    An arc over another varset than the projection is a
    VarsetMismatchError, raised before any work.
    """
    _check_varsets(model.projection.ambient, model.projection, arc)
    if model.is_smooth_marker:
        return TangentReport(0, 0)
    e, d = model.e, model.d
    rows = tangent_matrix_rows(model, arc)
    ech, piv = model.jacobian_echelon
    rank = certified_rank([reduce_row(r, ech, piv) for r in rows])
    expected = 2 * d * e
    if rank != expected:
        raise VerificationError("tangent-level comparison rank", rank, expected)
    return TangentReport(rank, expected)


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
                      with_dims: bool = True) -> PipelineResult:
    """ci_reduce + choose_projection + model build + quantitative checks."""
    d = X.dim
    # certified once: ci_reduce keeps only a draw of the same order, and a
    # hypersurface keeps X's generators
    e = _require_exact_contact_order(X, arc, d)
    rng = _as_rng(seed)
    Xci = ci_reduce(X, arc, d, rng, resample_limit, e=e)
    proj, _ = choose_projection(Xci, arc, rng, resample_limit, e=e)
    model = build_drinfeld_model(Xci, proj, arc, e)
    edim = verify_drinfeld_edim(model)
    analysis = verify_drinfeld_dims(model) if with_dims else None
    return PipelineResult(e, model, edim, analysis)


def verify_dgk(X: AffineScheme, arc: Arc, seed=0, window: tuple[int, int] | None = None,
               resample_limit: int = DEFAULT_RESAMPLE_LIMIT) -> dict:
    """The full verification: model quantities, cotangent ranks, jet window.

    Cross-validates the model's embedding codimension against the stabilized
    finite-level value of the jet-scheme analyses over window, by default
    the levels 2e..2e+2.  A bad window is refused before any work.
    """
    if window is not None:
        _check_window(*window)
    result = drinfeld_pipeline(X, arc, seed, resample_limit, with_dims=True)
    e = result.e
    report = result.report(seed if isinstance(seed, int) else None)
    levels = sorted({n for n in (e, 2 * e - 1, 2 * e + 1) if n >= 0})
    cot = {}
    for n in levels:
        # jet_cotangent_map has checked that its rows are independent
        cot[str(n)] = len(jet_cotangent_map(X, result.model.projection, arc, n))
    report["jet_cotangent_ranks"] = cot
    tangent = drinfeld_tangent_check(result.model, arc)
    report["tangent_rank"] = tangent.rank
    if window is None:
        window = (2 * e, 2 * e + 2)
    win = ecodim_window(X, arc, *window)
    report["jet_window"] = win.to_json()
    if win.stabilized and result.analysis is not None:
        if win.ecodim != result.analysis.ecodim:
            raise VerificationError(
                "stabilized jet ecodim disagrees with the model",
                win.ecodim, result.analysis.ecodim)
    report["cross_validated"] = bool(win.stabilized)
    return report
