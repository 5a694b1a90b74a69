"""Local invariants of a finite-type ring at a rational point.

Everything reduces to exact computations after translating the point to the
origin: the embedding dimension is the ambient count minus the Jacobian rank,
the tangent cone is cut out by the initial ideal of a local standard basis,
and the embedding codimension is their difference.  Two independent pipelines
(fraction-free linear algebra and Mora standard bases) must agree on the
linear data; a mismatch signals a basis bug and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InternalInconsistencyError, PointNotOnSchemeError, VarsetMismatchError
from .jets import AffineScheme, Arc, JetPoint, jet_ideal_at, jet_varset
from .polyalg.dimension import monomial_dim
from .polyalg.linalg import exact_rank
from .polyalg.mora import _reduced_initial_forms, mora_standard_basis
from .polyalg.orders import ANTIGRLEX
from .polyalg.parse import poly_to_string
from .polyalg.poly import Poly, _Fields, rational
from .polyalg.varset import VarSet


@dataclass(frozen=True)
class LocalAnalysis:
    """Report at a rational point; `stabilized` is set only by window reports.

    `packed` holds the Mora standard basis of the generators translated to
    the origin and the reduced basis of its initial ideal, as packed records
    (``groebner._Basis``), so that a jet level above starts from them with
    no Poly made; `standard_basis` is made from the first on first read, and
    `initial_forms` are the second made Polys, for the report.
    `generators` are the generators translated to the origin, kept so that a
    check of the initial forms (the CLI's truncation oracle) needs no second
    translation.  None but `initial_forms` is part of the report: two
    analyses with equal invariants compare equal whatever basis each found.
    """

    nvars: int
    jacobian_rank: int
    edim: int
    tangent_cone_dim: int
    ecodim: int
    initial_forms: tuple[Poly, ...]
    stabilized: bool | None = None
    generators: tuple[Poly, ...] = field(default=(), compare=False, repr=False)
    packed: tuple[Sequence[Poly], ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def standard_basis(self) -> tuple[Poly, ...]:
        """The Mora standard basis of the generators translated to the origin,
        made Polys on first read."""
        return tuple(self.packed[0]) if self.packed else ()

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
    """Normalize a point (JetPoint, mapping, or aligned sequence) to a tuple;
    a coordinate that is not an int or a Fraction is a TypeError."""
    if isinstance(point, JetPoint):
        if point.varset != varset:
            raise ValueError("jet point over a different varset")
        return point.values
    if isinstance(point, Mapping):
        vals = [Fraction(0)] * len(varset)
        for key, val in point.items():
            vals[varset.position(key)] = rational(val)
        return tuple(vals)
    vals = [rational(v) for v in point]
    if len(vals) != len(varset):
        raise ValueError("point has wrong length")
    return tuple(vals)


def _at_point(terms: Iterable[Mapping], point: Sequence[Fraction | int],
              fields: _Fields | None = None) -> tuple[list, list[list]]:
    """The value and the Jacobian row at a point of each polynomial given by
    its term dict, in one pass over the terms.

    The keys are exponent tuples aligned to the point, or monomials packed in
    fields (read by ``fields.unpack``).  Each row is read off the terms:
    d(c*x^a)/dx_i at p is c*a_i*p_i^(a_i-1)*prod_{j!=i} p_j^a_j, which
    vanishes in every column once two factors vanish, and lives only in
    column i when x_i is the one vanishing factor and a_i = 1.  Otherwise it
    is P*a_i/p_i with P = c*prod_j p_j^a_j, the term's value.  A packed term
    whose fields of vanishing coordinates hold anything but one exponent 1
    adds to neither, so it is skipped before it is unpacked.

    Integral coefficients and coordinates are held as ints, each power p_i^k
    is formed once per call, and values and entries are summed in ints
    wherever the inputs are ints: P // p_i is exact, since p_i^(a_i)
    divides P.  So a value or an entry is an int unless a non-integral
    factor came in.
    """
    values = [x.numerator if x.denominator == 1 else x for x in point]
    nvars = len(values)
    if fields is not None:
        unpack = fields.unpack
        vanishing = [fields.shift(i) for i, x in enumerate(values) if not x]
        zmask = sum(fields.dmask << s for s in vanishing)
        single = {1 << s for s in vanishing}
    powers: dict[tuple[int, int], Fraction | int] = {}
    at, rows = [], []
    for g in terms:
        total: Fraction | int = 0
        row: list[Fraction | int] = [0] * nvars
        for mono, c in g.items():
            if fields is not None:
                v = mono & zmask
                if v and v not in single:
                    continue
                mono = unpack(mono)
            zero = None
            prod = c.numerator if c.denominator == 1 else c
            for i, e in enumerate(mono):
                if not e:
                    continue
                x = values[i]
                if x:
                    if e == 1:
                        prod *= x
                        continue
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[i, e] = x ** e
                    prod *= p
                elif zero is None:
                    zero = i
                else:
                    break
            else:
                if zero is None:
                    total += prod
                    for i, e in enumerate(mono):
                        if e:
                            x = values[i]
                            if type(prod) is int and type(x) is int:
                                row[i] += prod // x * e
                            else:
                                row[i] += prod * e / x
                elif mono[zero] == 1:
                    row[zero] += prod
        at.append(total)
        rows.append(row)
    return at, rows


def _shared_varset(gens: Sequence[Poly]) -> VarSet:
    """The varset of gens, which must be nonempty and share the first one's
    (else VarsetMismatchError): columns and point coordinates are read by
    position."""
    varset = gens[0].varset
    if any(g.varset != varset for g in gens):
        raise VarsetMismatchError("generators over different varsets")
    return varset


def jacobian_at(gens: Sequence[Poly], point) -> list[list[Fraction]]:
    """Jacobian matrix at a point, one row per generator (no rows for no gens).

    All generators must share the first one's varset (else
    VarsetMismatchError).  The rows are read off the terms by ``_at_point``,
    the one kernel that the model's checks at its base point share, and
    every entry is handed out as a Fraction.
    """
    if not gens:
        return []
    varset = _shared_varset(gens)
    rows = _at_point([g.terms for g in gens], point_values(varset, point))[1]
    zero_entry = Fraction(0)
    return [[x if type(x) is Fraction else Fraction(x) if x else zero_entry for x in row]
            for row in rows]


def translate_to_origin(gens: Sequence[Poly], point) -> list[Poly]:
    """Shift coordinates so the point becomes the origin.

    The substituted generators vanish at 0 iff the originals vanish at the
    point; a nonzero constant term therefore means the point is off the scheme.
    Generators over different varsets are a VarsetMismatchError, at the origin
    too, as in ``jacobian_at``.
    """
    if not gens:
        raise ValueError("empty generator list")
    varset = _shared_varset(gens)
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


def edim_at_point(gens: Sequence[Poly], point) -> int:
    """dim of the Zariski cotangent space: nvars minus the Jacobian rank.

    One ``_at_point`` pass reads the values, which must vanish (else
    PointNotOnSchemeError, naming the first generator that does not), and
    the Jacobian rows.  As in ``jacobian_at``, generators over different
    varsets are a VarsetMismatchError.
    """
    if not gens:
        raise ValueError("empty generator list")
    varset = _shared_varset(gens)
    values, rows = _at_point([g.terms for g in gens], point_values(varset, point))
    for g, value in zip(gens, values):
        if value:
            raise PointNotOnSchemeError(
                f"generator {poly_to_string(g)} does not vanish at the point")
    return len(varset) - exact_rank(rows)


def ecodim_at_point(gens: Sequence[Poly], point,
                    below: LocalAnalysis | None = None) -> LocalAnalysis:
    """Full local analysis with both embedding-codimension formulas checked.

    below, when given, is the analysis of the generators that involve only the
    first below.nvars variables, at the point's first below.nvars coordinates:
    the jet scheme one level down, along the same arc.  Mora then starts from
    its standard basis, lifted to these variables still packed
    (``groebner._Basis.extended``), and adds only the other generators, so no
    S-pair of the level below is reduced again and no element of its basis
    is cleared or made a Poly again.  The leading monomials, the homogeneity
    test and the initial forms are read off the packed standard basis, and
    the initial forms are interreduced on a record of the same packing,
    reusing each reduced form of the level below whose packed lead they
    share (``mora._reduced_initial_forms``); the reduced basis is unique, so
    the result is the same as without below.  Only the reported initial
    forms are made Polys here.
    """
    translated = translate_to_origin(gens, point)
    varset = translated[0].varset
    nvars = len(varset)
    jacobian_rank = exact_rank(jacobian_at(translated, (Fraction(0),) * nvars))
    if below is None:
        basis = mora_standard_basis(translated)
        forms = _reduced_initial_forms(basis)
    else:
        k = below.nvars
        below_basis, below_forms = below.packed
        basis = mora_standard_basis(
            [g for g in translated if any(any(m[k:]) for m in g.terms)],
            basis=below_basis.extended(varset))
        forms = _reduced_initial_forms(basis, below_forms)
    tangent_cone_dim = monomial_dim(basis.record.lms, nvars)
    # cross-check between the pipelines: the reduced initial basis must carry
    # exactly jacobian_rank independent linear forms; each form is
    # homogeneous, so its degree is its lead's
    packing = forms.record.packing
    linear_count = sum(1 for lead in forms.record.leads if packing.degree(lead) == 1)
    if linear_count != jacobian_rank:
        raise InternalInconsistencyError(
            f"initial ideal shows {linear_count} linear forms, "
            f"Jacobian rank is {jacobian_rank}")
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
        generators=tuple(translated),
        packed=(basis, forms),
    )


def ecodim_jet(X: AffineScheme, arc: Arc, n: int) -> LocalAnalysis:
    """Local analysis of the order-n jet scheme at the truncated arc."""
    gens = jet_ideal_at(X, arc, n)
    return ecodim_at_point(gens, (Fraction(0),) * len(gens[0].varset))


@dataclass(frozen=True)
class WindowReport:
    """Finite-level ecodim data over a level window, with a stabilization flag,
    set only when the window has at least two levels and they agree.

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


def _check_window(n_lo: int, n_hi: int) -> None:
    if n_lo > n_hi or n_lo < 0:
        raise ValueError("bad window")


def ecodim_window(X: AffineScheme, arc: Arc, n_lo: int, n_hi: int) -> WindowReport:
    """Local analyses of the jet schemes of levels n_lo..n_hi at the truncated
    arc, each equal to ``ecodim_jet(X, arc, n)``, and whether the window has
    at least two levels and their ecodim is the same at every level.

    The jet ideal is shifted to the arc once, at n_hi, by ``jet_ideal_at``.
    Level n < n_hi takes the first n + 1 coefficients of each generator's
    shifted composite, restricted to the level-n jet variables: the t^k
    coefficient involves only x_i_j with j <= k, and the level-major layout
    makes those a prefix.  Each level is then analysed at the origin.

    Level n adds only D_n(g_i) to the jet ideal of level n - 1, in new
    variables, so each level above n_lo starts its standard basis from the
    one of the level below and reuses the reduced initial forms found there
    (the ``below`` of ``ecodim_at_point``), paying only for the work beyond
    them.  Both are handed up packed, as the records the level below left
    (``LocalAnalysis.packed``), and lifted to the new variables by a shift
    of their packed monomials: no level clears or repacks the basis of the
    level below from Polys.
    """
    _check_window(n_lo, n_hi)
    top = jet_ideal_at(X, arc, n_hi)
    per_level: dict[int, LocalAnalysis] = {}
    below = None
    for n in range(n_lo, n_hi + 1):
        varset = jet_varset(X.ambient, n)
        gens = [top[i + k].restricted(varset)
                for i in range(0, len(top), n_hi + 1) for k in range(n + 1)]
        below = per_level[n] = ecodim_at_point(gens, (Fraction(0),) * len(varset), below)
    values = {a.ecodim for a in per_level.values()}
    return WindowReport(
        window=(n_lo, n_hi),
        per_level=per_level,
        ecodim=per_level[n_hi].ecodim,
        stabilized=n_hi > n_lo and len(values) == 1,
    )
