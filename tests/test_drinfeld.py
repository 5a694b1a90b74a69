import random
from fractions import Fraction
from itertools import combinations

import pytest

from arcspace.errors import (
    CertificateFailureError,
    InsufficientPrecisionError,
    InternalInconsistencyError,
    VarsetMismatchError,
    VerificationError,
)
from arcspace.drinfeld import (
    DrinfeldModel,
    ProjectionMap,
    TangentReport,
    build_drinfeld_model,
    choose_projection,
    ci_reduce,
    drinfeld_pipeline,
    drinfeld_tangent_check,
    jet_cotangent_map,
    model_varset,
    tangent_matrix_rows,
    verify_dgk,
    verify_drinfeld_dims,
    verify_drinfeld_edim,
    _random_unimodular,
)
import arcspace.drinfeld
import arcspace.jets
from arcspace.jets import AffineScheme, Arc, jacobian_ideal, jet_ideal, ord_along_arc, truncate_arc
from arcspace.localgeom import edim_at_point, jacobian_at
from arcspace.polyalg import Poly, TPoly, TruncSeries, VarSet, parse_poly
from arcspace.polyalg.linalg import exact_rank, fraction_free_echelon, reduce_row
from arcspace.polyalg.tpoly import substitute_tpoly

from conftest import monomial_arc


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_ci_reduce_hypersurface_identity(quadric):
    arc = monomial_arc(quadric, 1)
    X = ci_reduce(quadric, arc)
    assert X.generators == quadric.generators
    assert X.declared_dim == 3


def test_ci_reduce_recombines_and_preserves_order(ci_fixture):
    arc = monomial_arc(ci_fixture, 1)
    e = ord_along_arc(jacobian_ideal(ci_fixture), arc).value
    X = ci_reduce(ci_fixture, arc, seed=3)
    assert len(X.generators) == 2
    assert ord_along_arc(jacobian_ideal(X), arc).value == e
    # the new generators vanish along the arc (they are combinations)
    from arcspace.jets import eval_along_arc

    for g in X.generators:
        assert eval_along_arc(g, arc).is_zero()


def test_ci_reduce_resamples_degenerate_draws(ci_fixture):
    # plenty of attempts: even seeds whose first draws are dependent succeed
    arc = monomial_arc(ci_fixture, 1)
    for seed in range(8):
        X = ci_reduce(ci_fixture, arc, seed=seed)
        assert exact_rank([[1, 0], [0, 1]]) == 2
        assert len(X.generators) == 2


def test_choose_projection_identity_split(quadric):
    arc = monomial_arc(quadric, 1)
    proj, e = choose_projection(quadric, arc, seed=0)
    assert e == 1
    assert proj.attempt == 0 and proj.is_identity()
    assert [v.name for v in proj.y_vars] == ["x3"]
    proj2, e2 = choose_projection(quadric, monomial_arc(quadric, 2), seed=0)
    assert e2 == 2 and proj2.attempt == 0


def test_choose_projection_resamples_on_bad_identity(ci_fixture):
    # the identity split y = (x2, x3) zeroes det(dp/dy) along this arc
    arc = monomial_arc(ci_fixture, 1)
    Xci = ci_reduce(ci_fixture, arc, seed=0)
    proj, e = choose_projection(Xci, arc, seed=0)
    assert e == 2
    assert proj.attempt >= 1


def test_choose_projection_certificate_failure(ci_fixture):
    arc = monomial_arc(ci_fixture, 1)
    Xci = ci_reduce(ci_fixture, arc, seed=0)
    with pytest.raises(CertificateFailureError):
        choose_projection(Xci, arc, seed=0, resample_limit=0)  # identity only


def test_adversarial_split_order_is_infinite(quadric):
    # y = x0 gives d(g)/dy = x3, which vanishes identically along the arc
    arc = monomial_arc(quadric, 1)
    g = quadric.generators[0]
    from arcspace.polyalg import OrdResult

    assert ord_along_arc(g.partial("x3"), arc) == OrdResult.exact(1)
    assert ord_along_arc(g.partial("x0"), arc) == OrdResult.infinity()


def test_model_structure_first_example(quadric):
    arc = monomial_arc(quadric, 1)
    proj, e = choose_projection(quadric, arc, seed=0)
    model = build_drinfeld_model(quadric, proj, arc, e)
    assert model.m == 8 == e * (1 + 2 * model.d + model.c)
    names = [v.name for v in model.varset]
    assert names[0] == "q_0" and "xbar_0_1" in names and names[-1] == "ybar_0_0"
    z = model.z
    # z has q = t (deviation coords 0), xbar_0 = t mod t^2, all else 0
    nonzero = {model.varset[i].name: x for i, x in enumerate(z) if x}
    assert nonzero == {"xbar_0_1": Fraction(1)}
    for q in model.equations:
        assert q.evaluate(z) == 0


def test_degenerate_adjoint_c1(quadric):
    # for c = 1 the adjoint is (1), so block (iii) is p mod q(t)^2
    arc = monomial_arc(quadric, 1)
    proj, e = choose_projection(quadric, arc, seed=0)
    model = build_drinfeld_model(quadric, proj, arc, e)
    vs = model.varset

    def var_poly(name):
        return parse_poly(name, vs)

    qt = TPoly(vs, [var_poly("q_0"), parse_poly("1", vs)])
    values = [
        TPoly(vs, [var_poly("xbar_0_0"), var_poly("xbar_0_1")]),
        TPoly(vs, [var_poly("xbar_1_0"), var_poly("xbar_1_1")]),
        TPoly(vs, [var_poly("xbar_2_0"), var_poly("xbar_2_1")]),
        TPoly(vs, [var_poly("ybar_0_0")]),
    ]
    p_eval = substitute_tpoly(quadric.generators[0], values)
    rem2 = p_eval.div_monic(qt * qt)[1]
    block3 = [c for c in (rem2.coefficient(0), rem2.coefficient(1)) if not c.is_zero()]
    assert all(any(q == b for q in model.equations) for b in block3)


def test_verify_edim_golden(quadric):
    arc = monomial_arc(quadric, 1)
    res = drinfeld_pipeline(quadric, arc, seed=0, with_dims=False)
    assert res.edim == 6
    arc2 = monomial_arc(quadric, 2)
    res2 = drinfeld_pipeline(quadric, arc2, seed=0, with_dims=False)
    assert res2.edim == 12 and res2.model.m == 16


def test_verify_dims_golden(quadric):
    arc = monomial_arc(quadric, 1)
    res = drinfeld_pipeline(quadric, arc, seed=0)
    assert res.analysis.ecodim == 1
    assert res.analysis.tangent_cone_dim == 5
    arc2 = monomial_arc(quadric, 2)
    res2 = drinfeld_pipeline(quadric, arc2, seed=0)
    assert res2.analysis.ecodim == 2
    assert res2.analysis.tangent_cone_dim == 10


def test_smooth_marker():
    vs = VarSet(["x", "y"])
    line = AffineScheme(vs, (parse_poly("y", vs),))
    arc = Arc.from_strings(vs, ["t", "0"])
    res = drinfeld_pipeline(line, arc, seed=0)
    assert res.e == 0
    assert res.model.is_smooth_marker and res.model.m == 0
    assert res.edim == 0 and res.analysis.ecodim == 0
    assert verify_drinfeld_edim(res.model) == 0
    assert drinfeld_tangent_check(res.model, arc) == TangentReport(0, 0)


def test_model_of_an_arc_off_the_scheme_does_not_vanish_at_its_base_point(quadric):
    # p(arc) = t is not 0 mod t^2: the equation p mod q(t) is t at z
    arc = monomial_arc(quadric, 2)
    proj, e = choose_projection(quadric, arc, seed=0)
    assert e == 2 and proj.is_identity()
    off = Arc.from_strings(quadric.ambient, ["t^2", "1", "t", "0"])
    with pytest.raises(InternalInconsistencyError, match="does not vanish at the base point"):
        build_drinfeld_model(quadric, proj, off, e)


def test_the_pipeline_certifies_the_contact_order_once(quadric, ci_fixture, monkeypatch):
    # ci_reduce and choose_projection take e from the pipeline: X's Jacobian
    # ideal is ordered along the arc once, and no Jacobian ideal twice
    targets = []

    def recorded(target, arc):
        targets.append(target)
        return ord_along_arc(target, arc)

    monkeypatch.setattr(arcspace.drinfeld, "ord_along_arc", recorded)
    for X, seed in ((quadric, 0), (ci_fixture, 5)):
        targets.clear()
        result = drinfeld_pipeline(X, monomial_arc(X, 1), seed=seed, with_dims=False)
        ideals = [t for t in targets if isinstance(t, list)]
        assert ideals[0] == jacobian_ideal(X, X.dim)
        assert all(a != b for a, b in combinations(ideals, 2))
        assert result.e == ord_along_arc(ideals[0], monomial_arc(X, 1)).value
    # for c = 2, ci_reduce orders its draws, and choose_projection none of them
    assert len(ideals) >= 2


def _models(quadric, ci_fixture):
    """(model, arc) pairs of the quadric (e = 1, 2) and of the CI fixture (c = 2)."""
    cases = [(quadric, monomial_arc(quadric, 1), 0), (quadric, monomial_arc(quadric, 2), 0),
             (ci_fixture, monomial_arc(ci_fixture, 1), 5)]
    return [(drinfeld_pipeline(X, arc, seed=seed, with_dims=False).model, arc)
            for X, arc, seed in cases]


def test_model_checks_share_one_jacobian_at_z(quadric, ci_fixture, monkeypatch):
    # one pass of the kernel at z per model, over all its packed equations,
    # gives the vanishing check and the Jacobian that both checks rank
    calls = []
    kernel = arcspace.drinfeld._at_point

    def counted(terms, point, fields=None):
        calls.append(len(terms))
        return kernel(terms, point, fields)

    monkeypatch.setattr(arcspace.drinfeld, "_at_point", counted)
    pairs = _models(quadric, ci_fixture)
    reports = [drinfeld_tangent_check(model, arc) for model, arc in pairs]
    assert verify_drinfeld_edim(pairs[0][0]) == 6
    assert calls == [len(model.equations) for model, _ in pairs]
    monkeypatch.undo()
    assert [pairs[-1][0].c, pairs[-1][0].m] == [2, 14]
    for (model, arc), report in zip(pairs, reports):
        ech, piv = fraction_free_echelon(jacobian_at(model.equations, model.z))
        assert model.jacobian_echelon == (ech, piv)
        expected = 2 * model.d * model.e
        assert verify_drinfeld_edim(model) == edim_at_point(list(model.equations),
                                                            model.z) == expected
        rows = [reduce_row(r, ech, piv) for r in tangent_matrix_rows(model, arc)]
        assert report == TangentReport(exact_rank(rows), expected)
        assert report.rank == expected


def _fraction_arcs(quadric, ci_fixture):
    """(scheme, arc, e) with rational arc coefficients: the quadric, the sum
    of squares x0*x3 + x1^2 + x2^2 and the CI fixture."""
    vs = quadric.ambient
    sos = AffineScheme(vs, (parse_poly("x0*x3 + x1^2 + x2^2", vs),))
    def series(*cs):
        return TruncSeries([Fraction(c) for c in cs])

    # (a*c, a*d, b*c, -b*d) lies on the cone, with e = 1 + 0
    a, b, c, d = series(0, "1/2"), series(0, 1, "3/4"), series("2/3", 1), series(0, "-1/5")
    on_cone = Arc(vs, [a * c, a * d, b * c, -(b * d)])
    # x3 = -(x1^2 + x2^2)/x0, e = 1
    on_sos = Arc.from_strings(vs, ["2*t", "t - t^2", "3*t + 1/2*t^2",
                                   "-5*t - 1/2*t^2 - 5/8*t^3"])
    on_line = Arc.from_strings(vs, ["3/2*t - 2/3*t^2", "0", "0", "0"])
    return [(quadric, on_cone, 1), (sos, on_sos, 1), (ci_fixture, on_line, 2)]


def _reference_cotangent_rows(X, proj, arc, n):
    """The rows reduced against the Jacobian of the whole jet ideal of the
    transformed scheme at the transformed arc, as they were computed before
    the coordinate change was read by the chain rule; None below full rank."""
    Xt = AffineScheme(X.ambient, tuple(map(proj.apply_to_poly, X.generators)), X.declared_dim)
    jp = truncate_arc(proj.apply_to_arc(arc), n)
    ech, piv = fraction_free_echelon(jacobian_at(jet_ideal(Xt, n), jp))
    units = [[Fraction(int(k == j * X.ambient_dim + i)) for k in range(len(jp.varset))]
             for j in range(n + 1) for i in range(proj.d)]
    rows = [reduce_row(u, ech, piv) for u in units]
    return rows if exact_rank(rows) == len(rows) else None


def test_jet_cotangent_rows_match_the_jet_ideal_jacobian(quadric, ci_fixture, monkeypatch):
    # the pipeline's projections, and random unimodular ones drawn on arcs
    # with rational coefficients, at levels 0..2e+1
    cases = []
    for X, (model, arc) in zip((quadric, quadric, ci_fixture), _models(quadric, ci_fixture)):
        cases += [(X, model.projection, arc, n)
                  for n in (model.e, 2 * model.e - 1, 2 * model.e + 1)]
    rng = random.Random(2801)
    arcs = _fraction_arcs(quadric, ci_fixture)
    for X, arc, e in arcs:
        for _ in range(2):
            T, Tinv = _random_unimodular(X.ambient_dim, rng, 3)
            proj = ProjectionMap(X.ambient, X.dim, tuple(map(tuple, T)), tuple(map(tuple, Tinv)))
            cases += [(X, proj, arc, n) for n in range(2 * e + 2)]
    expected = [(case, _reference_cotangent_rows(*case)) for case in cases]
    assert sum(rows is not None for _, rows in expected) > len(expected) // 2
    assert sum(not case[1].is_identity() for case, _ in expected) > len(expected) // 2
    # one component known mod t^3: a transformed component is short iff an
    # original one is, so the map raises from level 3 on, as before
    exact = arcs[0][1]
    proj = next(p for _, p, arc, _ in cases if arc is exact)
    comps = list(exact.components)
    comps[1] = TruncSeries(comps[1].coeffs, 3)
    short = Arc(quadric.ambient, comps)
    expected += [((quadric, proj, short, n), _reference_cotangent_rows(quadric, proj, short, n))
                 for n in range(3)]
    for n in (3, 4):
        with pytest.raises(InsufficientPrecisionError):
            truncate_arc(proj.apply_to_arc(short), n)

    def refused(*args, **kwargs):
        raise AssertionError("jet_cotangent_map transformed the scheme, the arc or the jet")

    # no transformed generator or arc, and no composition with the universal
    # jet, which every jet ideal and Hasse-Schmidt derivative makes
    monkeypatch.setattr(ProjectionMap, "apply_to_poly", refused)
    monkeypatch.setattr(ProjectionMap, "apply_to_arc", refused)
    monkeypatch.setattr(Poly, "substitute", refused)
    monkeypatch.setattr(arcspace.jets, "_universal_jet", refused)
    for case, rows in expected:
        if rows is None:
            with pytest.raises(VerificationError):
                jet_cotangent_map(*case)
        else:
            assert jet_cotangent_map(*case) == rows
    for n in (3, 4):
        with pytest.raises(InsufficientPrecisionError):
            jet_cotangent_map(quadric, proj, short, n)


def test_a_projection_or_arc_over_another_ambient_is_refused(quadric, monkeypatch):
    arc = monomial_arc(quadric, 1)
    model = drinfeld_pipeline(quadric, arc, seed=0, with_dims=False).model
    other = VarSet(["a", "b", "c", "d"])
    wider = VarSet(["x0", "x1", "x2", "x3", "x4"])
    projections = [ProjectionMap(other, 3, _identity(4), _identity(4)),
                   ProjectionMap(wider, 4, _identity(5), _identity(5))]
    arcs = [Arc.from_strings(other, ["t", "0", "0", "0"]),
            Arc.from_strings(wider, ["t", "0", "0", "0", "0"])]

    def refused(*args, **kwargs):
        raise AssertionError("work began before the varsets were checked")

    monkeypatch.setattr(arcspace.drinfeld, "_partial_series", refused)
    monkeypatch.setattr(ProjectionMap, "apply_to_poly", refused)
    monkeypatch.setattr(ProjectionMap, "apply_to_arc", refused)
    for proj in projections:
        with pytest.raises(VarsetMismatchError):
            jet_cotangent_map(quadric, proj, arc, 1)
        with pytest.raises(VarsetMismatchError):
            build_drinfeld_model(quadric, proj, arc, 1)
    for bad in arcs:
        with pytest.raises(VarsetMismatchError):
            jet_cotangent_map(quadric, model.projection, bad, 1)
        with pytest.raises(VarsetMismatchError):
            build_drinfeld_model(quadric, model.projection, bad, 1)
        with pytest.raises(VarsetMismatchError):
            drinfeld_tangent_check(model, bad)
        with pytest.raises(VarsetMismatchError):
            tangent_matrix_rows(model, bad)


def test_jet_cotangent_identity_on_affine_space():
    # X = A^1 embedded as V(y) in A^2, identity projection to the x-axis
    vs = VarSet(["x", "y"])
    line = AffineScheme(vs, (parse_poly("y", vs),))
    arc = Arc.from_strings(vs, ["t", "0"])
    proj = ProjectionMap(vs, 1, _identity(2), _identity(2))
    for n in range(4):
        rows = jet_cotangent_map(line, proj, arc, n)
        assert exact_rank(rows) == n + 1


def test_jet_cotangent_full_rank_levels(quadric):
    arc = monomial_arc(quadric, 1)
    proj, e = choose_projection(quadric, arc, seed=0)
    for n in range(7):
        rows = jet_cotangent_map(quadric, proj, arc, n)
        assert exact_rank(rows) == 3 * (n + 1)


def test_jet_cotangent_bad_split_detected(quadric):
    # swap x0 and x3: the projection keeps (x3, x1, x2) and drops x0
    arc = monomial_arc(quadric, 1)
    swap = tuple(tuple({(0, 3): 1, (3, 0): 1}.get((i, j), 1 if i == j and i not in (0, 3) else 0)
                       for j in range(4)) for i in range(4))
    bad = ProjectionMap(quadric.ambient, 3, swap, swap)
    with pytest.raises(VerificationError) as err:
        jet_cotangent_map(quadric, bad, arc, 2)
    assert err.value.observed < err.value.expected


def test_tangent_check_golden(quadric):
    arc = monomial_arc(quadric, 1)
    res = drinfeld_pipeline(quadric, arc, seed=0, with_dims=False)
    rep = drinfeld_tangent_check(res.model, arc)
    assert rep.rank == rep.expected == 6
    arc2 = monomial_arc(quadric, 2)
    res2 = drinfeld_pipeline(quadric, arc2, seed=0, with_dims=False)
    assert drinfeld_tangent_check(res2.model, arc2).rank == 12


def test_tangent_dq_block_scaling(quadric):
    # a(t) -> a(lambda t) scales the dq-block entry on dq^(l) in row (i, n)
    # by lambda^(n + e - l)
    lam = Fraction(2)
    arc = Arc(quadric.ambient, [TruncSeries([0, 1, 1, 1]),
                                TruncSeries([]), TruncSeries([]), TruncSeries([])])
    scaled = Arc(quadric.ambient, [
        TruncSeries([c * lam ** k for k, c in enumerate(comp.coeffs)])
        for comp in arc.components
    ])
    res = drinfeld_pipeline(quadric, arc, seed=0, with_dims=False)
    res_s = drinfeld_pipeline(quadric, scaled, seed=0, with_dims=False)
    model, model_s = res.model, res_s.model
    assert model.e == model_s.e == 1
    rows = tangent_matrix_rows(model, arc)
    rows_s = tangent_matrix_rows(model_s, scaled)
    e, d = model.e, model.d
    idx = 0
    checked = 0
    for n in range(2 * e):
        for i in range(d):
            for l in range(e):
                base = rows[idx][l]
                assert rows_s[idx][l] == lam ** (n + e - l) * base
                if base:
                    checked += 1
            idx += 1
    assert checked > 0


def test_determinism_same_seed(ci_fixture):
    arc = monomial_arc(ci_fixture, 1)
    r1 = drinfeld_pipeline(ci_fixture, arc, seed=5, with_dims=False)
    r2 = drinfeld_pipeline(ci_fixture, arc, seed=5, with_dims=False)
    assert [str(q) for q in r1.model.equations] == [str(q) for q in r2.model.equations]
    assert r1.model.z == r2.model.z
    assert r1.model.projection.transform == r2.model.projection.transform
    assert r1.report(5) == r2.report(5)


def test_seed_independence_of_invariants(quadric):
    arc = monomial_arc(quadric, 1)
    dims = set()
    for seed in range(5):
        res = drinfeld_pipeline(quadric, arc, seed=seed)
        dims.add((res.edim, res.analysis.tangent_cone_dim, res.analysis.ecodim))
    assert dims == {(6, 5, 1)}


def test_cross_validation_against_jet_window(quadric):
    arc = monomial_arc(quadric, 1)
    report = verify_dgk(quadric, arc, seed=0)
    assert report["cross_validated"] is True
    assert report["ecodim"] == report["jet_window"]["ecodim"] == 1
    assert report["jet_cotangent_ranks"] == {"1": 6, "3": 12}
    assert report["tangent_rank"] == 6


@pytest.mark.parametrize("window", [(3, 1), (-1, 2)])
def test_verify_dgk_refuses_a_bad_window_before_any_work(window, monkeypatch):
    # on the cusp the model and its dims would run out of budget long before
    # the window is read, so the window is checked first
    vs = VarSet(["x", "y"])
    X = AffineScheme(vs, (parse_poly("x^2 - y^3", vs),))
    arc = Arc.from_strings(vs, ["t^3", "t^2"])

    def no_pipeline(*args, **kwargs):
        raise AssertionError("the model was built for a bad window")

    monkeypatch.setattr(arcspace.drinfeld, "drinfeld_pipeline", no_pipeline)
    with pytest.raises(ValueError, match="^bad window$"):
        verify_dgk(X, arc, window=window)
    with pytest.raises(ValueError, match="^bad window$"):
        arcspace.drinfeld.ecodim_window(X, arc, *window)


def test_verify_dgk_ranks_each_cotangent_map_once(quadric, monkeypatch):
    # jet_cotangent_map certifies that its rows have rank d(n+1) and raises
    # otherwise, so the report reads their number instead of ranking them a
    # second time
    returned, certified = [], []
    cotangent, certify = arcspace.drinfeld.jet_cotangent_map, arcspace.drinfeld.certified_rank
    inside = []

    def recording_map(*args):
        inside.append(True)
        try:
            rows = cotangent(*args)
        finally:
            inside.pop()
        returned.append((rows, [list(r) for r in rows]))
        return rows

    def recording_certificate(rows):
        rank = certify(rows)
        certified.append((rows, bool(inside), rank))
        return rank

    monkeypatch.setattr(arcspace.drinfeld, "jet_cotangent_map", recording_map)
    monkeypatch.setattr(arcspace.drinfeld, "certified_rank", recording_certificate)
    report = verify_dgk(quadric, monomial_arc(quadric, 1), seed=0)
    assert report["jet_cotangent_ranks"] == {"1": 6, "3": 12}
    assert [len(rows) for rows, _ in returned] == [6, 12]
    for rows, copy in returned:
        assert exact_rank(copy) == len(rows)
        # certified once, inside jet_cotangent_map, at full rank
        assert [(within, rank) for r, within, rank in certified if r is rows] == \
            [(True, len(rows))]


def test_verify_errors_carry_values():
    with pytest.raises(VerificationError) as err:
        raise VerificationError("demo", 3, 5)
    assert err.value.observed == 3 and err.value.expected == 5


def test_model_varset_size():
    for e, d, c in [(1, 3, 1), (2, 3, 1), (2, 2, 2), (3, 1, 2)]:
        assert len(model_varset(e, d, c)) == e * (1 + 2 * d + c)


def test_random_unimodular_inverse():
    import random as _random

    from arcspace.drinfeld import _matmul, _random_unimodular

    rng = _random.Random(77)
    for n in (2, 3, 5):
        T, Tinv = _random_unimodular(n, rng, 10)
        assert _matmul(T, Tinv) == [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)]
        assert _matmul(Tinv, T) == [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)]


def test_apply_to_arc_zero_coefficient_keeps_row_precision():
    vs = VarSet(["x", "y"])
    # T^-1 has rows (1, 0) and (1, 1): the imprecise y enters only the second
    proj = ProjectionMap(ambient=vs, d=1, transform=((1, 0), (-1, 1)),
                         inverse=((1, 0), (1, 1)))
    arc = Arc(vs, [TruncSeries([0, 1], 8), TruncSeries([0, 0, 1], 3)])
    new = proj.apply_to_arc(arc)
    assert new.components[0] == TruncSeries([0, 1], 8)
    assert new.components[1] == TruncSeries([0, 1, 1], 3)
    assert new.precision == arc.precision == 3
