import random
from itertools import combinations_with_replacement

import pytest
from fractions import Fraction

from arcspace.errors import PointNotOnSchemeError, VarsetMismatchError
from arcspace.jets import (
    AffineScheme,
    Arc,
    jacobian_ideal,
    jet_ideal,
    jet_varset,
    ord_along_arc,
    truncate_arc,
)
from arcspace.localgeom import (
    LocalAnalysis,
    _at_point,
    ecodim_at_point,
    ecodim_jet,
    ecodim_window,
    edim_at_point,
    jacobian_at,
    translate_to_origin,
)
from arcspace.drinfeld import (
    build_drinfeld_model,
    choose_projection,
    ci_reduce,
    drinfeld_pipeline,
)
from arcspace.polyalg import Poly, VarSet, parse_poly
from arcspace.polyalg.poly import _Fields, _finished
from arcspace.polyalg.oracles import initial_ideal_mismatches

from conftest import monomial_arc, random_arc, random_poly
from test_accumulate import _model_cases


@pytest.fixture
def plane():
    return VarSet(["x", "y"])


def test_translate_noop_at_origin(plane):
    gens = [parse_poly("x*y", plane)]
    assert translate_to_origin(gens, [0, 0]) == gens


def test_translate_parabola(plane):
    gens = [parse_poly("y - x^2", plane)]
    shifted = translate_to_origin(gens, [1, 1])
    assert shifted == [parse_poly("y - x^2 - 2*x", plane)]
    assert shifted[0].evaluate([0, 0]) == 0
    # re-substitute to confirm the inverse shift recovers the original
    back = shifted[0].substitute({
        "x": parse_poly("x - 1", plane), "y": parse_poly("y - 1", plane)})
    assert back == gens[0]


def test_translate_off_scheme(plane):
    with pytest.raises(PointNotOnSchemeError):
        translate_to_origin([parse_poly("x - 1", plane)], [2, 0])


def _evaluate_reference(f, point):
    """Poly.evaluate as first written: every term multiplied out."""
    vals = [Fraction(x) for x in point]
    total = Fraction(0)
    for mono, c in f.terms.items():
        prod = c
        for i, e in enumerate(mono):
            if e:
                prod *= vals[i] ** e
        total += prod
    return total


def test_jacobian_at_matches_partials():
    # points dense in zeros and exponents up to 5 reach every zero branch of
    # jacobian_at and of Poly.evaluate: terms with two or more vanishing
    # factors, and one vanishing factor with exponent 1 or >= 2
    rng = random.Random(31)
    vs = VarSet(["x", "y", "z"])
    seen = set()
    for trial in range(60):
        gens = [random_poly(vs, rng, max_degree=5, terms=5)
                for _ in range(rng.randint(1, 3))]
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  if trial % 2 == 0 or rng.random() < 0.5 else Fraction(0)
                  for _ in vs]
        for g in gens:
            assert g.evaluate(values) == _evaluate_reference(g, values)
            for v in vs:
                d = g.partial(v)
                assert d.evaluate(values) == _evaluate_reference(d, values)
            for mono in g.terms:
                zeros = [e for e, x in zip(mono, values) if e and not x]
                seen.add((min(len(zeros), 2), min(zeros[0], 2) if len(zeros) == 1 else 0))
        expected = [[g.partial(v).evaluate(values) for v in vs] for g in gens]
        got = jacobian_at(gens, values)
        assert got == expected
        assert all(type(x) is Fraction for row in got for x in row)
        mapping = {v.name: x for v, x in zip(vs, values) if x != 0}
        assert jacobian_at(gens, mapping) == expected
    # (vanishing factors, exponent of the one vanishing factor)
    assert seen >= {(0, 0), (1, 1), (1, 2), (2, 0)}
    assert jacobian_at([], [1, 2, 3]) == []


def _partials_at(gens, values):
    """The Jacobian as partial-then-evaluate, the reference for jacobian_at."""
    vs = gens[0].varset
    return [[g.partial(v).evaluate(values) for v in vs] for g in gens]


def test_jacobian_at_int_and_fraction_paths():
    # jacobian_at and Poly.evaluate hold integral coefficients and coordinates
    # as ints and fall back to Fractions term by term; points mixing
    # integral, zero and non-integral coordinates, coefficients of both kinds
    # and exponents up to 5 run both arms of P*a_i/p_i (P // p_i on ints, /
    # otherwise) with a_i >= 2, and the zero polynomial gives a zero row
    rng = random.Random(33)
    vs = VarSet(["x", "y", "z", "w"])
    seen = set()
    for trial in range(80):
        gens = [random_poly(vs, rng, max_degree=5, terms=6)
                for _ in range(rng.randint(1, 3))]
        if trial % 2:
            gens = [Poly(vs, {m: c.numerator for m, c in g.terms.items()}) for g in gens]
        if trial % 5 == 0:
            gens.append(Poly.zero(vs))
        values = [rng.choice((Fraction(0), Fraction(rng.randint(-4, 4)),
                              Fraction(rng.choice((-5, -3, 1, 3, 7)), rng.choice((2, 3)))))
                  for _ in vs]
        for g in gens:
            value = g.evaluate(values)
            assert type(value) is Fraction
            assert value == _evaluate_reference(g, values)
            for mono, c in g.terms.items():
                if any(e and not x for e, x in zip(mono, values)):
                    continue
                integral = c.denominator == 1 and all(
                    x.denominator == 1 for e, x in zip(mono, values) if e)
                for e, x in zip(mono, values):
                    if e >= 2:
                        seen.add(("//" if integral else "/", x.denominator == 1))
        expected = _partials_at(gens, values)
        assert expected == [[_evaluate_reference(g.partial(v), values) for v in vs]
                            for g in gens]
        got = jacobian_at(gens, values)
        assert got == expected
        assert all(type(x) is Fraction for row in got for x in row)
    # (arm, whether the coordinate raised to a_i >= 2 is integral)
    assert seen == {("//", True), ("/", True), ("/", False)}
    assert Poly.zero(vs).evaluate([1, 2, 3, 4]) == 0
    assert type(Poly.zero(vs).evaluate([1, 2, 3, 4])) is Fraction
    assert jacobian_at([Poly.zero(vs)], [1, 0, Fraction(1, 2), 4]) == [[0, 0, 0, 0]]


def test_jacobian_at_model_point(ci_fixture):
    # the CI fixture's model at an arc with a half-integral coefficient has
    # non-integral coordinates in z
    arc = Arc.from_strings(ci_fixture.ambient, ["t + 1/2*t^2", "0", "0", "0"])
    model = drinfeld_pipeline(ci_fixture, arc, 4, with_dims=False).model
    assert any(x.denominator != 1 for x in model.z)
    got = jacobian_at(model.equations, model.z)
    assert got == _partials_at(model.equations, model.z)
    assert all(type(x) is Fraction for row in got for x in row)
    for q in model.equations:
        assert q.evaluate(model.z) == _evaluate_reference(q, model.z) == 0


def _packed_case(rng, vs, limit):
    """A point with one to three vanishing coordinates, some of the others
    non-integral, and polynomials whose exponents of a vanishing variable
    are 1, 2 or a larger power of two below limit / 2, with small exponents
    elsewhere."""
    vanishing = rng.sample(range(len(vs)), rng.randint(1, 3))
    point = [Fraction(0) if i in vanishing else
             Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
             for i in range(len(vs))]
    powers = [1 << k for k in range(limit.bit_length() - 2)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.choice((0, 0, 1, 2, rng.choice(powers))) if i in vanishing
                         else rng.randint(0, 2) for i in range(len(vs)))
            if sum(mono) < limit:
                terms[mono] = Fraction(rng.choice((-4, -1, 1, 3)), rng.choice((1, 1, 1, 2)))
        gens.append(Poly(vs, terms))
    return gens, point


def test_the_point_kernel_reads_packed_terms_as_their_polys():
    # the value and the Jacobian row that _at_point reads off packed terms,
    # skipping terms by their fields of vanishing coordinates, are those of
    # the finished Polys; in 8- and 16-bit fields, an exponent 2^k of a
    # vanishing variable sets one bit of its field, as exponent 1 does, but
    # not the lowest
    rng = random.Random(41)
    vs = VarSet(["x", "y", "z", "w"])
    seen = set()
    for width in (8, 16):
        fields = _Fields(len(vs), width)
        for _ in range(80):
            gens, point = _packed_case(rng, vs, fields.limit)
            packed = [{fields.pack(m): c.numerator if c.denominator == 1 else c
                       for m, c in g.terms.items()} for g in gens]
            finished = [_finished(vs, acc, fields) for acc in packed]
            assert finished == gens
            at, rows = _at_point(packed, point, fields)
            assert at == [g.evaluate(point) for g in finished]
            assert rows == jacobian_at(finished, point)
            assert _at_point([g.terms for g in gens], point) == (at, rows)
            for mono in (m for g in gens for m in g.terms):
                # the exponents of the vanishing factors of each term
                zeros = [e for e, x in zip(mono, point) if e and not x]
                kind = "two" if len(zeros) > 1 else zeros[0] if zeros else "none"
                seen.add((width, kind if kind in ("two", "none", 1, 2) else "2^k"))
            if any(x.denominator != 1 for x in point):
                seen.add((width, "fraction"))
    assert seen == {(w, k) for w in (8, 16) for k in ("none", 1, 2, "2^k", "two", "fraction")}


def test_the_point_kernel_reads_the_models_packed_equations():
    # the e = 3 models and the CI-fixture ones, at z and at points near it
    # with fewer vanishing coordinates
    rng = random.Random(43)
    models = [build_drinfeld_model(Xci, proj, arc, e)
              for X, arc, e in _model_cases(rng) if e == 3 or len(X.generators) == 2
              for Xci in [ci_reduce(X, arc, seed=1)]
              for proj, _ in [choose_projection(Xci, arc, seed=1)]]
    assert sorted(model.c for model in models) == [1, 1, 2, 2]
    for model in models:
        assert model.fields.width == 8
        eqs = model.equations
        assert _at_point(model.packed, model.z, model.fields) == ([0] * len(eqs),
                                                                 list(model.jacobian))
        assert list(model.jacobian) == jacobian_at(eqs, model.z)
        for _ in range(3):
            point = [x or rng.choice((0, 1, Fraction(-1, 2))) for x in model.z]
            at, rows = _at_point(model.packed, point, model.fields)
            assert at == [q.evaluate(point) for q in eqs]
            assert rows == jacobian_at(eqs, point)


def test_jacobian_at_rejects_mixed_varsets():
    # columns and coordinates are read by position, so a generator over a
    # permuted varset would be differentiated in the wrong variable
    xyz, zyx = VarSet(["x", "y", "z"]), VarSet(["z", "y", "x"])
    gens = [parse_poly("x", xyz), parse_poly("x^2", zyx)]
    with pytest.raises(VarsetMismatchError):
        jacobian_at(gens, [1, 0, 3])


def test_jacobian_at_jet_point(quadric):
    rng = random.Random(32)
    for n in (1, 2):
        gens = jet_ideal(quadric, n)
        jp = truncate_arc(random_arc(quadric.ambient, rng), n)
        expected = [[g.partial(v).evaluate(jp.values) for v in jp.varset] for g in gens]
        assert jacobian_at(gens, jp) == expected
    with pytest.raises(ValueError):
        jacobian_at(jet_ideal(quadric, 1), jp)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_points_take_rational_coordinates_only(plane, bad):
    # a float would bring its binary rounding in, and a str is not parsed:
    # both forms of a point, and every entry point that takes one, refuse them
    gens = [parse_poly("x^2 - y", plane)]
    for point in ([bad, Fraction(1, 4)], {"x": bad, "y": Fraction(1, 4)}):
        for fn in (jacobian_at, edim_at_point, translate_to_origin, ecodim_at_point):
            with pytest.raises(TypeError):
                fn(gens, point)
    # the same point in exact coordinates is accepted in both forms
    for point in ([Fraction(1, 2), Fraction(1, 4)], {"x": Fraction(1, 2), "y": Fraction(1, 4)}):
        assert edim_at_point(gens, point) == 1
        assert ecodim_at_point(gens, point).ecodim == 0


def test_edim_node_and_smooth_point(plane):
    assert edim_at_point([parse_poly("x*y", plane)], [0, 0]) == 2
    assert edim_at_point([parse_poly("y - x^2", plane)], [0, 0]) == 1
    with pytest.raises(PointNotOnSchemeError):
        edim_at_point([parse_poly("x - 1", plane)], [2, 0])


def test_edim_reads_values_and_rows_in_one_pass(plane, monkeypatch):
    # one kernel pass gives both the vanishing check and the Jacobian, and
    # generators over different varsets are refused before the point is read
    from arcspace import localgeom

    calls = []
    kernel = localgeom._at_point

    def counted(terms, point, fields=None):
        calls.append(len(terms))
        return kernel(terms, point, fields)

    def refused(*args):
        raise AssertionError("edim_at_point evaluated a generator by itself")

    monkeypatch.setattr(localgeom, "_at_point", counted)
    monkeypatch.setattr(Poly, "evaluate", refused)
    gens = [parse_poly("x*y", plane), parse_poly("x^2 - y^3", plane)]
    assert edim_at_point(gens, [0, 0]) == 2
    with pytest.raises(PointNotOnSchemeError, match="x - 1 does not vanish"):
        edim_at_point([parse_poly("y", plane), parse_poly("x - 1", plane)], [0, 0])
    assert calls == [2, 2]
    line = VarSet(["x"])
    for mixed in ([gens[0], parse_poly("x", line)], [parse_poly("x", line), gens[0]]):
        with pytest.raises(VarsetMismatchError):
            edim_at_point(mixed, [0, 0])
    assert calls == [2, 2]


def test_edim_jet_formula(quadric):
    # edim of the level-N jet scheme at (t^m, 0,0,0) is 3(N+1) + m for m <= N
    for m, N in [(1, 1), (1, 3), (2, 3), (3, 4)]:
        arc = monomial_arc(quadric, m)
        gens = jet_ideal(quadric, N)
        jp = truncate_arc(arc, N)
        assert edim_at_point(gens, jp) == 3 * (N + 1) + m
        # oracle for the rank pattern: dg~(j)/dx3_(q) at the point is nonzero
        # iff j - q = m (the chain rule moves the shift by exactly m slots)
        x3 = quadric.ambient[3]
        for j in range(N + 1):
            for q in range(N + 1):
                entry = gens[j].partial(x3.derived(q)).evaluate(jp.values)
                assert (entry != 0) == (j - q == m)


def test_tangent_cone_dims(plane, quadric):
    assert ecodim_at_point([parse_poly("x*y", plane)], [0, 0]).tangent_cone_dim == 1
    assert ecodim_at_point(list(quadric.generators), [0, 0, 0, 0]).tangent_cone_dim == 3
    gens = [parse_poly("y - x^2", plane), parse_poly("x^3", plane)]
    assert ecodim_at_point(gens, [0, 0]).tangent_cone_dim == 0


def test_ecodim_smooth_node_quadric(plane, quadric):
    smooth = ecodim_at_point([parse_poly("y - x^2", plane)], [0, 0])
    assert smooth.ecodim == 0
    node = ecodim_at_point([parse_poly("x*y", plane)], [0, 0])
    assert (node.edim, node.tangent_cone_dim, node.ecodim) == (2, 1, 1)
    cone = ecodim_at_point(list(quadric.generators), [0, 0, 0, 0])
    assert (cone.edim, cone.tangent_cone_dim, cone.ecodim) == (4, 3, 1)


def test_ecodim_formula_concordance(plane, quadric):
    for gens, pt in [
        ([parse_poly("x*y", plane)], [0, 0]),
        ([parse_poly("y - x^2", plane)], [Fraction(1, 2), Fraction(1, 4)]),
        (list(quadric.generators), [0, 0, 0, 0]),
    ]:
        a = ecodim_at_point(gens, pt)
        assert a.edim == a.nvars - a.jacobian_rank
        assert a.ecodim == a.edim - a.tangent_cone_dim
        assert a.ecodim == (a.nvars - a.tangent_cone_dim) - a.jacobian_rank


def test_ecodim_jet_golden_values(quadric):
    first = ecodim_jet(quadric, monomial_arc(quadric, 1), 2)
    assert first.ecodim == 1
    second = ecodim_jet(quadric, monomial_arc(quadric, 2), 4)
    assert second.ecodim == 2


def test_ecodim_jet_smooth_scheme():
    vs = VarSet(["x", "y"])
    line = AffineScheme(vs, (parse_poly("y", vs),))
    arc = Arc.from_strings(vs, ["t", "0"])
    for n in range(3):
        assert ecodim_jet(line, arc, n).ecodim == 0


def test_window_stabilization(quadric):
    w = ecodim_window(quadric, monomial_arc(quadric, 1), 2, 4)
    assert w.stabilized and w.ecodim == 1
    assert [w.per_level[n].ecodim for n in (2, 3, 4)] == [1, 1, 1]


def _quadric_arc(X, rng, e1, e2):
    """(a*c, a*d, b*c, -b*d) on x0*x3 + x1*x2 = 0: ord a = ord b = e1 and
    ord c = ord d = e2, so the Jacobian contact order is e1 + e2."""
    def factor(k):
        return [Fraction(0)] * k + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                             rng.choice((1, 2))) for _ in range(2)]

    def mul(u, v):
        out = [Fraction(0)] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] += x * y
        return out

    a, b, c, d = factor(e1), factor(e1), factor(e2), factor(e2)
    comps = [mul(a, c), mul(a, d), mul(b, c), [-x for x in mul(b, d)]]
    return Arc.from_strings(X.ambient, [
        " + ".join(f"({x})*t^{k}" for k, x in enumerate(comp) if x) or "0" for comp in comps])


def _sum_of_squares_arc(X, e):
    # x0 = 2 t^e, x1 = t^e (1 - t), x2 = t^e (3 + t/2), x3 = -(x1^2 + x2^2)/x0
    return Arc.from_strings(X.ambient, [
        f"2*t^{e}", f"t^{e} - t^{e + 1}", f"3*t^{e} + 1/2*t^{e + 1}",
        f"-5*t^{e} - 1/2*t^{e + 1} - 5/8*t^{e + 2}"])


def _window_matches_single_levels(monkeypatch, X, arc, n_lo, n_hi):
    """Assert that every level of the window equals ecodim_jet at that level;
    returns how many levels started Mora from the level below, at how many
    levels above the lowest the initial forms handed to the interreduction
    reused the reduced forms of the level below, and how many levels found a
    standard basis of homogeneous elements.  Such a level hands nothing to
    the interreduction, since Mora has interreduced its basis already; every
    other level hands its forms once.  A level that reuses one of the forms
    below must reuse them all."""
    from arcspace import localgeom

    seeded, handed, homogeneous = [], [], []
    standard_basis, interreduce = localgeom.mora_standard_basis, localgeom.interreduce

    def seeding(*args, **kwargs):
        seeded.append(bool(kwargs.get("basis")))
        basis = standard_basis(*args, **kwargs)
        homogeneous.append(all(g.is_homogeneous() for g in basis))
        handed.append(None)
        return basis

    def handing(forms, *args):
        assert handed[-1] is None
        handed[-1] = list(forms)
        return interreduce(forms, *args)

    with monkeypatch.context() as m:
        m.setattr(localgeom, "mora_standard_basis", seeding)
        m.setattr(localgeom, "interreduce", handing)
        window = ecodim_window(X, arc, n_lo, n_hi)
    levels = n_hi - n_lo + 1
    assert len(seeded) == len(handed) == levels and not seeded[0]
    assert [forms is None for forms in handed] == homogeneous
    reused = 0
    for n, forms in zip(range(n_lo + 1, n_hi + 1), handed[1:]):
        if forms is None:
            continue
        varset = jet_varset(X.ambient, n)
        found = [f.extended(varset) in forms for f in window.per_level[n - 1].initial_forms]
        assert all(found) or not any(found)
        reused += any(found)
    for n in range(n_lo, n_hi + 1):
        single = ecodim_jet(X, arc, n)
        assert window.per_level[n].initial_forms == single.initial_forms
        # every invariant; the basis found is not compared
        assert window.per_level[n] == single
    return sum(seeded), reused, sum(homogeneous)


@pytest.mark.parametrize("e", [1, 2])
def test_window_levels_equal_single_levels(monkeypatch, quadric, e):
    S = AffineScheme(quadric.ambient, (parse_poly("x0*x3 + x1^2 + x2^2", quadric.ambient),))
    rng = random.Random(40 + e)
    arcs = [(quadric, _quadric_arc(quadric, rng, e1, e - e1)) for e1 in range(e + 1)]
    arcs += [(quadric, monomial_arc(quadric, e)), (S, _sum_of_squares_arc(S, e))]
    for X, arc in arcs:
        assert ord_along_arc(jacobian_ideal(X), arc).value == e
        assert _window_matches_single_levels(monkeypatch, X, arc, 2 * e, 2 * e + 2) == (2, 2, 0)


def test_window_levels_equal_single_levels_node(monkeypatch, node):
    # the jet ideals of the node at the zero arc are homogeneous, so every
    # level's standard basis is the reduced basis of its initial ideal and
    # no level hands forms to the interreduction
    arc = Arc.from_strings(node.ambient, ["0", "0"])
    assert _window_matches_single_levels(monkeypatch, node, arc, 0, 4) == (4, 0, 5)


def test_window_levels_with_smooth_directions_start_from_the_level_below(monkeypatch):
    # every jet generator x_p - (y^2)_p is c*x_p + h with x_p not in h; Mora
    # takes such generators as they are, so every level above the lowest
    # starts its standard basis from the one below and reuses its initial forms
    vs = VarSet(["x", "y"])
    X = AffineScheme(vs, (parse_poly("x - y^2", vs),))
    arc = Arc.from_strings(vs, ["t^2", "t"])
    assert _window_matches_single_levels(monkeypatch, X, arc, 0, 3) == (3, 3, 0)
    window = ecodim_window(X, arc, 0, 3)
    for a in window.per_level.values():
        assert isinstance(a.standard_basis, tuple) and a.standard_basis


def test_window_levels_are_the_translated_jet_ideals(monkeypatch, quadric, ci_fixture):
    # the jet ideal is shifted once, at the top of the window; every level
    # below analyses the restriction of its coefficients, which must be the
    # jet ideal of that level translated to the truncated arc, at the origin
    from arcspace import jets, localgeom

    shifted, seen = [], []

    def shifted_once(*args):
        shifted.append(args[-1])
        return jets.jet_ideal_at(*args)

    def recording(gens, point, below=None):
        seen.append((list(gens), point))
        return LocalAnalysis(len(point), 0, len(point), len(point), 0, ())

    monkeypatch.setattr(localgeom, "jet_ideal_at", shifted_once)
    monkeypatch.setattr(localgeom, "ecodim_at_point", recording)
    rational = _quadric_arc(quadric, random.Random(17), 0, 0)
    for X, arc, n_lo, n_hi in [(quadric, monomial_arc(quadric, 2), 0, 6),
                               (quadric, rational, 1, 4),
                               (ci_fixture, monomial_arc(ci_fixture, 1), 2, 5)]:
        shifted.clear()
        seen.clear()
        window = ecodim_window(X, arc, n_lo, n_hi)
        assert shifted == [n_hi] and sorted(window.per_level) == list(range(n_lo, n_hi + 1))
        for n, (gens, point) in zip(range(n_lo, n_hi + 1), seen, strict=True):
            assert gens == translate_to_origin(jet_ideal(X, n), truncate_arc(arc, n))
            assert point == (0,) * len(gens[0].varset)
    assert all(rational.special_point())


def test_one_level_window_has_not_stabilized(quadric):
    window = ecodim_window(quadric, monomial_arc(quadric, 1), 3, 3)
    assert window.per_level == {3: ecodim_jet(quadric, monomial_arc(quadric, 1), 3)}
    assert window.ecodim == 1 and window.stabilized is False
    assert window.to_json()["stabilized"] is False


def test_empty_generator_list_is_a_value_error():
    for analyse in (ecodim_at_point, edim_at_point):
        with pytest.raises(ValueError, match="empty generator list"):
            analyse([], [])


def test_monotone_bound(quadric):
    # ecodim at jet level <= contact order with the Jacobian ideal
    for m in (1, 2):
        arc = monomial_arc(quadric, m)
        e = ord_along_arc(jacobian_ideal(quadric), arc).value
        for n in range(2 * e, 2 * e + 3):
            assert ecodim_jet(quadric, arc, n).ecodim <= e


def test_singular_locus_divergence(node):
    arc = Arc.from_strings(node.ambient, ["0", "0"])
    values = [ecodim_jet(node, arc, n).ecodim for n in range(5)]
    assert values == sorted(values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_smoothness_detection(plane, quadric, node):
    # ecodim = 0 iff the Jacobian rank equals the codimension at the point
    smooth = ecodim_at_point([parse_poly("y - x^2", plane)], [0, 0])
    assert smooth.ecodim == 0 and smooth.jacobian_rank == 1
    nodal = ecodim_at_point(list(node.generators), [0, 0])
    assert nodal.ecodim > 0 and nodal.jacobian_rank < 1
    cone = ecodim_at_point(list(quadric.generators), [0, 0, 0, 0])
    assert cone.ecodim > 0 and cone.jacobian_rank < 1
    off_origin = ecodim_at_point(list(quadric.generators), [1, 0, 0, 0])
    assert off_origin.ecodim == 0 and off_origin.jacobian_rank == 1


def test_local_analysis_json(plane):
    a = ecodim_at_point([parse_poly("x*y", plane)], [0, 0])
    data = a.to_json()
    assert data["nvars"] == 2 and data["edim"] == 2 and data["dim"] == 1
    assert data["ecodim"] == 1 and data["jacobian_rank"] == 0
    assert data["initial_forms"] == ["x*y"]
    assert data["stabilized"] is None


def _quadratic_form(rng, vs):
    """A quadratic form of two or three terms."""
    pairs = rng.sample(list(combinations_with_replacement(range(len(vs)), 2)), rng.randint(2, 3))
    return Poly(vs, {tuple(pair.count(i) for i in range(len(vs))):
                     Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                     for pair in pairs})


def test_random_points_never_break_concordance():
    # the two ecodim pipelines must agree on arbitrary local ideals, and the
    # initial forms must cut out ini(a); about half the draws add a generator
    # c*v + h with v not in h, which Mora takes as it is, and about half the
    # generators start with a quadratic form of two or three terms, so that
    # the oracle reads initial forms that are not monomials
    rng = random.Random(71)
    vs = VarSet(["x", "y", "z"])
    produced = smooth = binomial = 0
    while produced < 12:
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = random_poly(vs, rng, max_degree=3, terms=3)
            f = f - parse_poly(str(f.constant_term()), vs)
            if rng.random() < 0.5:
                f = _quadratic_form(rng, vs) + Poly(vs, {m: c for m, c in f.terms.items()
                                                         if sum(m) >= 3})
            if not f.is_zero():
                gens.append(f)
        if rng.random() < 0.5:
            v = rng.randrange(len(vs))
            h = random_poly(vs, rng, max_degree=3, terms=3)
            h = Poly(vs, {m: c for m, c in h.terms.items() if any(m) and not m[v]})
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            gens.append(Poly.variable(vs, vs[v]).scale(c) + h)
            smooth += 1
        if not gens:
            continue
        produced += 1
        a = ecodim_at_point(gens, [0, 0, 0])
        assert a.ecodim >= 0
        assert a.edim - a.tangent_cone_dim == a.ecodim
        assert not initial_ideal_mismatches(gens, a.initial_forms, degree=2)
        binomial += any(f.total_degree() >= 2 and len(f.terms) >= 2 for f in a.initial_forms)
    assert 3 <= smooth <= 9
    assert binomial >= 3, binomial


def test_smooth_direction_initial_forms_match_oracle():
    # every jet generator (z - x^2)_p has the form c*z_p + h with z_p not in
    # h; the canonical forms read off the Mora basis must cut out ini(a)
    vs = VarSet(["x", "y", "z"])
    X = AffineScheme(vs, (parse_poly("z - x^2", vs), parse_poly("y*z", vs)))
    arc = Arc.from_strings(vs, ["t", "0", "t^2"])
    for n, degree in [(1, 3), (2, 3)]:
        gens = jet_ideal(X, n)
        jp = truncate_arc(arc, n)
        translated = translate_to_origin(gens, jp)
        forms = ecodim_at_point(gens, jp).initial_forms
        assert not initial_ideal_mismatches(translated, forms, degree=degree)
