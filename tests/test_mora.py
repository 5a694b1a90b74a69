import random
import signal

import pytest

from arcspace.errors import ResourceLimitError
from arcspace.polyalg import (
    ANTIGRLEX,
    GREVLEX,
    Poly,
    VarSet,
    groebner_basis,
    initial_ideal,
    mora_normal_form,
    mora_reduces_to_zero,
    mora_standard_basis,
    parse_poly,
)
from arcspace.polyalg.oracles import initial_ideal_mismatches
from arcspace.polyalg.orders import ecart, leading_monomial

from conftest import random_poly


@pytest.fixture
def vs():
    return VarSet(["x", "y"])


def test_local_leading_term_has_minimal_degree(vs):
    f = parse_poly("x - x^2", vs)
    assert leading_monomial(f, ANTIGRLEX) == (1, 0)
    assert ecart(f, ANTIGRLEX) == 1


def test_global_order_rejected(vs):
    with pytest.raises(ValueError):
        mora_standard_basis([parse_poly("x", vs)], GREVLEX)


def test_unit_reduction_terminates(vs):
    # 1 is the largest monomial locally: reducing x by x - x^2 must not loop
    f = parse_poly("x", vs)
    basis = [parse_poly("x - x^2", vs)]
    assert mora_normal_form(f, basis, ANTIGRLEX).is_zero()


def test_standard_basis_x_minus_x2():
    vs = VarSet(["x"])
    basis = mora_standard_basis([parse_poly("x - x^2", vs)])
    assert [leading_monomial(g, ANTIGRLEX) for g in basis] == [(1,)]
    gens = [parse_poly("x - x^2", vs)]
    assert not initial_ideal_mismatches(gens, initial_ideal(gens), degree=4)


def test_initial_ideal_x_minus_x2():
    vs = VarSet(["x"])
    forms = initial_ideal([parse_poly("x - x^2", vs)])
    assert forms == [parse_poly("x", vs)]


def test_standard_basis_y_minus_x2_x3(vs):
    gens = [parse_poly("y - x^2", vs), parse_poly("x^3", vs)]
    basis = mora_standard_basis(gens)
    lms = {leading_monomial(g, ANTIGRLEX) for g in basis}
    assert (0, 1) in lms    # y
    assert (3, 0) in lms    # x^3
    for g in gens:
        assert mora_reduces_to_zero(g, basis)
    forms = initial_ideal(gens)
    assert sorted(str(f) for f in forms) == ["x^3", "y"]
    assert not initial_ideal_mismatches(gens, forms, degree=4)


def test_homogeneous_input_gives_reduced_basis(vs):
    gens = [parse_poly("x + y", vs), parse_poly("x - y", vs)]
    basis = mora_standard_basis(gens)
    assert sorted(str(g) for g in basis) == ["x", "y"]
    # initial forms of homogeneous polynomials are the polynomials themselves,
    # so initial_ideal returns the reduced basis of the input ideal
    forms = initial_ideal(gens)
    assert sorted(str(f) for f in forms) == ["x", "y"]


def test_homogeneous_ideal_equals_its_initial_ideal(vs):
    gens = [parse_poly("x^2*y + x*y^2", vs), parse_poly("x^3 - y^3", vs)]
    forms = initial_ideal(gens)
    basis = mora_standard_basis(gens)
    for g in gens:
        assert mora_reduces_to_zero(g, forms)
    for f in forms:
        assert mora_reduces_to_zero(f, basis)


def test_initial_ideal_catches_spair_contribution(vs):
    # ini of the generators alone would miss y^4: x*(xy) - y*(x^2 - y^3) = y^4
    gens = [parse_poly("x^2 - y^3", vs), parse_poly("x*y", vs)]
    forms = initial_ideal(gens)
    assert not initial_ideal_mismatches(gens, forms, degree=5)
    from arcspace.polyalg.oracles import monomial_in_homogeneous_ideal

    assert monomial_in_homogeneous_ideal(forms, (0, 4))


def test_truncation_oracle_on_random_local_ideals(vs):
    rng = random.Random(23)
    produced = 0
    while produced < 8:
        f = random_poly(vs, rng, max_degree=3, terms=3)
        g = random_poly(vs, rng, max_degree=3, terms=3)
        if f.is_zero() or g.is_zero():
            continue
        if f.constant_term() != 0 or g.constant_term() != 0:
            continue
        produced += 1
        gens = [f, g]
        forms = initial_ideal(gens)
        assert not initial_ideal_mismatches(gens, forms, degree=4)


def test_mora_post_check_on_golden_jet_ideal(quadric):
    from arcspace.jets import Arc, jet_ideal, truncate_arc
    from arcspace.localgeom import translate_to_origin

    arc = Arc.from_strings(quadric.ambient, ["t", "0", "0", "0"])
    gens = translate_to_origin(jet_ideal(quadric, 2), truncate_arc(arc, 2))
    basis = mora_standard_basis(gens)
    for g in gens:
        assert mora_reduces_to_zero(g, basis)


def test_work_budget_trips(vs):
    from arcspace.polyalg.groebner import _Budget

    with pytest.raises(ResourceLimitError):
        mora_normal_form(parse_poly("x", vs), [parse_poly("x - x^2", vs)],
                         budget=_Budget(1))
    gens = [parse_poly("y - x^2", vs), parse_poly("y^2 - x^3", vs)]
    with pytest.raises(ResourceLimitError):
        mora_standard_basis(gens, work_limit=3)


def test_truncation_oracle_three_variables():
    rng = random.Random(53)
    vs3 = VarSet(["x", "y", "z"])
    produced = 0
    while produced < 4:
        f = random_poly(vs3, rng, max_degree=3, terms=3)
        g = random_poly(vs3, rng, max_degree=2, terms=2)
        if f.is_zero() or g.is_zero():
            continue
        if f.constant_term() != 0 or g.constant_term() != 0:
            continue
        produced += 1
        gens = [f, g]
        assert not initial_ideal_mismatches(gens, initial_ideal(gens), degree=4)


def test_initial_ideal_completes_to_reduced_basis(vs):
    # the S-pair of x*y and x^2 + y^2 (leading monomial y^2) contributes x^3,
    # which neither generator has as a leading monomial
    forms = initial_ideal([parse_poly("x*y", vs), parse_poly("x^2 + y^2", vs)])
    assert forms == [parse_poly("y^2 + x^2", vs), parse_poly("x*y", vs),
                     parse_poly("x^3", vs)]
    assert initial_ideal([parse_poly("x + y", vs), parse_poly("x - y", vs),
                          parse_poly("x^2", vs)]) == [
        parse_poly("y", vs), parse_poly("x", vs)]
    assert initial_ideal([Poly.zero(vs)]) == []


class _Overran(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.xfail(strict=True, raises=_Overran,
                   reason="the budget counts terms, not coefficient size: each step "
                          "of this input costs more time than the one before")
def test_a_small_budget_bounds_the_time_of_a_standard_basis():
    """Three generators of degree 3 with work_limit=200000 (1% of the default)
    ran for more than 40 s without running out: the coefficients grow while
    the charge per step does not.  When the budget charges coefficient size,
    this returns or raises ResourceLimitError well inside 3 s."""
    vs = VarSet(["x", "y", "z"])
    gens = [parse_poly(g, vs) for g in
            ("1/2*x^2*z + 2*z^2 + 2*x", "2*x^2 + x*y", "-3*x*y^2 - 4*z")]

    def overran(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        mora_standard_basis(gens, work_limit=200_000)
    except ResourceLimitError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
