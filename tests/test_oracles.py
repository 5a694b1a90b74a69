"""The brute-force initial-ideal oracle on its own: the lists it reports when
the claimed forms are wrong, and the inputs it rejects."""

import random

import pytest

from arcspace.errors import VarsetMismatchError
from arcspace.polyalg import Poly, VarSet, initial_ideal, parse_poly
from arcspace.polyalg.oracles import (
    initial_ideal_mismatches,
    monomial_in_homogeneous_ideal,
    monomials_up_to,
)

from conftest import random_poly


def test_dropped_form_lists_exactly_the_monomials_it_alone_covers():
    vs = VarSet(["x", "y"])
    gens = [parse_poly("x^2 - y^3", vs), parse_poly("x*y", vs)]
    forms = initial_ideal(gens)
    assert [str(f) for f in forms] == ["x*y", "x^2", "y^4"]
    expected = {
        "x*y": [(1, 1), (1, 2), (1, 3)],
        "x^2": [(2, 0), (3, 0), (4, 0), (5, 0)],
        "y^4": [(0, 4), (0, 5)],
    }
    for i, f in enumerate(forms):
        assert initial_ideal_mismatches(gens, forms[:i] + forms[i + 1:], 5) == expected[str(f)]
    # with no forms claimed, every multiple of ini(y - x^2) = y is listed
    assert initial_ideal_mismatches([parse_poly("y - x^2", vs)], [], 3) == [
        (0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)]


def test_added_monomial_outside_the_ideal_is_listed():
    rng = random.Random(71)
    vs = VarSet(["x", "y", "z"])
    checked = 0
    while checked < 6:
        gens = [random_poly(vs, rng, max_degree=3, terms=3) for _ in range(2)]
        if any(g.is_zero() or g.constant_term() != 0 for g in gens):
            continue
        forms = initial_ideal(gens)
        outside = [m for m in monomials_up_to(len(vs), 4)[1:]
                   if not monomial_in_homogeneous_ideal(forms, m)]
        if not outside:
            continue
        checked += 1
        m = rng.choice(outside)
        wrong = forms + [Poly(vs, {m: 1})]
        assert m in initial_ideal_mismatches(gens, wrong, 4)
        assert not initial_ideal_mismatches(gens, forms, 4)


def test_forms_over_another_varset_are_rejected():
    vs = VarSet(["x", "y", "z"])
    gens = [parse_poly("x - y^2", vs), parse_poly("z^2", vs)]
    for names in (["x", "y"], ["x", "y", "z", "w"]):
        form = parse_poly("x", VarSet(names))
        with pytest.raises(VarsetMismatchError):
            initial_ideal_mismatches(gens, [form], 3)
        with pytest.raises(VarsetMismatchError):
            initial_ideal_mismatches(gens + [form], initial_ideal(gens), 3)
        with pytest.raises(VarsetMismatchError):
            monomial_in_homogeneous_ideal([parse_poly("x", vs), form], (1, 0, 0))
    with pytest.raises(VarsetMismatchError):
        monomial_in_homogeneous_ideal([parse_poly("x", vs)], (1, 0))


def test_empty_generators_and_low_degrees_are_rejected():
    vs = VarSet(["x", "y"])
    with pytest.raises(ValueError, match="need generators"):
        initial_ideal_mismatches([], [parse_poly("x", vs)], 3)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="truncation degree"):
            initial_ideal_mismatches([parse_poly("x", vs)], [parse_poly("x", vs)], degree)
