"""Exact polynomial algebra: arithmetic, orders, bases, series, division."""

from .dimension import monomial_dim
from .groebner import groebner_basis, normal_form, reduces_to_zero, spolynomial
from .linalg import certified_rank, exact_rank, fraction_free_echelon, rank_modulo, reduce_row
from .mora import initial_ideal, mora_normal_form, mora_reduces_to_zero, mora_standard_basis
from .orders import (
    ANTIGRLEX,
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    ecart,
    leading_coefficient,
    leading_monomial,
    leading_term,
    make_monic,
)
from .parse import parse_poly, poly_to_string
from .poly import Monomial, Poly, poly_adjugate, poly_det
from .series import OrdResult, TruncSeries, combine_ord_min
from .tpoly import TPoly, div_monic_t, substitute_tpoly
from .varset import VarId, VarSet
from .weierstrass import CoordinateSubstitution, regularize, weierstrass_divide, y_regular_order

__all__ = [
    "ANTIGRLEX", "GREVLEX", "GRLEX", "LEX",
    "CoordinateSubstitution", "Monomial", "MonomialOrder", "OrdResult",
    "Poly", "TPoly", "TruncSeries", "VarId", "VarSet",
    "certified_rank", "combine_ord_min", "div_monic_t", "ecart", "exact_rank",
    "fraction_free_echelon", "groebner_basis", "initial_ideal",
    "leading_coefficient", "leading_monomial", "leading_term", "make_monic",
    "monomial_dim", "mora_normal_form", "mora_reduces_to_zero",
    "mora_standard_basis", "normal_form", "parse_poly", "poly_adjugate",
    "poly_det", "poly_to_string", "rank_modulo", "reduce_row", "reduces_to_zero",
    "regularize", "spolynomial", "substitute_tpoly", "weierstrass_divide",
    "y_regular_order",
]
