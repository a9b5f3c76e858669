"""Constructive local arithmetic: valuations, p-adic numbers, Newton
polygons, ramification filtrations and tame extension counting.

Everything is exact: rationals are fractions.Fraction, p-adic values
carry explicit precision, and no floating point enters any computation.

Public names are resolved on first use (PEP 562), so ``import localarith``
loads only the modules a caller touches; ``from localarith import *``
loads them all.
"""

from importlib import import_module as _import_module

# bernoulli is both a submodule and its function; importing the submodule
# after the package would bind the module to this name, so bind it now
from .bernoulli import bernoulli

# defining module -> the public names it provides; a module listed among its
# own names is public itself
_EXPORTS = {
    "bernoulli": ("BernoulliTable", "power_sum", "power_sum_faulhaber", "staudt_clausen"),
    "errors": (
        "errors",
        "ExcludedCaseError",
        "HypothesisFailedError",
        "InconsistencyError",
        "InvalidArgumentError",
        "LocalArithError",
        "NotASquareError",
        "PrecisionLossError",
        "ResourceLimitError",
    ),
    "extensions": (
        "extensions",
        "GaloisPresentation",
        "TameExtensionDescriptor",
        "classify_tame",
        "count_tame_extensions",
        "eisenstein_invariants",
        "galois_census",
        "orbit_count_oracle",
        "splitting_degree_of_unity",
        "unit_group_structure",
    ),
    "finitefield": ("finitefield", "FiniteField", "FqPoly", "factor_monic", "monic_irreducibles"),
    "numtheory": ("numtheory", "DEFAULT_PRECISION", "INFINITY"),
    "padic": (
        "padic",
        "DigitExpansion",
        "PadicNumber",
        "expansion",
        "is_square",
        "newton_lift",
        "pth_power_on_units",
        "sqrt",
        "square_class_basis",
        "teichmuller",
        "unit_filtration_level",
    ),
    "polynomials": (
        "polynomials",
        "NewtonPolygon",
        "PadicPolynomial",
        "TruncatedSeries",
        "cyclotomic",
        "discriminant",
        "eisenstein_test",
        "hensel_lift_factors",
        "newton_polygon",
        "primitive_rescale",
        "refine_factorization",
        "resultant",
        "resultant_mn",
        "root_valuations",
        "slope_factorization",
        "sylvester_matrix",
        "weierstrass_prepare",
    ),
    "ramification": (
        "ramification",
        "FilteredGroup",
        "PiecewiseLinear",
        "RamificationReport",
        "UpperNumbering",
        "all_subgroups",
        "cyclotomic_group",
        "cyclotomic_reduction_kernel",
        "different_discriminant",
        "herbrand_functions",
        "lower_filtration",
        "phi_via_infimum",
        "quotient_filtration",
        "subgroup_filtration",
        "upper_numbering",
    ),
    "valuations": (
        "valuations",
        "FunctionFieldPlace",
        "GaussParameter",
        "ProductFormulaReport",
        "RationalPlace",
        "SumFormulaReport",
        "ff_valuation",
        "gauss_valuation",
        "normalized_absolute_value",
        "product_formula_report",
        "sum_formula_check",
        "vp_rational",
        "weak_approximation",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["bernoulli", *_ORIGIN])


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
