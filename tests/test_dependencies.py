import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import localarith

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "BernoulliTable", "DEFAULT_PRECISION", "DigitExpansion", "ExcludedCaseError",
    "FilteredGroup", "FiniteField", "FqPoly", "FunctionFieldPlace", "GaloisPresentation",
    "GaussParameter", "HypothesisFailedError", "INFINITY", "InconsistencyError",
    "InvalidArgumentError", "LocalArithError", "NewtonPolygon", "NotASquareError",
    "PadicNumber", "PadicPolynomial", "PiecewiseLinear", "PrecisionLossError",
    "ProductFormulaReport", "RamificationReport", "RationalPlace", "ResourceLimitError",
    "SumFormulaReport", "TameExtensionDescriptor", "TruncatedSeries", "UpperNumbering",
    "all_subgroups", "bernoulli", "classify_tame", "count_tame_extensions", "cyclotomic",
    "cyclotomic_group", "cyclotomic_reduction_kernel", "different_discriminant",
    "discriminant", "eisenstein_invariants", "eisenstein_test", "errors", "expansion",
    "extensions", "factor_monic", "ff_valuation", "finitefield", "galois_census",
    "gauss_valuation", "hensel_lift_factors", "herbrand_functions", "is_square",
    "lower_filtration", "monic_irreducibles", "newton_lift", "newton_polygon",
    "normalized_absolute_value", "numtheory", "orbit_count_oracle", "padic",
    "phi_via_infimum", "polynomials", "power_sum", "power_sum_faulhaber",
    "primitive_rescale", "product_formula_report", "pth_power_on_units",
    "quotient_filtration", "ramification", "refine_factorization", "resultant",
    "resultant_mn", "root_valuations", "slope_factorization", "splitting_degree_of_unity",
    "sqrt", "square_class_basis", "staudt_clausen", "subgroup_filtration",
    "sum_formula_check", "sylvester_matrix", "teichmuller", "unit_filtration_level",
    "unit_group_structure", "upper_numbering", "valuations", "vp_rational",
    "weak_approximation", "weierstrass_prepare",
]

SUBMODULES = [
    "errors", "extensions", "finitefield", "numtheory", "padic", "polynomials",
    "ramification", "valuations",
]

DEFINING = ["bernoulli", *SUBMODULES]


def run_python(*args, **kwargs):
    """A fresh interpreter that imports localarith from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, timeout=60, text=True, **kwargs
    )


def test_import_does_not_load_numpy():
    # localarith has no runtime dependencies; keep numpy from returning via an import
    run_python("-c", "import localarith, sys; assert 'numpy' not in sys.modules")


def test_public_names_are_pinned():
    assert localarith.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(localarith))


def test_star_import_binds_every_public_object():
    namespace = {}
    exec("from localarith import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(localarith, name) for name in PUBLIC)


def test_submodule_names_are_modules():
    for name in SUBMODULES:
        module = getattr(localarith, name)
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == f"localarith.{name}"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        localarith.no_such_name


# bernoulli names a submodule and a function; whichever way the submodule is
# imported, the package attribute must stay the function
@pytest.mark.parametrize(
    "statement",
    [
        "import localarith.cli",
        "import localarith.bernoulli",
        "from localarith.bernoulli import staudt_clausen",
    ],
)
def test_bernoulli_stays_the_function(statement):
    run_python("-c", f"{statement}\nimport localarith\nassert localarith.bernoulli(12).denominator == 2730")


# resolving one module's names before any other catches import cycles that a
# different first module would hide
@pytest.mark.parametrize("module", DEFINING)
def test_names_resolve_with_their_module_loaded_first(module):
    first = [
        name
        for name in PUBLIC
        if name == module or getattr(getattr(localarith, name), "__module__", None) == f"localarith.{module}"
    ]
    assert first
    run_python(
        "-c",
        "import sys, localarith as la\n"
        "for name in sys.argv[1:] + la.__all__:\n"
        "    getattr(la, name)\n"
        "assert callable(la.bernoulli)",
        *first,
    )


def test_vp_loads_only_what_it_needs():
    proc = run_python("-X", "importtime", "-m", "localarith.cli", "vp", "-p", "2", "12", capture_output=True)
    assert proc.stdout == "2\n"
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "localarith.valuations" in loaded
    for heavy in ("ramification", "extensions", "polynomials", "padic", "finitefield"):
        assert f"localarith.{heavy}" not in loaded


def test_unit_group_structure_does_not_load_padic():
    # the Teichmuller generator is one modular power, not a p-adic lift
    run_python(
        "-c",
        "import sys, localarith as la\n"
        "assert la.unit_group_structure(5, 3).generators == (57, 6)\n"
        "assert 'localarith.padic' not in sys.modules",
    )


def test_failing_given_test_reports_its_example(tmp_path):
    # warnings are errors under this configuration; the one hypothesis raises
    # while it reports a failure must not turn the report into INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # only hypothesis's plugin is loaded, which keeps the run short
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "_hypothesis_pytestplugin",
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
