import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import (
    InvalidArgumentError,
    PadicNumber,
    bernoulli,
    classify_tame,
    count_tame_extensions,
    cyclotomic,
    cyclotomic_group,
    eisenstein_test,
    expansion,
    hensel_lift_factors,
    is_square,
    newton_polygon,
    power_sum,
    power_sum_faulhaber,
    refine_factorization,
    root_valuations,
    slope_factorization,
    sqrt,
    teichmuller,
    weierstrass_prepare,
)
from localarith.extensions import (
    galois_census,
    orbit_count_oracle,
    splitting_degree_of_unity,
    unit_group_structure,
)
from localarith.finitefield import FiniteField, monic_irreducibles
from localarith.numtheory import (
    INFINITY,
    _inverse_mod_prime_power,
    _least_nonresidue,
    _sqrt_mod_prime,
    int_valuation,
    is_prime,
)
from localarith.polynomials import PadicPolynomial, primitive_rescale, resultant_mn, sylvester_matrix
from localarith.ramification import (
    FilteredGroup,
    PiecewiseLinear,
    all_subgroups,
    cyclotomic_reduction_kernel,
    different_discriminant,
    herbrand_functions,
    lower_filtration,
    phi_via_infimum,
    quotient_filtration,
    subgroup_filtration,
    upper_numbering,
)
from localarith.valuations import FunctionFieldPlace, ff_valuation, gauss_valuation, product_formula_report

ODD_PRIMES_BELOW_300 = [p for p in range(3, 300) if is_prime(p)]


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 41, 10007, 2**61 - 1]),
    M=st.integers(1, 700),
    u=st.integers(1, 10**400),
)
def test_inverse_mod_prime_power(p, M, u):
    if u % p == 0:
        u += 1
    x = _inverse_mod_prime_power(u, p, M)
    assert 0 <= x < p**M
    assert u * x % p**M == 1


def digit_valuation(n, p):
    """v_p(n) by stripping one p at a time: the reference for int_valuation."""
    if n == 0:
        return INFINITY
    v, n = 0, abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 41, 10007, 2**61 - 1]),
    v=st.integers(0, 700),
    m=st.integers(-(10**60), 10**60),
)
def test_int_valuation_matches_the_digit_loop(p, v, m):
    n = m * p**v
    assert int_valuation(n, p) == digit_valuation(n, p)
    assert int_valuation(m, p) == digit_valuation(m, p)


def test_is_prime_against_a_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(-5, n)] == [False] * 5 + sieve


def test_inverse_of_a_multiple_of_p_raises():
    with pytest.raises(ValueError):
        _inverse_mod_prime_power(3 * 7, 7, 10)


def test_tonelli_shanks_against_brute_force():
    for p in ODD_PRIMES_BELOW_300:
        least = {}
        for r in range(1, p):
            least.setdefault(r * r % p, r)
        for a, r in least.items():
            root = _sqrt_mod_prime(a + p * 12345, p)
            assert min(root, p - root) == r
        non_residues = sorted(set(range(1, p)) - set(least))
        assert _least_nonresidue(p) == non_residues[0]
        with pytest.raises(InvalidArgumentError):
            _sqrt_mod_prime(non_residues[-1], p)


# integer arguments that are counts, exponents or residues: floats and bools
# never enter, and none of these raises a bare TypeError or returns a value
@pytest.mark.parametrize(
    "call",
    [
        lambda: bernoulli(True),
        lambda: bernoulli(12.0),
        lambda: power_sum(2.0, 3),
        lambda: power_sum(2, 3.0),
        lambda: power_sum(-1, 3),
        lambda: power_sum_faulhaber(2.0, 3),
        lambda: power_sum_faulhaber(-1, 3),
        lambda: expansion(PadicNumber.from_rational(5, 7, 8), 2.5),
        lambda: expansion(PadicNumber.from_rational(5, 7, 8), True),
        lambda: cyclotomic_group(3, 2.0),
        lambda: cyclotomic(3, 2.0),
        lambda: count_tame_extensions(2, 3.0, 2),
        lambda: count_tame_extensions(2, 3, 2.0),
        lambda: count_tame_extensions(2.0, 3, 2),
        lambda: teichmuller(5, True, 4),
        lambda: teichmuller(5, 2.0, 4),
    ],
)
def test_integer_arguments_reject_floats_and_bools(call):
    with pytest.raises(InvalidArgumentError):
        call()


# floats and bools that used to reach a result: a float valuation, 2^55 for
# |0.1|_2, or True taken as 1
@pytest.mark.parametrize(
    "call",
    [
        lambda: product_formula_report(0.1),
        lambda: different_discriminant(cyclotomic_group(3, 2), 1.5),
        lambda: different_discriminant(cyclotomic_group(3, 2), True),
        lambda: PiecewiseLinear.from_data([0.5, 1], [0, 1], 1),
        lambda: PiecewiseLinear.from_data([0, 1], [0, 1], 0.5),
        lambda: herbrand_functions(cyclotomic_group(3, 2))[0].evaluate(0.5),
        lambda: phi_via_infimum(cyclotomic_group(3, 2), 0.5),
        lambda: cyclotomic_group(3, 2).subgroup_at(0.5),
        lambda: cyclotomic_group(3, 2).subgroup(0.5),
        lambda: cyclotomic_group(3, 2).subgroup(True),
        lambda: upper_numbering(cyclotomic_group(3, 2)).subgroup_at(0.5),
        lambda: gauss_valuation(0, [0.5, 1]),
        lambda: galois_census(4, 3, 1.0),
        lambda: cyclotomic_reduction_kernel(3, 2, -1),
        lambda: resultant_mn([1, 1], [1, 1], True, 1),
    ],
)
def test_exact_arguments_reject_floats_and_bools(call):
    with pytest.raises(InvalidArgumentError):
        call()


def test_an_infinite_coefficient_valuation_still_enters():
    assert gauss_valuation(0, [INFINITY, 1]) == (1, frozenset({1}))


# arguments that used to fail with a bare TypeError, ZeroDivisionError or
# AttributeError, to pass unchecked, or to be reported as something else
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: splitting_degree_of_unity(4, 3.0), "not an integer"),
        (lambda: orbit_count_oracle(3.0, 2), "not an integer"),
        (lambda: monic_irreducibles(FiniteField(2), 2.0), "not an integer"),
        (lambda: sylvester_matrix([1, 1], [1, 1], 1.0, 1), "not an integer"),
        (lambda: galois_census(4, 0, 1), "must be positive"),
        (lambda: bernoulli(2, table=5), "not a BernoulliTable"),
        (lambda: power_sum_faulhaber(2, 3, table=5), "not a BernoulliTable"),
        (lambda: cyclotomic_reduction_kernel(4, 2, 1), "not a prime"),
        (lambda: FunctionFieldPlace.infinite(6), "not a prime power"),
        (
            lambda: primitive_rescale(
                PadicPolynomial(3, [2, 3, 1]), PadicPolynomial(5, [1, 1]), PadicPolynomial(5, [2, 1])
            ),
            "same Q_p",
        ),
        (lambda: unit_group_structure(3, 1.5), "not an integer"),
        # entry points that read a library object's attributes
        (lambda: sqrt(4), "expected a PadicNumber"),
        (lambda: is_square(4), "expected a PadicNumber"),
        (lambda: expansion(5, 2), "expected a PadicNumber"),
        (lambda: newton_polygon([1, 2]), "expected a PadicPolynomial"),
        (lambda: root_valuations([1, 2]), "expected a PadicPolynomial"),
        (lambda: slope_factorization([1, 2], 8), "expected a PadicPolynomial"),
        (lambda: eisenstein_test([5, 1]), "expected a PadicPolynomial"),
        (lambda: primitive_rescale([1], [1], [1]), "expected a PadicPolynomial"),
        (lambda: hensel_lift_factors([1, 0, 1], [1, 1], [1, 1], 0, 8), "expected a PadicPolynomial"),
        (lambda: refine_factorization([1, 0, 1], [1, 1], [1, 1], 8), "expected a PadicPolynomial"),
        (lambda: weierstrass_prepare([1, 2], 8), "expected a TruncatedSeries"),
        (lambda: different_discriminant(5), "expected a FilteredGroup"),
        (lambda: herbrand_functions([1]), "expected a FilteredGroup"),
        (lambda: upper_numbering([1]), "expected a FilteredGroup"),
        (lambda: lower_filtration([1]), "expected a FilteredGroup"),
        (lambda: all_subgroups([1]), "expected a FilteredGroup"),
        (lambda: phi_via_infimum([1], 1), "expected a FilteredGroup"),
        (lambda: subgroup_filtration([1], {0}), "expected a FilteredGroup"),
        (lambda: classify_tame((2, 3, 2, 0)), "expected a TameExtensionDescriptor"),
        (lambda: ff_valuation(None, 1), "expected a FunctionFieldPlace"),
        # a table, its rows, the depths or an element set that cannot be iterated
        (lambda: FilteredGroup(5, 0, [INFINITY]), "table rows and depths must be sequences"),
        (lambda: FilteredGroup([5], 0, [INFINITY]), "table rows and depths must be sequences"),
        (lambda: FilteredGroup([[0, 1], [1, 0]], 0, None), "table rows and depths must be sequences"),
        (lambda: subgroup_filtration(cyclotomic_group(3, 2), None), "elements must be integer indices"),
        (lambda: quotient_filtration(cyclotomic_group(3, 2), 5), "elements must be integer indices"),
    ],
)
def test_bad_arguments_raise_invalid_argument(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()
