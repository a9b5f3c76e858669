import math
import time
from fractions import Fraction

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
    newton_lift,
    newton_polygon,
    power_sum,
    power_sum_faulhaber,
    pth_power_on_units,
    refine_factorization,
    root_valuations,
    slope_factorization,
    sqrt,
    square_class_basis,
    staudt_clausen,
    teichmuller,
    unit_filtration_level,
    weierstrass_prepare,
)
from localarith import numtheory
from localarith.errors import ResourceLimitError
from localarith.extensions import (
    GaloisPresentation,
    galois_census,
    orbit_count_oracle,
    splitting_degree_of_unity,
    unit_group_structure,
)
from localarith.finitefield import FiniteField, FqPoly, monic_irreducibles, monic_polys
from localarith.formats import MAX_DEGREE, parse_polynomial, polynomial_from_json
from localarith.numtheory import (
    INFINITY,
    _halvings,
    _inverse_mod_prime_power,
    _least_nonresidue,
    _sqrt_mod_prime,
    crt,
    euler_phi,
    factorint,
    int_valuation,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    prime_power_decomposition,
    rational_valuation,
    require_prime,
)
from localarith.padic import DigitExpansion
from localarith.polynomials import (
    NewtonPolygon,
    PadicPolynomial,
    TruncatedSeries,
    primitive_rescale,
    resultant_mn,
    sylvester_matrix,
)
from localarith.ramification import (
    FilteredGroup,
    PiecewiseLinear,
    UpperNumbering,
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
from localarith.valuations import (
    FunctionFieldPlace,
    RationalPlace,
    ff_valuation,
    gauss_valuation,
    normalized_absolute_value,
    product_formula_report,
    vp_rational,
)

from conftest import deadline

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


@pytest.mark.parametrize("p", [2, 3, 41])
@pytest.mark.parametrize("M", [1, 2, 5, 64, 129])
def test_inverse_mod_prime_power_on_a_shared_ladder(p, M):
    ladder = [p**k for k in _halvings(M, 1)]
    for u in range(1, 6 * p, 5):
        if u % p:
            assert _inverse_mod_prime_power(u, p, M, ladder) == _inverse_mod_prime_power(u, p, M)


# the hand-written schedules that _halvings replaced


def inverse_steps(M):
    """The exponents of _inverse_mod_prime_power's doubling steps."""
    steps = []
    while M > 1:
        steps.append(M)
        M = (M + 1) // 2
    return steps[::-1]


def newton_exponents(t, target, v_fa):
    """The moduli exponents of padic._newton's rounds, v(f(a0)) = v_fa."""
    e, k, exponents = v_fa - 2 * t, target - t, []
    while k > e:
        exponents.append(2 * t + k)
        k = (k + 1) // 2
    return exponents[::-1]


def guaranteed_defects(beta, w0, top):
    """The factor lift's measured loop run on the least defect each round
    guarantees: w <- min(2(w - beta), top) until w >= top."""
    w, levels = w0, []
    while w < top:
        w = min(2 * (w - beta), top)
        levels.append(w)
    return levels


@settings(max_examples=500, deadline=None)
@given(
    shift=st.integers(0, 40),
    excess=st.integers(1, 300),
    top=st.integers(1, 5000),
)
def test_halvings_match_the_loops_they_replace(shift, excess, top):
    floor = 2 * shift + excess
    levels = _halvings(top, floor, shift)
    assert levels == sorted(set(levels)) and all(k > floor for k in levels)
    # each level is reached from the one below it, the first from floor
    assert all(k <= 2 * (w - shift) for w, k in zip([floor, *levels], levels))
    assert levels[-1:] == ([top] if top > floor else [])
    assert _halvings(top, INFINITY, shift) == []
    if shift == 0:
        assert _halvings(top, 1) == inverse_steps(top)
    # padic._newton: t = shift, target = top - t, v(f(a0)) = floor
    assert levels == newton_exponents(shift, top - shift, floor)
    # the measured factor lift, on the least defect each round guarantees:
    # as many rounds, each reaching at least the schedule's level
    measured = guaranteed_defects(shift, floor, top)
    assert len(measured) == len(levels)
    assert all(m >= k for m, k in zip(measured, levels))


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


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441 (Jaeschke 1993)


def twelve_base_is_prime(n):
    """is_prime before base 41 joined: Miller-Rabin on the 12 prime bases up to 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def test_is_prime_rejects_the_twelve_base_pseudoprime():
    assert PSI_12 == 399165290221 * 798330580441
    assert twelve_base_is_prime(PSI_12) and not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_is_prime_agrees_with_twelve_bases_below_10_5():
    assert all(is_prime(n) == twelve_base_is_prime(n) for n in range(10**5))


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233),
# each with a prime factor
PSI_FACTORS = [
    (2047, 23),
    (1373653, 829),
    (25326001, 2251),
    (3215031751, 151),
    (2152302898747, 6763),
    (3474749660383, 1303),
    (341550071728321, 10670053),
    (341550071728321, 10670053),
    (3825123056546413051, 149491),
    (3825123056546413051, 149491),
    (3825123056546413051, 149491),
    (PSI_12, 399165290221),
    (3317044064679887385961981, 1287836182261),
]
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any((x := x * x % n) == n - 1 for _ in range(s - 1))


def thirteen_base_is_prime(n):
    """is_prime before it stopped at psi_k: all 13 prime bases up to 41 on every n."""
    if n < 2 or any(n % p == 0 for p in BASES):
        return n in BASES
    return n < 43 * 43 or all(strong_probable_prime(n, a) for a in BASES)


def test_the_psi_table_is_the_one_is_prime_stops_by():
    assert numtheory._PSI == tuple(psi for psi, _ in PSI_FACTORS)
    assert numtheory._SMALL_PRIMES == BASES
    for k, (psi, factor) in enumerate(PSI_FACTORS, 1):
        assert 1 < factor < psi and psi % factor == 0
        assert all(strong_probable_prime(psi, a) for a in BASES[:k])
        # a later base rejects each psi_k but psi_13, which passes all 13 and
        # is rejected by the strong Lucas test that follows them
        assert not is_prime(psi)


def test_is_prime_agrees_with_thirteen_bases_below_2_10_5():
    assert all(is_prime(n) == thirteen_base_is_prime(n) for n in range(2 * 10**5))


def test_is_prime_agrees_with_sympy_near_2_64_and_10_24(rng):
    odd = [base + 2 * rng.randrange(10**9) + 1 for base in (2**64, 10**24) for _ in range(300)]
    answers = [is_prime(n) for n in odd]
    assert answers == [thirteen_base_is_prime(n) for n in odd]
    assert 0 < sum(answers) < len(odd)
    sympy = pytest.importorskip("sympy")
    assert answers == [sympy.isprime(n) for n in odd]
    assert not any(sympy.isprime(psi) for psi, _ in PSI_FACTORS)


# the strong Lucas pseudoprimes below 10^5 with Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
]


def test_the_strong_lucas_test_fails_only_its_pseudoprimes_below_10_5():
    odd = range(43, 10**5, 2)
    passed = [n for n in odd if numtheory._strong_lucas(n)]
    assert passed == sorted([n for n in odd if is_prime(n)] + STRONG_LUCAS_PSEUDOPRIMES)
    with deadline(2):  # a square has no D with (D/n) = -1: the search must not start
        assert not any(numtheory._strong_lucas(n * n) for n in (43, 1009, 2**61 - 1))


def test_is_prime_agrees_with_sympy_past_psi_13(rng):
    odd = [base + 2 * rng.randrange(10**9) + 1 for base in (10**25, 2**80) for _ in range(300)]
    mersenne = [2**89 - 1, 2**107 - 1, 2**127 - 1]  # primes
    answers = [is_prime(n) for n in odd]
    assert 0 < sum(answers) < len(odd)
    assert all(is_prime(n) for n in mersenne)
    assert not is_prime(mersenne[0] * mersenne[1]) and not is_prime(mersenne[2] ** 2)
    sympy = pytest.importorskip("sympy")
    assert answers == [sympy.isprime(n) for n in odd]


def order_loop_primitive_root(p):
    """least_primitive_root before it read p - 1: the least g of order p - 1."""
    return 1 if p == 2 else next(g for g in range(2, p) if multiplicative_order(g, p) == p - 1)


def test_least_primitive_root_agrees_with_the_order_loop():
    for p in range(10**4):
        if is_prime(p):
            assert least_primitive_root(p) == order_loop_primitive_root(p)
    with deadline(5):  # the order loop factors p itself: a prime is not trial-divided
        assert least_primitive_root(2**61 - 1) == order_loop_primitive_root(2**61 - 1) == 37


def test_factorint_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")
    near_2_61 = [n for n in range(2**61 - 200, 2**61 + 200) if is_prime(n)]
    numbers = [rng.randrange(1, 10**12) for _ in range(300)]
    numbers += [rng.randrange(1, 10**4) * q for q in near_2_61 for _ in range(3)]
    numbers += [2**100, 3**60 * 7**5, -(6**40), 2**61 - 1]
    assert len(near_2_61) > 5
    with deadline(10):  # a cofactor near 2^61 is prime, so it is not trial-divided
        assert [factorint(n) for n in numbers] == [sympy.factorint(abs(n)) for n in numbers]


def test_factorint_believes_is_prime_at_every_size(monkeypatch):
    # is_prime fooled into calling 91 = 7 * 13, or a composite past psi_13,
    # prime stands for a composite that passes BPSW: factoring believes it
    # there as every caller that asks is_prime does, so it is not divided
    c = (2**61 - 1) * (2**31 - 1)
    assert c > numtheory._PSI[-1]
    monkeypatch.setattr(numtheory, "is_prime", lambda n: n in (91, c) or is_prime(n))
    with deadline(5):  # trial division of c would run to 2^31 - 1
        assert factorint(91) == {91: 1} and factorint(2 * 91) == {2: 1, 91: 1}
        assert factorint(c) == {c: 1} and factorint(3 * c) == {3: 1, c: 1}


def test_prime_power_decomposition_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")

    def decomposition(q):
        try:
            return prime_power_decomposition(q)
        except InvalidArgumentError as exc:
            return str(exc)

    qs = range(-2, 2 * 10**4)
    factors = [sympy.factorint(q) if q >= 2 else {} for q in qs]
    assert [decomposition(q) for q in qs] == [
        next(iter(f.items())) if len(f) == 1 else f"{q} is not a prime power"
        for q, f in zip(qs, factors)
    ]
    near = [
        next(n for n in range(start, start + 10**4) if is_prime(n))
        for start in (2**61 - 10**4, 2**61, 2**89 - 10**4, 2**89, rng.randrange(2**60, 2**90))
    ]
    assert sympy.isprime(near[-1])
    with deadline(5):  # none of these is factored
        for p in near:
            for m in (1, 2, 3, rng.randint(4, 9)):
                assert prime_power_decomposition(p**m) == (p, m)
                for bad in (p**m * 2, p**m * p + 1, p**m * (p + 2)):
                    with pytest.raises(InvalidArgumentError, match="is not a prime power"):
                        prime_power_decomposition(bad)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 64])
def test_integer_root_is_the_floor(rng, m):
    for n in [*range(1, 300), *(rng.randrange(1, 10 ** rng.randint(2, 80)) for _ in range(300))]:
        r = numtheory._integer_root(n, m)
        assert r**m <= n < (r + 1) ** m


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: FiniteField(2**61 - 1).multiplicative_generator(), 37),
        (lambda: splitting_degree_of_unity(2**61 - 1, 7), 1),  # 2^61 - 1 = 1 mod 7
        (lambda: count_tame_extensions(2**61 - 1, 3, 1), 3),
        (lambda: unit_group_structure(2**61 - 1, 2).factor_orders, (2**61 - 2, 2**61 - 1)),
    ],
)
def test_a_large_prime_is_not_trial_divided(call, expected):
    # trial division of 2^61 - 1 would take about 7.6e8 divisions
    with deadline(5):
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 1


def test_least_primitive_root_against_brute_force():
    # (Z/pZ)^* is cyclic, so a least generator exists, which
    # least_primitive_root no longer checks
    for p in ODD_PRIMES_BELOW_300:
        least = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        assert least_primitive_root(p) == least
    assert least_primitive_root(2) == 1


def test_lagrange_for_the_orbit_count():
    # ord_t(q) divides phi(t) (Lagrange), which count_tame_extensions no longer
    # checks; both against brute force
    for t in range(2, 300):
        phi = sum(1 for a in range(1, t) if math.gcd(a, t) == 1)
        assert euler_phi(t) == phi
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27):
            if math.gcd(q, t) == 1:
                order = next(k for k in range(1, t) if pow(q, k, t) == 1)
                assert multiplicative_order(q, t) == order and phi % order == 0


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
        lambda: PadicNumber.zero_at(3, 1.5),
        lambda: PadicNumber.zero_at(3, True),
        lambda: GaloisPresentation(2.0, 3, 2, 0),
        lambda: GaloisPresentation(2, 3.0, 2, 0),
        lambda: GaloisPresentation(2, 3, True, 0),
        lambda: GaloisPresentation(2, 3, 2, 0.0),
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
        lambda: newton_lift([-2, 0, 1.0], 3, p=7),
        lambda: newton_lift([True, 0, 1], 3, p=7),
        lambda: PiecewiseLinear((-1,), (-1,), 0.5),
        lambda: PiecewiseLinear((-1, 0.5), (-1, 0), 1),
        lambda: rational_valuation(0.5, 2),
        lambda: rational_valuation(True, 2),
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
        (lambda: GaloisPresentation(2, 0, 2, 0), "e and f must be positive"),
        (lambda: GaloisPresentation(2, 3, 0, 0), "e and f must be positive"),
        (lambda: newton_lift(5, 3, p=7), "coefficient list"),
        (lambda: newton_lift("T^2", 3, p=7), "coefficient list"),
        (lambda: newton_lift(PadicPolynomial(5, [-2, 0, 1]), 3, p=7), "prime disagrees"),
        (
            lambda: newton_lift(PadicPolynomial(5, [-2, 0, 1]), PadicNumber.from_rational(7, 3, 4)),
            "prime disagrees",
        ),
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
        # coefficient sequences that are not sequences, a polynomial among them
        (lambda: PadicPolynomial(5, 5), "int is not a coefficient sequence"),
        (
            lambda: PadicPolynomial(5, PadicPolynomial(5, [1, 1])),
            "PadicPolynomial is not a coefficient sequence",
        ),
        (lambda: TruncatedSeries(5, 5, 3), "int is not a coefficient sequence"),
        (lambda: FqPoly(FiniteField(5), 5), "int is not a coefficient sequence"),
        (lambda: gauss_valuation(0, 5), "coefficient valuations must be a sequence"),
        (lambda: sylvester_matrix(4, [1, 1], 0, 1), "int is not a coefficient sequence"),
        # an unhashable field size, checked before the field cache hashes it, a
        # Bernoulli index that cannot be compared, and a place that is not one
        (lambda: FiniteField([3]), "not an integer"),
        (lambda: staudt_clausen([2]), "not an integer"),
        (lambda: normalized_absolute_value(9, 3), "expected a RationalPlace"),
        # coefficients above the degree bounds, which used to be dropped
        (lambda: resultant_mn([1, 2, 3], [1, 1], 1, 1), "above its degree bound"),
        (lambda: resultant_mn([1, 1], [1, 1], 0, 1), "above its degree bound"),
        (lambda: sylvester_matrix([1, 1], [1, 2, 3], 1, 1), "above its degree bound"),
        # unchecked data that used to be stored, or to fail with a bare
        # IndexError, ZeroDivisionError, RecursionError or ValueError
        (lambda: PiecewiseLinear.from_data([-1, 0, 1], [-1, 0], 1), "non-empty and equally long"),
        (lambda: PiecewiseLinear.from_data([], [], 1), "non-empty and equally long"),
        (lambda: PiecewiseLinear.from_data([0, -1], [0, 1], 1), "strictly increase"),
        (lambda: PiecewiseLinear((-1, -1), (0, 1), 1), "strictly increase"),
        (lambda: PiecewiseLinear(5, (0,), 1), "must be sequences"),
        (lambda: parse_polynomial("T^2+1/0"), "cannot parse rational"),
        (lambda: TruncatedSeries(1, [1, 0, 1], 0), "1 is not a prime"),
        (lambda: TruncatedSeries(0, [1, 0, 1], 0), "0 is not a prime"),
        (lambda: slope_factorization(PadicPolynomial(11, [2]), 8), "degree >= 1"),
        # checks that no other test reached
        (lambda: factorint(0), "cannot factor 0"),
        (lambda: multiplicative_order(3, 12), "3 is not invertible modulo 12"),
        (lambda: crt([1, 2], [4, 6]), "pairwise coprime"),
        (lambda: PadicPolynomial(5, [1, 2]) + PadicPolynomial(3, [1, 2]), "same prime"),
        (lambda: resultant_mn([1, 1], [1, 1], -1, 2), "must be non-negative"),
        (lambda: sylvester_matrix([1, 1], [1, 1], 1, -1), "must be non-negative"),
        (lambda: cyclotomic(5, 0), "n must be at least 1"),
        (
            lambda: primitive_rescale(
                PadicPolynomial(5, [Fraction(1, 5), 1]), PadicPolynomial(5, [Fraction(1, 5), 1]),
                PadicPolynomial(5, [1]),
            ),
            "integral coefficients",
        ),
        (lambda: monic_polys(FiniteField(5), -1), "must be non-negative"),
        (lambda: polynomial_from_json({"degree": 2, "coefficients": ["1"]}), "degree field"),
        # a term that is only a newline, which $ in the term pattern lets
        # match: without the check "1 +\n" would read as 2
        (lambda: parse_polynomial("1 +\n"), r"cannot parse polynomial term '\\n'"),
        (lambda: parse_polynomial("1 -\n"), r"cannot parse polynomial term '-\\n'"),
        (lambda: phi_via_infimum(cyclotomic_group(3, 2), -2), "u must be >= -1"),
        (lambda: FilteredGroup([[0, 1], [1, 0]], 0, [INFINITY]), "depth list length"),
        # a unital table whose greedy S needs 3 > log2(4) elements: 1 and 2
        # reach only {0, 1, 2}, which no group table allows
        (
            lambda: FilteredGroup(
                [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 3], [3, 3, 3, 0]], 0, [INFINITY, 0, 0, 0]
            ),
            "not associative",
        ),
        (lambda: unit_filtration_level(5, PadicNumber.from_rational(3, 1, 4)), "prime mismatch"),
        (lambda: unit_filtration_level(5, PadicNumber.from_rational(5, 5, 4)), "must be a unit"),
        (lambda: unit_filtration_level(5, PadicNumber.zero_at(5, 3)), "must be a unit"),
        # a residue modulo p^k for a negative or non-integer k, which used to
        # come back as a float
        (lambda: PadicNumber.from_rational(5, Fraction(5, 3), 4).residue(-1), "k must be non-negative"),
        (lambda: PadicNumber.from_rational(5, Fraction(5, 3), 4).residue(2.5), "2.5 is not an integer"),
        # result types whose methods read fields their constructors used to store unchecked
        (lambda: NewtonPolygon(5, None).is_pure, "vertices and sides must be sequences of pairs"),
        (lambda: DigitExpansion(5, 0, 7).value(), "digits must be a sequence"),
        (lambda: UpperNumbering(1, 2, 3, 4).subgroup_at(1), "jumps must be a sequence"),
        (lambda: DigitExpansion(5.0, 0, (1,)), "5.0 is not a prime number"),
        (lambda: DigitExpansion(5, 0, (7,)), r"digits must be integers in \[0, 5\)"),
    ],
)
def test_bad_arguments_raise_invalid_argument(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


# Every public entry point that takes a prime, called with valid other
# arguments.  is_prime decides below 43^2 by trial division alone, so 1849 =
# 43^2 is the first composite that rule could let through, and 2021 = 43 * 47.
# Some never return on a composite they take for a prime (teichmuller's
# Newton lift), hence the deadline.
PRIME_ENTRY_POINTS = {
    "require_prime": require_prime,
    "PadicNumber": lambda p: PadicNumber(p, 0, 1, 4),
    "PadicNumber.zero": PadicNumber.zero,
    "PadicNumber.zero_at": lambda p: PadicNumber.zero_at(p, 3),
    "PadicNumber.from_rational": lambda p: PadicNumber.from_rational(p, Fraction(2, 3), 4),
    "PadicPolynomial": lambda p: PadicPolynomial(p, [1, 2]),
    "TruncatedSeries": lambda p: TruncatedSeries(p, [1, 2], 3),
    "vp_rational": lambda p: vp_rational(p, 12),
    "RationalPlace": RationalPlace,
    "RationalPlace.finite": RationalPlace.finite,
    "teichmuller": lambda p: teichmuller(p, 2, 4),
    "newton_lift": lambda p: newton_lift([-2, 0, 1], 3, p=p, precision=4),
    "cyclotomic": lambda p: cyclotomic(p, 1),
    "cyclotomic_group": lambda p: cyclotomic_group(p, 1),
    "cyclotomic_reduction_kernel": lambda p: cyclotomic_reduction_kernel(p, 1, 0),
    "unit_group_structure": lambda p: unit_group_structure(p, 2),
    "least_primitive_root": least_primitive_root,
    "square_class_basis": square_class_basis,
    "unit_filtration_level": lambda p: unit_filtration_level(p, 1, 4),
    "pth_power_on_units": lambda p: pth_power_on_units(p, 2, "forward", 1, 4),
}


@pytest.mark.parametrize("not_prime", [1849, 2021, 1, 0, -7, True, 7.0])
@pytest.mark.parametrize("name", PRIME_ENTRY_POINTS)
def test_entry_points_reject_a_number_that_is_not_prime(name, not_prime):
    with deadline(5), pytest.raises(InvalidArgumentError) as caught:
        PRIME_ENTRY_POINTS[name](not_prime)
    assert str(caught.value) == f"{not_prime!r} is not a prime number"


def test_a_degree_past_the_bound_is_rejected_before_allocation():
    with pytest.raises(ResourceLimitError, match="exceeds the bound"):
        parse_polynomial(f"1 + T^{MAX_DEGREE + 1}")
    # past Python's 4300-digit limit on int-from-str, so it must not be converted
    with pytest.raises(ResourceLimitError, match="exceeds the bound"):
        parse_polynomial("T^" + "9" * 5000)
    assert parse_polynomial("T^" + "0" * 5000 + "2") == [0, 0, 1]
    assert len(parse_polynomial(f"1 + T^{MAX_DEGREE}")) == MAX_DEGREE + 1
