import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import (
    InvalidArgumentError,
    PadicNumber,
    bernoulli,
    count_tame_extensions,
    cyclotomic,
    cyclotomic_group,
    expansion,
    power_sum,
    power_sum_faulhaber,
    teichmuller,
)
from localarith.numtheory import (
    INFINITY,
    _inverse_mod_prime_power,
    _least_nonresidue,
    _sqrt_mod_prime,
    int_valuation,
    is_prime,
)

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
