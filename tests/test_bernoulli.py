import sys
from fractions import Fraction
from math import comb

import pytest

from localarith import (
    BernoulliTable,
    InvalidArgumentError,
    ResourceLimitError,
    bernoulli,
    power_sum,
    power_sum_faulhaber,
    staudt_clausen,
    vp_rational,
)
from localarith.bernoulli import MAX_BERNOULLI_INDEX, MAX_POWER_SUM_TERMS
from localarith.numtheory import is_prime

from conftest import deadline

BERNOULLI_MODULE = sys.modules["localarith.bernoulli"]  # localarith.bernoulli is the function

# numerators and denominators of B_2 .. B_20
REFERENCE = {
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
    18: (43867, 798),
    20: (-174611, 330),
}


def full_recurrence(n):
    """B_0, ..., B_n by sum_{j<=m} C(m+1, j) B_j = 0 over every j, odd zeros
    included: an oracle independent of BernoulliTable's tangent numbers."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(comb(m + 1, j) * values[j] for j in range(m)) / (m + 1))
    return values


class TestBernoulli:
    def test_matches_the_full_recurrence(self):
        table = BernoulliTable()
        assert [table.value(k) for k in range(200)] == full_recurrence(199)

    def test_grows_from_any_order_of_queries(self):
        expected = full_recurrence(90)
        table = BernoulliTable()
        for k in (90, 3, 88, 0, 41, 60, 1, 2):
            assert table.value(k) == expected[k] == bernoulli(k)

    def test_reference_table(self):
        table = BernoulliTable()
        for k, (num, den) in REFERENCE.items():
            assert table.value(k) == Fraction(num, den)

    def test_low_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)

    def test_odd_vanish(self):
        table = BernoulliTable()
        for k in range(3, 41, 2):
            assert table.value(k) == 0

    def test_squarefree_denominators(self):
        table = BernoulliTable()
        for k in range(2, 61, 2):
            den = table.value(k).denominator
            for p in range(2, den + 1):
                if den % (p * p) == 0:
                    raise AssertionError(f"denominator of B_{k} not squarefree")
                if p * p > den:
                    break


class TestPowerSum:
    def test_examples(self):
        assert power_sum(3, 3) == 9
        assert power_sum(7, 1) == 0
        assert power_sum(4, 5) == 1 + 16 + 81 + 256

    def test_faulhaber_agreement(self):
        # Faulhaber's sum is an integer; power_sum_faulhaber does not check it
        table = BernoulliTable()
        for k in range(0, 9):
            for n in range(1, 12):
                assert power_sum(k, n) == power_sum_faulhaber(k, n, table)

    def test_congruence_oracle(self):
        # sum of j^k over [1, p) is -1 mod p when p-1 | k, else 0
        primes = [p for p in range(2, 32) if all(p % d for d in range(2, p))]
        for p in primes:
            for k in range(2, 61, 2):
                expected = (-1) % p if k % (p - 1) == 0 else 0
                assert power_sum(k, p) % p == expected

    def test_limit_identity_at_finite_depth(self):
        table = BernoulliTable()
        for p in (2, 3, 5):
            for k in (2, 4, 6):
                b = table.value(k)
                previous = None
                for r in range(1, 5):
                    v = vp_rational(p, Fraction(power_sum(k, p**r), p**r) - b)
                    if previous is not None:
                        assert v >= previous
                    previous = v


class TestStaudtClausen:
    def test_twelve(self):
        sc = staudt_clausen(12)
        assert sc.integer_part == 1
        assert sc.primes == (2, 3, 5, 7, 13)
        assert sc.denominator == 2730

    def test_small_denominators(self):
        assert staudt_clausen(2).denominator == 6
        assert staudt_clausen(14).denominator == 6

    def test_denominator_is_bernoulli_denominator(self):
        table = BernoulliTable()
        for k in range(2, 41, 2):
            assert staudt_clausen(k, table).denominator == table.value(k).denominator

    def test_integral_up_to_100(self):
        # von Staudt-Clausen, which staudt_clausen no longer checks: B_k plus
        # 1/l over the primes l with l - 1 | k is an integer
        table = BernoulliTable()
        for k in range(2, 101, 2):
            sc = staudt_clausen(k, table)
            assert sc.primes == tuple(l for l in range(2, k + 2) if is_prime(l) and k % (l - 1) == 0)
            assert table.value(k) + sum(Fraction(1, l) for l in sc.primes) == sc.integer_part

    def test_rejects_odd_and_zero(self):
        with pytest.raises(InvalidArgumentError):
            staudt_clausen(7)
        with pytest.raises(InvalidArgumentError):
            staudt_clausen(0)


class TestIndexBound:
    @pytest.mark.parametrize("k", [MAX_BERNOULLI_INDEX + 2, 10**11, 10**30])
    def test_rejected_before_allocation(self, k, monkeypatch):
        monkeypatch.setattr(BERNOULLI_MODULE, "_bernoulli_numbers", None)
        monkeypatch.setattr(BERNOULLI_MODULE, "divisors", None)
        calls = [lambda: bernoulli(k), lambda: staudt_clausen(k), lambda: power_sum_faulhaber(k, 2)]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="exceeds the bound"):
                call()

    def test_odd_indices_past_the_bound_vanish(self):
        assert bernoulli(10**30 + 1) == 0

    def test_growth_stops_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(BERNOULLI_MODULE, "MAX_BERNOULLI_INDEX", 40)
        table = BernoulliTable()
        table.value(30)
        table.value(32)  # doubles the table, but not past the bound
        assert len(table._values) == 42
        with pytest.raises(ResourceLimitError):
            table.value(42)


class TestPowerSumBound:
    @pytest.mark.parametrize(
        "k, n",
        [(3001, 2**61 - 1), (MAX_BERNOULLI_INDEX + 1, 2), (1, MAX_POWER_SUM_TERMS + 2), (0, 10**30)],
    )
    def test_rejected_before_the_first_term(self, k, n):
        with deadline(2), pytest.raises(ResourceLimitError, match="at most 10000 terms"):
            power_sum(k, n)

    def test_sums_at_the_bounds(self):
        n = MAX_POWER_SUM_TERMS + 1
        assert power_sum(1, n) == n * (n - 1) // 2
        assert power_sum(MAX_BERNOULLI_INDEX, 3) == 1 + 2**MAX_BERNOULLI_INDEX
