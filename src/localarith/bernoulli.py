"""Bernoulli numbers, power sums and the von Staudt-Clausen decomposition.

B_k is defined by T/(e^T - 1) = sum B_k T^k / k!.  The even ones come from
the tangent numbers T_n, computed in one sweep of O(k^2) integer steps:
B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) (Brent and Harvey, "Fast
computation of Bernoulli, tangent and secant numbers", 2013).  Indices up
to MAX_BERNOULLI_INDEX are computed; a larger one is rejected before any
table is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidArgumentError, ResourceLimitError
from .numtheory import _count, divisors, is_prime

MAX_BERNOULLI_INDEX = 3000  # B_3000 takes ~4 s on a 2-core host


def _check_index(k: int) -> None:
    if k > MAX_BERNOULLI_INDEX:
        raise ResourceLimitError(f"Bernoulli index exceeds the bound {MAX_BERNOULLI_INDEX}")


class BernoulliTable:
    """Memoized Bernoulli numbers.

    The table is append-only and meant for single-writer use; share one
    per thread or guard it externally.
    """

    def __init__(self):
        self._values = [Fraction(1), Fraction(-1, 2)]

    def value(self, k: int) -> Fraction:
        if _count(k) < 0:
            raise InvalidArgumentError("Bernoulli numbers have non-negative index")
        if k > 1 and k % 2 == 1:
            return Fraction(0)
        if len(self._values) <= k:
            _check_index(k)
            grown = min(max(k, 2 * len(self._values)), MAX_BERNOULLI_INDEX)
            self._values = _bernoulli_numbers(grown)
        return self._values[k]


def _bernoulli_numbers(k: int) -> list[Fraction]:
    """B_0, ..., B_k (and B_(k+1) = 0 for even k) from the tangent numbers
    T_1, ..., T_n, n = k // 2 (Brent and Harvey, Algorithm TangentNumbers)."""
    n = k // 2
    tangent = [0, 1] + [0] * (n - 1)  # T_j at index j
    for j in range(2, n + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    values = [Fraction(1), Fraction(-1, 2)]
    for j in range(1, n + 1):
        values += [Fraction((-1) ** (j - 1) * 2 * j * tangent[j], 4**j * (4**j - 1)), Fraction(0)]
    return values


def _table(table) -> BernoulliTable:
    if table is None:
        return BernoulliTable()
    if not isinstance(table, BernoulliTable):
        raise InvalidArgumentError(f"{table!r} is not a BernoulliTable")
    return table


def bernoulli(k: int, table: BernoulliTable | None = None) -> Fraction:
    """Exact k-th Bernoulli number; B_0 = 1, B_1 = -1/2."""
    return _table(table).value(k)


def _check_power_sum(k, n):
    if _count(k) < 0:
        raise InvalidArgumentError("the exponent k must be non-negative")
    if _count(n) < 1:
        raise InvalidArgumentError("n must be positive")


def power_sum(k: int, n: int) -> int:
    """S_k(n) = 1^k + 2^k + ... + (n-1)^k by direct summation."""
    _check_power_sum(k, n)
    return sum(j**k for j in range(1, n))


def power_sum_faulhaber(k: int, n: int, table: BernoulliTable | None = None) -> int:
    """S_k(n) evaluated through Bernoulli numbers; agrees with power_sum."""
    _check_power_sum(k, n)
    _check_index(k)  # B_k is the last term
    table = _table(table)
    acc = sum(
        comb(k, m) * table.value(m) * Fraction(n) ** (k + 1 - m) / (k + 1 - m)
        for m in range(k + 1)
    )
    if k == 0:
        acc -= 1  # the closed form counts the j = 0 term, S_k(n) does not
    return int(acc)  # an integer by Faulhaber's formula


@dataclass(frozen=True)
class StaudtClausen:
    k: int
    integer_part: int  # B_k + sum 1/l over primes with l-1 | k
    denominator: int
    primes: tuple[int, ...]


def staudt_clausen(k: int, table: BernoulliTable | None = None) -> StaudtClausen:
    """Integrality decomposition of B_k for even k > 0.

    The primes are exactly the l with l-1 dividing k; their product is
    the denominator of B_k in lowest terms, and adding sum 1/l to B_k
    leaves an integer.
    """
    if _count(k) <= 0 or k % 2 != 0:
        raise InvalidArgumentError("the decomposition applies to even k > 0")
    _check_index(k)  # before divisors(k) factors k
    primes = tuple(d + 1 for d in divisors(k) if is_prime(d + 1))
    w = bernoulli(k, table) + sum(Fraction(1, l) for l in primes)  # an integer
    denominator = 1
    for l in primes:
        denominator *= l
    return StaudtClausen(k, int(w), denominator, primes)
