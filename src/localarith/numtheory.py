"""Elementary integer number theory helpers (desk scale, exact).

Everything here works with plain Python integers and stays exact.  Trial
division stops at a cofactor that is_prime calls prime, trusting BPSW past
psi_13 as the p-adic entry points do; it suits the moderate sizes this
package deals in, not cryptographic ones.  Prime powers come from roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidArgumentError

INFINITY = float("inf")
DEFAULT_PRECISION = 32  # relative p-adic precision, in digits, when none is given

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k of _SMALL_PRIMES (OEIS A014233)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, stopping after base k once n < psi_k.

    Exact below psi_13 = _PSI[-1] = 3317044064679887385961981 ~ 3.3e24, the
    least strong pseudoprime to all 13 bases (Jaeschke, Math. Comp. 61, 1993).
    At or above it a strong Lucas test follows the 13 bases, which makes the
    test BPSW (Baillie-Wagstaff, Math. Comp. 35, 1980): it rejects psi_13, and
    no composite passing it is known, but its answer is not a proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, d, n)
        # base a proves n composite: x is not 1 and none of x, x^2, ..., x^(2^(s-1)) is -1
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
        if n < psi:
            return True
    return _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test on an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) =
    -1, P = 1, Q = (1 - D)/4 (Baillie-Wagstaff, Math. Comp. 35, 1980).

    With n + 1 = d 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 for
    some r < s, all mod n.  U and V double by U_2k = U_k V_k and V_2k =
    V_k^2 - 2 Q^k, and step by U_(k+1) = (U_k + V_k)/2 and V_(k+1) =
    (D U_k + V_k)/2.  A square has no such D, so it is rejected first; a D
    with (D/n) = 0 shares a factor with n, and |D| < n here.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by quadratic reciprocity."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def require_prime(p) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidArgumentError(f"{p!r} is not a prime number")
    return p


def factorint(n: int) -> dict[int, int]:
    """Factor |n|; returns {prime: exponent}.  Trial division stops at a
    cofactor that is_prime calls prime, asked once 2 and 3 are out and after
    each later prime: past psi_13 that answer is BPSW's, as everywhere."""
    if n == 0:
        raise InvalidArgumentError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3):
        if n % p == 0:
            factors[p], n = _split_power(n, p)
    prime = is_prime(n)
    f = 5
    while not prime and f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                factors[p], n = _split_power(n, p)
                prime = is_prime(n)
        f += 6
    if n > 1:
        factors[n] = 1
    return factors


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n > 0."""
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorint(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^*; requires gcd(a, n) = 1."""
    if n <= 0 or math.gcd(a, n) != 1:
        raise InvalidArgumentError(f"{a} is not invertible modulo {n}")
    order = euler_phi(n)
    for p in factorint(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def least_primitive_root(p: int) -> int:
    """Smallest generator of (Z/pZ)^* for a prime p: the least g >= 1 with
    g^((p-1)/r) != 1 mod p for every prime r | p - 1.  At p = 2 there is no
    r, so it is 1, which FiniteField(2).multiplicative_generator() returns."""
    require_prime(p)
    cofactors = [(p - 1) // r for r in factorint(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in cofactors))


def crt(residues: list[int], moduli: list[int]) -> int:
    """Least non-negative solution of x = r_i (mod m_i), pairwise coprime m_i."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        if math.gcd(m, mi) != 1:
            raise InvalidArgumentError("crt moduli must be pairwise coprime")
        h = (r - x) * pow(m, -1, mi) % mi
        x += m * h
        m *= mi
    return x % m


def _least_nonresidue(p: int) -> int:
    """The least positive quadratic non-residue modulo an odd prime p.

    Increasing r are tested by the Legendre symbol (r/p) = r^((p-1)/2) mod p;
    the least non-residue is small, O(log^2 p) under GRH.
    """
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A root r of r^2 = a mod p, for an odd prime p and a square a prime to p.

    Tonelli-Shanks (Shanks 1973): write p - 1 = q 2^s with q odd; the
    candidate a^((q+1)/2) is corrected by powers of z^q, z a non-residue,
    until its error a^q lies in no smaller 2-power subgroup.  At most s
    rounds of O(s) squarings, so O(log^2 p) multiplications mod p.
    """
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return r
    m, c = s, pow(_least_nonresidue(p), q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            raise InvalidArgumentError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def _inverse_mod_prime_power(u: int, p: int, M: int, moduli=None) -> int:
    """The inverse of a unit u modulo p^M, in [0, p^M).

    Starts from the inverse modulo p and doubles its precision with the
    Newton step x <- x(2 - ux) mod p^k: if ux = 1 mod p^k then
    u x(2 - ux) = 1 mod p^2k.  The cost is a few multiplications at the
    final size, far below extended Euclid on numbers of thousands of bits.
    A caller that inverts many units modulo one p^M passes moduli, the
    list of p^k for k in _halvings(M, 1), and builds it only once.
    """
    x = pow(u % p, -1, p)
    for mod in (p**k for k in _halvings(M, 1)) if moduli is None else moduli:
        x = x * (2 - u % mod * x) % mod
    return x


def _halvings(top: int, floor, shift: int = 0) -> list[int]:
    """The Newton precision schedule top, ceil(top/2) + shift, ... above
    floor > 2 shift, bottom first: a round from level w reaches 2(w - shift),
    so each level is reached from the one below it, the first from floor
    (von zur Gathen-Gerhard, Modern Computer Algebra, 9.1)."""
    levels = []
    while top > floor:
        levels.append(top)
        top = (top + 1) // 2 + shift
    return levels[::-1]


def _residue(x, p: int, n: int, mod: int | None = None) -> int:
    """The residue in [0, p^n) of an int or Fraction x with denominator prime to p;
    a caller that reduces a list passes mod = p^n, formed once for all of it."""
    if x.denominator % p == 0:
        raise InvalidArgumentError(f"coefficient {x} is not p-integral")
    mod = p**n if mod is None else mod
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _exact(x):
    """x itself if it is an int or a Fraction; floats and bools never enter."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InvalidArgumentError(f"{x!r} is not an exact rational (int or Fraction)")
    return x


def _precision(n) -> int:
    """n itself if it is an int of at least one digit; floats and bools never enter."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidArgumentError("precision must be at least one digit")
    return n


def _instance(cls, *values) -> None:
    """Reject every value that is not a cls: entry points that read a library
    object's attributes take that object and nothing else."""
    for x in values:
        if not isinstance(x, cls):
            raise InvalidArgumentError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _sequence(xs, message: str) -> list:
    """list(xs), or InvalidArgumentError(message) if xs cannot be iterated; the
    public entry points read every sequence argument through it, and check
    its elements themselves."""
    try:
        xs = iter(xs)
    except TypeError:
        raise InvalidArgumentError(message) from None
    return list(xs)


def _count(n) -> int:
    """n itself if it is an int; floats and bools never enter."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidArgumentError(f"{n!r} is not an integer")
    return n


def int_valuation(n: int, p: int) -> int | float:
    """Exponent of p in n; n = 0 gives +infinity."""
    if n == 0:
        return INFINITY
    if n % p:
        return 0
    return _split_power(n, p)[0]


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) for n divisible by p and v = v_p(n), in O(log v) divisions.

    After one p, the p^2-part comes from the same split with base p^2,
    which leaves at most one more p: the divisors are p, p^2, p^4, ...
    up to about p^v and back down.
    """
    n //= p
    w = 0
    if n % (p * p) == 0:
        w, n = _split_power(n, p * p)
    if n % p:
        return 2 * w + 1, n
    return 2 * w + 2, n // p


def rational_valuation(x, p: int) -> int | float:
    """p-adic valuation of a Fraction or int; 0 gives +infinity."""
    if _exact(x) == 0:
        return INFINITY
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^m with p prime, or raise: r^m = q for the least m whose
    integer m-th root r is exact and prime.  q itself is never factored."""
    if q >= 2:
        for m in range(1, q.bit_length()):  # 2^m <= q
            r = _integer_root(q, m)
            if r**m == q and is_prime(r):
                return r, m
    raise InvalidArgumentError(f"{q} is not a prime power")


def _integer_root(n: int, m: int) -> int:
    """floor(n^(1/m)) for n, m >= 1, by integer Newton steps from above: x
    starts at 2^ceil(bits/m) > n^(1/m) and falls until a step would not."""
    x = 1 << -(-n.bit_length() // m)
    while (y := ((m - 1) * x + n // x ** (m - 1)) // m) < x:
        x = y
    return x

