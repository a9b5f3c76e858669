"""Independent arithmetic that the benchmark checks the library against.

Nothing here imports localarith.  Each check reaches its answer by a
different route from the library (plain integer arithmetic, polynomial
arithmetic over GF(p), an explicit convex-hull test, the
Akiyama-Tanigawa recurrence), so a defect in the library cannot hide
behind the same defect in its checker.

Polynomials are ascending coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# -- integers -----------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for a in SMALL_PRIMES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(n: int) -> list[int]:
    return [q for q in range(2, n) if is_prime(q)]


def prime_factors(n: int) -> dict[int, int]:
    """Trial division; meant for |n| below about 10^9."""
    n = abs(n)
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def vp(x, p: int):
    """v_p of a nonzero int or Fraction; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def agree(a, b, p: int, k) -> bool:
    """a = b modulo p^k, for rationals: v_p(a - b) >= k."""
    d = Fraction(a) - Fraction(b)
    return d == 0 or vp(d, p) >= k


# -- polynomials over Q ----------------------------------------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pprod(factors):
    out = [1]
    for f in factors:
        out = pmul(out, f)
    return out


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def from_roots(lead, roots):
    return pmul([lead], pprod([[-r, 1] for r in roots]))


def resultant_from_roots(a, roots_g, b, roots_h) -> Fraction:
    """res(g, h) = a^n b^m prod (alpha_i - beta_j), g = a prod (T - alpha_i)."""
    m, n = len(roots_g), len(roots_h)
    out = Fraction(a) ** n * Fraction(b) ** m
    for x in roots_g:
        for y in roots_h:
            out *= x - y
    return out


def discriminant_from_roots(a, roots) -> Fraction:
    """dis(g) = a^(2m-2) prod_{i<j} (alpha_i - alpha_j)^2."""
    m = len(roots)
    out = Fraction(a) ** (2 * m - 2)
    for i in range(m):
        for j in range(i + 1, m):
            out *= (roots[i] - roots[j]) ** 2
    return out


def coefficients_agree(a, b, p: int, k) -> bool:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return all(agree(x, y, p, k) for x, y in zip(a, b))


# -- Newton polygons -------------------------------------------------------


def valuation_points(coeffs, p: int):
    return [(j, Fraction(vp(c, p))) for j, c in enumerate(coeffs) if c != 0]


def is_lower_hull(points, sides) -> bool:
    """Whether ``sides`` (length, slope) is the lower convex hull of the
    points: a chain from the first point to the last with strictly
    increasing slopes, vertices on points, every point on or above it."""
    if not points or not sides:
        return False
    on = dict(points)
    x, y = points[0]
    chain = [(x, y)]
    previous = None
    for length, slope in sides:
        slope = Fraction(slope)
        if length <= 0 or (previous is not None and slope <= previous):
            return False
        x, y = x + length, y + length * slope
        if on.get(x) != y:
            return False
        chain.append((x, y))
        previous = slope
    if x != points[-1][0]:
        return False
    for j, v in points:
        for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
            if x0 <= j <= x1:
                if v < y0 + (y1 - y0) * Fraction(j - x0, x1 - x0):
                    return False
                break
    return True


def is_pure_of(coeffs, p: int, side) -> bool:
    """The polygon of coeffs is the single side (length, slope)."""
    return is_lower_hull(valuation_points(coeffs, p), [side])


# -- polynomials over GF(p), p prime -----------------------------------------


def fp_trim(a, p):
    return trim([c % p for c in a])


def fp_mul(a, b, p):
    return fp_trim(pmul(a, b), p)


def fp_divmod(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] * inv % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] - c * y) % p
    return fp_trim(q, p), fp_trim(r, p)


def fp_gcd(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_powmod(base, e, mod, p):
    result, base = [1], fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, base, p), mod, p)[1]
        base = fp_divmod(fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def fp_is_irreducible(f, p) -> bool:
    """Ben-Or: f of degree d is irreducible over GF(p) iff
    gcd(T^(p^i) - T, f) = 1 for every i <= d/2."""
    f = fp_trim(f, p)
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    power = x
    for _ in range(d // 2):
        power = fp_powmod(power, p, f, p)
        diff = fp_trim([(power[i] if i < len(power) else 0) - (x[i] if i < 2 else 0)
                        for i in range(max(len(power), 2))], p)
        if len(fp_gcd(diff, f, p)) > 1:
            return False
    return True


# -- Bernoulli numbers ------------------------------------------------------


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = -1/2) by the Akiyama-Tanigawa recurrence."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out
