"""Workload ``lifting``: high-precision lifting in process, N in {128, 512}.

Why: ``padic`` and ``polynomials`` do almost all the work while
``ramification`` and ``finitefield`` do none.  It exercises the
digit-by-digit factor lift (one modular solve per digit), Fraction
Gaussian elimination in resultants and the linear square-root search.

Every cycle holds the same shapes (degrees, precisions, prime sizes);
the seed chooses the coefficients, roots and primes inside each shape,
so seeds change the inputs without changing how much work a cycle is.
Each cycle also carries the sizes of the first baseline: ``sqrt`` with
p near 10^7, factor lifting at N=512, ``slope_factorization`` of the
degree-7 exponential truncation over Q_2 at N=128 and a 24x24
resultant.
"""

from __future__ import annotations

import math
from fractions import Fraction

import localarith as la
import oracles as o
from harness import Kind

CYCLES = 4

EXP7 = [Fraction(1, math.factorial(j)) for j in range(8)]


# -- newton_lift -------------------------------------------------------------


def lift_input(rng, p, degree, precision):
    while True:
        coeffs = [rng.randint(-30, 30) for _ in range(degree)] + [rng.choice((1, -1, 2, 3))]
        a0 = rng.randrange(p)
        coeffs[0] -= o.peval(coeffs, a0) % p
        derivative = [j * c for j, c in enumerate(coeffs)][1:]
        if o.peval(derivative, a0) % p:
            return coeffs, a0, p, precision


def _run_lift(rec, inp):
    coeffs, a0, p, precision = inp
    with rec.span("padic.newton_lift"):
        return la.newton_lift(coeffs, a0, p=p, precision=precision)


def representative(x) -> Fraction:
    """unit * p^v, or 0 for a value known only to be 0 mod p^a."""
    return Fraction(0) if x.unit is None else x.as_fraction()


def _check_lift(rec, inp, out):
    coeffs, a0, p, precision = inp
    root = representative(out)
    return (
        out.absolute_precision >= precision
        and o.agree(o.peval(coeffs, root), 0, p, precision)
        and o.agree(root, a0, p, 1)
    )


# -- factor lifting -----------------------------------------------------------


def _monic(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [1]


def factor_input(rng, p, m, n, precision):
    """Monic g0, h0 coprime mod p, and f = g0 h0 + p e with deg e < m + n."""
    while True:
        g0, h0 = _monic(rng, m), _monic(rng, n)
        if len(o.fp_gcd(g0, h0, p)) == 1:
            break
    e = [rng.randint(-9, 9) for _ in range(m + n)]
    f = [c + p * (e[j] if j < len(e) else 0) for j, c in enumerate(o.pmul(g0, h0))]
    return p, f, g0, h0, precision


def polynomials(rec, p, *coefficient_lists):
    with rec.span("polynomials.PadicPolynomial"):
        return [la.PadicPolynomial(p, c) for c in coefficient_lists]


def _run_hensel(rec, inp):
    p, f, g0, h0, precision = inp
    args = polynomials(rec, p, f, g0, h0)
    with rec.span("polynomials.hensel_lift_factors"):
        return la.hensel_lift_factors(*args, 0, precision)


def _run_refine(rec, inp):
    p, f, g0, h0, precision = inp
    args = polynomials(rec, p, f, g0, h0)
    with rec.span("polynomials.refine_factorization"):
        return la.refine_factorization(*args, precision)


def check_factors(rec, inp, out):
    """g h = f mod p^N, with g = g0 and h = h0 mod p and degrees kept."""
    p, f, g0, h0, precision = inp
    g, h = (list(x.coefficients) for x in out)
    return (
        len(g) == len(g0)
        and len(h) == len(h0)
        and o.coefficients_agree(o.pmul(g, h), f, p, precision)
        and o.coefficients_agree(g, g0, p, 1)
        and o.coefficients_agree(h, h0, p, 1)
    )


# -- slope factorization -------------------------------------------------------


def sided_input(rng, p, lengths, slopes, precision):
    """A polynomial whose Newton polygon has the given sides: vertex
    coefficients sit on the polygon, the others just above it, so the gap
    that drives the splitting iteration is the same for every seed."""
    coeffs = [Fraction(0)] * (sum(lengths) + 1)
    x, y = 0, Fraction(rng.randint(-1, 1))
    line = {0: y}
    for length, slope in zip(lengths, slopes):
        for j in range(1, length + 1):
            line[x + j] = y + j * Fraction(slope)
        x, y = x + length, y + length * Fraction(slope)
    vertices = {0}
    x = 0
    for length in lengths:
        x += length
        vertices.add(x)
    for j, v in line.items():
        unit = Fraction(rng.choice((1, -1)) * _prime_to(rng, p, 40), _prime_to(rng, p, 9))
        coeffs[j] = unit * Fraction(p) ** (int(v) if j in vertices else math.floor(v) + 1)
    return p, coeffs, precision


def _prime_to(rng, p, bound):
    while True:
        k = rng.randint(1, bound)
        if k % p:
            return k


def _run_slope(rec, inp):
    p, coeffs, precision = inp
    (f,) = polynomials(rec, p, coeffs)
    with rec.span("polynomials.slope_factorization"):
        return la.slope_factorization(f, precision)


def check_slope(rec, inp, out):
    """The factors multiply back to f mod p^N, each is pure of its side,
    and the sides are the lower hull of f's valuation points."""
    p, coeffs, precision = inp
    sides = [side for _, side in out]
    factors = [list(poly.coefficients) for poly, _ in out]
    return (
        o.is_lower_hull(o.valuation_points(coeffs, p), sides)
        and all(o.is_pure_of(fac, p, side) for fac, side in zip(factors, sides))
        and o.coefficients_agree(o.pprod(factors), coeffs, p, precision)
    )


# -- Weierstrass preparation ----------------------------------------------------


def weierstrass_input(rng, p, top, distinguished, precision):
    coeffs = [p * rng.randint(-20, 20) for _ in range(top + 1)]
    coeffs[distinguished] = rng.choice((1, -1)) * rng.randrange(1, p)
    return p, coeffs, precision, precision


def _run_weierstrass(rec, inp):
    p, coeffs, tail, precision = inp
    with rec.span("polynomials.TruncatedSeries"):
        series = la.TruncatedSeries(p, coeffs, tail)
    with rec.span("polynomials.weierstrass_prepare"):
        return la.weierstrass_prepare(series, precision)


def check_weierstrass(rec, inp, out):
    """f = g h mod p^N up to the truncation, deg g is the distinguished
    index, h(0) = 1 and h - 1 has positive valuation."""
    p, coeffs, tail, precision = inp
    g, h = list(out[0].coefficients), list(out[1].coefficients)
    distinguished = max(j for j, c in enumerate(coeffs) if o.vp(c, p) == 0)
    top = len(coeffs)
    return (
        len(g) - 1 == distinguished
        and h[0] == 1
        and all(c == 0 or o.vp(c, p) > 0 for c in h[1:])
        and o.coefficients_agree(o.pmul(g, h)[:top], coeffs, p, min(tail, precision))
    )


# -- square roots ---------------------------------------------------------------


def _sqrt_input(rng, p, precision, share):
    """x = r^2 p^(2k) with r = share * p mod p: the root mod p is far from
    0, and its distance from 0 is about the same for every seed."""
    r = int(p * share) - rng.randrange(max(1, p // 1000)) + p * rng.randint(1, 1000)
    x = Fraction(r * r) * Fraction(p) ** (2 * rng.randint(-2, 2))
    return p, x, precision


def _run_sqrt(rec, inp):
    p, x, precision = inp
    with rec.span("padic.from_rational"):
        value = la.PadicNumber.from_rational(p, x, precision)
    with rec.span("padic.sqrt"):
        return la.sqrt(value)


def _check_sqrt(rec, inp, out):
    p, x, precision = inp
    root = out.as_fraction()
    return out.precision == precision and o.agree(root * root, x, p, o.vp(x, p) + precision)


def _large_prime(rng, base):
    q = base + rng.randrange(base // 100)
    while not o.is_prime(q):
        q += 1
    return q


def nonsquare_input(rng, p, precision):
    while True:
        x = rng.randrange(2, p)
        if pow(x, (p - 1) // 2, p) == p - 1:
            return p, Fraction(x), precision


# -- resultants and discriminants -------------------------------------------------


def _roots(rng, count):
    return [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(count)]


def resultant_input(rng, m, n):
    a, b = rng.randint(1, 9), rng.randint(-9, -1)
    alphas, betas = _roots(rng, m), _roots(rng, n)
    return o.from_roots(a, alphas), o.from_roots(b, betas), o.resultant_from_roots(a, alphas, b, betas)


def _run_resultant(rec, inp):
    g, h, _ = inp
    with rec.span("polynomials.resultant"):
        return la.resultant(g, h)


def _check_equal(rec, inp, out):
    return out == inp[-1]


def discriminant_input(rng, m):
    a = rng.randint(1, 9)
    alphas = _roots(rng, m)
    return o.from_roots(a, alphas), o.discriminant_from_roots(a, alphas)


def _run_discriminant(rec, inp):
    with rec.span("polynomials.discriminant"):
        return la.discriminant(inp[0])


# -- the cycle ----------------------------------------------------------------------

LIFT = Kind("newton_lift", "padic", _run_lift, _check_lift)
HENSEL = Kind("hensel_lift_factors", "polynomials", _run_hensel, check_factors)
HENSEL_RECENT = Kind("polynomials.hensel_lift_factors.recent", "polynomials", _run_hensel, check_factors)
REFINE = Kind("refine_factorization", "polynomials", _run_refine, check_factors)
SLOPE = Kind("slope_factorization", "polynomials", _run_slope, check_slope)
SLOPE_RECENT = Kind("polynomials.slope_factorization.recent", "polynomials", _run_slope, check_slope)
WEIERSTRASS = Kind("weierstrass_prepare", "polynomials", _run_weierstrass, check_weierstrass)
SQRT = Kind("sqrt", "padic", _run_sqrt, _check_sqrt)
SQRT_RECENT = Kind("padic.sqrt.recent", "padic", _run_sqrt, _check_sqrt)
NONSQUARE = Kind("sqrt.nonsquare", "padic", _run_sqrt, expect=la.NotASquareError)
RESULTANT = Kind("resultant", "polynomials", _run_resultant, _check_equal)
RESULTANT_RECENT = Kind("polynomials.resultant.recent", "polynomials", _run_resultant, _check_equal)
DISCRIMINANT = Kind("discriminant", "polynomials", _run_discriminant, _check_equal)


def _cycle(rng):
    """One of each shape; the prime of each shape is fixed, because the
    cost of arithmetic mod p^N grows with p.  Nine factor lifts of one
    middling shape sit at the middle of the cycle's latencies, so that
    the median does not jump between kinds from seed to seed."""
    items = []
    for p, degree, precision in ((7, 2, 128), (11, 3, 512), (13, 4, 128), (5, 6, 512)):
        items.append((LIFT, lift_input(rng, p, degree, precision)))
    for p, m, n, precision in ((5, 1, 2, 512), (19, 3, 3, 128), (23, 1, 6, 128)) + ((17, 2, 3, 128),) * 9:
        items.append((HENSEL, factor_input(rng, p, m, n, precision)))
    for p, m, n, precision in ((29, 1, 2, 512), (31, 2, 3, 128), (37, 3, 3, 512), (41, 6, 6, 512)):
        items.append((REFINE, factor_input(rng, p, m, n, precision)))
    for p, lengths, slopes in (
        (3, (2, 1), (-1, 1)),
        (2, (1, 2, 1), (-2, Fraction(-1, 2), 1)),
        (5, (3, 2), (Fraction(-1, 3), 0)),
    ):
        items.append((SLOPE, sided_input(rng, p, lengths, slopes, 128)))
    for p, top, distinguished in ((3, 4, 2), (7, 6, 3)):
        items.append((WEIERSTRASS, weierstrass_input(rng, p, top, distinguished, 128)))
    for base, precision in ((101, 512), (1009, 128), (10007, 512)):
        items.append((SQRT, _sqrt_input(rng, _large_prime(rng, base), precision, 0.1)))
    items.append((NONSQUARE, nonsquare_input(rng, 43, 128)))
    for m, n in ((3, 5), (6, 6), (4, 8)):
        items.append((RESULTANT, resultant_input(rng, m, n)))
    for m in (6, 9):
        items.append((DISCRIMINANT, discriminant_input(rng, m)))

    # the first baseline's sizes
    a = rng.randrange(1, 7)
    f = [-(a * a) - 7 * rng.randint(1, 50), 0, 1]
    items.append((HENSEL_RECENT, (7, f, [-a, 1], [a, 1], 512)))
    items.append((SLOPE_RECENT, (2, EXP7, 128)))
    items.append((SQRT_RECENT, _sqrt_input(rng, _large_prime(rng, 10**7), 128, 0.5)))
    items.append((RESULTANT_RECENT, resultant_input(rng, 12, 12)))
    rng.shuffle(items)
    return items


def generate(rng):
    return [_cycle(rng) for _ in range(CYCLES)]
