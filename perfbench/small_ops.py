"""Workload ``small_ops``: many cheap calls at low precision, in process.

Why: it uses the same ``padic``, ``polynomials`` and ``valuations``
layers as ``lifting``, but at N <= 32, degree <= 6 and p < 100, where the
fixed cost of each call dominates instead of the asymptotics.  A change
that wins at N=512 but adds a fixed cost per call (argument validation,
caching) shows up here as a loss.  It bypasses ``ramification``.
"""

from __future__ import annotations

from fractions import Fraction

import groups_fields
import lifting
import localarith as la
import oracles as o
from harness import Kind

CYCLES = 60

PRIMES = tuple(q for q in o.primes_below(100) if q > 2)
BERNOULLI = o.bernoulli_table(40)


def rational(rng, p, low=-3, high=3):
    """u/w p^k with u, w prime to p."""
    u, w = rng.randint(1, 999), rng.randint(1, 999)
    while u % p == 0:
        u += 1
    while w % p == 0:
        w += 1
    return Fraction(rng.choice((1, -1)) * u, w) * Fraction(p) ** rng.randint(low, high)


# -- p-adic arithmetic ---------------------------------------------------------------


def _arith_input(rng):
    p = rng.choice(PRIMES)
    return p, rational(rng, p), rational(rng, p), rng.randint(4, 32)


def _run_arith(rec, inp):
    p, a, b, precision = inp
    with rec.span("padic.arith"):
        x = la.PadicNumber.from_rational(p, a, precision)
    with rec.span("padic.arith"):
        y = la.PadicNumber.from_rational(p, b, precision)
    with rec.span("padic.arith"):
        total = x + y
    with rec.span("padic.arith"):
        difference = x - y
    with rec.span("padic.arith"):
        product = x * y
    with rec.span("padic.arith"):
        quotient = x / y
    with rec.span("padic.arith"):
        digits = la.expansion(x, precision)
    return total, difference, product, quotient, digits


def _agrees(value, exact, p, absolute_precision):
    """The p-adic value equals the rational to its stated precision."""
    if value.absolute_precision != absolute_precision:
        return False
    if value.unit is None:
        return exact == 0 or o.vp(exact, p) >= value.valuation
    return o.agree(value.as_fraction(), exact, p, absolute_precision)


def _check_arith(rec, inp, out):
    """Against Fraction arithmetic reduced mod p^N; the absolute precision
    is the smaller one for + and -, and follows the valuations for * and /."""
    p, a, b, precision = inp
    total, difference, product, quotient, digits = out
    va, vb = o.vp(a, p), o.vp(b, p)
    cap = min(va, vb) + precision
    return (
        _agrees(total, a + b, p, cap)
        and _agrees(difference, a - b, p, cap)
        and _agrees(product, a * b, p, va + vb + precision)
        and _agrees(quotient, a / b, p, va - vb + precision)
        and digits.start == va
        and len(digits.digits) == precision
        and all(0 <= d < p for d in digits.digits)
        and o.agree(digits.value(), a, p, va + precision)
    )


# -- valuations on Q -------------------------------------------------------------------


def _vp_input(rng):
    p = rng.choice(PRIMES + (2,))
    x = rational(rng, p, -6, 6)
    return p, x, o.vp(x, p)


def _run_vp(rec, inp):
    p, x, _ = inp
    with rec.span("valuations.vp_rational"):
        return la.vp_rational(p, x)


def _absolute_input(rng):
    p = rng.choice(PRIMES + (2,))
    x = rational(rng, p)
    if rng.random() < 0.25:
        return None, x, abs(x)
    return p, x, Fraction(p) ** -o.vp(x, p)


def _run_absolute(rec, inp):
    p, x, _ = inp
    with rec.span("valuations.RationalPlace"):
        place = la.RationalPlace.infinite() if p is None else la.RationalPlace.finite(p)
    with rec.span("valuations.normalized_absolute_value"):
        return la.normalized_absolute_value(place, x)


def product_formula_input(rng):
    x = Fraction(rng.choice((1, -1)) * rng.randint(1, 9999), rng.randint(1, 9999))
    primes = set(o.prime_factors(x.numerator)) | set(o.prime_factors(x.denominator))
    return x, {p: Fraction(p) ** -o.vp(x, p) for p in primes}


def _run_product_formula(rec, inp):
    with rec.span("valuations.product_formula_report"):
        return la.product_formula_report(inp[0])


def _check_product_formula(rec, inp, report):
    """One entry per prime of x with |x|_p = p^-v, then |x|; product 1."""
    x, finite = inp
    got = {place.prime: a for place, a in report.entries if place.is_finite}
    last_place, last_value = report.entries[-1]
    return (
        report.product == 1
        and got == finite
        and not last_place.is_finite
        and last_value == abs(x)
    )


# -- polynomials ------------------------------------------------------------------------


def polygon_input(rng):
    p = rng.choice(PRIMES + (2,))
    degree = rng.randint(2, 6)
    coeffs = [rational(rng, p) if rng.random() < 0.8 else 0 for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or rational(rng, p)
    coeffs[-1] = coeffs[-1] or rational(rng, p)
    return p, coeffs


def _run_polygon(rec, inp):
    p, coeffs = inp
    (f,) = lifting.polynomials(rec, p, coeffs)
    with rec.span("polynomials.newton_polygon"):
        return la.newton_polygon(f)


def _check_polygon(rec, inp, polygon):
    p, coeffs = inp
    return o.is_lower_hull(o.valuation_points(coeffs, p), list(polygon.sides))


def eisenstein_input(rng):
    """Half the inputs are Eisenstein; the others break one condition."""
    p = rng.choice(PRIMES)
    degree = rng.randint(2, 6)

    def unit():
        return rng.choice((1, -1)) * rng.randrange(1, p)

    coeffs = [p * unit()] + [p * rng.randint(-9, 9) for _ in range(degree - 1)] + [unit()]
    if rng.random() < 0.5:
        j = rng.randint(0, degree)
        coeffs[j] = p * p * unit() if j == 0 else p * unit() if j == degree else unit()
    vals = [o.vp(c, p) for c in coeffs]
    expected = vals[0] == 1 and vals[-1] == 0 and all(v is None or v > 0 for v in vals[1:-1])
    return p, coeffs, expected


def _run_eisenstein(rec, inp):
    p, coeffs, _ = inp
    (f,) = lifting.polynomials(rec, p, coeffs)
    with rec.span("polynomials.eisenstein_test"):
        return la.eisenstein_test(f)


def _check_value(rec, inp, out):
    return out == inp[-1]


# -- Teichmuller lifts, Bernoulli numbers, GF(q)(T) valuations -------------------------------


def _teichmuller_input(rng):
    p = rng.choice(PRIMES)
    return p, rng.randrange(1, p) + p * rng.randint(0, 9), rng.randint(4, 32)


def _run_teichmuller(rec, inp):
    with rec.span("padic.teichmuller"):
        return la.teichmuller(*inp)


def _check_teichmuller(rec, inp, w):
    """w^(p-1) = 1 mod p^N and w = r mod p."""
    p, r, precision = inp
    modulus = p**precision
    return (
        w.valuation == 0
        and w.precision == precision
        and pow(w.unit, p - 1, modulus) == 1
        and (w.unit - r) % p == 0
    )


def _run_bernoulli(rec, inp):
    with rec.span("bernoulli.bernoulli"):
        return la.bernoulli(inp[0])


def _check_bernoulli(rec, inp, value):
    """Equal to the Akiyama-Tanigawa value, and Faulhaber's formula
    (which uses B_0..B_k) agrees with direct power sums."""
    k, n = inp
    return value == BERNOULLI[k] and la.power_sum_faulhaber(k, n) == la.power_sum(k, n)


def ff_input(rng):
    """num = P^a c and den = P^b d with c, d prime to the place P."""
    q = rng.choice((2, 3, 5))
    place = groups_fields.irreducible(rng, q, rng.randint(1, 3))
    others = [f for f in (groups_fields.irreducible(rng, q, rng.randint(1, 3)) for _ in range(2)) if f != place]
    a, b = rng.randint(0, 3), rng.randint(0, 2)
    num = o.fp_trim(o.pprod([place] * a + others[:1]), q)
    den = o.fp_trim(o.pprod([place] * b + others[1:]), q)
    return q, place, num, den, a - b


def run_ff(rec, inp):
    q, place, num, den, _ = inp
    with rec.span("finitefield.FqPoly"):
        field = la.FiniteField(q)
        polys = [la.FqPoly(field, c) for c in (place, num, den)]
    with rec.span("valuations.FunctionFieldPlace"):
        place = la.FunctionFieldPlace.finite(polys[0])
    with rec.span("valuations.ff_valuation"):
        return la.ff_valuation(place, polys[1], polys[2])


# -- the cycle --------------------------------------------------------------------------------

ARITH = Kind("padic.arith", "padic", _run_arith, _check_arith)
VP = Kind("vp_rational", "valuations", _run_vp, _check_value)
VP_NOT_PRIME = Kind("vp_rational.not_prime", "valuations", _run_vp, expect=la.InvalidArgumentError)
ABSOLUTE = Kind("normalized_absolute_value", "valuations", _run_absolute, _check_value)
PRODUCT_FORMULA = Kind("product_formula_report", "valuations", _run_product_formula, _check_product_formula)
POLYGON = Kind("newton_polygon", "polynomials", _run_polygon, _check_polygon)
EISENSTEIN = Kind("eisenstein_test", "polynomials", _run_eisenstein, _check_value)
TEICHMULLER = Kind("teichmuller", "padic", _run_teichmuller, _check_teichmuller)
BERNOULLI_KIND = Kind("bernoulli", "bernoulli", _run_bernoulli, _check_bernoulli)
FF_VALUATION = Kind("ff_valuation", "valuations", run_ff, _check_value)


def _cycle(rng, with_bernoulli):
    items = []
    items += [(ARITH, _arith_input(rng)) for _ in range(6)]
    items += [(VP, _vp_input(rng)) for _ in range(6)]
    items += [(ABSOLUTE, _absolute_input(rng)) for _ in range(3)]
    items += [(PRODUCT_FORMULA, product_formula_input(rng)) for _ in range(2)]
    items += [(POLYGON, polygon_input(rng)) for _ in range(3)]
    items += [(EISENSTEIN, eisenstein_input(rng)) for _ in range(3)]
    items += [(lifting.RESULTANT, lifting.resultant_input(rng, rng.randint(1, 3), rng.randint(1, 3))) for _ in range(2)]
    items += [(TEICHMULLER, _teichmuller_input(rng)) for _ in range(3)]
    items += [
        (lifting.LIFT, lifting.lift_input(rng, rng.choice(PRIMES), rng.randint(2, 6), rng.randint(4, 32)))
        for _ in range(3)
    ]
    if with_bernoulli:  # every other cycle: B_40 costs as much as a whole cycle
        items.append((BERNOULLI_KIND, (rng.choice(range(2, 41, 2)), rng.randint(2, 20))))
    items += [(FF_VALUATION, ff_input(rng)) for _ in range(3)]
    items.append((VP_NOT_PRIME, (rng.choice((4, 6, 9, 15)), rational(rng, 7), None)))
    rng.shuffle(items)
    return items


def generate(rng):
    return [_cycle(rng, i % 2 == 0) for i in range(CYCLES)]
