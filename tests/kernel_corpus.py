"""Seeded kernel-output corpus: one JSON record per kernel call.

Each record holds the call (kernel name and JSON arguments) and either
the result in exact form or the error class and message.  Rationals go
through ``localarith.formats``, so no float appears.  The inputs come
from fixed-seed ``random.Random`` instances and the output never depends
on ``hash()`` or set order, so the file is the same on every Python
version.  Regenerate it with

    PYTHONPATH=src python tests/kernel_corpus.py > tests/golden/kernels.jsonl

``tests/test_kernel_corpus.py`` re-runs every recorded call and compares
its result with the record.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

from localarith import (
    FiniteField,
    FqPoly,
    PadicNumber,
    PadicPolynomial,
    TameExtensionDescriptor,
    TruncatedSeries,
    classify_tame,
    count_tame_extensions,
    cyclotomic_group,
    cyclotomic_reduction_kernel,
    different_discriminant,
    discriminant,
    factor_monic,
    hensel_lift_factors,
    herbrand_functions,
    newton_lift,
    pth_power_on_units,
    quotient_filtration,
    refine_factorization,
    resultant,
    slope_factorization,
    sqrt,
    subgroup_filtration,
    teichmuller,
    vp_rational,
    weierstrass_prepare,
)
from localarith.errors import LocalArithError
from localarith.formats import format_rational, parse_rational, polynomial_to_json
from localarith.polynomials import poly_mul

FACTOR_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 101, 1009, 10007)
# total degree per field, sized so the whole corpus re-runs in well under a second
MAX_DEGREE = {2: 16, 3: 12, 4: 8, 5: 10, 7: 10, 8: 6, 9: 6, 16: 5, 25: 5, 101: 8, 1009: 8, 10007: 8}
PADIC_PRIMES = (2, 3, 5, 7)


# -- running one call ----------------------------------------------------------


def _poly_json(coeffs):
    return polynomial_to_json(coeffs)["coefficients"]


def _rationals(texts):
    return [parse_rational(t) for t in texts]


def _factor_monic(q, coeffs):
    return [[list(g.coeffs), e] for g, e in factor_monic(FqPoly(FiniteField(q), coeffs)).items()]


def _is_irreducible(q, coeffs):
    return FqPoly(FiniteField(q), coeffs).is_irreducible()


def _field(q):
    field = FiniteField(q)
    modulus = None if field.modulus is None else list(field.modulus)
    return {"modulus": modulus, "generator": field.multiplicative_generator()}


def _slope_factorization(p, coeffs, precision):
    factors = slope_factorization(PadicPolynomial(p, _rationals(coeffs)), precision)
    return [[_poly_json(g.coefficients), length, format_rational(slope)] for g, (length, slope) in factors]


def _weierstrass_prepare(p, coeffs, tail, precision):
    g, h = weierstrass_prepare(TruncatedSeries(p, _rationals(coeffs), tail), precision)
    return [_poly_json(g.coefficients), _poly_json(h.coefficients), h.tail]


def _hensel_lift_factors(p, f, g0, h0, alpha, precision):
    polys = (PadicPolynomial(p, _rationals(x)) for x in (f, g0, h0))
    return [_poly_json(x.coefficients) for x in hensel_lift_factors(*polys, alpha, precision)]


def _refine_factorization(p, f, g, h, precision):
    polys = (PadicPolynomial(p, _rationals(x)) for x in (f, g, h))
    return [_poly_json(x.coefficients) for x in refine_factorization(*polys, precision)]


def _resultant(g, h):
    return format_rational(resultant(_rationals(g), _rationals(h)))


def _discriminant(g):
    return format_rational(discriminant(_rationals(g)))


def _sqrt(p, x, precision):
    return repr(sqrt(PadicNumber.from_rational(p, parse_rational(x), precision)))


def _teichmuller(p, residue, precision):
    return repr(teichmuller(p, residue, precision))


def _newton_lift(p, f, a0, precision):
    return repr(newton_lift(_rationals(f), a0, p=p, precision=precision))


def _pth_power_on_units(p, n, direction, u, precision):
    return repr(pth_power_on_units(p, n, direction, parse_rational(u), precision))


def _group(p, n, part, s):
    """The cyclotomic group of level n, its subgroup G(s) of units 1 mod p^s, or G/G(s)."""
    group = cyclotomic_group(p, n)
    if part == "all":
        return group
    kernel = cyclotomic_reduction_kernel(p, n, s)
    return (subgroup_filtration if part == "sub" else quotient_filtration)(group, kernel)


def _different_discriminant(p, n, part, s, residual_degree):
    r = different_discriminant(_group(p, n, part, s), residual_degree)
    return [list(r.lower_jumps), [format_rational(v) for v in r.upper_jumps], list(r.segment_orders),
            r.different_exponent, r.discriminant_exponent, r.residual_degree]


def _piecewise(f):
    return [[format_rational(b) for b in f.breakpoints], [format_rational(v) for v in f.values],
            format_rational(f.final_slope)]


def _herbrand_functions(p, n, part, s):
    return [_piecewise(f) for f in herbrand_functions(_group(p, n, part, s))]


def _classify_tame(q, e, f, r):
    c = classify_tame(TameExtensionDescriptor(q, e, f, r))
    return [c.galois, c.abelian, None if c.presentation is None else c.presentation.order]


KERNELS = {
    "factor_monic": _factor_monic,
    "is_irreducible": _is_irreducible,
    "field": _field,
    "slope_factorization": _slope_factorization,
    "weierstrass_prepare": _weierstrass_prepare,
    "hensel_lift_factors": _hensel_lift_factors,
    "refine_factorization": _refine_factorization,
    "resultant": _resultant,
    "discriminant": _discriminant,
    "sqrt": _sqrt,
    "teichmuller": _teichmuller,
    "newton_lift": _newton_lift,
    "pth_power_on_units": _pth_power_on_units,
    "different_discriminant": _different_discriminant,
    "herbrand_functions": _herbrand_functions,
    "count_tame_extensions": count_tame_extensions,
    "classify_tame": _classify_tame,
}


def run(kernel: str, args: dict) -> dict:
    """The record of one call: the call itself and its result or error."""
    record = {"kernel": kernel, "args": args}
    try:
        record["result"] = KERNELS[kernel](**args)
    except LocalArithError as exc:
        record["error"] = [type(exc).__name__, str(exc)]
    return record


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# -- seeded calls ----------------------------------------------------------------


def _random_monic(rng, q, d):
    return [rng.randrange(q) for _ in range(d)] + [1]


def _irreducible(rng, q, d):
    field = FiniteField(q)
    while True:
        coeffs = _random_monic(rng, q, d)
        if FqPoly(field, coeffs).is_irreducible():
            return coeffs


def _product(q, polys, unit=1):
    out = FqPoly(FiniteField(q), [unit])
    for coeffs in polys:
        out = out * FqPoly(FiniteField(q), coeffs)
    return list(out.coeffs)


def _finite_field_calls():
    rng = random.Random(11)
    for q in FACTOR_FIELDS:
        field, budget = FiniteField(q), MAX_DEGREE[q]
        exponents = [1, 1, 2, 3] + [field.p] * (field.p < budget)
        yield "factor_monic", {"q": q, "coeffs": []}
        yield "factor_monic", {"q": q, "coeffs": [rng.randrange(1, q)]}
        yield "is_irreducible", {"q": q, "coeffs": [rng.randrange(q)]}
        # random products with multiplicities, the unit lead included
        for _ in range(4):
            polys, degree = [], 0
            while True:
                d, e = rng.randint(1, 4), rng.choice(exponents)
                if degree + d * e > budget:
                    break
                polys += [_random_monic(rng, q, d)] * e
                degree += d * e
            yield "factor_monic", {"q": q, "coeffs": _product(q, polys, rng.randrange(1, q))}
        # distinct irreducibles of one degree: the equal-degree split alone
        for d in (1, 2, 3):
            available = {1: q, 2: (q * q - q) // 2, 3: (q**3 - q) // 3}[d]
            r = min(budget // d, 4, available)
            if r < 2:
                continue
            polys = []
            while len(polys) < r:
                g = _irreducible(rng, q, d)
                if g not in polys:
                    polys.append(g)
            yield "factor_monic", {"q": q, "coeffs": _product(q, polys)}
        # a p-th power times T: the squarefree loop's root step
        if field.p < budget:
            base = _random_monic(rng, q, (budget - 1) // field.p)
            yield "factor_monic", {"q": q, "coeffs": _product(q, [base] * field.p + [[0, 1]])}
        for _ in range(6):
            d = rng.randint(1, budget)
            yield "is_irreducible", {"q": q, "coeffs": [rng.randrange(1, q)] + _random_monic(rng, q, d)[1:]}
        yield "is_irreducible", {"q": q, "coeffs": _irreducible(rng, q, min(budget, 4))}
    for q in range(2, 3**5 + 1):
        yield "field", {"q": q}


def _unit(rng, p):
    while True:
        u = rng.randint(-50, 50)
        if u % p:
            return u


def _padic_coeffs(rng, p, valuations):
    return [format_rational(Fraction(p) ** v * _unit(rng, p)) for v in valuations]


def _slope_calls():
    rng = random.Random(12)
    for p in PADIC_PRIMES:
        # rational slopes: random valuations, some vertices p-adically far apart
        for _ in range(5):
            n = rng.randint(2, 7)
            vals = [rng.randint(0, 5) for _ in range(n + 1)]
            yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, vals),
                                          "precision": rng.choice([8, 16, 32])}
        # content-scaled: the same shape times p^k, also with negative k
        for k in (-7, 13, 40):
            vals = [k + v for v in (1, 0, 2, 0)]
            yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, vals),
                                          "precision": rng.choice([8, 32])}
        # steep last side
        for k in (20, 50):
            yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, [0, 0, k]),
                                          "precision": 32}
        # vertices (0, 4), (2, 1), (5, 0): sides of slopes -3/2 and -1/3
        yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, [4, 3, 1, 1, 1, 0]),
                                      "precision": 16}
    # the truncated exponential over Q_2 and Q_3 at the larger precisions
    exp7 = [format_rational(Fraction(1, math.factorial(j))) for j in range(8)]
    for p, n in ((2, 64), (2, 128), (3, 32)):
        yield "slope_factorization", {"p": p, "coeffs": exp7, "precision": n}
    # the same shapes at N = 512
    yield "slope_factorization", {"p": 2, "coeffs": exp7, "precision": 512}
    yield "slope_factorization", {"p": 3, "coeffs": exp7, "precision": 512}
    for p in PADIC_PRIMES:
        yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, [4, 3, 1, 1, 1, 0]),
                                      "precision": 512}
        n = rng.randint(3, 6)
        vals = [rng.randint(0, 5) for _ in range(n + 1)]
        yield "slope_factorization", {"p": p, "coeffs": _padic_coeffs(rng, p, vals), "precision": 512}
    # pure polygon, f(0) = 0 and a precision below 1
    yield "slope_factorization", {"p": 3, "coeffs": ["3", "1"], "precision": 8}
    yield "slope_factorization", {"p": 3, "coeffs": ["0", "1", "1"], "precision": 8}
    yield "slope_factorization", {"p": 3, "coeffs": ["9", "1", "1"], "precision": 0}


def _weierstrass_calls():
    rng = random.Random(13)
    for p in PADIC_PRIMES:
        for _ in range(6):
            n = rng.randint(1, 6)
            w = rng.randint(0, 3)
            vals = [w + rng.randint(0, 3) for _ in range(n + 1)]
            vals[rng.randrange(n + 1)] = w
            tail = w + rng.randint(0, 12)
            yield "weierstrass_prepare", {"p": p, "coeffs": _padic_coeffs(rng, p, vals), "tail": tail,
                                          "precision": rng.choice([1, 4, 16, 40])}
    yield "weierstrass_prepare", {"p": 3, "coeffs": ["3", "1", "3"], "tail": 128, "precision": 128}
    yield "weierstrass_prepare", {"p": 5, "coeffs": ["0", "0"], "tail": 4, "precision": 4}
    for p in (2, 3):
        vals = [1, 2, 0, 1, 3, 2, 4]
        yield "weierstrass_prepare", {"p": p, "coeffs": _padic_coeffs(rng, p, vals), "tail": 600,
                                      "precision": 512}


def _poly_text(coeffs):
    return [format_rational(c) for c in coeffs]


def _integer_poly(rng, p, degree, lead):
    return [rng.randint(-p**3, p**3) for _ in range(degree)] + [lead]


def _lift_calls():
    rng = random.Random(14)
    for p in PADIC_PRIMES:
        for shape in range(8):
            # monic pairs (shape 4 one digit short of the congruence), then a
            # leading coefficient p on one side, then on both
            lead_g = 1 if shape < 5 else p
            lead_h = p if shape == 7 else 1
            g0 = _integer_poly(rng, p, rng.randint(1, 3), lead_g)
            h0 = _integer_poly(rng, p, rng.randint(1, 3), lead_h)
            if shape % 2:
                g0, h0 = h0, g0
            gh = poly_mul(g0, h0)
            beta = vp_rational(p, resultant(g0, h0))
            alpha = min(beta, 3) + rng.randint(0, 1)
            depth = 2 * alpha + 1 - (shape == 4)
            noise = [p**depth * rng.randint(-p, p) for _ in range(len(gh) - 1)]
            f = [a + b for a, b in zip(gh, noise + [0])]
            precision = rng.choice([1, 4, 16, 64])
            yield "hensel_lift_factors", {"p": p, "f": _poly_text(f), "g0": _poly_text(g0),
                                          "h0": _poly_text(h0), "alpha": alpha, "precision": precision}
            # refine: the defect depth around 2 v(res), on both sides of the hypothesis
            depth = 2 * min(beta, 3) + rng.randint(0, 3)
            noise = [p**depth * rng.randint(-p, p) for _ in range(len(gh) - 1)]
            f = [a + b for a, b in zip(gh, noise + [0])]
            yield "refine_factorization", {"p": p, "f": _poly_text(f), "g": _poly_text(g0),
                                           "h": _poly_text(h0), "precision": precision}
        # exact products, one with a common factor (res = 0)
        g0 = _integer_poly(rng, p, 2, 1)
        yield "refine_factorization", {"p": p, "f": _poly_text(poly_mul(g0, g0)), "g": _poly_text(g0),
                                       "h": _poly_text(g0), "precision": 8}
        yield "hensel_lift_factors", {"p": p, "f": _poly_text(poly_mul(g0, g0)), "g0": _poly_text(g0),
                                      "h0": _poly_text(g0), "alpha": 1, "precision": 8}
        h0 = _integer_poly(rng, p, 1, 1)
        yield "hensel_lift_factors", {"p": p, "f": _poly_text(poly_mul(g0, h0)), "g0": _poly_text(g0),
                                      "h0": _poly_text(h0), "alpha": 3, "precision": 8}
        # leading terms that differ, precision below 1
        f = poly_mul(g0, h0)
        yield "hensel_lift_factors", {"p": p, "f": _poly_text(f[:-1] + [2 * f[-1]]), "g0": _poly_text(g0),
                                      "h0": _poly_text(h0), "alpha": 0, "precision": 8}
        yield "refine_factorization", {"p": p, "f": _poly_text(f), "g": _poly_text(g0),
                                       "h": _poly_text(h0), "precision": 0}
    # a coprime monic pair lifted to N = 512
    g0, h0 = [-2, 1, 1], [3, 0, 1]
    f = [a + 7**3 * b for a, b in zip(poly_mul(g0, h0), [1, 2, 3, 4, 0])]
    yield "hensel_lift_factors", {"p": 7, "f": _poly_text(f), "g0": _poly_text(g0), "h0": _poly_text(h0),
                                  "alpha": 1, "precision": 512}
    yield "refine_factorization", {"p": 7, "f": _poly_text(f), "g": _poly_text(g0), "h": _poly_text(h0),
                                   "precision": 512}


def _deep_lift_calls():
    rng = random.Random(18)
    # the lifting benchmark's N = 512 refinements: monic pairs coprime mod p
    for p, m, n in ((41, 6, 6), (37, 3, 3)):
        for _ in range(2):
            while True:
                g0, h0 = ([rng.randint(-9, 9) for _ in range(d)] + [1] for d in (m, n))
                if vp_rational(p, resultant(g0, h0)) == 0:
                    break
            noise = [p * rng.randint(-9, 9) for _ in range(m + n)]
            f = [a + b for a, b in zip(poly_mul(g0, h0), noise + [0])]
            yield "refine_factorization", {"p": p, "f": _poly_text(f), "g": _poly_text(g0),
                                           "h": _poly_text(h0), "precision": 512}
    # beta >= 1: roots a and a + p^k u, the second factor's lead 1 or p
    for p, k, lead in ((3, 1, 1), (3, 2, 3), (5, 1, 5), (5, 3, 1), (7, 2, 1), (2, 4, 1)):
        for precision in (128, 512):
            beta = math.inf
            while beta > k + 3:  # the cofactors may add to v(res), or share a root
                root = rng.randint(-p**2, p**2)
                g0 = poly_mul([-root, 1], _integer_poly(rng, p, rng.randint(0, 2), 1))
                h0 = poly_mul([-root - p**k * _unit(rng, p), 1], [_unit(rng, p), lead])
                beta = vp_rational(p, resultant(g0, h0))
            noise = [p ** (2 * beta + 1) * rng.randint(-p, p) for _ in range(len(g0) + len(h0) - 2)]
            f = [a + b for a, b in zip(poly_mul(g0, h0), noise + [0])]
            yield "hensel_lift_factors", {"p": p, "f": _poly_text(f), "g0": _poly_text(g0),
                                          "h0": _poly_text(h0), "alpha": beta, "precision": precision}
            yield "refine_factorization", {"p": p, "f": _poly_text(f), "g": _poly_text(g0),
                                           "h": _poly_text(h0), "precision": precision}


def _resultant_calls():
    rng = random.Random(15)

    def poly(degree):
        return _poly_text([Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7))) for _ in range(degree)]
                          + [Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.choice((1, 5)))])
    for _ in range(30):
        yield "resultant", {"g": poly(rng.randint(0, 5)), "h": poly(rng.randint(0, 5))}
    for _ in range(15):
        yield "discriminant", {"g": poly(rng.randint(1, 6))}
    yield "resultant", {"g": ["0"], "h": ["1", "1"]}
    yield "discriminant", {"g": ["3"]}


def _padic_rational(rng, p, low, high):
    return Fraction(p) ** rng.randint(low, high) * Fraction(_unit(rng, p), _unit(rng, p))


def _root_calls():
    rng = random.Random(16)
    for p in (2, 3, 5, 7, 11, 101):
        # squares of random rationals, then random rationals (mostly non-squares)
        for _ in range(6):
            y = _padic_rational(rng, p, -3, 3)
            yield "sqrt", {"p": p, "x": format_rational(y * y), "precision": rng.choice([1, 2, 3, 8, 32, 128])}
        for _ in range(4):
            x = format_rational(_padic_rational(rng, p, -3, 3))
            yield "sqrt", {"p": p, "x": x, "precision": rng.choice([3, 16])}
        yield "sqrt", {"p": p, "x": "0", "precision": 8}
    for p in (2, 3, 5, 7, 13, 101, 1009):
        for _ in range(4):
            yield "teichmuller", {"p": p, "residue": rng.randint(-2 * p, 2 * p),
                                  "precision": rng.choice([1, 4, 32, 256])}
    yield "teichmuller", {"p": 7, "residue": 3, "precision": 0}
    for p in PADIC_PRIMES:
        for _ in range(8):
            # f = (T - a) g + p^d h: a root near a with t = v(g(a)), found when d > 2t
            a, g = rng.randint(-p**2, p**2), _integer_poly(rng, p, rng.randint(0, 2), 1)
            if rng.random() < 0.4:  # g(a) divisible by p, so t >= 1
                g[0] += p * rng.randint(1, p) - sum(c * a**j for j, c in enumerate(g))
            d = rng.randint(1, 6)
            noise = [p**d * rng.randint(-p, p) for _ in range(len(g) + 1)]
            f = [x + y for x, y in zip(poly_mul([-a, 1], g), noise)]
            yield "newton_lift", {"p": p, "f": _poly_text(f), "a0": a, "precision": rng.choice([1, 8, 64, 512])}
    yield "newton_lift", {"p": 3, "f": ["-2", "0", "1"], "a0": 1, "precision": 8}  # 2 is no square mod 3
    yield "newton_lift", {"p": 5, "f": ["1/2", "1"], "a0": 2, "precision": 8}
    for p in PADIC_PRIMES:
        for n in (1, 2, 3):
            for direction in ("forward", "inverse"):
                for _ in range(3):
                    level = n + (direction == "inverse") + rng.randint(0, 1)
                    u = Fraction(1 + p**level * rng.randint(-20, 20), 1 + p**level * rng.randint(-20, 20))
                    yield "pth_power_on_units", {"p": p, "n": n, "direction": direction, "u": format_rational(u),
                                                 "precision": rng.choice([1, 4, 16, 64])}
        # u outside U_n, and a u that is not a unit
        yield "pth_power_on_units", {"p": p, "n": 2, "direction": "inverse", "u": format_rational(1 + p**2),
                                     "precision": 8}
        yield "pth_power_on_units", {"p": p, "n": 2, "direction": "forward", "u": str(p), "precision": 8}


def _group_calls():
    for p, top in ((2, 7), (3, 4), (5, 3), (7, 2), (11, 2), (101, 1)):
        for n in range(1, top + 1):
            for part, s in [("all", 0)] + [(part, s) for s in range(1, n) for part in ("sub", "quotient")]:
                yield "different_discriminant", {"p": p, "n": n, "part": part, "s": s,
                                                 "residual_degree": 1 + n % 3}
                yield "herbrand_functions", {"p": p, "n": n, "part": part, "s": s}
    yield "different_discriminant", {"p": 3, "n": 2, "part": "all", "s": 0, "residual_degree": 0}


def _tame_calls():
    rng = random.Random(17)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49):
        for _ in range(6):
            yield "count_tame_extensions", {"q": q, "e": rng.randint(1, 24), "f": rng.randint(1, 4)}
    # not a prime power, e or f below 1
    for q, e, f in ((1, 2, 1), (6, 5, 1), (3, 0, 1), (3, 2, 0)):
        yield "count_tame_extensions", {"q": q, "e": e, "f": f}
    for q, e, f in ((2, 3, 2), (3, 4, 2), (4, 5, 2), (5, 4, 1), (7, 6, 2), (9, 8, 1), (2, 9, 6), (3, 10, 4)):
        for r in range(-1, math.gcd(e, q**f - 1) + 1):
            yield "classify_tame", {"q": q, "e": e, "f": f, "r": r}
    yield "classify_tame", {"q": 3, "e": 3, "f": 1, "r": 0}


def calls():
    yield from _finite_field_calls()
    yield from _slope_calls()
    yield from _weierstrass_calls()
    yield from _lift_calls()
    yield from _deep_lift_calls()
    yield from _resultant_calls()
    yield from _root_calls()
    yield from _group_calls()
    yield from _tame_calls()


def main() -> None:
    for kernel, args in calls():
        sys.stdout.write(dumps(run(kernel, args)) + "\n")


if __name__ == "__main__":
    main()
