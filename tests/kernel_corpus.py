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
    PadicPolynomial,
    TruncatedSeries,
    factor_monic,
    slope_factorization,
    weierstrass_prepare,
)
from localarith.errors import LocalArithError
from localarith.formats import format_rational, parse_rational, polynomial_to_json

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


KERNELS = {
    "factor_monic": _factor_monic,
    "is_irreducible": _is_irreducible,
    "field": _field,
    "slope_factorization": _slope_factorization,
    "weierstrass_prepare": _weierstrass_prepare,
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


def calls():
    yield from _finite_field_calls()
    yield from _slope_calls()
    yield from _weierstrass_calls()


def main() -> None:
    for kernel, args in calls():
        sys.stdout.write(dumps(run(kernel, args)) + "\n")


if __name__ == "__main__":
    main()
