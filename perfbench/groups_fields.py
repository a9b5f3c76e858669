"""Workload ``groups_fields``: ramification groups and finite fields.

Why: ``ramification`` (validation of the Cayley table, O(g^3)) and
``finitefield`` (factoring by trial division) dominate, while ``padic``
and ``polynomials`` stay idle.  It exercises the numpy table check and
the GF(q)[T] factoring kernel and bypasses the p-adic lifting code.

Each cycle builds the order-512 group of the first baseline,
``cyclotomic_group(2, 10)``, and every medium and small group below,
and factors two instances of the first baseline's product of two
degree-10 irreducibles over GF(2) next to smaller products over GF(3),
GF(4), GF(5) and GF(7).
Fields come from that small set, so the ``FiniteField`` cache is hit.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import localarith as la
import oracles as o
from harness import Kind

CYCLES = 3

MEDIUM = ((3, 5), (13, 2), (2, 8), (11, 2), (5, 3))
SMALL = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2))


# -- cyclotomic ramification -------------------------------------------------------


def _unit_depths(p, n):
    """Depth p^v(a - 1) of each unit a mod p^n other than 1."""
    q = p**n
    return sorted(p ** o.vp(a - 1, p) for a in range(2, q) if a % p)


def lower_jumps(p, n):
    return tuple(p**m - 1 for m in range(1 if p == 2 else 0, n))


def _run_group(rec, slot):
    with rec.span("ramification.cyclotomic_group"):
        slot["group"] = group = la.cyclotomic_group(slot["p"], slot["n"])
    return group


def _check_group(rec, slot, group):
    p, n = slot["p"], slot["n"]
    finite = sorted(d for d in group.depths if d != math.inf)
    return group.order == (p - 1) * p ** (n - 1) and finite == _unit_depths(p, n)


def _run_different(rec, slot):
    with rec.span("ramification.different_discriminant"):
        return la.different_discriminant(slot["group"])


def _check_different(rec, slot, report):
    p, n = slot["p"], slot["n"]
    return (
        report.different_exponent == n * p**n - (n + 1) * p ** (n - 1)
        and report.lower_jumps == lower_jumps(p, n)
    )


def _run_herbrand(rec, slot):
    with rec.span("ramification.herbrand_functions"):
        return la.herbrand_functions(slot["group"])


def _check_herbrand(rec, slot, out):
    """phi agrees with the infimum formula and psi inverts it, at and
    between the lower jumps, where phi changes slope."""
    phi, psi = out
    group = slot["group"]
    jumps = lower_jumps(slot["p"], slot["n"])
    points = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
    points += [u + Fraction(k, 2) for u in jumps for k in (1, 2, 3)]
    return all(
        phi.evaluate(u) == la.phi_via_infimum(group, u) and psi.evaluate(phi.evaluate(u)) == u
        for u in points
    )


def _run_upper(rec, slot):
    with rec.span("ramification.upper_numbering"):
        return la.upper_numbering(slot["group"])


def _check_upper(rec, slot, upper):
    p, n = slot["p"], slot["n"]
    return upper.jumps == tuple(range(1 if p == 2 else 0, n))


def _run_quotient(rec, slot):
    # the last step of the pipeline releases the group, so that peak memory
    # is set by one group at a time, not by how many cycles a worker ran
    group = slot.pop("group")
    with rec.span("ramification.cyclotomic_reduction_kernel"):
        kernel = la.cyclotomic_reduction_kernel(slot["p"], slot["n"], slot["s"])
    with rec.span("ramification.quotient_filtration"):
        return la.quotient_filtration(group, kernel)


def _check_quotient(rec, slot, quotient):
    """G / G(s) carries the filtration of the p^s-th roots of unity."""
    p, s = slot["p"], slot["s"]
    finite = sorted(d for d in quotient.depths if d != math.inf)
    return quotient.order == (p - 1) * p ** (s - 1) and finite == _unit_depths(p, s)


GROUP = Kind("cyclotomic_group", "ramification", _run_group, _check_group)
GROUP_RECENT = Kind("ramification.cyclotomic_group.recent", "ramification", _run_group, _check_group)
DIFFERENT = Kind("different_discriminant", "ramification", _run_different, _check_different)
HERBRAND = Kind("herbrand_functions", "ramification", _run_herbrand, _check_herbrand)
UPPER = Kind("upper_numbering", "ramification", _run_upper, _check_upper)
QUOTIENT = Kind("quotient_filtration", "ramification", _run_quotient, _check_quotient)
TOO_LARGE = Kind("cyclotomic_group.too_large", "ramification", _run_group, expect=la.ResourceLimitError)


def _pipeline(group_kind, p, n, s):
    slot = {"p": p, "n": n, "s": s}
    return [(group_kind, slot)] + [(k, slot) for k in (DIFFERENT, HERBRAND, UPPER, QUOTIENT)]


def _middle_s(rng, n):
    """A reduction level whose kernel is neither trivial nor everything."""
    return 1 if n == 2 else rng.randint(2, n - 1)


# -- finite fields ------------------------------------------------------------------


def irreducible(rng, q, degree):
    """A monic irreducible over GF(q), as element codes, by the Ben-Or test.
    For q = 4 it is a linear polynomial or an odd-degree irreducible over
    GF(2), which stays irreducible over GF(4)."""
    p = 2 if q == 4 else q
    if q == 4 and degree == 1:
        return (rng.randrange(4), 1)
    if q == 4 and degree % 2 == 0:
        raise ValueError("even degrees over GF(4) are not generated")
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if o.fp_is_irreducible(f, p):
            return tuple(f)


def _product(rec, q, factors):
    with rec.span("finitefield.FqPoly"):
        field = la.FiniteField(q)
        out = la.FqPoly(field, (1,))
        for f in factors:
            out = out * la.FqPoly(field, f)
        return out


def factor_input(rng, q, degrees):
    factors = [irreducible(rng, q, d) for d in degrees]
    return q, factors, Counter(factors)


def _run_factor(rec, inp):
    q, factors, _ = inp
    poly = _product(rec, q, factors)
    with rec.span("finitefield.factor_monic"):
        return la.factor_monic(poly)


def _check_factor(rec, inp, out):
    return Counter({f.coeffs: m for f, m in out.items()}) == inp[2]


def _irreducibility_input(rng, q, degrees):
    factors = [irreducible(rng, q, d) for d in degrees]
    return q, factors, len(factors) == 1


def _run_irreducible(rec, inp):
    q, factors, _ = inp
    poly = _product(rec, q, factors)
    with rec.span("finitefield.is_irreducible"):
        return poly.is_irreducible()


def _sum_formula_input(rng, q, num_degrees, den_degrees):
    num = [irreducible(rng, q, d) for d in num_degrees]
    den = [irreducible(rng, q, d) for d in den_degrees]
    expected = Counter(num)
    expected.subtract(Counter(den))
    finite = {f: v for f, v in expected.items() if v}
    return q, num, den, finite, sum(den_degrees) - sum(num_degrees)


def _run_sum_formula(rec, inp):
    q, num, den, _, _ = inp
    a, b = _product(rec, q, num), _product(rec, q, den)
    with rec.span("valuations.sum_formula_check"):
        return la.sum_formula_check(a, b)


def _check_sum_formula(rec, inp, report):
    """Total 0, and one entry per place with the multiplicity built in."""
    q, _, _, finite, at_infinity = inp
    got = {place.poly.coeffs: v for place, v in report.entries if place.is_finite}
    infinite = [v for place, v in report.entries if not place.is_finite]
    return (
        report.total == 0
        and report.holds
        and got == finite
        and infinite == ([at_infinity] if at_infinity else [])
    )


def _check_value(rec, inp, out):
    return out == inp[-1]


FACTOR = Kind("factor_monic", "finitefield", _run_factor, _check_factor)
FACTOR_RECENT = Kind("finitefield.factor_monic.recent", "finitefield", _run_factor, _check_factor)
IRREDUCIBLE = Kind("is_irreducible", "finitefield", _run_irreducible, _check_value)
SUM_FORMULA = Kind("sum_formula_check", "valuations", _run_sum_formula, _check_sum_formula)


# -- tame extensions ------------------------------------------------------------------


def _run_count(rec, inp):
    q, e, f = inp
    with rec.span("extensions.count_tame_extensions"):
        return la.count_tame_extensions(q, e, f)


def _check_count(rec, inp, out):
    q, e, f = inp
    return out == la.orbit_count_oracle(math.gcd(e, q**f - 1), q)


def _run_classify(rec, inp):
    with rec.span("extensions.TameExtensionDescriptor"):
        descriptor = la.TameExtensionDescriptor(*inp)
    with rec.span("extensions.classify_tame"):
        return la.classify_tame(descriptor)


def check_classify(rec, inp, out):
    """Galois iff e | q^f - 1 and e | r(q - 1); abelian iff also e | q - 1;
    a galois extension's presented group has order e f."""
    q, e, f, r = inp
    galois = (q**f - 1) % e == 0 and r * (q - 1) % e == 0
    abelian = galois and (q - 1) % e == 0
    order_ok = out.presentation.verified_order() == e * f if galois else out.presentation is None
    return out.galois == galois and out.abelian == abelian and order_ok


def tame_input(rng):
    q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13))
    (p,) = o.prime_factors(q)
    e = rng.choice([k for k in range(2, 13) if k % p])
    return q, e, rng.randint(1, 4)


def classify_input(rng):
    """Small e and f, so the presented group of order e f stays small."""
    q = rng.choice((2, 3, 4, 5, 7))
    (p,) = o.prime_factors(q)
    e = rng.choice([k for k in range(2, 7) if k % p])
    f = rng.randint(1, 3)
    return q, e, f, rng.randrange(math.gcd(e, q**f - 1))


COUNT = Kind("count_tame_extensions", "extensions", _run_count, _check_count)
CLASSIFY = Kind("classify_tame", "extensions", _run_classify, check_classify)
WILD = Kind("count_tame_extensions.wild", "extensions", _run_count, expect=la.InvalidArgumentError)


# -- the cycle -------------------------------------------------------------------------


def _cycle(rng):
    """Every group size in every cycle; the seed picks the reduction level
    and, below, the irreducible factors."""
    pipelines = [_pipeline(GROUP_RECENT, 2, 10, rng.randint(4, 7))]
    for p, n in MEDIUM + SMALL:
        pipelines.append(_pipeline(GROUP, p, n, _middle_s(rng, n)))
    items = [item for pipeline in pipelines for item in pipeline]

    # two, so that the tail percentile is the median of twice as many of them
    for _ in range(2):
        items.append((FACTOR_RECENT, factor_input(rng, 2, (10, 10))))
    shapes = (
        (2, (8, 8)), (2, (6, 6, 4)), (3, (4, 4)), (3, (5, 3)), (4, (3, 3)),
        (4, (5, 1)), (5, (3, 3)), (5, (4, 2)), (7, (3, 3)), (7, (3, 2)),
    )
    for q, degrees in shapes:
        items.append((FACTOR, factor_input(rng, q, degrees)))
    for q, degrees in ((2, (11,)), (2, (6, 5)), (3, (6,)), (4, (5,)), (5, (2, 2))):
        items.append((IRREDUCIBLE, _irreducibility_input(rng, q, degrees)))
    items.append((SUM_FORMULA, _sum_formula_input(rng, 3, (4, 2, 2), (3,))))
    items.append((SUM_FORMULA, _sum_formula_input(rng, 5, (2, 2), (3, 1, 1))))
    for _ in range(3):
        items.append((COUNT, tame_input(rng)))
    for _ in range(2):
        items.append((CLASSIFY, classify_input(rng)))
    items.append((WILD, (2, 4, rng.randint(1, 3))))
    items.append((TOO_LARGE, {"p": 2, "n": 11, "s": 1}))

    # keep each pipeline in order, interleave everything else at random
    blocks = pipelines + [[item] for item in items[sum(len(p) for p in pipelines) :]]
    rng.shuffle(blocks)
    return [item for block in blocks for item in block]


def generate(rng):
    return [_cycle(rng) for _ in range(CYCLES)]
