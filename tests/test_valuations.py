import dataclasses
import importlib
import math
import pkgutil
import random
import time
from fractions import Fraction

import pytest

from localarith import (
    FiniteField,
    FqPoly,
    FunctionFieldPlace,
    GaussParameter,
    INFINITY,
    InvalidArgumentError,
    PadicNumber,
    RationalPlace,
    SumFormulaReport,
    ff_valuation,
    gauss_valuation,
    normalized_absolute_value,
    product_formula_report,
    sum_formula_check,
    vp_rational,
    weak_approximation,
)
import localarith
from localarith import numtheory, valuations
from localarith.finitefield import monic_irreducibles
from localarith.numtheory import _unchecked, factorint
from localarith.padic import DigitExpansion, expansion
from localarith.polynomials import (
    NewtonPolygon,
    PadicPolynomial,
    TruncatedSeries,
    newton_polygon,
    poly_mul,
    weierstrass_prepare,
)
from localarith.ramification import (
    FilteredGroup,
    PiecewiseLinear,
    UpperNumbering,
    all_subgroups,
    cyclotomic_group,
    herbrand_functions,
    is_normal,
    quotient_filtration,
    subgroup_filtration,
    upper_numbering,
)
from localarith.valuations import ProductFormulaReport

from conftest import random_rational


class TestVpRational:
    def test_examples(self):
        assert vp_rational(2, 12) == 2
        assert vp_rational(13, Fraction(-691, 2730)) == -1
        assert vp_rational(5, Fraction(-1, 4)) == 0

    def test_zero_gives_infinity(self):
        assert vp_rational(7, 0) == INFINITY

    def test_rejects_composite(self):
        with pytest.raises(InvalidArgumentError):
            vp_rational(6, 5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: vp_rational(5, x),
            lambda x: normalized_absolute_value(RationalPlace.finite(5), x),
            lambda x: normalized_absolute_value(RationalPlace.infinite(), x),
            lambda x: PadicNumber.from_rational(5, x, 4),
        ],
    )
    @pytest.mark.parametrize("x", [0.2, 0.1, True, False])
    def test_rejects_floats_and_bools(self, call, x):
        with pytest.raises(InvalidArgumentError):
            call(x)

    def test_multiplicativity(self, rng):
        primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
        for _ in range(1000):
            x, y = random_rational(rng), random_rational(rng)
            for p in primes:
                assert vp_rational(p, x * y) == vp_rational(p, x) + vp_rational(p, y)

    def test_ultrametric_with_strict_rule(self, rng):
        for _ in range(400):
            x, y = random_rational(rng), random_rational(rng)
            if x + y == 0:
                continue
            for p in (2, 3, 5, 7):
                vx, vy, vs = vp_rational(p, x), vp_rational(p, y), vp_rational(p, x + y)
                assert vs >= min(vx, vy)
                if vx != vy:
                    assert vs == min(vx, vy)


class TestProductFormula:
    def test_minus_one(self):
        report = product_formula_report(-1)
        assert report.entries == ((RationalPlace.infinite(), Fraction(1)),)
        assert report.product == 1

    def test_twelve(self):
        report = product_formula_report(12)
        as_dict = {str(place): a for place, a in report.entries}
        assert as_dict == {"2": Fraction(1, 4), "3": Fraction(1, 3), "inf": Fraction(12)}
        assert report.product == 1

    def test_single_prime(self):
        for p in (2, 3, 11):
            report = product_formula_report(p)
            as_dict = {str(place): a for place, a in report.entries}
            assert as_dict == {str(p): Fraction(1, p), "inf": Fraction(p)}
            assert report.product == 1

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            product_formula_report(0)

    def test_exact_product_random(self, rng):
        for _ in range(200):
            assert product_formula_report(random_rational(rng)).product == 1

    def test_agrees_with_the_normalized_absolute_value_route(self, rng):
        near_2_61 = 2**61 - 1  # prime
        xs = [1, -1, 12, -(2**100), Fraction(3**40, 7**30), Fraction(-(5**70), 2 * 11**20)]
        xs += [near_2_61, Fraction(-6, near_2_61), Fraction(near_2_61 * 9, 2**64)]
        xs += [random_rational(rng, bound=rng.choice((10, 10**4, 10**9))) for _ in range(300)]
        for x in xs:
            assert repr(product_formula_report(x)) == repr(normalized_route_report(x))


def normalized_route_report(x):
    """product_formula_report before it read factorint's exponents: each
    prime's |x|_p through normalized_absolute_value, then the product."""
    x = Fraction(x)
    primes = sorted(set(factorint(x.numerator)) | set(factorint(x.denominator)))
    entries = []
    product = Fraction(1)
    for p in primes:
        a = normalized_absolute_value(RationalPlace.finite(p), x)
        if a != 1:
            entries.append((RationalPlace.finite(p), a))
            product *= a
    entries.append((RationalPlace.infinite(), abs(x)))
    return ProductFormulaReport(tuple(entries), product * abs(x))


def checked_places_report(x):
    """product_formula_report before its places skipped the primality check:
    each of factorint's primes proved prime again by RationalPlace.finite."""
    x = Fraction(x)
    v = factorint(x.numerator) | {p: -e for p, e in factorint(x.denominator).items()}
    entries = [(RationalPlace.finite(p), Fraction(p) ** -v[p]) for p in sorted(v)]
    entries.append((RationalPlace.infinite(), abs(x)))
    return ProductFormulaReport(tuple(entries), math.prod(a for _, a in entries))


def places_of_q():
    """The finite places of product_formula_report, whose whole report must
    equal the one that proves each prime again."""
    rng = random.Random("checked places")
    xs = [Fraction(75809, 94), 1849, -2021, Fraction(1, 1847 * 1849), 2**61 - 1]
    xs += [rng.randint(-(10**6), 10**6) or 1 for _ in range(150)]
    xs += [Fraction(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**6)) for _ in range(150)]
    for x in xs:
        report, oracle = product_formula_report(x), checked_places_report(x)
        assert report == oracle and repr(report) == repr(oracle)
        yield from (place for place, _ in report.entries)


def places_of_function_fields():
    rng = random.Random("checked function field places")
    for q in (2, 3, 4, 5, 9):
        for _ in range(12):
            num, den = ([rng.randrange(q) for _ in range(rng.randint(1, 6))] + [1] for _ in "ab")
            report = sum_formula_check(_poly(q, num), _poly(q, den))
            yield from (place for place, _ in report.entries)


def filtered_groups():
    for p, n in ((2, 1), (2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2)):
        group = cyclotomic_group(p, n)
        yield group
        for h in all_subgroups(group):
            yield subgroup_filtration(group, h)
            if is_normal(group, h):
                yield quotient_filtration(group, h)


def piecewise_linear_functions():
    for group in filtered_groups():
        phi, psi = herbrand_functions(group)
        yield from (phi, psi, phi.inverse(), psi.inverse())


def upper_numberings():
    yield from map(upper_numbering, filtered_groups())


def newton_polygons():
    rng = random.Random("checked polygons")
    for p in (2, 3, 5, 7):
        for _ in range(40):
            coeffs = [random_rational(rng, 50) * Fraction(p) ** rng.randint(-3, 3) for _ in "abcd"]
            yield newton_polygon(PadicPolynomial(p, [rng.randint(1, 9) * p**2, *coeffs, 1]))


def truncated_series():
    rng = random.Random("checked series")
    for p in (2, 3, 5):
        for _ in range(30):
            coeffs = [rng.randint(-30, 30) * p ** rng.randint(0, 2) for _ in range(7)]
            coeffs[rng.randrange(7)] = rng.randint(1, p - 1)  # a unit: w(f) = 0
            tail, precision = rng.randint(1, 12), rng.randint(1, 12)
            yield weierstrass_prepare(TruncatedSeries(p, coeffs, tail), precision)[1]


def digit_expansions():
    rng = random.Random("checked expansions")
    for p in (2, 3, 5, 101):
        yield expansion(PadicNumber.zero(p), 1)
        for _ in range(30):
            x = PadicNumber.from_rational(p, random_rational(rng), rng.randint(1, 12))
            yield expansion(x, rng.randint(1, x.precision))


UNCHECKED_BUILDS = {
    RationalPlace: places_of_q,
    FunctionFieldPlace: places_of_function_fields,
    FilteredGroup: filtered_groups,
    PiecewiseLinear: piecewise_linear_functions,
    UpperNumbering: upper_numberings,
    NewtonPolygon: newton_polygons,
    TruncatedSeries: truncated_series,
    DigitExpansion: digit_expansions,
}


@pytest.mark.parametrize("cls", UNCHECKED_BUILDS, ids=lambda cls: cls.__name__)
def test_unchecked_values_equal_their_checked_construction(cls):
    """A value the library builds past its constructor's checks equals the one
    the checked constructor builds from the same fields: in ==, hash, repr and
    type.  A group, which compares by identity, must match field for field."""
    values = list(UNCHECKED_BUILDS[cls]())
    assert values and {type(x) for x in values} == {cls}
    for x in values:
        if cls is FilteredGroup:
            x.table  # a derived group composes its table on first use
            assert vars(FilteredGroup(x.table, x.identity, x.depths)) == vars(x)
            continue
        checked = cls(**{f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
        assert type(checked) is cls and checked == x and hash(checked) == hash(x)
        assert repr(checked) == repr(x)


def test_every_type_built_unchecked_is_compared(monkeypatch):
    built = set()

    def recording(cls, **fields):
        built.add(cls)
        return _unchecked(cls, **fields)

    # the modules that import _unchecked: a new one must add its types above
    names = [m.name for m in pkgutil.iter_modules(localarith.__path__)]
    modules = [importlib.import_module(f"localarith.{name}") for name in names]
    users = [m for m in modules if m is not numtheory and vars(m).get("_unchecked") is _unchecked]
    assert [m.__name__ for m in users] == [
        f"localarith.{name}" for name in ("padic", "polynomials", "ramification", "valuations")
    ]
    for module in users:
        monkeypatch.setattr(module, "_unchecked", recording)
    for make in UNCHECKED_BUILDS.values():
        list(make())
    assert built == set(UNCHECKED_BUILDS)


def _poly(q, coeffs):
    return FqPoly(FiniteField(q), coeffs)


def poly_power(f, k):
    out = FqPoly(f.field, [1])
    for _ in range(k):
        out = out * f
    return out


class TestFunctionFieldValuations:
    def test_infinite_place(self):
        assert ff_valuation(FunctionFieldPlace.infinite(2), _poly(2, [1]), _poly(2, [0, 1])) == 1

    def test_finite_place(self):
        place = FunctionFieldPlace.finite(_poly(2, [0, 1]))
        assert ff_valuation(place, _poly(2, [0, 0, 0, 1, 0, 1])) == 3

    def test_place_at_itself(self):
        f = _poly(3, [1, 0, 1])  # T^2 + 1, irreducible over GF(3)
        assert ff_valuation(FunctionFieldPlace.finite(f), f) == 1

    def test_place_degrees(self):
        assert FunctionFieldPlace.finite(_poly(3, [1, 0, 1])).degree == 2
        assert FunctionFieldPlace.infinite(3).degree == 1

    def test_reducible_place_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FunctionFieldPlace.finite(_poly(2, [0, 0, 1]))  # T^2 = T*T

    def test_zero_gives_infinity(self):
        assert ff_valuation(FunctionFieldPlace.infinite(2), _poly(2, [])) == INFINITY

    @pytest.mark.parametrize(
        "place, num, den",
        [
            (FunctionFieldPlace.finite(_poly(3, [0, 1])), _poly(5, [0, 1]), None),
            (FunctionFieldPlace.infinite(3), _poly(5, [0, 1]), None),
            (FunctionFieldPlace.finite(_poly(5, [0, 1])), _poly(5, [0, 1]), _poly(3, [1, 1])),
        ],
    )
    def test_mixed_fields_rejected(self, place, num, den):
        with pytest.raises(InvalidArgumentError, match="share one field"):
            ff_valuation(place, num, den)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: FunctionFieldPlace(5, _poly(3, [0, 1])), r"T is not monic irreducible over GF\(5\)"),
            (lambda: FunctionFieldPlace(3, "T"), "operands must be FqPoly polynomials"),
            (lambda: FunctionFieldPlace.finite("T"), "operands must be FqPoly polynomials"),
        ],
    )
    def test_a_place_agrees_with_its_polynomial(self, call, message):
        with pytest.raises(InvalidArgumentError, match=message):
            call()

    def test_place_valuations_match_the_divmod_loop(self, rng, monkeypatch):
        # a place valuation divides code lists by the monic place: no FqPoly
        # operator runs, and the exponents are those of divmod on FqPoly
        def divmod_loop(place_poly, f):
            v, (f, remainder) = 0, divmod(f, place_poly)
            while remainder.is_zero():
                v, (f, remainder) = v + 1, divmod(f, place_poly)
            return v

        cases = []
        for q in (2, 3, 4, 9):
            field = FiniteField(q)
            places = [g for d in (1, 2) for g in monic_irreducibles(field, d) if g.degree == d]
            for _ in range(30):
                place = rng.choice(places)
                other = FqPoly(field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(3)])
                num = poly_power(place, rng.randint(0, 3)) * other
                den = poly_power(place, rng.randint(0, 2)) * FqPoly(field, [1, 0, 1, 1])
                expected = divmod_loop(place, num) - divmod_loop(place, den)
                cases.append((FunctionFieldPlace.finite(place), num, den, expected))

        def refuse(*args):
            raise AssertionError("an FqPoly operator ran")

        for name in ("__add__", "__sub__", "__mul__", "__divmod__", "__mod__", "__floordiv__"):
            monkeypatch.setattr(FqPoly, name, refuse)
        for place, num, den, expected in cases:
            assert ff_valuation(place, num, den) == expected


class TestSumFormula:
    def test_monic_irreducible(self):
        f = _poly(2, [1, 1, 1])  # T^2 + T + 1
        report = sum_formula_check(f)
        entries = {str(place): v for place, v in report.entries}
        assert entries == {"1 + T + T^2": 1, "inf": -2}
        assert report.total == 0 and report.holds

    def test_constant(self):
        report = sum_formula_check(_poly(4, [2]))
        assert report.entries == () and report.total == 0 and report.holds

    def test_t2_over_t_plus_1(self):
        report = sum_formula_check(_poly(2, [0, 0, 1]), _poly(2, [1, 1]))
        entries = {str(place): v for place, v in report.entries}
        assert entries == {"T": 2, "1 + T": -1, "inf": -1}
        assert report.holds

    def test_mixed_fields_rejected(self):
        with pytest.raises(InvalidArgumentError, match="share one field"):
            sum_formula_check(_poly(4, [1, 1]), _poly(2, [1, 1]))

    def test_a_non_polynomial_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="operands must be FqPoly polynomials"):
            sum_formula_check(9)

    @pytest.mark.parametrize(
        "num, den, message",
        [
            (_poly(3, []), None, "the sum formula concerns nonzero functions"),
            (_poly(3, []), _poly(3, [1, 1]), "the sum formula concerns nonzero functions"),
            (_poly(3, [1, 1]), _poly(3, []), "denominator must be nonzero"),
        ],
    )
    def test_a_zero_numerator_or_denominator_is_rejected(self, num, den, message):
        with pytest.raises(InvalidArgumentError, match=message):
            sum_formula_check(num, den)

    def test_random_functions(self, rng):
        for q in (2, 3, 4):
            field = FiniteField(q)
            for _ in range(40):
                num = FqPoly(field, [rng.randrange(q) for _ in range(rng.randint(1, 5))] + [1])
                den = FqPoly(field, [rng.randrange(q) for _ in range(rng.randint(1, 5))] + [1])
                assert sum_formula_check(num, den).holds

    def test_places_match_the_validating_constructor(self, rng, monkeypatch):
        # factor_monic returns monic irreducibles, so sum_formula_check builds
        # their places without Ben-Or's test; the checked constructor agrees
        pairs = []
        for q in (2, 3, 4, 9):
            field = FiniteField(q)
            for _ in range(15):
                num, den = (
                    FqPoly(field, [rng.randrange(q) for _ in range(rng.randint(1, 6))] + [1])
                    for _ in range(2)
                )
                pairs.append((num, den))
        checked = []
        for num, den in pairs:
            report = sum_formula_check(num, den)
            entries = tuple((FunctionFieldPlace(place.q, place.poly), v) for place, v in report.entries)
            checked.append(SumFormulaReport(entries, report.total, report.holds))

        def refuse(self):
            raise AssertionError("is_irreducible ran")

        monkeypatch.setattr(FqPoly, "is_irreducible", refuse)
        assert [sum_formula_check(num, den) for num, den in pairs] == checked


class TestGaussValuation:
    def test_examples(self):
        assert gauss_valuation(0, [1, 0]) == (0, frozenset({1}))
        assert gauss_valuation(1, [1, 0]) == (1, frozenset({0, 1}))

    def test_exponential_truncation_attainment(self):
        vals = [vp_rational(2, Fraction(1, math.factorial(i))) for i in range(8)]
        w, attained = gauss_valuation(Fraction(3, 4), vals)
        assert w == 0 and attained == frozenset({0, 4})

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gauss_valuation(0, [INFINITY, INFINITY])

    @pytest.mark.parametrize("C", [0.5, True])
    def test_inexact_parameter_rejected(self, C):
        with pytest.raises(InvalidArgumentError):
            gauss_valuation(C, [1, 2])
        with pytest.raises(InvalidArgumentError):
            GaussParameter(C)

    def test_product_additivity(self, rng):
        for _ in range(150):
            p = rng.choice([2, 3, 5])
            f = [random_rational(rng, 50) for _ in range(rng.randint(1, 5))]
            g = [random_rational(rng, 50) for _ in range(rng.randint(1, 5))]
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            vf = [vp_rational(p, x) for x in f]
            vg = [vp_rational(p, x) for x in g]
            vfg = [vp_rational(p, x) for x in poly_mul(f, g)]
            assert (
                gauss_valuation(c, vfg)[0]
                == gauss_valuation(c, vf)[0] + gauss_valuation(c, vg)[0]
            )


def one_step_exponent(p, eps):
    """The least n >= 0 with p^(-n) < eps, one step at a time: the oracle
    for weak_approximation's exponent at a finite place."""
    n = 0
    while Fraction(p) ** (-n) >= eps:
        n += 1
    return n


def one_step_denominator(M, eps, aux):
    """The least d = aux^m, m >= 1, with M/(2d) < eps, one step at a time:
    the oracle for weak_approximation's archimedean window."""
    d = aux
    while Fraction(M, 2 * d) >= eps:
        d *= aux
    return d


class TestWeakApproximation:
    def test_crt_example(self):
        y = weak_approximation(
            [
                (RationalPlace.finite(2), Fraction(1), Fraction(1, 7)),
                (RationalPlace.finite(3), Fraction(0), Fraction(1, 2)),
            ]
        )
        assert y == 9

    def test_single_place(self):
        y = weak_approximation([(RationalPlace.finite(5), Fraction(2, 3), Fraction(1, 125))])
        assert y == Fraction(2, 3)

    def test_no_finite_target(self):
        assert weak_approximation([]) == 0
        y = weak_approximation([(RationalPlace.infinite(), Fraction(-7, 3), Fraction(1, 10**6))])
        assert y == Fraction(-7, 3)

    def test_archimedean_window(self):
        y = weak_approximation(
            [
                (RationalPlace.finite(2), Fraction(1), Fraction(1, 2)),
                (RationalPlace.infinite(), Fraction(1, 2), Fraction(3, 5)),
            ]
        )
        assert y == 1

    def test_duplicate_place_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weak_approximation(
                [
                    (RationalPlace.finite(2), Fraction(0), Fraction(1)),
                    (RationalPlace.finite(2), Fraction(1), Fraction(1)),
                ]
            )

    @pytest.mark.parametrize(
        "targets",
        [
            [(5, 1, 1)],
            [5],
            [(RationalPlace.finite(5), 1)],
            [(RationalPlace.finite(5), 0.5, Fraction(1, 5))],
            [(RationalPlace.infinite(), 1, 0.1)],
        ],
    )
    def test_malformed_targets_rejected(self, targets):
        with pytest.raises(InvalidArgumentError):
            weak_approximation(targets)

    # no y meets |x - y| < eps <= 0: one infinite place alone returned x, and
    # with a finite place the search for an archimedean window never ended
    @pytest.mark.parametrize(
        "targets",
        [
            [(RationalPlace.infinite(), Fraction(1), Fraction(0))],
            [(RationalPlace.infinite(), Fraction(1), Fraction(-1, 2))],
            [
                (RationalPlace.finite(2), Fraction(0), Fraction(1, 2)),
                (RationalPlace.infinite(), Fraction(0), Fraction(0)),
            ],
        ],
    )
    def test_tolerance_at_the_infinite_place_must_be_positive(self, targets):
        with pytest.raises(InvalidArgumentError, match="tolerances must be positive"):
            weak_approximation(targets)

    def test_bad_denominator_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weak_approximation(
                [
                    (RationalPlace.finite(2), Fraction(1, 2), Fraction(1, 4)),
                    (RationalPlace.finite(3), Fraction(0), Fraction(1)),
                ]
            )

    def test_exponents_match_the_one_step_loops(self, rng):
        for _ in range(2000):
            p = rng.choice([2, 3, 5, 7, 11, 101])
            num, den = (rng.randint(1, 10 ** rng.randint(1, 30)) for _ in range(2))
            eps = Fraction(num, den)
            assert valuations._least_exponent(p, 1 / eps) == one_step_exponent(p, eps)
            M = rng.randint(1, 10**rng.randint(1, 40))
            d = p ** max(1, valuations._least_exponent(p, M / (2 * eps)))
            assert d == one_step_denominator(M, eps, p)

    def test_exponent_of_a_tolerance_with_100000_digits(self):
        # the one-step loops take time quadratic in the digits of 1/eps; each
        # exponent is now a bisection
        eps = Fraction(1, 2**100000)
        targets = [
            (RationalPlace.finite(2), Fraction(1), eps),
            (RationalPlace.finite(3), Fraction(0), Fraction(1, 2)),
            (RationalPlace.infinite(), Fraction(1, 3), Fraction(1, 2**100000)),
        ]
        started = time.perf_counter()
        y = weak_approximation(targets)
        assert time.perf_counter() - started < 5
        for place, x, tolerance in targets:
            assert normalized_absolute_value(place, x - y) < tolerance
        assert valuations._least_exponent(2, 1 / eps) == 100001

    def test_postcondition_random(self, rng):
        for _ in range(60):
            primes = rng.sample([2, 3, 5, 7, 11], rng.randint(1, 3))
            targets = []
            for p in primes:
                x = Fraction(rng.randint(-20, 20), rng.choice([1, 9, 49, 121, 169]))
                if any(x.denominator % q == 0 for q in primes):
                    x = Fraction(rng.randint(-20, 20))
                targets.append(
                    (RationalPlace.finite(p), x, Fraction(1, p ** rng.randint(1, 4)))
                )
            if rng.random() < 0.6:
                targets.append(
                    (
                        RationalPlace.infinite(),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(1, rng.randint(1, 40)),
                    )
                )
            y = weak_approximation(targets)
            for place, x, eps in targets:
                assert normalized_absolute_value(place, x - y) < eps
