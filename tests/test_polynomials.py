import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localarith import (
    HypothesisFailedError,
    InvalidArgumentError,
    PadicPolynomial,
    PrecisionLossError,
    TruncatedSeries,
    cyclotomic,
    discriminant,
    eisenstein_test,
    hensel_lift_factors,
    newton_polygon,
    primitive_rescale,
    refine_factorization,
    resultant,
    resultant_mn,
    root_valuations,
    slope_factorization,
    sylvester_matrix,
    vp_rational,
    weierstrass_prepare,
)
from localarith import polynomials
from localarith.finitefield import FiniteField, FqPoly
from localarith.errors import ResourceLimitError
from localarith.formats import MAX_DEGREE, parse_polynomial
from localarith.numtheory import (
    INFINITY,
    _halvings,
    _instance,
    _inverse_mod_prime_power,
    _precision,
    _residue,
    int_valuation,
    rational_valuation,
)
from localarith.polynomials import NewtonPolygon, poly_add, poly_mul, poly_sub

from conftest import deadline, random_rational

EXP7 = parse_polynomial(
    "1 + T + 1/2*T^2 + 1/6*T^3 + 1/24*T^4 + 1/120*T^5 + 1/720*T^6 + 1/5040*T^7"
)


def is_pure_of(coeffs, p, side):
    """Brute force: the ends sit on the side's line, no point lies below it."""
    length, slope = side
    if len(coeffs) != length + 1 or coeffs[0] == 0:
        return False
    v0 = vp_rational(p, coeffs[0])
    return vp_rational(p, coeffs[-1]) == v0 + length * slope and all(
        c == 0 or vp_rational(p, c) >= v0 + j * slope for j, c in enumerate(coeffs)
    )


def fraction_hull_polygon(f):
    """newton_polygon before its hull ran on integers: every point a Fraction."""
    points = [(j, Fraction(v)) for j, v in enumerate(f.coefficient_valuations()) if v != INFINITY]
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    sides = tuple((x2 - x1, Fraction(y2 - y1, x2 - x1)) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple(hull), sides)


def slope_moduli(f, precision):
    """(c, ks): the content exponent of f and, per slope factor, the exponents
    k_j of the moduli p^k_j its coefficients are reduced by (the first factor
    divided by p^c), as slope_factorization's docstring states them."""
    polygon = newton_polygon(f)
    c = min(y for _, y in polygon.vertices)
    x_r, y_r = polygon.vertices[-1]
    u, ks = polygon.vertices[0][1] - c, []  # u = v(work(0)) at each split
    ends = zip(polygon.vertices, polygon.vertices[1:], polygon.sides[:-1])
    for (x, y), (x1, y1), (length, gamma) in ends:
        deg, C = x_r - x, -gamma
        target = max(precision - c + 8 + max(0, deg * C), max(u, u + y_r - y + deg * C) + 1)
        c_g = min(u, u + y1 - y)
        ks.append([math.ceil(target - j * C) + 2 - c_g for j in range(length + 1)])
        u, last = c_g, [math.ceil(target - j * C) + 2 + c_g - u for j in range(x_r - x1 + 1)]
    return c, ks + [last]


def product_agrees(f, factors, p, precision):
    product = [1]
    for g, _ in factors:
        product = poly_mul(product, list(g.coefficients))
    defect = poly_sub(list(f.coefficients), product)
    return all(vp_rational(p, c) >= precision for c in defect if c)


@st.composite
def pure_factor_products(draw):
    """(p, precision, sides, f): f is +-p^c, 0 <= c <= 45, times one pure
    factor per side; the sides have distinct slopes, sorted increasingly."""
    p = draw(st.sampled_from([2, 3, 5]))
    units = st.integers(-60, 60).filter(lambda u: u % p)
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(-6, 6)),
            min_size=2,
            max_size=3,
            unique_by=lambda s: Fraction(s[1], s[0]),
        )
    )
    f = [draw(st.sampled_from([1, -1])) * p ** draw(st.integers(0, 45))]
    for length, rise in shapes:
        base = max(0, -rise) + draw(st.integers(0, 2))
        factor = [draw(units) * p**base]
        for j in range(1, length):
            # on or above the side's line
            height = base + math.ceil(Fraction(j * rise, length)) + draw(st.integers(0, 3))
            factor.append(draw(st.sampled_from([0, 1])) * draw(units) * p**height)
        factor.append(draw(units) * p ** (base + rise))
        f = poly_mul(f, factor)
    sides = sorted(((length, Fraction(rise, length)) for length, rise in shapes), key=lambda s: s[1])
    return p, draw(st.integers(1, 60)), sides, PadicPolynomial(p, f)


@functools.cache
def p_adic_rationals(p, low, high):
    """Strategies for u * p^k or 0, and for u * p^k alone, u a p-adic unit
    fraction and low <= k <= high."""
    numerators = st.sampled_from([n for n in range(-99, 100) if n % p])
    denominators = st.sampled_from([d for d in range(1, 50) if d % p])
    scaled = st.builds(
        lambda n, d, k: Fraction(n, d) * Fraction(p) ** k,
        numerators,
        denominators,
        st.integers(low, high),
    )
    return st.one_of(st.just(Fraction(0)), scaled), scaled


@st.composite
def rational_polynomials(draw):
    """(p, precision, f): degree 1 to 9, coefficient valuations -6..12, some
    coefficients 0, f(0) and the leading coefficient nonzero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coefficient, nonzero = p_adic_rationals(p, -6, 12)
    middle = draw(st.lists(coefficient, max_size=8))
    f = [draw(nonzero)] + middle + [draw(nonzero)]
    return p, draw(st.integers(1, 60)), PadicPolynomial(p, f)


@st.composite
def truncated_series(draw):
    """(p, precision, f): some coefficients 0, and the tail bound and the
    precision often at or just above the minimal valuation w."""
    p = draw(st.sampled_from([2, 3, 5]))
    coefficients = draw(st.lists(p_adic_rationals(p, -4, 8)[0], min_size=1, max_size=10))
    assume(any(coefficients))
    w = min(vp_rational(p, c) for c in coefficients if c)
    near = st.one_of(st.integers(0, 2), st.integers(0, 30))
    tail = w + 1 + draw(near)
    precision = max(1, w + draw(st.integers(-1, 1)) + draw(near))
    return p, precision, TruncatedSeries(p, coefficients, tail)


def record_calls(monkeypatch, name):
    """The argument tuples of the calls of polynomials.<name> from here on."""
    calls, inner = [], getattr(polynomials, name)

    def recorded(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(polynomials, name, recorded)
    return calls


def random_poly(rng, degree, bound=40):
    coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(degree)]
    lead = Fraction(rng.randint(1, bound))
    return coeffs + [lead]


def fraction_gauss_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over Q, the sign flipped per row swap."""
    a = [[Fraction(c) for c in row] for row in matrix]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    return det


def bareiss_det(matrix) -> Fraction:
    """Exact determinant of a square matrix of rationals, by fraction-free
    elimination (Bareiss 1968): the oracle for resultant_mn.

    Each row is scaled once by the lcm of its denominators, so the
    elimination runs on integers: step k replaces every entry below and
    right of the pivot by (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1), an
    exact division, so entries stay minors of the scaled matrix and never
    outgrow Hadamard's bound.  A zero pivot is replaced by the first
    nonzero entry below it, each swap flipping the sign.  The last pivot
    is the determinant of the scaled matrix; dividing by the product of
    the row scales gives the determinant.
    """
    a, scale = [], 1
    for row in matrix:
        d = math.lcm(*(c.denominator for c in row))
        a.append([c.numerator * (d // c.denominator) for c in row])
        scale *= d
    size, sign, previous = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k][k + 1 :]
        for i in range(k + 1, size):
            row, lead = a[i], a[i][k]
            a[i][k + 1 :] = [
                (x * pivot - lead * y) // previous for x, y in zip(row[k + 1 :], pivot_row)
            ]
        previous = pivot
    return Fraction(sign * a[-1][-1], scale)


RATIONALS = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12)
)


@st.composite
def resultant_operands(draw):
    """(g, h, m, n): most operands have degree equal to their bound; some
    fall one, two or all degrees short, so that a bound may sit above the
    degree and an operand may be 0 or a constant; on request g and h
    share a root."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0 if m else 1, 7))

    def operand(bound):
        degree = bound - draw(st.sampled_from((0, 0, 0, 1, 2, bound + 1)))
        if degree < 0:
            return []
        body = draw(st.lists(RATIONALS, min_size=degree, max_size=degree))
        return body + [draw(RATIONALS) or 1]

    if m and n and draw(st.booleans()):
        root = draw(RATIONALS)
        return poly_mul([-root, 1], operand(m - 1)), poly_mul([-root, 1], operand(n - 1)), m, n
    return operand(m), operand(n), m, n


def random_matrix(rng, size):
    """Rational entries, a third of them 0; some have a zero leading pivot
    or a row that is a combination of two others (singular)."""
    def entry():
        if rng.random() < 0.33:
            return Fraction(0)
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12)))

    a = [[entry() for _ in range(size)] for _ in range(size)]
    shape = rng.random()
    if shape < 0.25:
        a[0][0] = Fraction(0)
    elif shape < 0.45 and size >= 3:
        i, j, k = rng.sample(range(size), 3)
        x, y = entry(), entry()
        a[k] = [x * u + y * v for u, v in zip(a[i], a[j])]
    return a


class TestResultant:
    def test_bareiss_matches_fraction_elimination(self, rng):
        singular = 0
        for _ in range(400):
            a = random_matrix(rng, rng.randint(1, 7))
            expected = fraction_gauss_det(a)
            singular += expected == 0
            got = bareiss_det(a)
            assert isinstance(got, Fraction) and got == expected
        assert singular > 40

    def test_bareiss_sign_of_row_swaps(self):
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert bareiss_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert bareiss_det([[0, 2], [0, 3]]) == 0

    @settings(max_examples=200, deadline=None)
    @given(resultant_operands())
    @example(([1, 2, 0], [3, 1], 3, 1))  # a bound above deg g
    @example(([1, 2, 1], [3, 1], 2, 4))  # a bound above deg h
    @example(([1, 2], [3, 1], 2, 2))  # both above: 0
    @example(([Fraction(1, 2), Fraction(-3, 7), 5], [Fraction(2, 3), 1], 2, 1))
    @example(([-2, 1, 1], [-1, 1], 2, 1))  # the shared root 1: 0
    @example(([Fraction(5, 3)], [1, 2, 3], 0, 2))  # a constant g, m = 0
    @example(([7], [1, 2, 3], 3, 2))  # a constant g below its bound
    @example(([], [1, 2, 3], 0, 2))  # g = 0 with m = 0: g_0^n = 0
    @example(([1, 1], [], 1, 0))  # h = 0 with n = 0
    @example(([2, 1], [], 1, 2))  # h = 0 with n > 0: 0
    def test_subresultant_matches_sylvester_determinant(self, operands):
        g, h, m, n = operands
        got = resultant_mn(g, h, m, n)
        assert isinstance(got, Fraction) and got == bareiss_det(sylvester_matrix(g, h, m, n))

    def test_layout_examples(self):
        assert resultant([0, 1], [-1, 1]) == -1  # res(T, T-1)
        assert resultant([-1, 1], [-1, 0, 1]) == 0  # common root
        assert discriminant([-3, 0, 1]) == 12  # dis(T^2 - u) = 4u

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resultant([], [1, 1])

    @pytest.mark.parametrize("g", [FqPoly(FiniteField(3), [0, 1]), 5, None])
    def test_non_sequences_rejected(self, g):
        # FqPoly indexes past its degree to 0, so iterating it by __getitem__
        # never stopped; the deadline turns such a hang into a failure
        with deadline(5):
            calls = [lambda: resultant(g, [1]), lambda: resultant([1], g), lambda: discriminant(g)]
            for call in calls:
                with pytest.raises(InvalidArgumentError, match="not a coefficient sequence"):
                    call()

    def test_multiplicative_in_second_argument(self, rng):
        for _ in range(60):
            g = random_poly(rng, rng.randint(1, 3))
            h1 = random_poly(rng, rng.randint(1, 3))
            h2 = random_poly(rng, rng.randint(1, 3))
            assert resultant(g, poly_mul(h1, h2)) == resultant(g, h1) * resultant(g, h2)

    def test_discriminant_of_product(self, rng):
        for _ in range(60):
            g = random_poly(rng, rng.randint(1, 3))
            h = random_poly(rng, rng.randint(1, 3))
            lhs = discriminant(poly_mul(g, h))
            rhs = discriminant(g) * discriminant(h) * resultant(g, h) ** 2
            assert lhs == rhs

    def test_specialization_commutes_with_reduction(self, rng):
        for _ in range(40):
            p, k = rng.choice([2, 3, 5]), rng.randint(1, 4)
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            g = [rng.randint(0, 50) for _ in range(m + 1)]
            h = [rng.randint(0, 50) for _ in range(n + 1)]
            full = resultant_mn(g, h, m, n)
            reduced = resultant_mn([c % p**k for c in g], [c % p**k for c in h], m, n)
            assert (full - reduced) % p**k == 0


class TestNewtonPolygon:
    def test_exponential_truncation(self):
        polygon = newton_polygon(PadicPolynomial(2, EXP7))
        assert polygon.sides == (
            (4, Fraction(-3, 4)),
            (2, Fraction(-1, 2)),
            (1, Fraction(0)),
        )
        assert not polygon.is_pure

    def test_eisenstein_shape(self):
        for p, e in [(2, 3), (5, 4), (3, 6)]:
            coeffs = [p] + [0] * (e - 1) + [1]
            polygon = newton_polygon(PadicPolynomial(p, coeffs))
            assert polygon.sides == ((e, Fraction(-1, e)),)

    def test_t_squared_minus_p(self):
        polygon = newton_polygon(PadicPolynomial(3, [-3, 0, 1]))
        assert polygon.is_pure and polygon.sides == ((2, Fraction(-1, 2)),)

    def test_vanishing_constant_term_rejected(self):
        with pytest.raises(InvalidArgumentError):
            newton_polygon(PadicPolynomial(2, [0, 1, 1]))

    def test_points_on_or_above(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            coeffs = [Fraction(rng.randint(1, 10_000)) for _ in range(rng.randint(2, 8))]
            f = PadicPolynomial(p, coeffs)
            polygon = newton_polygon(f)
            # every coefficient point lies on or above the hull
            for j, v in enumerate(f.coefficient_valuations()):
                x0, y0 = polygon.vertices[0]
                height = Fraction(y0)
                for (x1, y1), (x2, y2) in zip(polygon.vertices, polygon.vertices[1:]):
                    if x1 <= j <= x2:
                        height = y1 + (y2 - y1) * Fraction(j - x1, x2 - x1)
                        break
                assert v >= height

    def test_multiplicativity_of_types(self, rng):
        # type(f*g) is the slope-sorted merge of type(f) and type(g)
        for _ in range(500):
            p = rng.choice([2, 3, 5])
            sides = {}
            f = [Fraction(1)]
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 3)
                num = rng.randint(-4, 4)
                den = length
                slope = Fraction(num, den)
                # pure polynomial of type (length, slope): ends of the segment
                coeffs = [Fraction(0)] * (length + 1)
                coeffs[0] = Fraction(p) ** (-num) if num <= 0 else Fraction(p**num)
                coeffs[0] = Fraction(p) ** (-slope * length)
                coeffs[length] = Fraction(1)
                f = poly_mul(f, coeffs)
                sides[slope] = sides.get(slope, 0) + length
            expected = tuple(
                (sides[s], s) for s in sorted(sides)
            )
            assert newton_polygon(PadicPolynomial(p, f)).sides == expected

    @settings(max_examples=300, deadline=None)
    @given(rational_polynomials())
    def test_integer_hull_matches_the_fraction_hull(self, case):
        # the hull runs on the integer valuations; the result is the one of the
        # hull on Fraction points, type for type
        _, _, f = case
        assert repr(newton_polygon(f)) == repr(fraction_hull_polygon(f))

    def test_pure_coefficient_bound(self, rng):
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            n = rng.randint(1, 4)
            coeffs = [Fraction(p) ** rng.randint(0, 5) * rng.choice([1, 2, 3]) for _ in range(n)]
            coeffs.append(Fraction(1))
            f = PadicPolynomial(p, coeffs)
            polygon = newton_polygon(f)
            if polygon.is_pure:
                vals = f.coefficient_valuations()
                for v in vals:
                    assert v >= min(vals[0], vals[-1])


class TestRootValuations:
    def test_exponential_truncation(self):
        pairs, stripped = root_valuations(PadicPolynomial(2, EXP7))
        assert stripped == 0
        assert pairs == [(Fraction(3, 4), 4), (Fraction(1, 2), 2), (Fraction(0), 1)]

    def test_t_squared_minus_p(self):
        pairs, _ = root_valuations(PadicPolynomial(5, [-5, 0, 1]))
        assert pairs == [(Fraction(1, 2), 2)]

    def test_shifted_cyclotomic(self):
        for p in (3, 5, 7):
            f = PadicPolynomial(p, cyclotomic(p, 1)).shifted_by_one()
            pairs, _ = root_valuations(f)
            assert pairs == [(Fraction(1, p - 1), p - 1)]

    def test_t_power_stripping_and_mass(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3])
            k = rng.randint(0, 2)
            body = [Fraction(rng.randint(1, 200))] + [
                Fraction(rng.randint(0, 200)) for _ in range(rng.randint(1, 5))
            ]
            if body[-1] == 0:
                body[-1] = Fraction(1)
            coeffs = [Fraction(0)] * k + body
            f = PadicPolynomial(p, coeffs)
            pairs, stripped = root_valuations(f)
            assert stripped == k
            assert sum(m for _, m in pairs) == f.degree - k
            vals = PadicPolynomial(p, body).coefficient_valuations()
            assert sum(v * m for v, m in pairs) == vals[0] - vals[-1]


    def test_a_monomial_has_only_the_root_zero(self):
        assert root_valuations(PadicPolynomial(5, [0, 0, 7])) == ([], 2)
        assert root_valuations(PadicPolynomial(5, [Fraction(3, 5)])) == ([], 0)


class TestEisenstein:
    def test_a_constant_is_not_eisenstein(self):
        assert not eisenstein_test(PadicPolynomial(5, [5]))

    def test_derivative_and_hash(self):
        f = PadicPolynomial(5, [1, 2, Fraction(1, 2)])
        assert f.derivative() == PadicPolynomial(5, [2, 1])
        assert hash(f) == hash(PadicPolynomial(5, [1, 2, Fraction(1, 2)]))
        assert len({f, PadicPolynomial(5, [1, 2, Fraction(1, 2)]), f.derivative()}) == 2

    def test_shifted_cyclotomic(self):
        for p in (2, 3, 5, 7):
            f = PadicPolynomial(p, cyclotomic(p, 1)).shifted_by_one()
            assert eisenstein_test(f)

    def test_counterexamples(self):
        assert not eisenstein_test(PadicPolynomial(2, [-4, 0, 1]))
        assert eisenstein_test(PadicPolynomial(2, [-2, 0, 0, 1]))

    def test_prime_power_cyclotomic(self):
        assert cyclotomic(2, 1) == [1, 1]
        assert cyclotomic(3, 2) == [1, 0, 0, 1, 0, 0, 1]
        for p, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
            f = PadicPolynomial(p, cyclotomic(p, n)).shifted_by_one()
            assert eisenstein_test(f)

    def test_a_degree_past_the_bound_is_rejected_before_allocation(self):
        # (p - 1) p^(n-1) with p = 2^61 - 1 and n = 9 has 166 digits, and n
        # past the bound's bit length is rejected before p^(n-1) is built
        with pytest.raises(ResourceLimitError, match="exceeds the bound"):
            cyclotomic(2**61 - 1, 9)
        with pytest.raises(ResourceLimitError, match="past the bound"):
            cyclotomic(2, 10**30)
        with pytest.raises(ResourceLimitError, match=f"degree {MAX_DEGREE + 6} exceeds"):
            cyclotomic(10007, 1)
        assert len(cyclotomic(2, 14)) == 2**13 + 1 <= MAX_DEGREE + 1
        assert len(cyclotomic(9973, 1)) == 9973  # the largest prime p with p - 1 <= MAX_DEGREE


class TestHenselLiftFactors:
    def test_spec_example(self):
        f = PadicPolynomial(7, [-2, 0, 1])
        g, h = hensel_lift_factors(
            f, PadicPolynomial(7, [-3, 1]), PadicPolynomial(7, [3, 1]), 0, 2
        )
        assert g.coefficients == (39, 1) and h.coefficients == (10, 1)

    def test_exact_factorization_unchanged(self):
        g0 = PadicPolynomial(5, [2, 1])
        h0 = PadicPolynomial(5, [3, 1])
        f = g0 * h0
        g, h = hensel_lift_factors(f, g0, h0, 0, 6)
        assert g.coefficients == g0.coefficients
        assert h.coefficients == h0.coefficients

    @pytest.mark.parametrize("precision", [0, -1, 2.5, True])
    def test_precision_below_one_rejected(self, precision):
        g0, h0 = PadicPolynomial(5, [2, 1]), PadicPolynomial(5, [3, 1])
        with pytest.raises(InvalidArgumentError):
            hensel_lift_factors(g0 * h0, g0, h0, 0, precision)
        with pytest.raises(InvalidArgumentError):
            refine_factorization(g0 * h0, g0, h0, precision)

    def test_mixed_primes_rejected(self):
        f = PadicPolynomial(7, [-2, 0, 1])
        g0, h0 = PadicPolynomial(5, [-3, 1]), PadicPolynomial(3, [3, 1])
        with pytest.raises(InvalidArgumentError, match="share one prime"):
            hensel_lift_factors(f, g0, h0, 0, 4)
        with pytest.raises(InvalidArgumentError, match="share one prime"):
            refine_factorization(f, g0, h0, 4)

    def test_non_coprime_residues_rejected(self):
        f = PadicPolynomial(2, [1, 1, 1])
        with pytest.raises(HypothesisFailedError):
            hensel_lift_factors(
                f, PadicPolynomial(2, [0, 1]), PadicPolynomial(2, [-1, 1]), 0, 4
            )

    def test_congruence_conditions_and_uniqueness(self, rng):
        for _ in range(30)[:30]:
            p = rng.choice([2, 3, 5])
            n_prec = 16
            g0, h0 = _coprime_pair(rng, p)
            f = PadicPolynomial(
                p,
                poly_sub(
                    poly_mul(list(g0.coefficients), list(h0.coefficients)),
                    [-p * rng.randint(0, p**3) for _ in range(g0.degree + h0.degree)],
                ),
            )
            g, h = hensel_lift_factors(f, g0, h0, 0, n_prec)
            defect = poly_sub(
                list(f.coefficients), poly_mul(list(g.coefficients), list(h.coefficients))
            )
            assert all(vp_rational(p, c) >= n_prec for c in defect if c)
            assert all(
                vp_rational(p, a - b) >= 1
                for a, b in zip(g.coefficients, g0.coefficients)
            )
            assert g.coefficients[-1] == g0.coefficients[-1]
            # perturbing g inside its congruence class breaks the factorization
            perturbed = list(g.coefficients)
            perturbed[0] += p
            defect2 = poly_sub(
                list(f.coefficients),
                poly_mul(perturbed, list(h.coefficients)),
            )
            assert any(c and vp_rational(p, c) < n_prec for c in defect2)


def _coprime_pair(rng, p):
    """Monic pair with coprime residues mod p."""
    while True:
        g = [rng.randrange(p**2) for _ in range(rng.randint(1, 3))] + [1]
        h = [rng.randrange(p**2) for _ in range(rng.randint(1, 3))] + [1]
        gp = PadicPolynomial(p, g)
        hp = PadicPolynomial(p, h)
        if vp_rational(p, resultant(gp, hp)) == 0:
            return gp, hp


@st.composite
def lifting_cases(draw):
    """(f, g0, h0, alpha, N): monic g0, h0 with beta = v(res(g0, h0)) <= alpha <= 2
    and f = g0*h0 + p^(2*alpha+1)*e, deg e < deg f."""
    p = draw(st.sampled_from([2, 3, 5]))

    def monic():
        degree = draw(st.integers(1, 3))
        return [draw(st.integers(-(p**3), p**3)) for _ in range(degree)] + [1]

    g0, h0 = PadicPolynomial(p, monic()), PadicPolynomial(p, monic())
    beta = vp_rational(p, resultant(g0, h0))
    assume(beta <= 2)
    alpha = draw(st.integers(beta, 2))
    noise = [
        p ** (2 * alpha + 1) * draw(st.integers(-(p**2), p**2))
        for _ in range(g0.degree + h0.degree)
    ]
    f = PadicPolynomial(p, poly_add(poly_mul(g0.coefficients, h0.coefficients), noise))
    return f, g0, h0, alpha, draw(st.integers(1, 6))


def residues(p, M, f):
    return [_residue(c, p, M) for c in f.coefficients]


def reduced_pair(p, g, h, g0, h0, precision):
    """g, h modulo p^precision with the exact leading terms of g0, h0 (the
    reduction may have changed them)."""
    modN = p**precision
    g_out = [c % modN for c in g[:-1]] + [g0.coefficients[-1]]
    h_out = [c % modN for c in h[:-1]] + [h0.coefficients[-1]]
    return PadicPolynomial(p, g_out), PadicPolynomial(p, h_out)


def full_modulus_lift(f, g0, h0, beta, w0, precision):
    """polynomials._lift_factorization with every round solving the
    Sylvester system modulo the full p^(precision + 2 beta + 2) and a stop
    test in place of the schedule (w0 is ignored): the oracle for the rounds
    that solve modulo only the digits they can use."""
    p = f.p
    s, t = g0.degree, h0.degree
    M = precision + 2 * beta + 2
    mod, done = p**M, p ** (precision + beta)
    f_i, g, h = (residues(p, M, x) for x in (f, g0, h0))
    for _ in range(precision + 2):
        gh = poly_mul(g, h)
        diff = [(f_i[i] - (gh[i] if i < len(gh) else 0)) % mod for i in range(len(f_i))]
        if all(c % done == 0 for c in diff):
            break
        rhs = [diff[s + t - 1 - i] for i in range(s + t)]
        x = polynomials._solve_mod_prime_power(p, M, polynomials._sylvester(g, h, s, t), rhs)
        delta = list(reversed(x[:t]))  # added to H
        gamma = list(reversed(x[t:]))  # added to G
        g = [(gc + (gamma[i] if i < len(gamma) else 0)) % mod for i, gc in enumerate(g)]
        h = [(hc + (delta[i] if i < len(delta) else 0)) % mod for i, hc in enumerate(h)]
    else:
        raise HypothesisFailedError("factor lifting failed to converge")
    return reduced_pair(p, g, h, g0, h0, precision)


def measured_defect_lift(f, g0, h0, beta, w0, precision):
    """polynomials._lift_factorization as it was before its rounds were fixed
    by w0 (which is ignored here): each round measures the valuation w of
    f - g*h, stops once w >= precision + beta and otherwise raises w to
    min(2(w - beta), precision + beta).  The oracle for the scheduled rounds."""
    p = f.p
    s, t = g0.degree, h0.degree
    M = precision + 2 * beta + 2
    mod = p**M
    f_i, g, h = (residues(p, M, x) for x in (f, g0, h0))
    for _ in range(precision + 2):
        gh = poly_mul(g, h)
        diff = [(f_i[i] - (gh[i] if i < len(gh) else 0)) % mod for i in range(len(f_i))]
        w = int_valuation(math.gcd(*diff), p)
        if w >= precision + beta:
            break
        K, scale = min(2 * (w - beta), precision + beta), p ** (w - beta)
        rhs = [diff[s + t - 1 - i] // scale for i in range(s + t)]
        x = polynomials._solve_mod_prime_power(
            p, K - w + 2 * beta, polynomials._sylvester(g, h, s, t), rhs
        )
        delta = [scale * c for c in reversed(x[:t])]  # added to H
        gamma = [scale * c for c in reversed(x[t:])]  # added to G
        g = [(gc + (gamma[i] if i < len(gamma) else 0)) % mod for i, gc in enumerate(g)]
        h = [(hc + (delta[i] if i < len(delta) else 0)) % mod for i, hc in enumerate(h)]
    else:
        raise HypothesisFailedError("factor lifting failed to converge")
    return reduced_pair(p, g, h, g0, h0, precision)


def eager_reduction_solve(p, M, matrix, rhs):
    """polynomials._solve_mod_prime_power as it was before its elimination
    reduced lazily: every entry is reduced modulo p^M up front and after
    every update, the pivot is the first entry of least valuation in its
    column and each unit is inverted on its own ladder of moduli.  The
    oracle for the lazy solver, which must return the same x everywhere."""
    mod = p**M
    size = len(matrix)
    a = [[matrix[i][j] % mod for j in range(size)] + [rhs[i] % mod] for i in range(size)]
    pivots = []
    for col in range(size):
        best = min(range(col, size), key=lambda r: int_valuation(a[r][col], p))
        if best != col:
            a[col], a[best] = a[best], a[col]
        pivot_row, p_t = a[col], p ** int_valuation(a[col][col], p)
        inv_u = _inverse_mod_prime_power(pivot_row[col] // p_t, p, M)
        pivots.append((p_t, inv_u))
        for r in range(col + 1, size):
            row = a[r]
            if row[col]:
                factor = row[col] * inv_u % mod // p_t
                row[col:] = [(x - factor * y) % mod for x, y in zip(row[col:], pivot_row[col:])]
    xs = [0] * size
    for col in range(size - 1, -1, -1):
        acc = a[col][size]
        for c in range(col + 1, size):
            acc -= a[col][c] * xs[c]
        acc %= mod
        p_t, inv_u = pivots[col]
        xs[col] = acc // p_t * inv_u % mod
    return xs


def valued_systems(rng):
    """(p, M, A, b, beta) with v_p(det A) = beta < M, for every size 1..12 and
    beta 0..4.  A permutes the rows and columns of L D U, L and U
    unitriangular with a third of their entries 0 and D = diag(p^t_i u_i),
    sum t_i = beta: column 0 of L D U is 0 wherever L's is, and its row 0
    is d_0 times U's, so the diagonal holds zeros and non-units and the
    elimination swaps rows.  A quarter of the entries
    are shifted by multiples of p^M and b = p^beta c runs past p^M, so the
    solver reduces inputs that are not residues."""
    for size in range(1, 13):
        for beta in range(5):
            for _ in range(6):
                p, M = rng.choice([2, 3, 5, 7]), beta + rng.randint(1, 30)

                def entry():
                    return 0 if rng.random() < 0.33 else rng.randint(-(p**2), p**2)

                t = [0] * size
                for _ in range(beta):
                    t[rng.randrange(size)] += 1
                d = [p**k * rng.choice([u for u in range(1, 2 * p) if u % p]) for k in t]
                L = [[entry() if j < i else int(i == j) for j in range(size)] for i in range(size)]
                U = [[entry() if j > i else int(i == j) for j in range(size)] for i in range(size)]
                LDU = [
                    [sum(L[i][k] * d[k] * U[k][j] for k in range(size)) for j in range(size)]
                    for i in range(size)
                ]
                rows, cols = rng.sample(range(size), size), rng.sample(range(size), size)
                def shift():
                    return p**M * rng.randint(-2, 2) if rng.random() < 0.25 else 0

                A = [[LDU[i][j] + shift() for j in cols] for i in rows]
                b = [p**beta * rng.randint(-(p**M), p**M) for _ in range(size)]
                yield p, M, A, b, beta


def loop_sylvester(gc, hc, m, n, zero=0):
    """polynomials._sylvester as it was before it sliced padded lists: entry
    (i, j) is g_(m - i + j) and entry (i, n + j) is h_(n - i + j) where that
    coefficient exists, and zero elsewhere."""
    rows = []
    for i in range(m + n):
        row = []
        for j in range(n):
            k = m - i + j
            row.append(gc[k] if 0 <= k < len(gc) else zero)
        for j in range(m):
            k = n - i + j
            row.append(hc[k] if 0 <= k < len(hc) else zero)
        rows.append(row)
    return rows


def fraction_lift_data(f, g, h, precision, product):
    """polynomials._lift_data as it was before it ran on integer numerators:
    g*h and f - g*h in Fractions, then one valuation per coefficient."""
    _instance(PadicPolynomial, f, g, h)
    _precision(precision)
    p = f.p
    if g.p != p or h.p != p:
        raise InvalidArgumentError("all polynomials must share one prime")
    gh = poly_mul(g.coefficients, h.coefficients)
    if f.degree != len(gh) - 1 or f.coefficients[-1] != gh[-1]:
        raise HypothesisFailedError(f"f and {product} must have the same leading term")
    w0 = min((rational_valuation(c, p) for c in poly_sub(f.coefficients, gh)), default=INFINITY)
    return rational_valuation(resultant(g, h), p), w0


@st.composite
def lift_data_cases(draw):
    """(f, g, h, precision, product): Fraction coefficients whose denominators
    are prime to p or divisible by p; f is g*h, g*h plus a defect below its
    degree, or any polynomial (so its leading term or degree may differ); h
    is sometimes over another prime and the precision sometimes 0."""
    p = draw(st.sampled_from([2, 3, 5]))

    def coefficient():
        denominator = draw(st.integers(1, 9)) * draw(st.sampled_from([1, 1, p, p**3]))
        return Fraction(draw(st.integers(-60, 60)), denominator)

    def poly(degree):
        return [coefficient() for _ in range(degree)] + [coefficient() or Fraction(1)]

    g, h = poly(draw(st.integers(0, 3))), poly(draw(st.integers(0, 3)))
    gh = poly_mul(g, h)
    shape = draw(st.sampled_from(["exact", "defect", "defect", "any"]))
    if shape == "exact":
        f = gh
    elif shape == "defect":
        f = poly_add(gh, [coefficient() * p ** draw(st.integers(0, 8)) for _ in gh[1:]])
    else:
        f = poly(draw(st.integers(0, 6)))
    q = draw(st.sampled_from([p, p, p, 7]))
    precision = draw(st.sampled_from([1, 9, 9, 0]))
    product = draw(st.sampled_from(["G*H", "g0*h0"]))
    return PadicPolynomial(p, f), PadicPolynomial(p, g), PadicPolynomial(q, h), precision, product


# (f, G, H) over Q_2 with beta = 5, w(f - GH) = 11 and neither lead a unit:
# G = 2T^3 + T^2 + T + 2 and H = 2T^3 + 3T^2 + T + 4 both reduce to T^2 + T,
# whose roots 0, 1 and infinity cover P^1(F_2), so no substitution
# T = c + 1/S makes either factor regular
COVERING = tuple(
    PadicPolynomial(2, x)
    for x in ([2056, 6, 2059, 16, 7, 2056, 4], [2, 1, 1, 2], [4, 1, 3, 2])
)


def near_root_pairs(rng):
    """(f, g0, h0, beta, N): g0 and h0 have roots a and a + p^k u, so that
    v(res(g0, h0)) >= k, for k = 0..4; leading coefficients 1 or p on each
    side; f = g0*h0 + p^d e with d just above 2 v(res); N in {1, 4, 64, 512}."""
    for k in range(5):
        for lead_g, lead_h in ((1, 1), (0, 1), (1, 0), (0, 0)):  # 0 stands for p
            for precision in (1, 4, 64, 512):
                p = rng.choice([2, 3, 5, 7])

                def cofactor(lead):
                    degree = rng.randint(0 if lead else 1, 2)
                    body = [rng.randrange(1, p)] + [rng.randint(-p**2, p**2) for _ in range(degree - 1)]
                    return (body + [lead or p])[-degree - 1 :]

                beta = INFINITY
                while beta > k + 4:  # the cofactors may add to v(res), or share a root
                    a = rng.randint(-p**2, p**2)
                    g0 = poly_mul([-a, 1], cofactor(lead_g))
                    h0 = poly_mul([-a - p**k * rng.randrange(1, p), 1], cofactor(lead_h))
                    beta = vp_rational(p, resultant(g0, h0))
                depth = 2 * beta + 1 + rng.randint(0, 2)
                noise = [p**depth * rng.randint(-p, p) for _ in range(len(g0) + len(h0) - 2)]
                f = poly_add(poly_mul(g0, h0), noise)
                yield tuple(PadicPolynomial(p, x) for x in (f, g0, h0)) + (beta, precision)


def rescaled_by_units(cases):
    """The cases with g0 times a p-adic unit u and h0 divided by it, u = -1,
    p^2 + 1 and 1/(p^2 + 1) in turn: f and beta stay, and the leads become
    negative, fractions or past p^2, unlike any residue in [0, p^K)."""
    for i, (f, g0, h0, beta, precision) in enumerate(cases):
        p = f.p
        u = (Fraction(-1), Fraction(p**2 + 1), Fraction(1, p**2 + 1))[i % 3]
        g, h = ([c * v for c in x.coefficients] for x, v in ((g0, u), (h0, 1 / u)))
        yield f, PadicPolynomial(p, g), PadicPolynomial(p, h), beta, precision


def outcome(call):
    try:
        return call()
    except (HypothesisFailedError, InvalidArgumentError, PrecisionLossError) as exc:
        return type(exc), str(exc)


def assert_lifts_agree(monkeypatch, oracle, cases):
    """Both factor lifts return what they return with oracle in place of
    _lift_factorization, on cases that cover beta 0-4 and 0-2 non-unit leads."""
    betas, leads = set(), set()
    for f, g0, h0, beta, precision in cases:
        betas.add(beta)
        leads.add(sum(x.coefficients[-1] % f.p == 0 for x in (g0, h0)))
        calls = (
            lambda: hensel_lift_factors(f, g0, h0, beta, precision),
            lambda: refine_factorization(f, g0, h0, precision),
        )
        got = [outcome(call) for call in calls]
        with monkeypatch.context() as patched:
            patched.setattr(polynomials, "_lift_factorization", oracle)
            assert got == [outcome(call) for call in calls], (f, g0, h0, precision)
    assert betas >= set(range(5)) and leads == {0, 1, 2}


def assert_solve_schedule(monkeypatch, g0, h0, defect, beta, precision):
    """One Sylvester solve per round of the schedule that w0 = w(defect) and
    the precision fix, each modulo only the digits it can use.

    A round that raises a defect of valuation w to K solves modulo
    p^(K - w + beta), which is p^(w - beta) while its target 2(w - beta)
    is short of precision + beta, so these exponents grow and at least
    double less 2 beta; the last round needs only precision + 2 beta - w
    <= w - beta digits.  No exponent exceeds about half of precision + beta,
    where a full-modulus solve takes precision + 2 beta + 2.
    """
    g0, h0 = PadicPolynomial(3, g0), PadicPolynomial(3, h0)
    f = g0 * h0 + PadicPolynomial(3, defect)
    assert vp_rational(3, resultant(g0, h0)) == beta
    w0 = min(vp_rational(3, c) for c in defect)
    solves = record_calls(monkeypatch, "_solve_mod_prime_power")
    hensel_lift_factors(f, g0, h0, beta, precision)
    assert len(solves) == len(_halvings(precision + beta, w0, beta))
    assert 1 <= len(solves) <= math.ceil(math.log2(precision)) + 2
    exponents = [M for _, M, _, _ in solves]
    growing = exponents[:-1]
    assert all(b >= max(a + 1, 2 * (a - beta)) for a, b in zip(growing, growing[1:]))
    assert max(exponents) <= math.ceil((precision + beta) / 2) + 1


class TestRefineFactorization:
    def test_exact_input_is_fixpoint(self):
        g = PadicPolynomial(3, [1, 1])
        h = PadicPolynomial(3, [2, 0, 1])
        f = g * h
        assert refine_factorization(f, g, h, 10) == (g, h)

    def test_agrees_with_hensel_route(self):
        f = PadicPolynomial(7, [-2, 0, 1])
        g0, h0 = PadicPolynomial(7, [-3, 1]), PadicPolynomial(7, [3, 1])
        assert refine_factorization(f, g0, h0, 6) == hensel_lift_factors(f, g0, h0, 0, 6)
        exact = g0 * h0  # negative coefficients, no defect to lift
        assert refine_factorization(exact, g0, h0, 2) == hensel_lift_factors(exact, g0, h0, 0, 2)

    @given(lifting_cases())
    @settings(deadline=None)
    def test_both_routes_return_the_canonical_true_factors(self, case):
        f, g0, h0, alpha, precision = case
        p = f.p
        lifted = hensel_lift_factors(f, g0, h0, alpha, precision)
        assert lifted == refine_factorization(f, g0, h0, precision)
        deeper = hensel_lift_factors(f, g0, h0, alpha, precision + 3)
        reduced = tuple(
            PadicPolynomial(p, [c % p**precision for c in x.coefficients[:-1]] + [1])
            for x in deeper
        )
        assert reduced == lifted

    def test_non_monic_factor_lifts(self):
        # 3T + 1 is not regular (its least valuation is not at the lead), T + 1 is
        f = PadicPolynomial(3, [28, 4, 3])
        g0, h0 = PadicPolynomial(3, [1, 3]), PadicPolynomial(3, [1, 1])
        expected = (PadicPolynomial(3, [23005, 3]), PadicPolynomial(3, [51382, 1]))
        assert hensel_lift_factors(f, g0, h0, 0, 10) == expected
        assert refine_factorization(f, g0, h0, 10) == expected

    def test_leading_term_beyond_the_precision_is_kept(self):
        # 81 = 3^4 vanishes modulo p^precision, but h keeps its degree and lead
        g0, h0 = PadicPolynomial(3, [1, 1]), PadicPolynomial(3, [2, 0, 81])
        f = g0 * h0 + PadicPolynomial(3, [3])
        expected = (PadicPolynomial(3, [7, 1]), PadicPolynomial(3, [2, 0, 81]))
        assert hensel_lift_factors(f, g0, h0, 0, 2) == expected
        assert refine_factorization(f, g0, h0, 2) == expected

    @pytest.mark.parametrize(
        "g0, h0, defect, alpha, expected",
        [
            # least valuation at the constant terms only
            ([1, 3], [2, 3], [3**5], 1, ([244, 3], [58808, 3])),
            # least valuation at T only: neither factor has a regular end
            ([3, 1, 3], [3, 2, 3], [3**5, 2 * 3**5], 2, ([15717, 45685, 3], [28110, 13367, 3])),
        ],
    )
    def test_factors_with_no_regular_lead_lift(self, g0, h0, defect, alpha, expected):
        g0, h0 = PadicPolynomial(3, g0), PadicPolynomial(3, h0)
        f = g0 * h0 + PadicPolynomial(3, defect)
        expected = tuple(PadicPolynomial(3, x) for x in expected)
        assert hensel_lift_factors(f, g0, h0, alpha, 10) == expected
        assert refine_factorization(f, g0, h0, 10) == expected
        g, h = expected
        assert all(vp_rational(3, c) >= 10 for c in (f - g * h).coefficients)

    @pytest.mark.parametrize("precision", [16, 128, 1024])
    def test_rounds_grow_like_log_precision(self, monkeypatch, precision):
        # beta = v(res(T - 1, T - 4)) = 1: the lift must reach precision + 1
        assert_solve_schedule(monkeypatch, [-1, 1], [-4, 1], [27 * 5, 27 * 7], 1, precision)

    @pytest.mark.parametrize("precision", [16, 128, 1024])
    def test_rounds_grow_like_log_precision_when_beta_is_0(self, monkeypatch, precision):
        assert_solve_schedule(monkeypatch, [-1, 1], [-2, 0, 1], [3 * 5, 3 * 7, 3], 0, precision)

    @pytest.mark.parametrize("precision", [16, 128, 1024])
    def test_rounds_grow_like_log_precision_when_beta_is_2(self, monkeypatch, precision):
        # v(res(T - 1, T - 10)) = v(-9) = 2, and the defect starts at 3^5
        assert_solve_schedule(monkeypatch, [-1, 1], [-10, 1], [3**5 * 5, 3**5 * 7], 2, precision)

    def test_lifts_agree_with_the_full_modulus_oracle(self, monkeypatch, rng):
        assert_lifts_agree(monkeypatch, full_modulus_lift, near_root_pairs(rng))

    def test_lifts_agree_with_the_measured_defect_oracle(self, monkeypatch, rng):
        cases = itertools.chain(near_root_pairs(rng), [COVERING + (5, 2048)])
        assert_lifts_agree(monkeypatch, measured_defect_lift, cases)

    def test_lifts_agree_with_the_full_modulus_oracle_at_unit_leads(self, monkeypatch, rng):
        # a lead reduced modulo the first round's p^K must not stay cut in later rounds
        cases = rescaled_by_units(near_root_pairs(rng))
        assert_lifts_agree(monkeypatch, full_modulus_lift, cases)

    @pytest.mark.parametrize(
        "p, f, g0, h0, precision, expected",
        [
            # levels 2, 4, 8: the lead -1 of g0 is 24 modulo 5^2, not -1 modulo 5^4
            (5, [7, -1, -1], [1, -1], [2, 1], 8, ([207886, -1], [207887, 1])),
            # levels 2, 3, 5, 10: a unit fraction lead
            (2, [2, 1, Fraction(1, 3)], [1, Fraction(1, 3)], [0, 1], 10, ([135, Fraction(1, 3)], [622, 1])),
        ],
    )
    def test_leads_outside_the_residues_lift(self, p, f, g0, h0, precision, expected):
        f, g0, h0 = (PadicPolynomial(p, x) for x in (f, g0, h0))
        expected = tuple(PadicPolynomial(p, x) for x in expected)
        assert hensel_lift_factors(f, g0, h0, 0, precision) == expected
        assert refine_factorization(f, g0, h0, precision) == expected
        g, h = expected
        assert all(vp_rational(p, c) >= precision for c in (f - g * h).coefficients)

    @given(lifting_cases())
    @settings(deadline=None)
    def test_scheduled_rounds_match_the_measured_defect_loop(self, case):
        f, g0, h0, alpha, precision = case
        beta = vp_rational(f.p, resultant(g0, h0))
        expected = measured_defect_lift(f, g0, h0, beta, None, precision)
        assert hensel_lift_factors(f, g0, h0, alpha, precision) == expected
        assert refine_factorization(f, g0, h0, precision) == expected

    def test_each_round_starts_from_its_scheduled_defect(self, monkeypatch, rng):
        """The measurement the rounds no longer make, as an assertion: the
        pair each round solves for has w(f - g*h) at least the level the
        schedule starts that round from, and there is one round per level."""
        pairs = record_calls(monkeypatch, "_sylvester")
        for f, g0, h0, beta, precision in [*near_root_pairs(rng), COVERING + (5, 2048)]:
            p, M = f.p, precision + 2 * beta + 2
            w0 = min(vp_rational(p, c) for c in (f - g0 * h0).coefficients)
            levels = _halvings(precision + beta, w0, beta)
            before = len(pairs)
            g, h = hensel_lift_factors(f, g0, h0, beta, precision)
            assert len(pairs) - before == len(levels)
            f_i = residues(p, M, f)
            for (g_i, h_i, _, _), w in zip(pairs[before:], [w0, *levels]):
                gh = poly_mul(g_i, h_i) + [0] * len(f_i)
                defect = [(c - d) % p**M for c, d in zip(f_i, gh)]
                assert int_valuation(math.gcd(*defect), p) >= w, (f, g0, h0, precision)
            assert all(vp_rational(p, c) >= precision for c in (f - g * h).coefficients)

    def test_each_round_works_modulo_its_level(self, monkeypatch, rng):
        """The pair each round solves for is reduced modulo p^K, K the level
        the round raises the defect to: no round multiplies digits it cannot
        use, the first one included."""
        pairs = record_calls(monkeypatch, "_sylvester")
        cases = [*near_root_pairs(rng), *rescaled_by_units(near_root_pairs(rng))]
        for f, g0, h0, beta, precision in [*cases, COVERING + (5, 2048)]:
            p = f.p
            w0 = min(vp_rational(p, c) for c in (f - g0 * h0).coefficients)
            levels = _halvings(precision + beta, w0, beta)
            before = len(pairs)
            hensel_lift_factors(f, g0, h0, beta, precision)
            assert len(pairs) - before == len(levels)
            for (g, h, _, _), K in zip(pairs[before:], levels):
                assert all(0 <= c < p**K for c in g + h), (f, g0, h0, precision, K)

    def test_hypothesis_failure(self):
        f = PadicPolynomial(2, [1, 1, 1])  # residue factors share a root
        with pytest.raises(HypothesisFailedError):
            refine_factorization(
                f, PadicPolynomial(2, [1, 1]), PadicPolynomial(2, [1, 1]), 8
            )

    def test_quadratic_improvement(self, rng):
        # one round must lift the defect from w0 past 2*w0 - 2*beta
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            g0, h0 = _coprime_pair(rng, p)
            f = PadicPolynomial(
                p,
                poly_mul(list(g0.coefficients), list(h0.coefficients)),
            ) + PadicPolynomial(p, [p**2 * rng.randint(1, p)])
            g, h = refine_factorization(f, g0, h0, 3)
            defect = poly_sub(
                list(f.coefficients), poly_mul(list(g.coefficients), list(h.coefficients))
            )
            assert all(vp_rational(p, c) >= 3 for c in defect if c)


class TestLiftKernels:
    def test_lazy_solve_matches_the_eager_reduction(self, rng):
        betas, sizes, swaps, zero_pivots = set(), set(), 0, 0
        for p, M, A, b, beta in valued_systems(rng):
            mod, given_A = p**M, [row[:] for row in A]
            column = [int_valuation(row[0] % mod, p) for row in A]
            swaps += column[0] > min(column)
            zero_pivots += column[0] == INFINITY
            xs = polynomials._solve_mod_prime_power(p, M, A, b)
            assert xs == eager_reduction_solve(p, M, A, b), (p, M, A, b)
            assert A == given_A
            assert all(
                (sum(a * x for a, x in zip(row, xs)) - c) % p ** (M - beta) == 0
                for row, c in zip(A, b)
            )
            betas.add(beta)
            sizes.add(len(A))
        assert betas == set(range(5)) and sizes == set(range(1, 13))
        assert swaps > 50 and zero_pivots > 20

    def test_sylvester_matches_the_loop_builder(self, rng):
        shorter = 0
        for _ in range(3000):
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            if m + n == 0:
                continue
            gc = [rng.randint(-9, 9) for _ in range(rng.randint(0, m + 1))]
            hc = [rng.randint(-9, 9) for _ in range(rng.randint(0, n + 1))]
            shorter += len(gc) <= m or len(hc) <= n
            zero = rng.choice((0, Fraction(0)))
            got = polynomials._sylvester(gc, hc, m, n, zero)
            assert repr(got) == repr(loop_sylvester(gc, hc, m, n, zero)), (gc, hc, m, n)
        assert shorter > 1000

    @given(lift_data_cases())
    @example(  # the degrees agree, the leading terms do not
        (PadicPolynomial(3, [1, 2]), PadicPolynomial(3, [0, 1]), PadicPolynomial(3, [1]), 4, "G*H")
    )
    @example(  # the leading terms agree, the degrees do not
        (PadicPolynomial(3, [1, 0, 1]), PadicPolynomial(3, [0, 1]), PadicPolynomial(3, [1]), 4, "G*H")
    )
    @settings(max_examples=300, deadline=None)
    def test_lift_data_matches_the_fraction_route(self, case):
        expected = outcome(lambda: fraction_lift_data(*case))
        assert outcome(lambda: polynomials._lift_data(*case)) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda: slope_factorization(PadicPolynomial(2, EXP7), 32),
            lambda: weierstrass_prepare(TruncatedSeries(3, [3, 1, 3], 40), 8),
        ],
    )
    def test_a_lift_that_does_not_converge_raises(self, monkeypatch, call):
        # _lift's stop test certifies what it returns: with every correction 0
        # the defect stays above the target, and after its round budget the
        # lift raises instead of returning the pair it started from
        def no_correction(x, g, *_):
            return [0] * max(0, len(x) - len(g) + 1), [0] * (len(g) - 1)

        monkeypatch.setattr(polynomials, "_divmod", no_correction)
        divisions, lifts = record_calls(monkeypatch, "_divmod"), record_calls(monkeypatch, "_lift")
        with pytest.raises(PrecisionLossError, match="did not converge within its round budget"):
            call()
        ((*_, target),) = lifts  # four divisions a round, target.bit_length() + 5 rounds
        assert len(divisions) == 4 * (target.bit_length() + 5)


class TestSlopeFactorization:
    def test_exponential_truncation(self):
        f = PadicPolynomial(2, EXP7)
        factors = slope_factorization(f, 32)
        assert [g.degree for g, _ in factors] == [4, 2, 1]
        assert [side for _, side in factors] == list(newton_polygon(f).sides)

    def test_pure_input_returned_whole(self):
        f = PadicPolynomial(5, [-5, 0, 1])
        factors = slope_factorization(f, 10)
        assert len(factors) == 1 and factors[0][0] is f

    def test_eisenstein_product(self):
        e2 = PadicPolynomial(2, [2, 2, 1])
        e3 = PadicPolynomial(2, [2, 0, 2, 1])
        f = e2 * e3
        factors = slope_factorization(f, 24)
        assert sorted(g.degree for g, _ in factors) == [2, 3]
        assert [s for _, s in factors] == [(2, Fraction(-1, 2)), (3, Fraction(-1, 3))]
        product = [Fraction(1)]
        for g, _ in factors:
            product = poly_mul(product, list(g.coefficients))
        defect = poly_sub(list(f.coefficients), product)
        assert all(vp_rational(2, c) >= 24 for c in defect if c)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(InvalidArgumentError):
            slope_factorization(PadicPolynomial(2, [0, 1, 1]), 8)

    @pytest.mark.parametrize(
        "coefficients, precision, sides",
        [
            # f = 2^40 (2 + T + T^3): the content lies far above the precision
            ([2**41, 2**40, 0, 2**40], 8, [(1, -1), (2, 0)]),
            # (T - a)(2^50 T + b): the steep side lies far above the precision
            ([-1, 1, 2**50], 32, [(1, 0), (1, 50)]),
        ],
    )
    def test_content_and_steep_sides(self, coefficients, precision, sides):
        f = PadicPolynomial(2, coefficients)
        factors = slope_factorization(f, precision)
        assert [side for _, side in factors] == sides
        assert all(is_pure_of(g.coefficients, 2, side) for g, side in factors)
        assert product_agrees(f, factors, 2, precision)

    @settings(max_examples=80, deadline=None)
    @given(pure_factor_products())
    def test_products_of_pure_factors(self, case):
        p, precision, sides, f = case
        factors = slope_factorization(f, precision)
        assert [side for _, side in factors] == sides
        assert [g.degree for g, _ in factors] == [length for length, _ in sides]
        assert all(is_pure_of(g.coefficients, p, side) for g, side in factors)
        assert product_agrees(f, factors, p, precision)

    @pytest.mark.parametrize("precision", [0, -1, 2.5, True])
    def test_precision_below_one_rejected(self, precision):
        with pytest.raises(InvalidArgumentError):
            slope_factorization(PadicPolynomial(2, [2, 1, 0, 1]), precision)

    @settings(max_examples=200, deadline=None)
    @given(rational_polynomials())
    def test_any_rational_polynomial(self, case):
        # nothing is checked after the entry checks: the sides, the purity of
        # each factor and the product are what Hensel's lemma guarantees
        p, precision, f = case
        factors = slope_factorization(f, precision)
        assert [side for _, side in factors] == list(newton_polygon(f).sides)
        assert all(is_pure_of(g.coefficients, p, side) for g, side in factors)
        assert product_agrees(f, factors, p, precision)

    @settings(max_examples=60, deadline=None)
    @given(pure_factor_products())
    def test_factors_are_residues_of_the_true_factors(self, case):
        # the output at precision + 16 reduces to the output at precision
        p, precision, _, f = case
        c, moduli = slope_moduli(f, precision)
        content = Fraction(p) ** c
        shallow, deep = slope_factorization(f, precision), slope_factorization(f, precision + 16)
        for i, ((g, _), (big, _), ks) in enumerate(zip(shallow, deep, moduli)):
            scale = content if i == 0 else 1
            assert [x / scale for x in g.coefficients] == [
                y / scale % p**k for y, k in zip(big.coefficients, ks)
            ]

    def test_rounds_grow_like_log_precision(self, monkeypatch):
        # a loop that gains a fixed gap per round needs ~4N products on this
        # input; the quadratic engine adds a few rounds per doubling of N
        products = record_calls(monkeypatch, "poly_mul")
        f = PadicPolynomial(2, EXP7)
        slope_factorization(f, 32)
        at_32 = len(products)
        products.clear()
        slope_factorization(f, 512)
        assert len(products) <= 2 * at_32


class TestWeierstrass:
    def test_low_degree_example(self):
        f = TruncatedSeries(3, [3, 1, 3], 40)
        g, h = weierstrass_prepare(f, 8)
        assert g.degree == 1
        assert h.coefficients[0] == 1
        assert all(vp_rational(3, c) > 0 for c in h.coefficients[1:] if c)
        prod = poly_mul(list(g.coefficients), list(h.coefficients))[:3]
        defect = poly_sub(list(f.coefficients), prod)
        assert all(vp_rational(3, c) >= 8 for c in defect if c)

    def test_unit_leading_polynomial(self):
        f = TruncatedSeries(5, [5, 25, 1], 30)
        g, h = weierstrass_prepare(f, 8)
        assert g.degree == 2
        assert list(h.coefficients[:1]) == [1] and all(c == 0 for c in h.coefficients[1:])

    def test_geometric_valuations(self):
        f = TruncatedSeries(2, [1, 2, 4, 8], 4)
        g, h = weierstrass_prepare(f, 4)
        assert g.degree == 0
        assert h.coefficients[0] == 1

    def test_undetermined_index_rejected(self):
        with pytest.raises(PrecisionLossError):
            weierstrass_prepare(TruncatedSeries(3, [9, 3, 9], 1), 6)

    @pytest.mark.parametrize("precision", [0, -1, 2.5, True])
    def test_precision_below_one_rejected(self, precision):
        with pytest.raises(InvalidArgumentError):
            weierstrass_prepare(TruncatedSeries(3, [3, 1, 3], 40), precision)

    @settings(max_examples=200, deadline=None)
    @given(truncated_series())
    def test_any_series_past_the_tail_check(self, case):
        # nothing is checked after the tail check: the degree, h(0) = 1,
        # w(h - 1) > 0 and the product are what the preparation theorem gives
        p, precision, f = case
        vals = [vp_rational(p, c) if c else INFINITY for c in f.coefficients]
        w = min(vals)
        g, h = weierstrass_prepare(f, precision)
        assert g.degree == max(j for j, v in enumerate(vals) if v == w)
        assert h.coefficients[0] == 1
        assert all(vp_rational(p, c) > 0 for c in h.coefficients[1:] if c)
        product = poly_mul(list(g.coefficients), list(h.coefficients))[: f.truncation + 1]
        defect = poly_sub(list(f.coefficients), product)
        assert all(vp_rational(p, c) >= min(precision, f.tail) for c in defect if c)

    @pytest.mark.parametrize("coefficients", [[5**7 * 2, 0], [5**7, 5**8]])
    def test_precision_below_minimal_valuation(self, coefficients):
        # nothing is left to divide modulo p^1: the first stop test ends the loop
        g, h = weierstrass_prepare(TruncatedSeries(5, coefficients, 9), 1)
        assert g.coefficients == (coefficients[0],)
        assert h.coefficients == (1, 0)


# Outputs of the lifting engine on small splits.  The Weierstrass rows
# were re-pinned when the split moved to integer residues and its output
# to residues modulo p^(h.tail); EARLIER_WEIERSTRASS_ROWS keeps their
# Fraction outputs from before.  The slope row was re-pinned when slope
# factors became the true factors' residues; EARLIER_SLOPE_ROW keeps the
# linear division loop's output, whose digits in the last two places of
# each modulus were not the true factor's.
DIVISION_STEP_TABLE = [
    (
        lambda: [x.coefficients for x in weierstrass_prepare(TruncatedSeries(3, [3, -1], 10), 8)],
        [(3, 6560), (1, 0)],
    ),
    (
        lambda: [x.coefficients for x in weierstrass_prepare(TruncatedSeries(3, [3, 1, 3], 40), 8)],
        [(3, 5014), (1, 4890, 0)],
    ),
    (
        lambda: [
            (g.coefficients, side)
            for g, side in slope_factorization(PadicPolynomial(2, [2, 1, 0, 1]), 8)
        ],
        [((811098, 1), (1, -1)), ((237477, 237478, 1), (2, 0))],
    ),
]

EARLIER_SLOPE_ROW = [((1335386, 1), (1, -1)), ((761765, 106406, 1), (2, 0))]


EARLIER_WEIERSTRASS_ROWS = [
    [(3, -1), (1, 0)],
    [(583325391, 50941), (1, Fraction(3, 50941), 0)],
]


@pytest.mark.parametrize("call, expected", DIVISION_STEP_TABLE)
def test_division_step_outputs_are_pinned(call, expected):
    assert call() == expected


@pytest.mark.parametrize("row, earlier", zip(DIVISION_STEP_TABLE, EARLIER_WEIERSTRASS_ROWS))
def test_repinned_weierstrass_rows_agree_with_earlier_ones(row, earlier):
    # both rows are over Q_3 with minimal valuation 0 and h.tail = 8
    for new, old in zip(row[1], earlier):
        assert len(new) == len(old)
        assert all(a == b or vp_rational(3, Fraction(a) - b) >= 8 for a, b in zip(new, old))


def agrees_with_earlier(f, precision, earlier, factors):
    """The linear loop stopped once the defect reached each split's target,
    two digits short of the moduli, and handed its cofactor on with no
    margin, which cost later factors one more digit: earlier factors agree
    with the true ones modulo p^(k_j - 3)."""
    p = f.p
    c, moduli = slope_moduli(f, precision)
    for i, ((old, old_side), (new, side), ks) in enumerate(zip(earlier, factors, moduli)):
        scale = Fraction(p) ** c if i == 0 else 1
        assert old_side == side and len(old) == len(new)
        for x, y, k in zip(old, new, ks):
            assert x == y or vp_rational(p, (Fraction(x) - Fraction(y)) / scale) >= k - 3
    return True


def test_repinned_slope_row_agrees_with_the_earlier_one():
    f = PadicPolynomial(2, [2, 1, 0, 1])
    assert agrees_with_earlier(f, 8, EARLIER_SLOPE_ROW, DIVISION_STEP_TABLE[2][1])


def test_repinned_corpus_slope_rows_agree_with_earlier_ones():
    golden = Path(__file__).parent / "golden"
    current = {}
    for line in (golden / "kernels.jsonl").read_text().splitlines():
        record = json.loads(line)
        current[json.dumps([record["kernel"], record["args"]], sort_keys=True)] = record
    earlier = (golden / "slope_rows_linear_loop.jsonl").read_text().splitlines()
    earlier = [json.loads(line) for line in earlier]
    assert len(earlier) == 42
    for record in earlier:
        now = current[json.dumps([record["kernel"], record["args"]], sort_keys=True)]
        args = record["args"]
        f = PadicPolynomial(args["p"], [Fraction(c) for c in args["coeffs"]])
        old = [(g, (n, Fraction(s))) for g, n, s in record["result"]]
        new = [(g, (n, Fraction(s))) for g, n, s in now["result"]]
        assert old != new and agrees_with_earlier(f, args["precision"], old, new)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PadicPolynomial(5, [0.5, 1]),
        lambda: PadicPolynomial(5, [1, True]),
        lambda: TruncatedSeries(5, [0.5, 1], 4),
        lambda: TruncatedSeries(5, [1, 1], 4.0),
        lambda: TruncatedSeries(5, [1, 1], True),
        lambda: resultant([0.5, 1], [1, 1]),
        lambda: discriminant([1, 0, 1.0]),
        lambda: sylvester_matrix([0.5, 1], [1, 1], 1, 1),
        lambda: sylvester_matrix([1, 1], [1, True], 1, 1),
        lambda: PadicPolynomial(5, [1, 1]).evaluate(0.5),
        lambda: PadicPolynomial(5, [1, 1]).evaluate(True),
    ],
)
def test_inexact_coefficients_rejected(build):
    with pytest.raises(InvalidArgumentError):
        build()


class TestPrimitiveRescale:
    def test_spec_example(self):
        f = PadicPolynomial(3, [0, 0, 1])
        g = PadicPolynomial(3, [0, Fraction(1, 3)])
        h = PadicPolynomial(3, [0, 3])
        b, g2, h2 = primitive_rescale(f, g, h)
        assert b == Fraction(1, 3)
        assert g2.coefficients == (0, 1) and h2.coefficients == (0, 1)

    def test_already_integral(self):
        f = PadicPolynomial(5, [2, 3, 1])
        g = PadicPolynomial(5, [2, 1])
        h = PadicPolynomial(5, [1, 1])
        b, g2, h2 = primitive_rescale(f, g, h)
        assert b == 1 and g2 == g and h2 == h

    def test_random_round_trip(self, rng):
        # Gauss's lemma makes both factors integral; primitive_rescale does not check it
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            g = PadicPolynomial(p, random_poly(rng, rng.randint(1, 3), 20))
            h = PadicPolynomial(p, random_poly(rng, rng.randint(1, 3), 20))
            f = g * h
            k = rng.randint(-3, 3)
            scale = Fraction(p) ** k
            g_scaled = PadicPolynomial(p, [c * scale for c in g.coefficients])
            h_scaled = PadicPolynomial(p, [c / scale for c in h.coefficients])
            _, g2, h2 = primitive_rescale(f, g_scaled, h_scaled)
            for c in g2.coefficients + h2.coefficients:
                assert vp_rational(p, c) >= 0 or c == 0

    def test_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            primitive_rescale(
                PadicPolynomial(2, [1, 1]),
                PadicPolynomial(2, [1, 1]),
                PadicPolynomial(2, [2, 1]),
            )


class TestResultantConventions:
    def test_argument_swap_sign(self, rng):
        for _ in range(100):
            g = random_poly(rng, rng.randint(1, 4), 9)
            h = random_poly(rng, rng.randint(1, 4), 9)
            m, n = len(g) - 1, len(h) - 1
            assert resultant(g, h) == (-1) ** (m * n) * resultant(h, g)

    def test_root_product_identity(self, rng):
        # res(g, h) = a^n b^m prod (alpha_i - beta_j) for g = a prod (T - alpha_i)
        # of degree m and h = b prod (T - beta_j) of degree n; the expected value
        # comes from this formula, at every degree pair up to 5
        g = [2, -3, 1]  # (T-1)(T-2)
        h = [-120, 74, -15, 1]  # (T-4)(T-5)(T-6)
        expected = (4 - 1) * (5 - 1) * (6 - 1) * (4 - 2) * (5 - 2) * (6 - 2)
        assert resultant(g, h) == expected

        def from_roots(lead, roots):
            return functools.reduce(poly_mul, ([-r, 1] for r in roots), [lead])

        for m, n in itertools.product(range(1, 6), repeat=2):
            for _ in range(20):
                a, b = random_rational(rng, 20), random_rational(rng, 20)
                alphas = [random_rational(rng, 20) for _ in range(m)]
                betas = [random_rational(rng, 20) for _ in range(n)]
                expected = a**n * b**m * math.prod(x - y for x in alphas for y in betas)
                assert resultant(from_roots(a, alphas), from_roots(b, betas)) == expected
