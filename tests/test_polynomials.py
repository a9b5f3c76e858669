import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
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
from localarith.formats import parse_polynomial
from localarith.numtheory import INFINITY
from localarith.polynomials import _det, poly_add, poly_mul, poly_sub

from conftest import random_rational

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
            got = _det(a)
            assert isinstance(got, Fraction) and got == expected
        assert singular > 40

    def test_bareiss_sign_of_row_swaps(self):
        assert _det([[0, 1], [1, 0]]) == -1
        assert _det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert _det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert _det([[0, 2], [0, 3]]) == 0

    def test_layout_examples(self):
        assert resultant([0, 1], [-1, 1]) == -1  # res(T, T-1)
        assert resultant([-1, 1], [-1, 0, 1]) == 0  # common root
        assert discriminant([-3, 0, 1]) == 12  # dis(T^2 - u) = 4u

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resultant([], [1, 1])

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


class TestEisenstein:
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


def full_modulus_lift(f, g0, h0, beta, precision):
    """polynomials._lift_factorization with every round solving the
    Sylvester system modulo the full p^(precision + 2 beta + 2): the oracle
    for the rounds that solve modulo only the digits they can use."""
    p = f.p
    s, t = g0.degree, h0.degree
    M = precision + 2 * beta + 2
    mod, done = p**M, p ** (precision + beta)
    f_i = polynomials._int_reps(p, M, f.coefficients)
    g = polynomials._int_reps(p, M, g0.coefficients)
    h = polynomials._int_reps(p, M, h0.coefficients)
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

    modN = p**precision
    g_out = [c % modN for c in g]
    h_out = [c % modN for c in h]
    # restore the exact leading terms (reduction may have changed them)
    g_out[-1] = g0.coefficients[-1]
    h_out[-1] = h0.coefficients[-1]
    return PadicPolynomial(p, g_out), PadicPolynomial(p, h_out)


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


def outcome(call):
    try:
        return call()
    except (HypothesisFailedError, InvalidArgumentError, PrecisionLossError) as exc:
        return type(exc), str(exc)


def assert_solve_schedule(monkeypatch, g0, h0, defect, beta, precision):
    """One Sylvester solve per round, each modulo only the digits it can use.

    A round that starts from a defect of valuation w solves modulo p^w
    while its target 2(w - beta) is short of precision + beta, so these
    exponents grow and at least double less 2 beta; the last round needs
    only precision + 3 beta - w < w digits.  No exponent exceeds about
    half of precision + 3 beta, where a full-modulus solve takes
    precision + 2 beta + 2.
    """
    g0, h0 = PadicPolynomial(3, g0), PadicPolynomial(3, h0)
    f = g0 * h0 + PadicPolynomial(3, defect)
    assert vp_rational(3, resultant(g0, h0)) == beta
    solves = record_calls(monkeypatch, "_solve_mod_prime_power")
    hensel_lift_factors(f, g0, h0, beta, precision)
    assert 1 <= len(solves) <= math.ceil(math.log2(precision)) + 2
    exponents = [M for _, M, _, _ in solves]
    growing = exponents[:-1]
    assert all(b >= max(a + 1, 2 * (a - beta)) for a, b in zip(growing, growing[1:]))
    assert max(exponents) <= math.ceil((precision + 3 * beta) / 2) + 1


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

    def test_lifts_agree_with_the_full_modulus_oracle(self, monkeypatch, rng):
        betas, leads = set(), set()
        for f, g0, h0, beta, precision in near_root_pairs(rng):
            betas.add(beta)
            leads.add(sum(x.coefficients[-1] % f.p == 0 for x in (g0, h0)))
            calls = (
                lambda: hensel_lift_factors(f, g0, h0, beta, precision),
                lambda: refine_factorization(f, g0, h0, precision),
            )
            got = [outcome(call) for call in calls]
            with monkeypatch.context() as patched:
                patched.setattr(polynomials, "_lift_factorization", full_modulus_lift)
                assert got == [outcome(call) for call in calls], (f, g0, h0, precision)
        assert betas >= set(range(5)) and leads == {0, 1, 2}

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
