import random
from fractions import Fraction

import pytest

from localarith import (
    ExcludedCaseError,
    HypothesisFailedError,
    InvalidArgumentError,
    NotASquareError,
    PadicNumber,
    PrecisionLossError,
    expansion,
    is_square,
    newton_lift,
    pth_power_on_units,
    sqrt,
    square_class_basis,
    teichmuller,
    vp_rational,
)


class TestRepresentation:
    def test_unit_decomposition(self):
        x = PadicNumber.from_rational(5, 50, 6)
        assert (x.valuation, x.unit) == (2, 2)

    def test_negative_valuation(self):
        x = PadicNumber.from_rational(3, Fraction(2, 9), 4)
        assert x.valuation == -2 and x.unit == 2

    def test_exact_zero(self):
        z = PadicNumber.zero(7)
        assert z.is_exact_zero and z.is_zero()

    def test_mixed_primes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PadicNumber.from_rational(3, 1, 4) + PadicNumber.from_rational(5, 1, 4)

    @pytest.mark.parametrize(
        "args",
        [
            (5, 0, 5, 3),  # not a unit
            (5, 0, 1.0, 3),
            (5, 0, True, 3),
            (5, 0, 0, 3),
            (5, 0, 125, 3),  # beyond p^N
            (5, 0, -1, 3),
            (5, 0, 1, 0),
            (5, 0, 1, 2.0),
            (5, 0.0, 1, 3),
            (5, None, 1, 3),
            (4, 0, 1, 3),
            (5.0, 0, 1, 3),
        ],
    )
    def test_constructor_keeps_the_invariant(self, args):
        with pytest.raises(InvalidArgumentError):
            PadicNumber(*args)

    def test_constructor_accepts_a_unit(self):
        x = PadicNumber(5, -2, 124, 3)
        assert (x.valuation, x.unit, x.precision) == (-2, 124, 3)


class TestRingOps:
    def test_two_plus_three_is_five(self):
        x = PadicNumber.from_rational(5, 2, 6) + PadicNumber.from_rational(5, 3, 6)
        assert x.valuation == 1 and x.unit == 1

    def test_product_with_valuations(self):
        x = PadicNumber.from_rational(7, 3, 5) * PadicNumber.from_rational(7, 2 * 49, 5)
        assert x.valuation == 2 and x.unit == 6

    def test_geometric_series_inverse(self):
        x = PadicNumber.from_rational(5, 1, 8) / PadicNumber.from_rational(5, 1 - 5, 8)
        assert expansion(x, 8).digits == (1,) * 8

    def test_addition_valuation_rule(self):
        a = PadicNumber.from_rational(3, 9, 5)
        b = PadicNumber.from_rational(3, 1, 5)
        assert (a + b).valuation == 0  # different valuations: exact

    def test_cancellation_becomes_inexact_zero(self):
        a = PadicNumber.from_rational(2, 5, 4)
        b = PadicNumber.from_rational(2, -5, 4)
        d = a + b
        assert d.is_inexact_zero and d.valuation == 4
        with pytest.raises(PrecisionLossError):
            d.is_zero()

    def test_partial_cancellation_reduces_precision(self):
        a = PadicNumber.from_rational(2, 1, 5)
        b = PadicNumber.from_rational(2, 7, 5)
        d = a + b  # 8 = 2^3: three digits cancel
        assert d.valuation == 3 and d.precision == 2

    def test_division_by_inexact_zero(self):
        z = PadicNumber.from_rational(2, 1, 4) - PadicNumber.from_rational(2, 1, 4)
        with pytest.raises(PrecisionLossError):
            PadicNumber.from_rational(2, 3, 4) / z

    def test_division_by_exact_zero(self):
        with pytest.raises(InvalidArgumentError):
            PadicNumber.from_rational(2, 3, 4) / PadicNumber.zero(2)

    def test_ring_axioms_on_residues(self):
        # == is equality at the shared precision; operands mix precisions and
        # valuations (negative ones too), exact zeros, ints and Fractions
        rng = random.Random(99)

        def operand(p):
            kind = rng.randrange(5)
            if kind == 0:
                return PadicNumber.zero(p)
            if kind == 1:
                return rng.randint(-50, 50)
            if kind == 2:
                return Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            n = rng.randint(1, 6)
            unit = rng.randrange(1, p**n)
            while unit % p == 0:
                unit = rng.randrange(1, p**n)
            return PadicNumber(p, rng.randint(-2, 2), unit, n)

        for _ in range(10_000):
            p = rng.choice([2, 3, 5])
            x = operand(p)
            while not isinstance(x, PadicNumber):
                x = operand(p)
            a, b, c = rng.sample([x, operand(p), operand(p)], 3)
            assert a + b == b + a and a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            cancelled = x - x
            if x.is_exact_zero:
                assert cancelled.is_exact_zero
            else:
                assert cancelled.is_inexact_zero
                with pytest.raises(PrecisionLossError):
                    cancelled.is_zero()


class TestExpansion:
    def test_minus_quarter_base5(self):
        x = PadicNumber.from_rational(5, Fraction(-1, 4), 6)
        e = expansion(x, 4)
        assert e.start == 0 and e.digits == (1, 1, 1, 1)

    def test_nine_base3(self):
        e = expansion(PadicNumber.from_rational(3, 9, 5), 3)
        assert e.start == 2 and e.digits == (1, 0, 0)

    def test_minus_one_base2(self):
        x = PadicNumber.from_rational(2, -1, 8)
        e = expansion(x, 5)
        assert e.digits == (1, 1, 1, 1, 1)
        assert (-1 - e.value()) % 2**5 == 0

    def test_reconstruction(self):
        rng = random.Random(4)
        for _ in range(200):
            p = rng.choice([2, 3, 7])
            x = PadicNumber.from_rational(
                p, Fraction(rng.randint(1, 500), rng.randint(1, 500)), 8
            )
            count = rng.randint(1, x.precision)
            value = expansion(x, count).value()
            assert vp_rational(p, value - x.as_fraction()) >= x.valuation + count \
                or value == x.as_fraction()

    def test_zero_expansion_is_empty(self):
        assert expansion(PadicNumber.zero(3), 4).digits == ()

    def test_count_beyond_precision_rejected(self):
        with pytest.raises(InvalidArgumentError):
            expansion(PadicNumber.from_rational(3, 2, 4), 5)


class TestTeichmuller:
    def test_one(self):
        assert teichmuller(11, 1, 6).unit == 1

    def test_five_adic(self):
        assert teichmuller(5, 2, 2).residue(2) == 7
        assert pow(7, 4, 25) == 1

    def test_three_adic_minus_one(self):
        assert teichmuller(3, 2, 3).residue(3) == 26

    def test_root_of_unity_property(self):
        for p in (3, 5, 7, 13):
            for r in range(1, p):
                w = teichmuller(p, r, 10)
                assert pow(w.residue(10), p - 1, p**10) == 1
                assert w.residue(10) % p == r

    def test_multiplicativity(self):
        for p in (3, 5, 7):
            n = 8
            for x in range(1, p):
                for y in range(1, p):
                    lhs = teichmuller(p, x, n).residue(n) * teichmuller(p, y, n).residue(n)
                    rhs = teichmuller(p, x * y % p, n).residue(n)
                    assert lhs % p**n == rhs

    def test_zero_residue_rejected(self):
        with pytest.raises(InvalidArgumentError):
            teichmuller(5, 10, 4)

    @pytest.mark.parametrize("precision", [0, -3, 2.5, True])
    def test_precision_below_one_rejected(self, precision):
        with pytest.raises(InvalidArgumentError):
            teichmuller(5, 2, precision)


class TestNewtonLift:
    def test_sqrt_two_mod_49(self):
        root = newton_lift([-2, 0, 1], 3, p=7, precision=2)
        assert root.residue(2) == 10

    def test_teichmuller_via_lift(self):
        for p in (5, 7, 11):
            g = next(
                r for r in range(2, p) if len({pow(r, k, p) for k in range(p - 1)}) == p - 1
            )
            f = [0] * (p - 1) + [1]
            f[0] = -1  # T^(p-1) - 1
            root = newton_lift(f, g, p=p, precision=8)
            assert pow(root.residue(8), p - 1, p**8) == 1
            assert root.residue(8) == teichmuller(p, g, 8).residue(8)

    def test_hypothesis_failure(self):
        with pytest.raises(HypothesisFailedError):
            newton_lift([-2, 0, 1], 1, p=2, precision=4)

    @pytest.mark.parametrize("precision", [0, -3, 2.5, True])
    def test_precision_below_one_rejected(self, precision):
        with pytest.raises(InvalidArgumentError):
            newton_lift([-2, 0, 1], 3, p=7, precision=precision)

    @pytest.mark.parametrize("start", [3.9, Fraction(7, 2), True])
    def test_inexact_or_non_integral_start_rejected(self, start):
        with pytest.raises(InvalidArgumentError):
            newton_lift([-2, 0, 1], start, p=7, precision=2)

    def test_integral_fraction_start(self):
        assert newton_lift([-2, 0, 1], Fraction(3), p=7, precision=2).residue(2) == 10

    def test_displacement_bound(self):
        rng = random.Random(7)
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            u = rng.randrange(1, p**6)
            while u % p == 0:
                u = rng.randrange(1, p**6)
            u = pow(u, 2, p**6)
            a0 = next(r for r in range(1, p) if (r * r - u) % p == 0)
            root = newton_lift([-u, 0, 1], a0, p=p, precision=6)
            v_f = vp_rational(p, a0 * a0 - u)
            bound = v_f  # v(f(a0)) - 2 v(f'(a0)) with f'(a0) a unit
            diff = root.as_fraction() - a0
            assert diff == 0 or vp_rational(p, diff) >= bound

    def test_close_roots_and_deep_starts(self):
        # f = (T - a0)(T - a0 + p^j d) + p^k c: t = v(f'(a0)) = j, and a start
        # k digits deep, which the carried inverse of f'/p^t must catch up with
        rng = random.Random(3)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            j = rng.randint(1, 3)
            k = rng.randint(2 * j + 1, 40)
            a0 = rng.randrange(-50, 50)
            d = 1 if p == 2 else rng.randrange(1, p)
            f = [a0 * (a0 - p**j * d) + p**k * rng.randrange(1, p), -(2 * a0 - p**j * d), 1]
            precision = rng.randint(j, 50)
            root = newton_lift(f, a0, p=p, precision=precision).residue(precision)
            value = f[0] + f[1] * root + root * root
            assert vp_rational(p, value) >= precision + j
            assert (root - a0) % p ** min(precision, k - j) == 0


class TestSquares:
    def test_fifteen_not_square_in_q2(self):
        assert not is_square(PadicNumber.from_rational(2, 15, 10))

    def test_seventeen_square_in_q2(self):
        x = PadicNumber.from_rational(2, 17, 10)
        assert is_square(x)
        r = sqrt(x).residue(5)
        assert pow(r, 2, 32) == 17 % 32

    def test_two_square_in_q7(self):
        x = PadicNumber.from_rational(7, 2, 2)
        assert is_square(x)
        assert sqrt(x).residue(2) in (10, 39)

    def test_odd_valuation_never_square(self):
        assert not is_square(PadicNumber.from_rational(5, 15, 6))

    def test_sqrt_of_nonsquare_raises(self):
        with pytest.raises(NotASquareError):
            sqrt(PadicNumber.from_rational(2, 15, 10))

    def test_even_valuation_scaling(self):
        x = PadicNumber.from_rational(7, 2 * 49, 4)
        r = sqrt(x)
        assert r.valuation == 1
        assert vp_rational(7, r.as_fraction() ** 2 - 2 * 49) >= 4

    def test_square_class_bases(self):
        assert square_class_basis(2) == [5, 3, 2]
        assert square_class_basis(3) == [2, 3]
        assert square_class_basis(7) == [3, 7]

    def test_sqrt_against_brute_force_below_300(self):
        # every odd prime below 300, so p = 1 mod 8 and 2-adic orders of
        # p - 1 up to 8 (p = 257) reach the Tonelli-Shanks loop, and every
        # nonzero square residue; the root starts at the least residue root
        rng = random.Random(300)
        for p in range(3, 300):
            if any(p % q == 0 for q in range(2, p)):
                continue
            least = {}
            for r in range(1, p):
                least.setdefault(r * r % p, r)
            for a, r in least.items():
                precision = rng.randint(1, 5)
                unit = a + p * rng.randrange(p ** (precision - 1))
                root = sqrt(PadicNumber(p, 2, unit, precision))
                assert root.valuation == 1 and root.precision == precision
                assert root.unit % p == r
                assert (root.unit**2 - unit) % p**precision == 0


class TestPthPowerOnUnits:
    def test_forward_example(self):
        y = pth_power_on_units(3, 1, "forward", 1 + 3, 3)
        assert y.residue(3) == 64 % 27

    def test_inverse_example(self):
        x = pth_power_on_units(3, 1, "inverse", 10, 3)
        assert pow(x.residue(3), 3, 27) == 10
        assert x.residue(2) == 4
        # the cube root of 10 in Z_3 is 13 mod 27: all three digits are set
        assert x.residue(3) == 13

    def test_inverse_pins_every_digit(self):
        # x in U_n with x^p = u mod p^(N+1) is unique mod p^N
        rng = random.Random(11)
        for p in (2, 3, 5, 7, 11):
            for _ in range(60):
                n = rng.randint(2 if p == 2 else 1, 4)
                precision = rng.randint(2, 8)
                u = 1 + p ** (n + 1) * rng.randrange(p ** (precision + 1))
                x = pth_power_on_units(p, n, "inverse", u, precision)
                assert x.precision == precision
                assert (pow(x.unit, p, p ** (precision + 1)) - u) % p ** (precision + 1) == 0
                assert (x.unit - 1) % p ** min(n, precision) == 0

    def test_inverse_reads_one_more_digit_of_a_padic_u(self):
        u = PadicNumber.from_rational(3, 10, 3)
        with pytest.raises(PrecisionLossError):
            pth_power_on_units(3, 1, "inverse", u, 3)
        u = PadicNumber.from_rational(3, 10, 4)
        assert pth_power_on_units(3, 1, "inverse", u, 3).residue(3) == 13

    def test_excluded_case(self):
        with pytest.raises(ExcludedCaseError):
            pth_power_on_units(2, 1, "forward", 5, 5)

    def test_round_trips_brute_force(self):
        for p in (2, 3, 5):
            n0 = 2 if p == 2 else 1
            modulus = p**5
            for n in range(n0, 4):
                for k in range(p ** (5 - n)):
                    u = 1 + k * p**n  # runs over U_n mod p^5
                    fwd = pth_power_on_units(p, n, "forward", u, 5).residue(5)
                    assert fwd == pow(u, p, modulus)
                    back = pth_power_on_units(p, n, "inverse", fwd, 5).residue(5)
                    # forward is injective on U_n mod p^4: the round trip
                    # returns u up to the last digit
                    assert (back - u) % p**4 == 0
                    assert pow(back, p, modulus) == fwd

    @pytest.mark.parametrize("n", [0, True, 1.5])
    def test_level_must_be_a_positive_int(self, n):
        with pytest.raises(InvalidArgumentError):
            pth_power_on_units(3, n, "forward", 4, 3)

    def test_wrong_filtration_level_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pth_power_on_units(3, 2, "forward", 1 + 3, 5)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("precision", [0, -2])
    def test_precision_below_one_rejected(self, direction, precision):
        with pytest.raises(InvalidArgumentError):
            pth_power_on_units(5, 1, direction, 6, precision)


class TestUnitFiltrationLevel:
    def test_levels(self):
        from localarith.padic import unit_filtration_level

        assert unit_filtration_level(3, 2, 6) == 0
        assert unit_filtration_level(3, 4, 6) == 1
        assert unit_filtration_level(3, 10, 6) == 2
        assert unit_filtration_level(5, 1, 6) == float("inf")

    def test_precision_limit(self):
        from localarith.padic import unit_filtration_level

        with pytest.raises(PrecisionLossError):
            unit_filtration_level(3, 1 + 3**6, 4)

    @pytest.mark.parametrize("u", [6, 1])
    @pytest.mark.parametrize("precision", [0, -1])
    def test_precision_below_one_rejected(self, u, precision):
        from localarith.padic import unit_filtration_level

        with pytest.raises(InvalidArgumentError):
            unit_filtration_level(5, u, precision)

    def test_float_unit_rejected(self):
        from localarith.padic import unit_filtration_level

        with pytest.raises(InvalidArgumentError):
            unit_filtration_level(5, 6.0, 4)

    def test_characterizes_membership(self):
        from localarith.padic import unit_filtration_level

        for p in (2, 3, 5):
            for u in range(1, p**4):
                if u % p == 0 or u == 1:
                    continue
                level = unit_filtration_level(p, u, 8)
                for n in range(1, 5):
                    assert (level >= n) == ((u - 1) % p**n == 0)
