import math
import operator
import random
from fractions import Fraction

import pytest

from localarith import (
    ExcludedCaseError,
    HypothesisFailedError,
    InvalidArgumentError,
    LocalArithError,
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
from localarith import padic
from localarith.numtheory import (
    _exact,
    _precision,
    int_valuation,
    rational_valuation,
    require_prime,
)
from localarith.polynomials import PadicPolynomial, poly_mul


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

    def test_representatives_of_the_zeros(self):
        zero, small = PadicNumber.zero(5), PadicNumber.zero_at(5, 3)
        assert repr(zero) == "PadicNumber(5, 0)" and repr(small) == "O(5^3)"
        assert zero.as_fraction() == 0 and zero.residue(7) == 0 and small.residue(3) == 0
        with pytest.raises(PrecisionLossError, match="no canonical representative"):
            small.as_fraction()
        with pytest.raises(PrecisionLossError, match="known only modulo 5\\^3"):
            small.residue(4)
        assert not PadicNumber.from_rational(5, 3, 4).is_zero()

    def test_residue_needs_an_integer_known_that_far(self):
        assert PadicNumber.from_rational(5, 30, 4).residue(5) == 30
        with pytest.raises(InvalidArgumentError, match="negative valuation"):
            PadicNumber.from_rational(5, Fraction(1, 5), 4).residue(1)
        with pytest.raises(PrecisionLossError, match="known only modulo 5\\^5"):
            PadicNumber.from_rational(5, 30, 4).residue(6)

    def test_a_foreign_operand_is_not_implemented(self):
        x = PadicNumber.from_rational(5, 3, 4)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, "a")
        assert x != "a" and not x == "a"

    def test_an_inexact_zero_has_no_digits_and_no_square_class(self):
        assert str(expansion(PadicNumber.zero(3), 4)) == "0"
        with pytest.raises(PrecisionLossError, match="digits of an inexact zero"):
            expansion(PadicNumber.zero_at(3, 2), 1)
        with pytest.raises(PrecisionLossError, match="squareness of an inexact zero"):
            is_square(PadicNumber.zero_at(3, 2))


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

    def test_division_of_an_exact_zero(self):
        q = PadicNumber.zero(5) / PadicNumber.from_rational(5, 10, 4)
        assert q.is_exact_zero and q.p == 5

    def test_division_of_an_inexact_zero(self):
        # O(5^3) / (5 * unit) is O(5^2): the quotient keeps only what is known
        q = PadicNumber.zero_at(5, 3) / PadicNumber.from_rational(5, 10, 4)
        assert q.is_inexact_zero and q.absolute_precision == 2
        assert (PadicNumber.zero_at(5, 3) / 7).absolute_precision == 3

    def test_reflected_operators_match_the_coerced_forward_ones(self):
        def parts(x):
            return x.p, x.valuation, x.unit, x.precision

        xs = [
            PadicNumber.from_rational(5, Fraction(7, 25), 4),
            PadicNumber.from_rational(5, 10, 3),
            PadicNumber.from_rational(2, -3, 6),
        ]
        for x in xs:
            for a in (1, 2, -7, Fraction(3, 4)):
                assert parts(a - x) == parts(x._coerce(a) - x)
                assert parts(a / x) == parts(x._coerce(a) / x)
            with pytest.raises(TypeError):
                "1" / x

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


# The arithmetic as it stood with a branch of its own for each zero, and with
# rational operands normalized through from_rational: an oracle for the one
# path that PadicNumber takes now.  Only a False operand answers differently.


def branchy_from_rational(p, x, precision):
    require_prime(p)
    _precision(precision)
    if _exact(x) == 0:
        return PadicNumber.zero(p)
    vn = int_valuation(x.numerator, p)
    vd = int_valuation(x.denominator, p)
    num = abs(x.numerator) // p**vn * (1 if x > 0 else -1)
    den = x.denominator // p**vd
    unit = num * pow(den, -1, p**precision) % p**precision
    return padic._padic(p, vn - vd, unit, precision)


def branchy_coerce(x, other):
    if isinstance(other, PadicNumber):
        if other.p != x.p:
            raise InvalidArgumentError(f"mixed primes {x.p} and {other.p} in p-adic arithmetic")
        return other
    if other == 0:
        return PadicNumber.zero(x.p)
    v_other = rational_valuation(other, x.p)
    if x.is_exact_zero:
        prec = padic.DEFAULT_PRECISION
    elif x.is_inexact_zero:
        prec = max(1, x.valuation - v_other + 1)
    else:
        prec = max(1, x.precision, x.absolute_precision - v_other)
    return branchy_from_rational(x.p, other, int(prec))


def branchy_add(x, y):
    y = branchy_coerce(x, y)
    if x.is_exact_zero:
        return y
    if y.is_exact_zero:
        return x
    cap = min(x.absolute_precision, y.absolute_precision)
    if x.unit is None or y.unit is None:
        live = y if x.unit is None else x
        if live.unit is None or live.valuation >= cap:
            return PadicNumber.zero_at(x.p, cap)
        n = cap - live.valuation
        return padic._padic(x.p, live.valuation, live.unit % x.p**n, n)
    v = min(x.valuation, y.valuation)
    n = x.unit * x.p ** (x.valuation - v) + y.unit * x.p ** (y.valuation - v)
    return PadicNumber._from_integer_at(x.p, n, v, cap)


def branchy_mul(x, y):
    y = branchy_coerce(x, y)
    if x.is_exact_zero or y.is_exact_zero:
        return PadicNumber.zero(x.p)
    if x.unit is None or y.unit is None:
        return padic._padic(x.p, x.valuation + y.valuation, None, 0)
    n = min(x.precision, y.precision)
    return padic._padic(x.p, x.valuation + y.valuation, x.unit * y.unit % x.p**n, n)


def branchy_truediv(x, y):
    y = branchy_coerce(x, y)
    if y.is_exact_zero:
        raise InvalidArgumentError("division by exact zero")
    if y.is_inexact_zero:
        raise PrecisionLossError(
            f"division by a value indistinguishable from 0 (O({x.p}^{y.valuation}))"
        )
    if x.is_exact_zero:
        return x
    if x.is_inexact_zero:
        return padic._padic(x.p, x.valuation - y.valuation, None, 0)
    n = min(x.precision, y.precision)
    return padic._padic(
        x.p, x.valuation - y.valuation, x.unit * pow(y.unit, -1, x.p**n) % x.p**n, n
    )


# (operator, its branchy form) for x op y, x a PadicNumber
BRANCHY_OPS = [
    (operator.add, branchy_add),
    (operator.sub, lambda x, y: branchy_add(x, -branchy_coerce(x, y))),
    (operator.mul, branchy_mul),
    (operator.truediv, branchy_truediv),
]
# the same for r op x, r an int or Fraction: PadicNumber's reflected methods answer
BRANCHY_REFLECTED_OPS = [
    (operator.add, branchy_add),
    (operator.sub, lambda x, r: -branchy_add(x, -branchy_coerce(x, r))),
    (operator.mul, branchy_mul),
    (operator.truediv, lambda x, r: branchy_truediv(branchy_coerce(x, r), x)),
]


def outcome_of(call):
    """(p, valuation, unit, precision) of the result, or the exception's type and message."""
    try:
        z = call()
    except LocalArithError as exc:
        return type(exc), str(exc)
    return z.p, z.valuation, z.unit, z.precision


def seeded_operand(rng, p, padic_only=False):
    """An exact zero, an inexact zero at one of several valuations, a nonzero
    PadicNumber, an int or a Fraction, with p-powers in both."""
    kind = rng.randrange(3 if padic_only else 6)
    if kind == 0:
        return PadicNumber.zero(p)
    if kind == 1:
        return PadicNumber.zero_at(p, rng.choice([-3, -1, 0, 1, 2, 5, 9, 40]))
    if kind == 2:
        n = rng.randint(1, 8)
        unit = rng.randrange(1, p**n)
        while unit % p == 0:
            unit = rng.randrange(1, p**n)
        return PadicNumber(p, rng.randint(-4, 6), unit, n)
    if kind == 3:
        return 0
    scale = Fraction(p) ** rng.randint(-5, 5)
    x = rng.randint(-10**4, 10**4) * scale
    return x.numerator if kind == 4 and x.denominator == 1 else x


class TestOnePath:
    def test_the_branchy_arithmetic_agrees(self):
        rng = random.Random(32)
        for _ in range(3000):
            p = rng.choice([2, 3, 5, 101])
            x, y = seeded_operand(rng, p, padic_only=True), seeded_operand(rng, p)
            for op, branchy in BRANCHY_OPS:
                assert outcome_of(lambda: op(x, y)) == outcome_of(lambda: branchy(x, y)), (x, y)
            if not isinstance(y, PadicNumber):
                for op, branchy in BRANCHY_REFLECTED_OPS:
                    assert outcome_of(lambda: op(y, x)) == outcome_of(lambda: branchy(x, y)), (y, x)

    @pytest.mark.parametrize(
        "x", [PadicNumber.zero(5), PadicNumber.zero_at(5, 3), PadicNumber(5, 1, 7, 4)]
    )
    @pytest.mark.parametrize("flag", [False, True])
    def test_a_bool_operand_is_rejected_on_either_side(self, x, flag):
        # _exact runs before the zero tests: False is not read as an exact
        # zero, whatever the other operand is
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            for call in (lambda: op(x, flag), lambda: op(flag, x)):
                with pytest.raises(InvalidArgumentError, match="not an exact rational"):
                    call()

    def test_a_zero_addend_forms_no_power_of_p(self):
        # O(5^(10^5)) plus a 5-digit value: no power of p past the sum's 5 digits
        exponents = []

        class Five(int):
            def __pow__(self, e, *mod):
                exponents.append(e)
                return int.__pow__(int(self), e, *mod)

        p = Five(5)
        z, x = PadicNumber.zero_at(p, 10**5), padic._padic(p, 0, 1234, 5)
        for total in (z + x, x + z, z - x):
            assert (total.valuation, total.precision) == (0, 5)
        assert (z + x).unit == 1234 and max(exponents) <= 5


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

    @pytest.mark.parametrize(
        "f, start, a0",
        [
            ([-2, 0, 1], PadicNumber.from_rational(7, 3, 1), 3),  # 3 + O(7)
            ([-2, 0, 1], PadicNumber.from_rational(7, 10, 2), 10),
            ([7, -1, 1], PadicNumber.zero(7), 0),  # an exact zero start
            (PadicPolynomial(7, [-2, 0, 1]), PadicNumber.from_rational(7, 3, 1), 3),
            (PadicPolynomial(7, [-2, 0, 1]), 3, 3),  # p comes from f
        ],
    )
    def test_padic_start_matches_the_integer_start(self, f, start, a0):
        for precision in (1, 2, 9):
            expected = newton_lift(f, a0, p=7, precision=precision).residue(precision)
            assert newton_lift(f, start, precision=precision).residue(precision) == expected
            assert newton_lift(f, start, p=7, precision=precision).residue(precision) == expected

    def test_padic_start_with_another_prime_rejected(self):
        with pytest.raises(InvalidArgumentError, match="prime disagrees"):
            newton_lift([-2, 0, 1], PadicNumber.from_rational(7, 3, 1), p=5, precision=2)

    @pytest.mark.parametrize(
        "f, start, message",
        [
            ([-2, 0, 1], PadicNumber.zero_at(7, 3), "inexact zero"),  # O(7^3)
            # x^2 - 17 from 1 + O(2^2): f(a0) is known only to 2 digits, and
            # v(f(a0)) > 2v(f'(a0)) = 2 needs a third
            ([-17, 0, 1], PadicNumber.from_rational(2, 1, 2), "cannot certify"),
        ],
    )
    def test_padic_start_too_coarse_to_certify(self, f, start, message):
        with pytest.raises(PrecisionLossError, match=message):
            newton_lift(f, start, precision=4)

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


def full_modulus_newton(p, a, values, t, target):
    """padic._newton with every round modulo the full p^(target + 2t + 1):
    the oracle for the rounds that run modulo only the digits they use."""
    M = target + 2 * t + 1
    modulus, done, p_t = p**M, p ** (target + t), p**t
    a %= modulus
    fa, dfa = values(a, modulus)
    s = pow(dfa // p_t, -1, p)
    for _ in range(2 * target + 4):
        fa %= modulus
        if fa % done == 0:
            return a % p**target
        a = (a - fa // p_t * s) % modulus
        fa, dfa = values(a, modulus)
        s = s * (2 - dfa // p_t * s) % modulus
    raise HypothesisFailedError("Newton iteration failed to converge")


def close_root_lift(rng, p, t, precision):
    """newton_lift of f = (T - r)(T - r - p^t u) g(T) from a0 = r + p^(t+1) w,
    u and g(r) units: v(f'(a0)) = t and v(f(a0)) >= 2t + 1."""
    r, u = rng.randrange(p**3), rng.randrange(1, p)
    g = [rng.randrange(1, p) + p * rng.randint(-9, 9), rng.randint(-9, 9), 1]
    while (g[0] + g[1] * r + r * r) % p == 0:
        g[0] += 1
    f = poly_mul(poly_mul([-r, 1], [-r - p**t * u, 1]), g)
    a0 = r + p ** (t + 1) * rng.randint(0, 99)
    return lambda: newton_lift(f, a0, p=p, precision=precision)


def newton_calls(rng):
    """(N, call): seeded calls that reach padic._newton, t = 0 (sqrt and
    teichmuller at odd p), t = 1 (sqrt at p = 2, the inverse p-th power
    map) and t in {0, 1, 2} (newton_lift), at N in {1, 2, 32, 512, 2048}."""
    for N in (1, 2, 32, 512, 2048):
        for _ in range(3):
            p = rng.choice((3, 5, 7, 101))
            r = rng.randrange(1, p**4)
            x2 = PadicNumber.from_rational(p, Fraction(r * r, p ** rng.choice((0, 2))), N)
            yield N, lambda x=x2: sqrt(x)
            yield N, lambda p=p, r=r, N=N: teichmuller(p, r % p or 1, N)
            x2 = PadicNumber.from_rational(2, (2 * r + 1) ** 2, N)
            yield N, lambda x=x2: sqrt(x)
            n = rng.randint(1, 3)
            u = 1 + p ** (n + 1 + rng.randint(0, 2)) * r  # some starts beat the hypothesis
            yield N, lambda p=p, n=n, u=u, N=N: pth_power_on_units(p, n, "inverse", u, N)
            for t in (0, 1, 2):
                yield N, close_root_lift(rng, rng.choice((2, 3, 5, 7, 101)), t, N)


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # the oracle must fail the same way
        return type(exc), str(exc)


class TestNewtonSchedule:
    def test_matches_the_full_modulus_loop(self, monkeypatch):
        calls = [call for _, call in newton_calls(random.Random(18))]
        got = [outcome(call) for call in calls]
        monkeypatch.setattr(padic, "_newton", full_modulus_newton)
        assert got == [outcome(call) for call in calls]
        assert sum(isinstance(x, str) for x in got) > len(got) // 2

    def test_rounds_and_full_modulus_evaluations(self, monkeypatch):
        """At most ceil(log2 N) + 3 evaluations of f, none modulo more than
        p^(target + t) and at most 2 of them at it: no evaluation runs at the
        full modulus p^(target + 2t + 1) of the oracle loop."""
        scheduled, runs = padic._newton, []

        def counting(p, a, values, t, target):
            moduli = []

            def counted(a, mod):
                moduli.append(mod)
                return values(a, mod)

            result = scheduled(p, a, counted, t, target)
            top = p ** (target + t)
            assert all(mod <= top for mod in moduli), (p, t, target, moduli)
            runs.append((t, len(moduli), moduli.count(top)))
            return result

        monkeypatch.setattr(padic, "_newton", counting)
        shapes = set()
        for N, call in newton_calls(random.Random(19)):
            before = len(runs)
            try:
                call()
            except PrecisionLossError:  # N < 3 at p = 2 never reaches the loop
                assert len(runs) == before
                continue
            ((t, rounds, at_top),) = runs[before:]
            assert rounds <= math.ceil(math.log2(N)) + 3 and at_top <= 2, (N, t, rounds, at_top)
            shapes.add((t, N))
        assert shapes == {(t, N) for t in (0, 1, 2) for N in (1, 2, 32, 512, 2048)}


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
