import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import FiniteField, FqPoly, factor_monic, monic_irreducibles
from localarith.errors import InvalidArgumentError
from localarith.finitefield import monic_polys

# -- trial-division oracles --------------------------------------------------


def trial_is_irreducible(f):
    """No monic divisor of degree 1..deg/2."""
    if f.degree < 1:
        return False
    return not any(
        (f % g).is_zero() for d in range(1, f.degree // 2 + 1) for g in monic_polys(f.field, d)
    )


def trial_factor_monic(poly):
    """Divide out monic candidates in increasing degree and code order: a
    reducible candidate never divides what is left, its factors being gone."""
    work = poly.monic()
    factors = {}
    d = 1
    while work.degree >= 1:
        if d > work.degree // 2:
            factors[work] = factors.get(work, 0) + 1
            break
        for g in monic_polys(poly.field, d):
            while (work % g).is_zero():
                factors[g] = factors.get(g, 0) + 1
                work = work // g
        d += 1
    return factors


def stepping_generator(field):
    """The least code whose powers run through all of GF(q)^*, by stepping
    through the powers of each candidate."""
    for g in range(1, field.q):
        x, n = g, 1
        while x != 1:
            x = field.mul(x, g)
            n += 1
        if n == field.q - 1:
            return g


def power(f, e):
    out = FqPoly(f.field, [1])
    for _ in range(e):
        out = out * f
    return out


# total degree per q that keeps the trial-division oracle fast
MAX_DEGREE = {2: 14, 3: 10, 4: 8, 5: 7, 7: 6, 8: 6, 9: 6}


@st.composite
def factorable(draw):
    """A unit times monic factors with multiplicities, sometimes a p-th power."""
    q = draw(st.sampled_from(sorted(MAX_DEGREE)))
    field = FiniteField(q)
    poly = FqPoly(field, [draw(st.integers(1, q - 1))])
    budget = MAX_DEGREE[q]
    inseparable = draw(st.booleans())
    if inseparable:
        budget //= field.p
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(1, 4))
        e = draw(st.sampled_from([1, 1, 2, 3, field.p, field.p + 1]))
        if poly.degree + d * e > budget:
            break
        low = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
        poly = poly * power(FqPoly(field, low + [1]), e)
    return power(poly, field.p) if inseparable else poly


class TestFieldConstruction:
    def test_deterministic_moduli(self):
        # least monic irreducible in code order
        assert FiniteField(4).modulus == (1, 1)  # x^2 + x + 1
        assert FiniteField(8).modulus == (1, 1, 0)  # x^3 + x + 1
        assert FiniteField(9).modulus == (1, 0)  # x^2 + 1

    def test_moduli_pinned_up_to_3_to_the_5(self):
        pinned = {
            4: (1, 1), 8: (1, 1, 0), 9: (1, 0), 16: (1, 1, 0, 0), 25: (2, 0),
            27: (1, 2, 0), 32: (1, 0, 1, 0, 0), 49: (1, 0), 64: (1, 1, 0, 0, 0, 0),
            81: (2, 1, 0, 0), 121: (1, 0), 125: (1, 1, 0), 128: (1, 1, 0, 0, 0, 0, 0),
            169: (2, 0), 243: (1, 2, 0, 0, 0),
        }
        for q in range(2, 3**5 + 1):
            try:
                field = FiniteField(q)
            except InvalidArgumentError:
                assert q not in pinned
                continue
            assert field.modulus == pinned.get(q)
            if field.modulus is not None:
                assert trial_is_irreducible(FqPoly(FiniteField(field.p), field.modulus + (1,)))

    @pytest.mark.parametrize("q", [4.0, True, "4", 2.5])
    def test_rejects_inexact_order(self, q):
        with pytest.raises(InvalidArgumentError):
            FiniteField(q)
        assert FiniteField(4).q == 4

    def test_prime_field(self):
        f = FiniteField(7)
        assert f.degree == 1 and f.modulus is None

    def test_not_prime_power(self):
        with pytest.raises(InvalidArgumentError):
            FiniteField(6)

    def test_field_axioms_small(self):
        for q in (4, 8, 9):
            f = FiniteField(q)
            for a in range(q):
                for b in range(q):
                    assert f.add(a, b) == f.add(b, a)
                    assert f.mul(a, b) == f.mul(b, a)
                if a:
                    assert f.mul(a, f.inv(a)) == 1

    def test_multiplicative_generator_matches_stepping_oracle(self):
        for q in range(2, 3**5 + 1):
            try:
                field = FiniteField(q)
            except InvalidArgumentError:
                continue
            assert field.multiplicative_generator() == stepping_generator(field), q

    def test_multiplicative_generator(self):
        for q in (3, 4, 5, 8, 9):
            f = FiniteField(q)
            g = f.multiplicative_generator()
            seen = set()
            x = 1
            for _ in range(q - 1):
                x = f.mul(x, g)
                seen.add(x)
            assert len(seen) == q - 1


class TestPolynomials:
    def test_divmod_roundtrip(self):
        f = FiniteField(3)
        a = FqPoly(f, [1, 2, 0, 1])
        b = FqPoly(f, [2, 1])
        q, r = divmod(a, b)
        assert q * b + r == a

    def test_irreducibility(self):
        f2 = FiniteField(2)
        assert FqPoly(f2, [1, 1, 1]).is_irreducible()  # T^2+T+1
        assert not FqPoly(f2, [1, 0, 1]).is_irreducible()  # (T+1)^2

    @pytest.mark.parametrize("q, top", [(2, 8), (3, 5), (4, 3), (5, 3), (9, 3)])
    def test_irreducibility_matches_trial_division(self, q, top):
        field = FiniteField(q)
        for d in range(top + 1):
            for g in monic_polys(field, d):
                assert g.is_irreducible() == trial_is_irreducible(g), g
                scaled = g * FqPoly(field, [q - 1])
                assert scaled.is_irreducible() == trial_is_irreducible(g), scaled

    @settings(max_examples=300, deadline=None)
    @given(factorable())
    def test_factor_matches_trial_division(self, poly):
        assert list(factor_monic(poly).items()) == list(trial_factor_monic(poly).items())

    @pytest.mark.parametrize(
        "q, base, e",
        [
            (3, [1, 0, 1], 3),  # (T^2 + 1)^3, multiplicity p
            (3, [1, 0, 1], 4),  # multiplicity p + 1
            (4, [2, 3, 1], 2),  # p-th powers, f' = 0
            (8, [5, 0, 1, 1], 2),
            (9, [4, 1], 3),
            (9, [2, 7, 1], 3),
            (2, [1, 1], 9),
        ],
    )
    def test_factor_inseparable(self, q, base, e):
        field = FiniteField(q)
        poly = power(FqPoly(field, base), e) * FqPoly(field, [0, 1])
        assert list(factor_monic(poly).items()) == list(trial_factor_monic(poly).items())

    def test_factor_twelve_plus_twelve_over_gf2(self):
        field = FiniteField(2)
        rng = random.Random(12)
        irreducibles = []
        while len(irreducibles) < 2:
            g = FqPoly(field, [1] + [rng.randrange(2) for _ in range(11)] + [1])
            if g.is_irreducible() and g not in irreducibles:
                irreducibles.append(g)
        assert all(trial_is_irreducible(g) for g in irreducibles)
        factors = factor_monic(irreducibles[0] * irreducibles[1])
        assert factors == {g: 1 for g in irreducibles}
        assert list(factors) == sorted(irreducibles, key=lambda g: g.coeffs[::-1])

    def test_mixed_fields_rejected(self):
        a, b = FqPoly(FiniteField(4), [1, 1]), FqPoly(FiniteField(2), [1, 1])
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: divmod(a, b), lambda: a % b):
            with pytest.raises(InvalidArgumentError, match="share one field"):
                op()

    @pytest.mark.parametrize("coeffs", [[1.0, 1], [True, 1], [1, False], [0.5]])
    def test_rejects_inexact_coefficients(self, coeffs):
        with pytest.raises(InvalidArgumentError):
            FqPoly(FiniteField(3), coeffs)

    @pytest.mark.parametrize("q, code", [(9, -1), (9, 9), (9, 10), (4, 4), (16, -3)])
    def test_rejects_out_of_range_codes(self, q, code):
        field = FiniteField(q)
        with pytest.raises(InvalidArgumentError, match="must lie in"):
            FqPoly(field, [code, 1])
        with pytest.raises(InvalidArgumentError, match="must lie in"):
            FqPoly(field, [0, 1]).evaluate(code)

    def test_prime_field_reduces_integers(self):
        field = FiniteField(7)
        assert FqPoly(field, [-1, 8, 14]) == FqPoly(field, [6, 1])
        assert FqPoly(field, [0, 1]).evaluate(12) == 5
        assert FqPoly(field, [0, 1]).evaluate(-1) == 6
        with pytest.raises(InvalidArgumentError):
            FqPoly(field, [0, 1]).evaluate(0.5)

    def test_factor_roundtrip(self):
        f3 = FiniteField(3)
        cases = [FqPoly(f3, [0, 1]) * FqPoly(f3, [1, 1]) * FqPoly(f3, [1, 1]) * FqPoly(f3, [1, 0, 1])]
        rng = random.Random(4)
        for q in (4, 8, 9):
            field = FiniteField(q)
            for _ in range(10):
                poly = FqPoly(field, [rng.randrange(1, q)])
                for _ in range(rng.randint(1, 3)):
                    coeffs = [rng.randrange(q) for _ in range(rng.randint(1, 3))]
                    poly = poly * FqPoly(field, coeffs + [1])
                cases.append(poly)
        for poly in cases:
            factors = factor_monic(poly)
            rebuilt = FqPoly(poly.field, [poly.coeffs[-1]])
            for g, e in factors.items():
                assert g.is_monic() and g.is_irreducible()
                for _ in range(e):
                    rebuilt = rebuilt * g
            assert rebuilt == poly

    @pytest.mark.parametrize(
        "q, d", [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 16) for d in range(1, 8) if q**d <= 128]
    )
    def test_factor_field_polynomial(self, q, d):
        """T^(q^d) - T is the product of every monic irreducible of degree
        dividing d: equal-degree blocks of many factors in both the odd
        and the even trace branch."""
        field = FiniteField(q)
        poly = FqPoly(field, [0, field.neg(1)] + [0] * (q**d - 2) + [1])
        expected = {g: 1 for g in monic_irreducibles(field, d) if d % g.degree == 0}
        assert list(factor_monic(poly).items()) == list(expected.items())

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 1009, 10007])
    def test_factor_agrees_with_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(p)
        field = FiniteField(p)
        for _ in range(25):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
            ours = {g.coeffs: e for g, e in factor_monic(FqPoly(field, coeffs)).items()}
            _, theirs = sympy.Poly(list(reversed(coeffs)), T, modulus=p).factor_list()
            expected = {
                tuple(int(c) % p for c in reversed(g.all_coeffs())): e for g, e in theirs
            }
            assert ours == expected

    def test_monic_irreducible_enumeration(self):
        # over GF(2): 1 of degree 1 with nonzero constant? count degree-2 and 3
        f2 = FiniteField(2)
        by_degree = {}
        for g in monic_irreducibles(f2, 3):
            by_degree.setdefault(g.degree, []).append(g)
        assert len(by_degree[1]) == 2
        assert len(by_degree[2]) == 1
        assert len(by_degree[3]) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: FqPoly(9, [1, 2]),
        lambda: FqPoly(None, [1]),
        lambda: factor_monic([1, 2]),
        lambda: factor_monic(None),
        lambda: FqPoly(FiniteField(9), [1, 2]) + 1,
        lambda: FqPoly(FiniteField(9), [1, 2]) * [1],
        lambda: divmod(FqPoly(FiniteField(9), [1, 2]), 3),
        lambda: list(monic_polys(9, 2)),
        lambda: list(monic_irreducibles(9, 2)),
    ],
)
def test_non_field_arguments_rejected(call):
    with pytest.raises(InvalidArgumentError):
        call()
