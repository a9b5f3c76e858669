import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import FiniteField, FqPoly, factor_monic, monic_irreducibles
from localarith import finitefield
from localarith.errors import InvalidArgumentError, ResourceLimitError
from localarith.finitefield import monic_polys
from localarith.numtheory import factorint

from conftest import deadline

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


# -- the list kernels, the reference for the GF(2)[T] bit kernels ------------


def list_is_irreducible(f):
    """Ben-Or's test on the code-list kernels, which serve every q."""
    if f.degree < 2:
        return f.degree == 1
    F = f.field
    monic = finitefield._monic(list(f.coeffs), F)
    return next(finitefield._distinct_degree(monic, [[1]], F))[1] == f.degree


def list_factor_monic(poly):
    """factor_monic's (coeffs, multiplicity) pairs, by the code-list kernels."""
    F, multiplicity, rng = poly.field, {}, random.Random(0)
    for part, e in finitefield._squarefree_parts(finitefield._monic(list(poly.coeffs), F), F):
        rows = [[1]]
        for block, d in finitefield._distinct_degree(part, rows, F):
            for g in finitefield._equal_degree(block, d, rows, part, F, rng):
                multiplicity[tuple(g)] = multiplicity.get(tuple(g), 0) + e
    return [(g, multiplicity[g]) for g in sorted(multiplicity, key=lambda g: (len(g), g[::-1]))]


def list_built_tables(q):
    """The modulus and the exp, log and zech tables of GF(q), q = 2^m, all
    by the list kernels, as the constructor fills them for odd p."""
    F2, m = FiniteField(2), q.bit_length() - 1
    modulus = next(g.coeffs[:-1] for g in monic_polys(F2, m) if list_is_irreducible(g))
    f = [*modulus, 1]
    cofactors = [(q - 1) // r for r in factorint(q - 1)]
    digits = (finitefield._strip([c >> i & 1 for i in range(m)]) for c in range(2, q))
    g = next(g for g in digits if all(finitefield._powmod(g, e, f, F2) != [1] for e in cofactors))
    exp, x = [], [1]
    for _ in range(q - 1):
        exp.append(sum(c << j for j, c in enumerate(x)))
        x = finitefield._mulmod(g, x, f, F2)
    log = [None] * q
    for i, a in enumerate(exp):
        log[a] = i
    return modulus, exp, log, [log[a ^ 1] for a in exp]


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


# -- the digit-polynomial reference for GF(p^m) element arithmetic ----------


def digits(field, a):
    """Base-p digits of an element code, constant term first."""
    return [a // field.p**i % field.p for i in range(field.degree)]


def code(field, ds):
    """The code of a digit list, each digit reduced mod p."""
    return sum(c % field.p * field.p**i for i, c in enumerate(ds))


def schoolbook_mul(field, da, db):
    """The product of two digit lists as a code: multiply the digit
    polynomials, then reduce modulo the field's modulus from the top down."""
    p, m = field.p, field.degree
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c, prod[i] = prod[i], 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - c * field.modulus[j]) % p
    return code(field, prod[:m])


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

    def test_fields_are_cached_and_counted(self):
        # the size is checked before the cache hashes it, so an unhashable or
        # inexact size is rejected without a lookup; a field is built once
        FiniteField(4)
        before = FiniteField.cache_info()
        assert FiniteField(4) is FiniteField(4)
        for q in ([4], {4}, 4.0):
            with pytest.raises(InvalidArgumentError, match="not an integer"):
                FiniteField(q)
        after = FiniteField.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

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

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])  # 243 alone: ~1.5 s, 2-core host
    def test_tables_match_the_schoolbook_reference(self, q):
        """add, neg, mul, inv and pow on every pair of elements, and pow at
        every exponent from 1 - q to q, p^(m-1) (the p-th root in
        _squarefree_parts) among them."""
        field = FiniteField(q)
        table = [digits(field, a) for a in range(q)]
        for a, da in enumerate(table):
            assert field.neg(a) == code(field, [-x for x in da])
            powers = [1]  # a^n for n = 0..q by the reference
            for b, db in enumerate(table):
                assert field.add(a, b) == code(field, [x + y for x, y in zip(da, db)])
                product = schoolbook_mul(field, da, db)
                assert field.mul(a, b) == product
                if product == 1:
                    assert field.inv(a) == b
                powers.append(schoolbook_mul(field, table[powers[-1]], da))
            assert [field.pow(a, n) for n in range(q + 1)] == powers
            if a:  # a^(q-1) = 1, so a^(-n) = a^(q-1-n)
                assert [field.pow(a, -n) for n in range(1, q)] == powers[q - 2 :: -1]
        for call in (lambda: field.inv(0), lambda: field.pow(0, -1), lambda: field.pow(0, -q)):
            with pytest.raises(ZeroDivisionError):
                call()

    @pytest.mark.parametrize("m", range(2, 11))
    def test_gf2m_tables_match_the_list_kernels(self, m):
        """For p = 2 the tables are filled on the GF(2)[T] bit kernels."""
        field = FiniteField(2**m)
        assert (field.modulus, field.exp, field.log, field.zech) == list_built_tables(2**m)

    def test_table_bound(self, monkeypatch):
        """Past MAX_TABLE_ORDER a GF(p^m), m > 1, is refused before any
        product is taken; prime fields have no bound."""

        def refuse(*args):
            raise AssertionError("a field past the bound started building")

        monkeypatch.setattr(finitefield, "_mulmod", refuse)
        for q in (2**17, 3**11):
            with pytest.raises(ResourceLimitError, match="table bound"):
                FiniteField(q)
        field = FiniteField(65537)
        assert field.multiplicative_generator() == 3
        assert field.mul(field.inv(12345), 12345) == 1
        assert field.pow(3, 65536) == 1 and field.pow(3, 32768) == 65536

    def test_table_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(finitefield, "MAX_TABLE_ORDER", 16)
        assert finitefield._FiniteField(16).exp == FiniteField(16).exp
        with pytest.raises(ResourceLimitError):
            finitefield._FiniteField(25)

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

    def test_divmod_by_zero(self):
        f = FiniteField(3)
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            divmod(FqPoly(f, [1, 1]), FqPoly(f, []))

    def test_a_coefficient_out_of_range_is_zero(self):
        a = FqPoly(FiniteField(3), [1, 2])
        assert (a[0], a[1], a[2], a[-1]) == (1, 2, 0, 0)

    def test_divides(self):
        f = FiniteField(3)
        t, t1 = FqPoly(f, [0, 1]), FqPoly(f, [1, 1])
        assert t.divides(t * t1) and t1.divides(t * t1)
        assert not (t * t).divides(t * t1) and not t.divides(t1)

    def test_sub(self):
        f3, f9 = FiniteField(3), FiniteField(9)
        assert FqPoly(f3, [1, 2]) - FqPoly(f3, [2, 2, 1]) == FqPoly(f3, [2, 0, 2])
        a, b = FqPoly(f9, [3, 5, 1]), FqPoly(f9, [7, 5, 1])
        assert (a - b) + b == a and (a - a).is_zero() and (a - b).degree == 0

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

    def test_gf2_ben_or_matches_the_list_kernels(self):
        """Every monic polynomial of degree 1-10 over GF(2): 2046 of them."""
        field = FiniteField(2)
        polys = [g for d in range(1, 11) for g in monic_polys(field, d)]
        assert len(polys) == 2046
        assert [g.is_irreducible() for g in polys] == [list_is_irreducible(g) for g in polys]

    def test_gf2_factor_matches_the_list_kernels(self):
        """Seeded products over GF(2) with multiplicities 1-8: powers of T
        and of T + 1, and squares of squares, which Yun's loop reaches
        through square roots only."""
        field = FiniteField(2)
        rng = random.Random(29)
        cases = [power(FqPoly(field, [0, 1]), 8), power(FqPoly(field, [1, 1]), 4)]
        for _ in range(2000):
            poly = FqPoly(field, [1])
            for _ in range(rng.randint(1, 3)):
                d, e = rng.randint(1, 4), rng.randint(1, 8)
                if poly.degree + d * e > 24:
                    continue
                base = rng.choice([[0, 1], [1, 1], [rng.randrange(2) for _ in range(d)] + [1]])
                poly = poly * power(FqPoly(field, base), e)
            cases.append(poly)
        for poly in cases:
            assert [(g.coeffs, e) for g, e in factor_monic(poly).items()] == list_factor_monic(poly)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_gf2_degree_past_the_int_str_digit_limit(self):
        """T (T^2 + T + 1)^2200, of degree 4401: the bit kernels convert
        through base-2 and base-4 strings, which the interpreter's limit of
        4300 digits on int <-> str conversions exempts."""
        field = FiniteField(2)
        t, u = FqPoly(field, [0, 1]), FqPoly(field, [1, 1, 1])
        poly = t
        for k in (3, 4, 7, 11):  # 2200 = 2^3 + 2^4 + 2^7 + 2^11, and u^(2^k) has three terms
            poly = poly * FqPoly(field, [1] + [0] * (2**k - 1) + [1] + [0] * (2**k - 1) + [1])
        assert poly.degree == 4401
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which the CLI lifts in its process
        try:
            with deadline(10):
                assert factor_monic(poly) == {t: 1, u: 2200}
                assert not poly.is_irreducible()
        finally:
            sys.set_int_max_str_digits(previous)

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
