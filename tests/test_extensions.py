import math
from fractions import Fraction

import pytest

from localarith import (
    InvalidArgumentError,
    PadicPolynomial,
    TameExtensionDescriptor,
    classify_tame,
    count_tame_extensions,
    cyclotomic,
    eisenstein_invariants,
    galois_census,
    orbit_count_oracle,
    splitting_degree_of_unity,
    unit_group_structure,
)
from localarith import ramification
from localarith.errors import ResourceLimitError
from localarith.extensions import MAX_ENUMERATION, GaloisPresentation
from localarith.numtheory import divisors, euler_phi, multiplicative_order
from localarith.polynomials import eisenstein_test, root_valuations

from conftest import deadline

# every descriptor with q <= 9, f <= 4 and e*f <= 48
DESCRIPTORS = [
    TameExtensionDescriptor(q, e, f, r)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for f in range(1, 5)
    for e in range(1, 48 // f + 1)
    if math.gcd(e, q) == 1
    for r in range(math.gcd(e, q**f - 1))
]


class TestSplittingDegree:
    def test_examples(self):
        assert splitting_degree_of_unity(2, 7) == 3
        assert splitting_degree_of_unity(3, 8) == 2

    def test_divisor_of_q_minus_one(self):
        for q in (3, 4, 5, 7, 9):
            for n in range(1, q):
                if (q - 1) % n == 0:
                    assert splitting_degree_of_unity(q, n) == 1

    def test_gcd_precondition(self):
        with pytest.raises(InvalidArgumentError):
            splitting_degree_of_unity(4, 6)


class TestCounting:
    def test_examples(self):
        assert count_tame_extensions(2, 3, 2) == 2
        assert count_tame_extensions(3, 4, 1) == 2

    def test_totally_ramified_count(self):
        for q in (2, 3, 4, 5, 7, 9):
            p = 2 if q in (2, 4) else (3 if q == 9 else q)
            for e in range(1, 15):
                if e % p == 0:
                    continue
                assert count_tame_extensions(q, e, 1) == math.gcd(e, q - 1)

    def test_oracle_examples(self):
        assert orbit_count_oracle(3, 2) == 2
        assert orbit_count_oracle(1, 5) == 1
        # enumeration: {0},{4} fixed, {1,3},{2,6},{5,7} swapped by x -> 3x
        assert orbit_count_oracle(8, 3) == 5

    def test_wild_rejected(self):
        with pytest.raises(InvalidArgumentError):
            count_tame_extensions(4, 6, 1)

    def test_census(self):
        assert galois_census(2, 3, 2) == math.gcd(3, 1)
        assert galois_census(5, 4, 1) == 4

    @pytest.mark.parametrize(
        "q, e", [(2, 1), (2, 3), (2, 7), (2, 9), (3, 7), (4, 15), (5, 31), (7, 60), (9, 40)]
    )
    def test_residual_degree_past_any_power(self, q, e):
        # q^f is only ever needed modulo e: at f = 10^12 the four agree with
        # their values at f mod ord_e(q) + ord_e(q), where q^f mod e repeats
        big = 10**12
        order = multiplicative_order(q, e)
        small = big % order + order
        assert count_tame_extensions(q, e, big) == count_tame_extensions(q, e, small)
        classes = TameExtensionDescriptor(q, e, small, 0).class_count
        assert TameExtensionDescriptor(q, e, big, 0).class_count == classes
        for r in range(classes):
            got = classify_tame(TameExtensionDescriptor(q, e, big, r))
            want = classify_tame(TameExtensionDescriptor(q, e, small, r))
            assert (got.galois, got.abelian) == (want.galois, want.abelian)
            assert got.presentation is None or got.presentation.order == e * big
        try:
            census = galois_census(q, e, small)
        except InvalidArgumentError:
            with pytest.raises(InvalidArgumentError, match="the census needs"):
                galois_census(q, e, big)
        else:
            assert galois_census(q, e, big) == census


class TestEnumerationBound:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: orbit_count_oracle(2**61 - 1, 2),
            lambda: galois_census(2, 2**61 - 1, 61),
            lambda: orbit_count_oracle(MAX_ENUMERATION + 1, 7),
            lambda: galois_census(1000003, MAX_ENUMERATION + 2, 1),  # q prime, e | q - 1
        ],
    )
    def test_rejected_before_the_first_residue(self, call):
        with deadline(2), pytest.raises(ResourceLimitError, match="exceeds the bound 1000000"):
            call()

    def test_enumerations_at_the_bound(self):
        g = MAX_ENUMERATION
        formula = sum(euler_phi(t) // multiplicative_order(7, t) for t in divisors(g))
        assert orbit_count_oracle(g, 7) == formula
        assert galois_census(3, g, multiplicative_order(3, g)) == math.gcd(g, 3 - 1)


class TestClassification:
    def test_galois_not_abelian(self):
        c = classify_tame(TameExtensionDescriptor(2, 3, 2, 0))
        assert c.galois and not c.abelian
        assert c.presentation.order == 6

    def test_not_galois(self):
        assert not classify_tame(TameExtensionDescriptor(2, 3, 1, 0)).galois

    def test_abelian(self):
        c = classify_tame(TameExtensionDescriptor(5, 4, 1, 0))
        assert c.galois and c.abelian

    def test_presentation_closes(self):
        # Hoelder: the presentation of every descriptor classify_tame calls
        # Galois is a group of order e*f, which classify_tame no longer checks
        galois = [d for d in DESCRIPTORS if classify_tame(d).galois]
        assert len(galois) == 319
        for d in galois:
            assert classify_tame(d).presentation.verified_order() == d.e * d.f

    @pytest.mark.parametrize("f", [400, 10**10])
    def test_verified_order_bound_comes_before_the_table(self, monkeypatch, f):
        def refuse(self):
            raise AssertionError("verified_order built a table")

        monkeypatch.setattr(GaloisPresentation, "multiplication_table", refuse)
        message = f"^group order {3 * f} exceeds the verified bound 512$"
        with pytest.raises(ResourceLimitError, match=message):
            GaloisPresentation(2, 3, f, 0).verified_order()

    def test_verified_order_at_the_bound(self):
        assert GaloisPresentation(3, 8, 64, 0).verified_order() == 512

    def test_verified_order_rejects_a_relation_that_does_not_close(self):
        # q = 2 is not 1 mod e = 3 at f = 1: sigma tau sigma^-1 = tau^q fails
        with pytest.raises(InvalidArgumentError, match="conjugation relation fails to close"):
            GaloisPresentation(2, 3, 1, 0).verified_order()

    def test_classification_builds_no_group(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classify_tame built a FilteredGroup")

        monkeypatch.setattr(ramification.FilteredGroup, "__init__", refuse)
        # order 2040, past the FilteredGroup order bound
        for d in [*DESCRIPTORS, TameExtensionDescriptor(2, 255, 8, 0)]:
            c = classify_tame(d)
            assert c.galois == (c.presentation is not None)
            if c.galois:
                assert c.presentation.order == d.e * d.f

    def test_descriptor_validation(self):
        with pytest.raises(InvalidArgumentError):
            TameExtensionDescriptor(2, 2, 1, 0)  # wild: 2 | char
        with pytest.raises(InvalidArgumentError):
            TameExtensionDescriptor(2, 3, 2, 5)  # r out of range

    @pytest.mark.parametrize(
        "args",
        [(2, 3.0, 2, 0), (4, 3, True, 0), (2, 3, 2, 1.0), (2.0, 3, 2, 0), (True, 3, 2, 0)],
    )
    def test_descriptor_rejects_floats_and_bools(self, args):
        with pytest.raises(InvalidArgumentError):
            TameExtensionDescriptor(*args)

    def test_stacked_invariants_multiply(self):
        inner = TameExtensionDescriptor(2, 3, 2, 0)
        outer_e, outer_f = 5, 2
        stacked = TameExtensionDescriptor(
            inner.q, inner.e * outer_e, inner.f * outer_f, 0
        )
        assert stacked.e == inner.e * outer_e
        assert stacked.f == inner.f * outer_f


class TestUnitGroups:
    def test_examples(self):
        u = unit_group_structure(2, 5)
        assert u.factor_orders == (2, 8) and u.generators == (31, 5)
        assert unit_group_structure(3, 2).factor_orders == (2, 3)
        assert unit_group_structure(2, 2).factor_orders == (2,)

    def test_minimum_size(self):
        with pytest.raises(InvalidArgumentError):
            unit_group_structure(2, 1)

    def test_generators_have_claimed_orders(self):
        for p, n in [(3, 3), (5, 2), (7, 2), (2, 6), (11, 1)]:
            u = unit_group_structure(p, n)
            q = p**n
            for gen, order in zip(u.generators, u.factor_orders):
                assert pow(gen, order, q) == 1
                for d in range(1, order):
                    if order % d == 0 and pow(gen, d, q) == 1:
                        raise AssertionError(f"generator {gen} has smaller order {d}")


class TestEisensteinInvariants:
    def test_binomial(self):
        inv = eisenstein_invariants(PadicPolynomial(5, [-5, 0, 0, 1]))
        assert inv.ramification_index == 3
        assert inv.uniformiser_norm == (-1) ** 3 * (-5)
        assert inv.root_valuation == Fraction(1, 3)

    def test_shifted_cyclotomic(self):
        for p in (3, 5, 7):
            f = PadicPolynomial(p, cyclotomic(p, 1)).shifted_by_one()
            inv = eisenstein_invariants(f)
            assert inv.ramification_index == p - 1
            assert inv.uniformiser_norm == p
            assert inv.root_valuation == Fraction(1, p - 1)

    def test_prime_power_cyclotomic(self):
        for p, n in [(2, 2), (3, 2), (2, 3)]:
            f = PadicPolynomial(p, cyclotomic(p, n)).shifted_by_one()
            inv = eisenstein_invariants(f)
            assert inv.ramification_index == p**n - p ** (n - 1)
            assert abs(inv.uniformiser_norm) == p

    def test_root_valuations_agree(self, rng):
        # an Eisenstein polygon is one side of slope -1/e, which
        # eisenstein_invariants no longer reads off the Newton polygon
        for _ in range(200):
            p, e = rng.choice([2, 3, 5, 7]), rng.randint(1, 7)

            def unit():
                num, den = (rng.randrange(0, 50) * p + rng.randrange(1, p) for _ in range(2))
                return rng.choice([-1, 1]) * Fraction(num, den)

            coefficients = [p * unit()]
            coefficients += [p ** rng.randint(1, 4) * rng.randint(-9, 9) for _ in range(e - 1)]
            coefficients.append(unit())
            phi = PadicPolynomial(p, coefficients)
            assert eisenstein_test(phi)
            pairs, stripped = root_valuations(phi)
            assert stripped == 0 and pairs == [(eisenstein_invariants(phi).root_valuation, e)]

    def test_non_eisenstein_rejected(self):
        with pytest.raises(InvalidArgumentError):
            eisenstein_invariants(PadicPolynomial(2, [-4, 0, 1]))


class TestDescriptorOrbits:
    def test_conjugates_collapse(self):
        d = TameExtensionDescriptor(2, 3, 2, 1)
        assert d.conjugates() == frozenset({1, 2})  # r and r*q mod g
        assert d.canonical().r == 1

    def test_canonical_count_matches_formula(self):
        import math as _math

        for q, e, f in [(2, 3, 2), (3, 4, 2), (4, 5, 2), (5, 8, 2), (9, 10, 1)]:
            g = _math.gcd(e, q**f - 1)
            canonical = {
                TameExtensionDescriptor(q, e, f, r).canonical().r for r in range(g)
            }
            assert len(canonical) == count_tame_extensions(q, e, f)
