import random

import pytest

from localarith import FiniteField, FqPoly, factor_monic, monic_irreducibles
from localarith.errors import InvalidArgumentError


class TestFieldConstruction:
    def test_deterministic_moduli(self):
        # least monic irreducible in code order
        assert FiniteField(4).modulus == (1, 1)  # x^2 + x + 1
        assert FiniteField(8).modulus == (1, 1, 0)  # x^3 + x + 1
        assert FiniteField(9).modulus == (1, 0)  # x^2 + 1

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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
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
