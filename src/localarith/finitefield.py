"""Arithmetic in GF(q) and in GF(q)[T] for small prime powers q.

Field elements are encoded as integers in [0, q): the base-p digits of
the code are the coefficients (constant term first) of the residue
polynomial modulo a fixed irreducible.  The modulus is chosen
deterministically as the least monic irreducible of degree m, ordering
candidates by their integer code; this pins down GF(4) = GF(2)[x]/(x^2+x+1),
GF(8) = GF(2)[x]/(x^3+x+1), GF(9) = GF(3)[x]/(x^2+1), and so on, with no
external tables.

Polynomials over GF(q) are immutable coefficient tuples (ascending),
normalized so the leading coefficient is nonzero; the zero polynomial is
the empty tuple and has degree -1.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidArgumentError
from .numtheory import prime_power_decomposition


@lru_cache(maxsize=None)
def FiniteField(q: int) -> "_FiniteField":
    """Return the (cached) field with q elements."""
    return _FiniteField(q)


class _FiniteField:
    def __init__(self, q: int):
        p, m = prime_power_decomposition(q)
        self.q = q
        self.p = p
        self.degree = m
        self.modulus = None if m == 1 else _least_irreducible(p, m)

    # -- element codecs -------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of the element code, constant term first."""
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def element(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise InvalidArgumentError(f"{a} is not an element code of GF({self.q})")
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return -a % self.p
        return self.encode(-x for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the defining polynomial
        mod = self.modulus
        for i in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.degree):
                    prod[i - self.degree + j] = (prod[i - self.degree + j] - c * mod[j]) % self.p
        return self.encode(prod[: self.degree])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.pow(a, self.q - 2)

    def multiplicative_generator(self) -> int:
        """Least element code generating GF(q)^*."""
        for g in range(2, self.q) if self.q > 2 else [1]:
            x, n = g, 1
            while x != 1:
                x = self.mul(x, g)
                n += 1
            if n == self.q - 1:
                return g
        return 1

    def __repr__(self):
        return f"GF({self.q})"


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Coefficients (ascending, without the monic lead) of the least
    monic irreducible of degree m over GF(p)."""
    return next(g.coeffs[:-1] for g in monic_polys(FiniteField(p), m) if g.is_irreducible())


class FqPoly:
    """Immutable polynomial over a finite field, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        cs = [field.element(int(c) % field.q if isinstance(c, int) else c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(
            self.field, [self.field.add(self[i], other[i]) for i in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(
            self.field, [self.field.sub(self[i], other[i]) for i in range(n)]
        )

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FqPoly(self.field)
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = self.field.add(out[i + j], self.field.mul(a, b))
        return FqPoly(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - other.degree)
        inv_lead = F.inv(other.coeffs[-1])
        for i in range(len(rem) - other.degree - 1, -1, -1):
            c = F.mul(rem[i + other.degree], inv_lead)
            if c:
                q[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
        return FqPoly(F, q), FqPoly(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def monic(self) -> "FqPoly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv(self.coeffs[-1])
        return FqPoly(self.field, [self.field.mul(c, inv) for c in self.coeffs])

    def is_irreducible(self) -> bool:
        """Trial division by all monic polynomials of degree <= deg/2."""
        if self.degree < 1:
            return False
        for d in range(1, self.degree // 2 + 1):
            for g in monic_polys(self.field, d):
                if (self % g).is_zero():
                    return False
        return True

    def divides(self, other: "FqPoly") -> bool:
        return (other % self).is_zero()

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("T" if c == 1 else f"{c}*T")
            else:
                terms.append(f"T^{i}" if c == 1 else f"{c}*T^{i}")
        return " + ".join(terms)


def monic_polys(field, degree: int):
    """Yield all monic polynomials of the given degree, lex order on codes."""
    for code in range(field.q**degree):
        low = []
        c = code
        for _ in range(degree):
            low.append(c % field.q)
            c //= field.q
        yield FqPoly(field, tuple(low) + (1,))


def monic_irreducibles(field, max_degree: int):
    """Yield monic irreducibles of degree 1..max_degree in increasing degree."""
    for d in range(1, max_degree + 1):
        for g in monic_polys(field, d):
            if g.is_irreducible():
                yield g


def factor_monic(poly: FqPoly) -> dict[FqPoly, int]:
    """Factor a nonzero polynomial into monic irreducibles by trial division.

    The unit leading coefficient is discarded; the returned dict maps each
    monic irreducible factor to its multiplicity.  Candidates come in
    increasing degree, so a reducible candidate never divides what is
    left: its irreducible factors, all of lower degree, are gone by then.
    """
    if poly.is_zero():
        raise InvalidArgumentError("cannot factor the zero polynomial")
    work = poly.monic()
    factors: dict[FqPoly, int] = {}
    d = 1
    while work.degree >= 1:
        if d > work.degree // 2:
            # whatever is left has no divisor of degree <= deg/2, so it is irreducible
            factors[work] = factors.get(work, 0) + 1
            break
        for g in monic_polys(poly.field, d):
            while g.divides(work):
                factors[g] = factors.get(g, 0) + 1
                work = work // g
        d += 1
    return factors
