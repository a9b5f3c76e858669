"""Arithmetic in GF(q) and in GF(q)[T] for small prime powers q.

Field elements are encoded as integers in [0, q): the base-p digits of
the code are the coefficients (constant term first) of the residue
polynomial modulo a fixed irreducible.  The modulus is chosen
deterministically as the least monic irreducible of degree m, ordering
candidates by their integer code; this pins down GF(4) = GF(2)[x]/(x^2+x+1),
GF(8) = GF(2)[x]/(x^3+x+1), GF(9) = GF(3)[x]/(x^2+1), and so on, with no
external tables.  Over a prime field any integer stands for its residue
mod p; over GF(p^m), m > 1, a code outside [0, q) is rejected.

Polynomials over GF(q) are immutable coefficient tuples (ascending),
normalized so the leading coefficient is nonzero; the zero polynomial is
the empty tuple and has degree -1.

Factoring and the irreducibility test run on private kernels over plain
ascending lists of element codes (remainder, product, powering, the
q-power Frobenius map and a monic gcd), the same for every q; see von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14.  ``factor_monic``
splits off squarefree parts (Yun 1976, with a p-th root for the part
whose multiplicities p divides), groups their factors by degree (the
distinct-degree split gcd(f, T^(q^d) - T)), and separates factors of
one degree by equal-degree splitting (Cantor and Zassenhaus 1981).
``FqPoly.is_irreducible`` is Ben-Or's test (Ben-Or 1981): the
distinct-degree loop stopped at its first factor.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InvalidArgumentError
from .numtheory import _count, factorint, prime_power_decomposition


@lru_cache(maxsize=None, typed=True)
def FiniteField(q: int) -> "_FiniteField":
    """Return the (cached) field with q elements."""
    return _FiniteField(_count(q))


class _FiniteField:
    def __init__(self, q: int):
        p, m = prime_power_decomposition(q)
        self.q, self.p, self.degree = q, p, m
        # the least monic irreducible of degree m over GF(p), ascending, without its lead
        self.modulus = None if m == 1 else next(
            g.coeffs[:-1] for g in monic_polys(FiniteField(p), m) if g.is_irreducible()
        )

    # -- element codecs -------------------------------------------------

    def element(self, a) -> int:
        """The code of a: an integer mod p in a prime field, else a code in [0, q)."""
        if self.degree == 1 or 0 <= _count(a) < self.q:
            return _count(a) % self.q
        raise InvalidArgumentError(f"element codes of GF({self.q}) must lie in [0, {self.q})")

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

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return -a % self.p
        return self.encode(-x for x in self.coeffs(a))

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

    def axpy(self, xs, c: int, ys) -> list[int]:
        """The codes x + c*y for x, y in zip(xs, ys): the one vector
        operation the GF(q)[T] kernels below are written in."""
        if self.degree == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        add, mul = self.add, self.mul
        return [add(x, mul(c, y)) for x, y in zip(xs, ys)]

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
        if self.degree == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def multiplicative_generator(self) -> int:
        """Least element code generating GF(q)^*: the least g with
        g^((q-1)/r) != 1 for every prime r dividing q - 1."""
        cofactors = [(self.q - 1) // r for r in factorint(self.q - 1)]
        return next(g for g in range(1, self.q) if all(self.pow(g, e) != 1 for e in cofactors))

    def __repr__(self):
        return f"GF({self.q})"


# ---------------------------------------------------------------------------
# kernels on ascending lists of element codes, normalized (no trailing zero)
# ---------------------------------------------------------------------------


def _strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, c: int, b, F) -> list[int]:
    """a + c*b."""
    out = list(a) + [0] * (len(b) - len(a))
    out[: len(b)] = F.axpy(out[: len(b)], c, b)
    return _strip(out)


def _mul(a, b, F) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    m = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + m] = F.axpy(out[i : i + m], x, b)
    return out


def _divmod(a, f, F) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic f."""
    r, k = list(a), len(a) - len(f)
    q = [0] * (k + 1)
    while k >= 0:
        c = r.pop()
        if c:  # r[k:] is one shorter than f, so zip drops f's monic lead
            q[k] = c
            r[k:] = F.axpy(r[k:], F.neg(c), f)
        k -= 1
    return q, _strip(r)


def _mulmod(a, b, f, F) -> list[int]:
    return _divmod(_mul(a, b, F), f, F)[1]


def _monic(a, F) -> list[int]:
    if not a or a[-1] == 1:
        return a
    return F.axpy([0] * len(a), F.inv(a[-1]), a)


def _gcd(a, b, F) -> list[int]:
    """The monic gcd (zero only if a = b = 0)."""
    while len(b) > 1:
        b = _monic(b, F)
        a, b = b, _divmod(a, b, F)[1]
    return [1] if b else _monic(a, F)


def _powmod(a, e: int, f, F) -> list[int]:
    """a^e mod f for e >= 1, squaring from the top bit of e down."""
    a = _divmod(a, f, F)[1]
    out = a
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, f, F)
        if bit == "1":
            out = _mulmod(out, a, f, F)
    return out


def _derivative(a, F) -> list[int]:
    # the integer i is the element code i mod p of the prime field
    return _strip([F.mul(i % F.p, c) for i, c in enumerate(a)][1:])


def _frobenius(h, rows, f, F) -> list[int]:
    """h^q mod f for h reduced mod f.  Since c^q = c in GF(q), h^q = sum
    h_i T^(q i): the matrix of f's Frobenius rows T^(q i) mod f, which
    start as [[1]] and grow as h needs."""
    while len(rows) < len(h):
        rows.append(_powmod([0, 1], F.q, f, F) if len(rows) == 1 else _mulmod(rows[-1], rows[1], f, F))
    acc = [0] * (len(f) - 1)
    for c, row in zip(h, rows):
        if c:
            acc[: len(row)] = F.axpy(acc[: len(row)], c, row)
    return _strip(acc)


def _squarefree_parts(f, F):
    """Yield (a, e): squarefree monic a with f = prod a^e, for a monic f.

    Yun's loop (Yun 1976) on the derivative extracts, in step k, the
    product A_k of the squarefree factors whose multiplicity is k modulo
    p (and prime to p); f / prod A_k^k is then a p-th power, whose root
    is decomposed again with exponents multiplied by p.  A factor of
    multiplicity p + 1 thus shows up once in A_1 and once in the root.
    """
    scale = 1
    while len(f) > 1:
        df = _derivative(f, F)
        u = _gcd(f, df, F)
        b, c = _divmod(f, u, F)[0], _divmod(df, u, F)[0]
        k = 1
        while len(b) > 1:
            d = _add(c, F.neg(1), _derivative(b, F), F)
            a = _gcd(b, d, F)
            if len(a) > 1:
                yield a, k * scale
                for _ in range(k):
                    f = _divmod(f, a, F)[0]
            b, c = _divmod(b, a, F)[0], _divmod(d, a, F)[0]
            k += 1
        # f = sum c_j T^(p j) now; its p-th root has the coefficients c_j^(1/p)
        root = F.p ** (F.degree - 1)
        f = [F.pow(c, root) for c in f[:: F.p]]
        scale *= F.p


def _distinct_degree(f, rows, F):
    """Yield (g, d): g the product of the irreducible factors of degree d
    of a monic squarefree f, d increasing; rows are f's Frobenius rows.

    h runs through T^(q^d) mod f, and gcd(rest, h - T) collects the
    factors of degree d, those of lower degree being divided out of rest
    already.  The first yield alone is Ben-Or's test for any monic f of
    degree >= 2: it is (f, deg f) exactly when f is irreducible.
    """
    rest, h, d = f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        h = _frobenius(h, rows, f, F)
        g = _gcd(rest, _add(h, F.neg(1), [0, 1], F), F)
        if len(g) > 1:
            yield g, d
            rest = _divmod(rest, g, F)[0]
    if len(rest) > 1:
        yield rest, len(rest) - 1


def _equal_degree(g, d, rows, f, F, rng) -> list[list[int]]:
    """The irreducible factors of a monic squarefree g whose factors all
    have degree d (Cantor and Zassenhaus 1981; von zur Gathen and Gerhard,
    Alg. 14.8); g divides f, and rows are f's Frobenius rows.

    For a random a mod g, the trace c = a + a^q + ... + a^(q^(d-1)) is an
    element of GF(q) modulo each factor, and b = c^((q-1)/2) for odd q, or
    the absolute trace c + c^2 + ... + c^(2^(m-1)) for q = 2^m, is 1 modulo
    about half of them; gcd(g, b - 1) then splits g.
    """
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _strip([rng.randrange(F.q) for _ in range(len(g) - 1)])
        c = t = a
        for _ in range(d - 1):  # t^q mod f, reduced mod g, is t^q mod g
            t = _divmod(_frobenius(t, rows, f, F), g, F)[1]
            c = _add(c, 1, t, F)
        if F.p == 2:
            b = t = c
            for _ in range(F.degree - 1):
                t = _mulmod(t, t, g, F)
                b = _add(b, 1, t, F)
        else:
            b = _powmod(c, (F.q - 1) // 2, g, F)
        u = _gcd(g, _add(b, F.neg(1), [1], F), F)
        if 1 < len(u) < len(g):
            v = _divmod(g, u, F)[0]
            return _equal_degree(u, d, rows, f, F, rng) + _equal_degree(v, d, rows, f, F, rng)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _field(field) -> "_FiniteField":
    """field itself, if FiniteField made it."""
    if not isinstance(field, _FiniteField):
        raise InvalidArgumentError(f"{field!r} is not a field: make one with FiniteField(q)")
    return field


def _common_field(*polys: "FqPoly"):
    """The field of the polynomials, which must all be FqPoly and share it."""
    if not all(isinstance(g, FqPoly) for g in polys):
        raise InvalidArgumentError("operands must be FqPoly polynomials")
    field = polys[0].field
    if any(g.field is not field for g in polys):
        raise InvalidArgumentError("all polynomials must share one field")
    return field


def _wrap(field, codes) -> "FqPoly":
    """An FqPoly of normalized element codes, without re-validating them."""
    poly = object.__new__(FqPoly)
    poly.field = field
    poly.coeffs = tuple(codes)
    return poly


class FqPoly:
    """Immutable polynomial over a finite field, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = _field(field)
        self.coeffs = tuple(_strip([field.element(c) for c in coeffs]))

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
        return isinstance(other, FqPoly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        F = _common_field(self, other)
        return _wrap(F, _add(self.coeffs, 1, other.coeffs, F))

    def __sub__(self, other):
        F = _common_field(self, other)
        return _wrap(F, _add(self.coeffs, F.neg(1), other.coeffs, F))

    def __mul__(self, other):
        F = _common_field(self, other)
        return _wrap(F, _mul(self.coeffs, other.coeffs, F))

    def __divmod__(self, other):
        F = _common_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = F.inv(other.coeffs[-1])
        q, r = _divmod(self.coeffs, _monic(list(other.coeffs), F), F)
        return _wrap(F, F.axpy([0] * len(q), inv_lead, q)), _wrap(F, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def evaluate(self, x: int) -> int:
        x = self.field.element(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def monic(self) -> "FqPoly":
        if self.is_zero() or self.is_monic():
            return self
        return _wrap(self.field, _monic(list(self.coeffs), self.field))

    def is_irreducible(self) -> bool:
        """Ben-Or's test: gcd(f, T^(q^d) - T) = 1 for every d <= deg(f)/2,
        the distinct-degree loop of ``factor_monic`` stopped at its first factor."""
        n = len(self.coeffs) - 1
        if n < 2:
            return n == 1
        F = self.field
        return next(_distinct_degree(_monic(list(self.coeffs), F), [[1]], F))[1] == n

    def divides(self, other: "FqPoly") -> bool:
        return (other % self).is_zero()

    def __repr__(self):
        terms = [
            str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("T" if i == 1 else f"T^{i}")
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) or "0"


def monic_polys(field, degree: int):
    """Yield all monic polynomials of the given degree, lex order on codes."""
    q = _field(field).q
    for code in range(q**degree):
        yield _wrap(field, [code // q**i % q for i in range(degree)] + [1])


def monic_irreducibles(field, max_degree: int):
    """Yield monic irreducibles of degree 1..max_degree in increasing degree."""
    for d in range(1, max_degree + 1):
        yield from (g for g in monic_polys(field, d) if g.is_irreducible())


def factor_monic(poly: FqPoly) -> dict[FqPoly, int]:
    """Factor a nonzero polynomial into monic irreducibles.

    The unit leading coefficient is discarded; the returned dict maps each
    monic irreducible factor to its multiplicity, in ``monic_polys`` order:
    by degree, then by element code read from the top coefficient down.

    Squarefree parts (Yun), their distinct-degree blocks and
    Cantor-Zassenhaus equal-degree splitting of each block, as in the
    module docstring.  The splitting draws from a fixed-seed generator and
    the factorization is unique, so the output is deterministic.
    """
    F = _common_field(poly)
    if poly.is_zero():
        raise InvalidArgumentError("cannot factor the zero polynomial")
    rng = random.Random(0)
    multiplicity: dict[tuple[int, ...], int] = {}
    for part, e in _squarefree_parts(_monic(list(poly.coeffs), F), F):
        rows = [[1]]
        for block, d in _distinct_degree(part, rows, F):
            for g in _equal_degree(block, d, rows, part, F, rng):
                multiplicity[tuple(g)] = multiplicity.get(tuple(g), 0) + e
    order = sorted(multiplicity, key=lambda g: (len(g), g[::-1]))
    return {_wrap(F, g): multiplicity[g] for g in order}
