"""Arithmetic in GF(q) and in GF(q)[T] for small prime powers q.

Field elements are encoded as integers in [0, q): the base-p digits of
the code are the coefficients (constant term first) of the residue
polynomial modulo a fixed irreducible.  The modulus is chosen
deterministically as the least monic irreducible of degree m, ordering
candidates by their integer code; this pins down GF(4) = GF(2)[x]/(x^2+x+1),
GF(8) = GF(2)[x]/(x^3+x+1), GF(9) = GF(3)[x]/(x^2+1), and so on, with no
external tables.  Over a prime field any integer stands for its residue
mod p; over GF(p^m), m > 1, a code outside [0, q) is rejected, and the
arithmetic reads Zech logarithms (Lidl and Niederreiter, *Finite Fields*)
from tables each field builds once: ``_FiniteField`` gives their cost and bound.

Polynomials over GF(q) are immutable coefficient tuples (ascending),
normalized so the leading coefficient is nonzero; the zero polynomial is
the empty tuple and has degree -1.

Factoring and the irreducibility test run on private kernels over plain
ascending lists of element codes (remainder, product, powering, the
q-power Frobenius map and a monic gcd); see von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 14.  Over GF(2), and to fill the tables of
GF(2^m), the same steps run on Python ints instead, bit i the coefficient
of T^i; the list kernels, correct there too, are the tests' reference.
``factor_monic`` splits off squarefree parts (Yun 1976, with a p-th root
for the part whose multiplicities p divides), groups their factors by
degree (the distinct-degree split gcd(f, T^(q^d) - T)), and separates
factors of one degree by equal-degree splitting (Cantor and Zassenhaus
1981).  ``FqPoly.is_irreducible`` is Ben-Or's test (Ben-Or 1981): the
distinct-degree loop stopped at its first factor.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InvalidArgumentError, ResourceLimitError
from .numtheory import _count, _sequence, factorint, least_primitive_root, prime_power_decomposition

MAX_TABLE_ORDER = 2**16  # the most elements of a GF(p^m), m > 1, with Zech tables


def FiniteField(q: int) -> "_FiniteField":
    """Return the (cached) field with q elements."""
    return _fields(_count(q))


# q is checked before the cache hashes it; FiniteField.cache_info() reads the cache
_fields = lru_cache(maxsize=None)(lambda q: _FiniteField(q))
FiniteField.cache_info = _fields.cache_info


class _FiniteField:
    """GF(q), q = p^m.  For m > 1 the element arithmetic reads tables for
    the least generator g of GF(q)^*: exp[i] = g^i, log[g^i] = i and
    zech[i] = log(1 + g^i), None where 1 + g^i = 0.  Products and powers
    are index arithmetic mod q - 1, and a + b = a(1 + b/a) is one lookup.
    The GF(p)[T] kernels below fill them once per cached field, on bit
    vectors for p = 2 and on code lists for odd p (~0.06 s at q = 2^16 and
    ~0.7 s at 3^10, Python 3.11 on a shared 2-core host); past MAX_TABLE_ORDER
    elements the constructor raises ResourceLimitError before any modulus
    search.  Prime fields keep no table and have no bound."""

    def __init__(self, q: int):
        p, m = prime_power_decomposition(q)
        if m > 1 and q > MAX_TABLE_ORDER:
            raise ResourceLimitError(f"GF({q}) exceeds the table bound {MAX_TABLE_ORDER}")
        self.q, self.p, self.degree, self.modulus = q, p, m, None
        if m == 1:
            return
        Fp = FiniteField(p)
        # the least monic irreducible of degree m over GF(p), ascending, without its lead
        self.modulus = next(g.coeffs[:-1] for g in monic_polys(Fp, m) if g.is_irreducible())
        f = [*self.modulus, 1]
        # the least g with g^((q-1)/r) != 1 for every prime r | q - 1; codes below p lie in GF(p)
        cofactors = [(q - 1) // r for r in factorint(q - 1)]
        digits = (_strip([c // p**i % p for i in range(m)]) for c in range(p, q))
        g = next(g for g in digits if all(_powmod(g, e, f, Fp) != [1] for e in cofactors))
        if p == 2:  # a code is the bit vector of its residue, as the GF(2)[T] kernels read it
            g, f = _gf2(g), _gf2(f)
            self.exp = [x := 1] + [x := _gf2_mulmod(x, g, f) for _ in range(q - 2)]
        else:
            self.exp, x = [], [1]
            for _ in range(q - 1):  # x = g^i; _mul runs one axpy per nonzero digit of g
                self.exp.append(sum(c * p**j for j, c in enumerate(x)))
                x = _mulmod(g, x, f, Fp)
        self.log = [None] * q
        for i, a in enumerate(self.exp):
            self.log[a] = i
        # 1 + a adds 1 to the constant digit of the code a
        self.zech = [self.log[a - a % p + (a + 1) % p] for a in self.exp]

    def element(self, a) -> int:
        """The code of a: an integer mod p in a prime field, else a code in [0, q)."""
        if self.degree == 1 or 0 <= _count(a) < self.q:
            return _count(a) % self.q
        raise InvalidArgumentError(f"element codes of GF({self.q}) must lie in [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        z = self.zech[(self.log[b] - self.log[a]) % (self.q - 1)]
        return 0 if z is None else self.exp[(self.log[a] + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        # the code p - 1 is -1
        return -a % self.p if self.degree == 1 else self.mul(self.p - 1, a)

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        return a and b and self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def axpy(self, xs, c: int, ys) -> list[int]:
        """The codes x + c*y for x, y in zip(xs, ys): the one vector
        operation the GF(q)[T] kernels below are written in."""
        if self.degree == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        add, mul = self.add, self.mul
        return [add(x, mul(c, y)) for x, y in zip(xs, ys)]

    def pow(self, a: int, n: int) -> int:
        if not a:
            if n < 0:
                raise ZeroDivisionError("inverse of 0 in a finite field")
            return int(n == 0)
        if self.degree == 1:
            return pow(a, n, self.p)
        return self.exp[self.log[a] * n % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def multiplicative_generator(self) -> int:
        """Least element code generating GF(q)^*: the g of the tables for m > 1."""
        return least_primitive_root(self.p) if self.degree == 1 else self.exp[1]

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
# GF(2)[T] kernels on ints, bit i the coefficient of T^i; a^2 is int(bin(a)[2:], 4)
# ---------------------------------------------------------------------------


def _gf2(codes) -> int:
    # base-2 and base-4 int/str conversions are exempt from int_max_str_digits
    return int("".join(map(str, reversed(codes))), 2)


def _gf2_mod(a: int, f: int) -> int:
    """a mod f for f != 0: clear a's top bit by f's, shifted under it."""
    n = f.bit_length()
    while (k := a.bit_length() - n) >= 0:
        a ^= f << k
    return a


def _gf2_div(a: int, f: int) -> int:
    """The quotient of a by f != 0: _gf2_mod, keeping the shifts."""
    q, n = 0, f.bit_length()
    while (k := a.bit_length() - n) >= 0:
        q ^= 1 << k
        a ^= f << k
    return q


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _gf2_mulmod(a: int, b: int, f: int) -> int:
    """a*b mod f: one shift-XOR of a per set bit of b."""
    out = 0
    for i, bit in enumerate(bin(b)[:1:-1]):
        if bit == "1":
            out ^= a << i
    return _gf2_mod(out, f)


def _gf2_derivative(a: int) -> int:
    # i a_i T^(i-1) keeps the odd i: a's odd bits, shifted down onto even positions
    return a >> 1 & int("1" * ((a.bit_length() + 1) // 2), 4)


def _gf2_squarefree_parts(f: int):
    """_squarefree_parts for p = 2: the square root of an f with f' = 0,
    whose bits are all even, is its even bits."""
    scale = 1
    while f > 1:
        df = _gf2_derivative(f)
        u = _gf2_gcd(f, df)
        b, c = _gf2_div(f, u), _gf2_div(df, u)
        k = 1
        while b > 1:
            d = c ^ _gf2_derivative(b)
            a = _gf2_gcd(b, d)
            if a > 1:
                yield a, k * scale
                for _ in range(k):
                    f = _gf2_div(f, a)
            b, c = _gf2_div(b, a), _gf2_div(d, a)
            k += 1
        f = int(bin(f)[:1:-2][::-1], 2)
        scale *= 2


def _gf2_distinct_degree(f: int):
    """_distinct_degree for q = 2, h = T^(2^d) mod f squaring from d - 1."""
    rest, h, d = f, 0b10, 0
    while 2 * (d + 1) < rest.bit_length():
        d += 1
        h = _gf2_mod(int(bin(h)[2:], 4), f)
        g = _gf2_gcd(rest, h ^ 0b10)
        if g > 1:
            yield g, d
            rest = _gf2_div(rest, g)
    if rest > 1:
        yield rest, rest.bit_length() - 1


def _gf2_equal_degree(g: int, d: int, rng) -> list[int]:
    """_equal_degree for q = 2: the trace c = a + a^2 + ... + a^(2^(d-1))
    mod g is 0 or 1 modulo each factor, so gcd(g, c ^ 1) splits g."""
    if g.bit_length() - 1 == d:
        return [g]
    while True:
        c = t = rng.getrandbits(g.bit_length() - 1)
        for _ in range(d - 1):
            t = _gf2_mod(int(bin(t)[2:], 4), g)
            c ^= t
        u = _gf2_gcd(g, c ^ 1)
        if 1 < u and u.bit_length() < g.bit_length():
            v = _gf2_div(g, u)
            return _gf2_equal_degree(u, d, rng) + _gf2_equal_degree(v, d, rng)


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
        codes = _sequence(coeffs, f"{type(coeffs).__name__} is not a coefficient sequence")
        self.coeffs = tuple(_strip([field.element(c) for c in codes]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # iterating by __getitem__ would never stop, so iter() raises TypeError
    __iter__ = None

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
        if F.q == 2:
            return next(_gf2_distinct_degree(_gf2(self.coeffs)))[1] == n
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
    """All monic polynomials of the given degree, lex order on codes, as an iterator."""
    q = _field(field).q
    if _count(degree) < 0:
        raise InvalidArgumentError("the degree must be non-negative")
    return (
        _wrap(field, [code // q**i % q for i in range(degree)] + [1]) for code in range(q**degree)
    )


def monic_irreducibles(field, max_degree: int):
    """Monic irreducibles of degree 1..max_degree in increasing degree, as an iterator."""
    _field(field)
    degrees = range(1, _count(max_degree) + 1)
    return (g for d in degrees for g in monic_polys(field, d) if g.is_irreducible())


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
    if F.q == 2:  # bit vectors in, code tuples out
        for part, e in _gf2_squarefree_parts(_gf2(poly.coeffs)):
            for block, d in _gf2_distinct_degree(part):
                for g in _gf2_equal_degree(block, d, rng):
                    g = tuple(map(int, bin(g)[:1:-1]))
                    multiplicity[g] = multiplicity.get(g, 0) + e
    else:
        for part, e in _squarefree_parts(_monic(list(poly.coeffs), F), F):
            rows = [[1]]
            for block, d in _distinct_degree(part, rows, F):
                for g in _equal_degree(block, d, rows, part, F, rng):
                    multiplicity[tuple(g)] = multiplicity.get(tuple(g), 0) + e
    order = sorted(multiplicity, key=lambda g: (len(g), g[::-1]))
    return {_wrap(F, g): multiplicity[g] for g in order}
