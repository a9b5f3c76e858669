"""Polynomials over Q_p at finite precision.

Coefficients are exact rationals tagged with the prime p (ints and
Fractions only), so coefficient valuations are always exact.  No floating
point is used anywhere: Newton polygons are built with exact rational
slope comparisons, resultants run the subresultant PRS on the operands
scaled to integer polynomials, and the factor lifts solve linear systems
over Z/p^k, k the digits the round can use, with minimal-valuation
pivoting, inverting units modulo p^k by Newton doubling.

Slope factorization and Weierstrass preparation run one engine, _lift:
log(precision) Newton steps on f = G*H and on a cofactor p^beta / H mod G
in a Gauss valuation w(T) = C, on integer residues modulo powers of p that
double with the rounds.  The factor lifts (_lift_factorization) solve the
Sylvester system of the current pair once per round instead, because their
factors need not be regular; each round multiplies and solves modulo only
the digits it can use, about twice as many as the round before.  Outputs
are canonical residues of the true factors: lifted factors modulo p^N,
slope factors modulo the power their split needs, and the Weierstrass
factors h and g / p^w(f) modulo p^(h.tail) after normalizing h(0) = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisFailedError,
    InvalidArgumentError,
    PrecisionLossError,
    ResourceLimitError,
)
from .numtheory import (
    INFINITY,
    _count,
    _exact,
    _halvings,
    _instance,
    _inverse_mod_prime_power,
    _precision,
    _residue,
    _sequence,
    int_valuation,
    rational_valuation,
    require_prime,
)


# ---------------------------------------------------------------------------
# exact polynomial helpers over Q and Z (ascending coefficient sequences;
# integer inputs give integer results)
# ---------------------------------------------------------------------------


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_eval(a, x):
    """a(x) by Horner's rule, a an ascending coefficient sequence."""
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_derivative(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0 * a[-1] * b[-1]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def poly_scale(a, c):
    return _trim([c * x for x in a])


# ---------------------------------------------------------------------------
# the polynomial type
# ---------------------------------------------------------------------------


class PadicPolynomial:
    """Polynomial with exact rational coefficients viewed over Q_p."""

    __slots__ = ("p", "coefficients")

    def __init__(self, p: int, coefficients):
        require_prime(p)
        cs = _trim(_fractions(coefficients))
        if not cs:
            raise InvalidArgumentError("the zero polynomial is not representable")
        self.p = p
        self.coefficients = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient_valuations(self):
        return [rational_valuation(c, self.p) for c in self.coefficients]

    def evaluate(self, x) -> Fraction:
        return poly_eval(self.coefficients, Fraction(_exact(x)))

    def derivative(self) -> "PadicPolynomial":
        return PadicPolynomial(self.p, poly_derivative(self.coefficients))

    def __mul__(self, other):
        self._check(other)
        return PadicPolynomial(self.p, poly_mul(self.coefficients, other.coefficients))

    def __add__(self, other):
        self._check(other)
        return PadicPolynomial(self.p, poly_add(self.coefficients, other.coefficients))

    def __sub__(self, other):
        self._check(other)
        return PadicPolynomial(self.p, poly_sub(self.coefficients, other.coefficients))

    def _check(self, other):
        if not isinstance(other, PadicPolynomial) or other.p != self.p:
            raise InvalidArgumentError("operands must share the same prime")

    def __eq__(self, other):
        return (
            isinstance(other, PadicPolynomial)
            and self.p == other.p
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.p, self.coefficients))

    def shifted_by_one(self) -> "PadicPolynomial":
        """The polynomial f(S + 1) in the variable S."""
        out = [Fraction(0)] * len(self.coefficients)
        for j, c in enumerate(self.coefficients):
            if c:
                for k in range(j + 1):
                    out[k] += c * math.comb(j, k)
        return PadicPolynomial(self.p, out)

    def strip_t_power(self) -> tuple[int, "PadicPolynomial"]:
        """Split off the exact power of T dividing the polynomial."""
        k = 0
        while self.coefficients[k] == 0:
            k += 1
        return k, PadicPolynomial(self.p, self.coefficients[k:])

    def __repr__(self):
        from .formats import format_polynomial

        return f"PadicPolynomial(p={self.p}, {format_polynomial(self.coefficients)})"


# ---------------------------------------------------------------------------
# resultants and discriminants (subresultant PRS)
# ---------------------------------------------------------------------------


def _degree_bounds(gc, hc, m, n):
    if _count(m) < 0 or _count(n) < 0:
        raise InvalidArgumentError("the degree bounds m and n must be non-negative")
    if m + n <= 0:
        raise InvalidArgumentError("resultant requires m + n > 0")
    if any(gc[m + 1 :]) or any(hc[n + 1 :]):
        raise InvalidArgumentError("g or h has a nonzero coefficient above its degree bound")


def sylvester_matrix(g, h, m: int, n: int):
    """The (m+n) x (m+n) matrix whose determinant is res_{m,n}(g, h).

    Column j < n carries the coefficients of g, column n+j those of h:
    entry (i, j) = g_{m-i+j} and entry (i, n+j) = h_{n-i+j}.  This is the
    layout fixed by the m=2, n=3 display and makes the first n unknowns
    of the associated linear system the descending coefficients of the
    cofactor multiplying g.  g and h must have degree at most m and n.
    """
    gc, hc = _coeffs_of(g), _coeffs_of(h)
    _degree_bounds(gc, hc, m, n)
    return _sylvester(gc, hc, m, n, Fraction(0))


def _sylvester(gc, hc, m, n, zero=0):
    """sylvester_matrix on coefficient lists of degrees at most m and n,
    entries taken as they are; ``zero`` fills the rest.  Row i reads n
    consecutive coefficients of g and m of h, both from index m + n - 1 - i
    of the lists padded with n - 1 and m - 1 leading zeros."""
    g = [zero] * (n - 1) + list(gc) + [zero] * (m + n)
    h = [zero] * (m - 1) + list(hc) + [zero] * (m + n)
    return [g[k : k + n] + h[k : k + m] for k in range(m + n - 1, -1, -1)]


def _coeffs_of(f):
    """The trimmed coefficients of a PadicPolynomial or a coefficient sequence."""
    return list(f.coefficients) if isinstance(f, PadicPolynomial) else _trim(_fractions(f))


def _fractions(coeffs) -> list[Fraction]:
    """A sequence of exact rationals as Fractions; a polynomial is not one."""
    cs = _sequence(coeffs, f"{type(coeffs).__name__} is not a coefficient sequence")
    return [Fraction(_exact(c)) for c in cs]


def resultant_mn(g, h, m: int, n: int) -> Fraction:
    """res_{m,n}(g, h) = det sylvester_matrix(g, h, m, n), deg g <= m, deg h <= n.

    At the exact degrees it is a^n b^m prod(alpha_i - beta_j), a and b the
    leading coefficients and alpha_i, beta_j the roots, found from the
    subresultant PRS of g and h scaled to integer polynomials.  A
    bound above deg g multiplies it by (-1)^(n(m - deg g)) b^(m - deg g),
    one above deg h by a^(n - deg h); above both degrees it is 0.
    """
    gc, hc = _coeffs_of(g), _coeffs_of(h)
    _degree_bounds(gc, hc, m, n)
    if not m or not n:  # a diagonal matrix: g_0^n or h_0^m
        return ((hc if m else gc) or [Fraction(0)])[0] ** (m + n)
    dg, dh = len(gc) - 1, len(hc) - 1
    if min(dg, dh) < 0 or (dg < m and dh < n):
        return Fraction(0)
    (a, Dg), (b, Dh) = _integral(gc), _integral(hc)
    scale = (-1) ** (n * (m - dg)) * b[-1] ** (m - dg) * a[-1] ** (n - dh)
    return Fraction(scale * _subresultant(a, b), Dg**n * Dh**m)


def _integral(coeffs):
    """([D c for c in coeffs], D), D the lcm of the denominators."""
    D = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (D // c.denominator) for c in coeffs], D


def _subresultant(a, b):
    """res(a, b) of integer polynomials, not both constant, at their exact
    degrees: the subresultant PRS (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7), whose exact divisions keep the
    coefficients at the size of minors of the Sylvester matrix."""
    sign, g, h = 1, 1, 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r = a[:]  # becomes the pseudo-remainder lc(b)^(delta + 1) a mod b
        for k in range(delta, -1, -1):
            c = r.pop()
            r = [x * b[-1] for x in r]
            for j in range(len(b) - 1):
                r[k + j] -= c * b[j]
        q = g * h**delta
        a, b, g = b, [c // q for c in _trim(r)], b[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2) if b else 0


def resultant(g, h) -> Fraction:
    """res(g, h) at the exact degrees of g and h.

    With the adopted column order, swapping the arguments flips the sign
    by (-1)^(deg g * deg h): res(g, h) = (-1)^(mn) res(h, g).
    """
    gc, hc = _coeffs_of(g), _coeffs_of(h)
    if not gc or not hc:
        raise InvalidArgumentError("resultant of the zero polynomial")
    return resultant_mn(gc, hc, len(gc) - 1, len(hc) - 1)


def discriminant(g) -> Fraction:
    """dis(g), from res_{m,m-1}(g, g') = (-1)^(m(m-1)/2) * lead(g) * dis(g)."""
    gc = _coeffs_of(g)
    if len(gc) < 2:
        raise InvalidArgumentError("discriminant needs degree >= 1")
    m = len(gc) - 1
    return (-1) ** (m * (m - 1) // 2) * resultant_mn(gc, poly_derivative(gc), m, m - 1) / gc[-1]


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex envelope of the points (j, v(a_j)).

    ``sides`` is the type: a tuple of (length, slope) pairs with strictly
    increasing slopes whose lengths sum to the degree.
    """

    vertices: tuple[tuple[int, Fraction], ...]
    sides: tuple[tuple[int, Fraction], ...]

    @property
    def is_pure(self) -> bool:
        return len(self.sides) == 1


def newton_polygon(f: PadicPolynomial) -> NewtonPolygon:
    """Newton polygon of f; requires a_0 != 0 and a_m != 0."""
    _instance(PadicPolynomial, f)
    if f.coefficients[0] == 0:
        raise InvalidArgumentError(
            "constant term vanishes: strip the exact T power first (strip_t_power)"
        )
    # the hull runs on the integer valuations; Fractions are made for the result only
    hull: list[tuple[int, int]] = []
    for x, y in enumerate(f.coefficient_valuations()):
        if y == INFINITY:
            continue
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (x - x2) < (y - y2) * (x2 - x1):
                break
            hull.pop()
        hull.append((x, y))
    sides = tuple(
        (x2 - x1, Fraction(y2 - y1, x2 - x1))
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple((x, Fraction(y)) for x, y in hull), sides)


def root_valuations(f: PadicPolynomial) -> tuple[list[tuple[Fraction, int]], int]:
    """Valuations of the roots of f, read off the Newton polygon.

    Returns ([(valuation, multiplicity), ...], k) where k is the
    multiplicity of the root 0 (the exact power of T stripped first).
    A side of type (l, gamma) contributes l roots of valuation -gamma.
    """
    _instance(PadicPolynomial, f)
    k, body = f.strip_t_power()
    if body.degree == 0:
        return [], k
    polygon = newton_polygon(body)
    return [(-gamma, length) for length, gamma in polygon.sides], k


# ---------------------------------------------------------------------------
# Eisenstein and cyclotomic polynomials
# ---------------------------------------------------------------------------


def eisenstein_test(f: PadicPolynomial) -> bool:
    """v(a_0) = 1, v(a_i) > 0 for 0 < i < m, v(a_m) = 0.

    A polynomial passing this test is irreducible over Q_p and defines a
    totally ramified extension of degree m.
    """
    _instance(PadicPolynomial, f)
    vals = f.coefficient_valuations()
    if len(vals) < 2:
        return False
    return (
        vals[0] == 1
        and vals[-1] == 0
        and all(v > 0 for v in vals[1:-1])
    )


def cyclotomic(p: int, n: int) -> list[int]:
    """Coefficients of the p^n-th cyclotomic polynomial Phi_p(T^(p^(n-1))),
    whose degree (p - 1) p^(n-1) must not exceed formats.MAX_DEGREE."""
    from .formats import MAX_DEGREE

    require_prime(p)
    if _count(n) < 1:
        raise InvalidArgumentError("n must be at least 1")
    # the degree is at least 2^(n - 1), so a large n is rejected without computing it
    if n > MAX_DEGREE.bit_length():
        raise ResourceLimitError(
            f"n = {n} gives a degree of at least 2^{n - 1}, past the bound {MAX_DEGREE}"
        )
    step = p ** (n - 1)
    if (p - 1) * step > MAX_DEGREE:
        raise ResourceLimitError(f"degree {(p - 1) * step} exceeds the bound {MAX_DEGREE}")
    out = [0] * ((p - 1) * step + 1)
    for i in range(p):
        out[i * step] = 1
    return out


# ---------------------------------------------------------------------------
# modular linear algebra (Z/p^M with minimal-valuation pivoting)
# ---------------------------------------------------------------------------


def _solve_mod_prime_power(p, M, matrix, rhs):
    """Solve A x = b over Z/p^M where v_p(det A) = beta < M and p^beta | b.

    Entries are integers, reduced modulo p^M lazily, so a caller pays only
    for the digits it asks for: the factor lift's rounds pass an M that
    grows with the digits they can use.  Returns x, valid modulo
    p^(M - beta).  Pivots are chosen with minimal valuation (the diagonal
    whenever it is a unit), so their valuations add up to beta and the
    spent precision is exactly beta; x = adj(A) b / det A is integral, so
    the back substitution's divisions are exact.  Each row is reduced once,
    when it becomes the pivot row; the rows below it subtract factor * y
    with factor and y below p^M and are not reduced, so an entry given in
    [0, p^M) stays below (size + 1) p^(2M) in absolute value.  Each pivot
    p^t u is inverted once, u by Newton doubling on one ladder of moduli
    p^k shared by all pivots, and the back substitution reuses that inverse.
    """
    mod, ladder = p**M, [p**k for k in _halvings(M, 1)]
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    pivots = []
    while rows:
        p_t = 1
        if rows[0][0] % p == 0:  # no unit on the diagonal: the least valuation below it
            vals = [int_valuation(row[0] % mod, p) for row in rows]
            best = vals.index(min(vals))
            rows[0], rows[best], p_t = rows[best], rows[0], p ** vals[best]
        pivot = [x % mod for x in rows[0]]
        inv_u = _inverse_mod_prime_power(pivot[0] // p_t, p, M, ladder)
        pivots.append((pivot, p_t, inv_u))
        rest = []
        for row in rows[1:]:
            factor = row[0] * inv_u % mod // p_t
            rest.append([x - factor * y for x, y in zip(row[1:], pivot[1:])] if factor else row[1:])
        rows = rest
    xs = []
    for pivot, p_t, inv_u in reversed(pivots):
        acc = (pivot[-1] - sum(map(operator.mul, pivot[1:-1], xs))) % mod
        xs.insert(0, acc // p_t * inv_u % mod)
    return xs


# ---------------------------------------------------------------------------
# Hensel lifting of factorizations (discrete valuation version)
# ---------------------------------------------------------------------------


def hensel_lift_factors(
    f: PadicPolynomial,
    g0: PadicPolynomial,
    h0: PadicPolynomial,
    alpha: int,
    precision: int,
) -> tuple[PadicPolynomial, PadicPolynomial]:
    """Lift an approximate factorization f = g0*h0 to one modulo p^precision.

    Checks that precision >= 1, that f, g0 and h0 share one prime, that
    f and g0*h0 have the same leading term, that res(g0, h0) != 0 mod
    p^(alpha+1) and that f = g0*h0 mod p^(2*alpha+1).  Together these
    imply w(f - g0*h0) > 2 v(res(g0, h0)), so the lift is the quadratic
    one of refine_factorization, about log2(precision) rounds.  Returns
    the true factors g, h of f with g = g0 and h = h0 mod p^(alpha+1)
    and the leading terms of g0, h0; their other coefficients are
    reduced to canonical residues in [0, p^precision).
    """
    beta, w0 = _lift_data(f, g0, h0, precision, "g0*h0")
    if beta == INFINITY or beta > alpha:
        raise HypothesisFailedError(
            f"res(g0, h0) = 0 mod p^{alpha + 1}: residual factors not coprime enough"
        )
    if w0 < 2 * alpha + 1:
        raise HypothesisFailedError(f"f != g0*h0 mod p^{2 * alpha + 1}")
    return _lift_factorization(f, g0, h0, beta, w0, precision)


def refine_factorization(
    f: PadicPolynomial,
    big_g: PadicPolynomial,
    big_h: PadicPolynomial,
    precision: int,
) -> tuple[PadicPolynomial, PadicPolynomial]:
    """Resultant-controlled refinement of f ~ G*H to the factors of f.

    Checks that precision >= 1, that f, G and H share one prime, that f
    and G*H have the same leading term and, unless f = G*H exactly, that
    w(f - GH) > 2 v(res(G, H)) (the discriminant variant
    w(f - GH) > v(dis(f)) implies it).  Returns
    the true factors of f near G, H with the leading terms of G, H;
    their other coefficients are reduced to canonical residues in
    [0, p^precision), so the pair is the one hensel_lift_factors returns.
    The lift is quadratic, about log2(precision) rounds.
    """
    beta, w0 = _lift_data(f, big_g, big_h, precision, "G*H")
    if w0 == INFINITY:
        # nothing to lift: v(res) would only size the working modulus
        return _lift_factorization(f, big_g, big_h, 0, w0, precision)
    if beta == INFINITY or w0 <= 2 * beta:
        raise HypothesisFailedError(
            f"w(f - GH) = {w0} is not > 2 v(res(G, H)) = {2 * beta}"
        )
    return _lift_factorization(f, big_g, big_h, beta, w0, precision)


def _lift_data(f, g, h, precision, product):
    """(v(res(g, h)), w(f - g*h)) after the checks both factor lifts make."""
    _instance(PadicPolynomial, f, g, h)
    _precision(precision)
    p = f.p
    if g.p != p or h.p != p:
        raise InvalidArgumentError("all polynomials must share one prime")
    lead = g.coefficients[-1] * h.coefficients[-1]
    if f.degree != g.degree + h.degree or f.coefficients[-1] != lead:
        raise HypothesisFailedError(f"f and {product} must have the same leading term")
    # f - g*h = (Dg Dh F - Df G H) / (Df Dg Dh), F = Df f, G = Dg g, H = Dh h integral
    (F, Df), (G, Dg), (H, Dh) = (_integral(x.coefficients) for x in (f, g, h))
    top = math.gcd(*(Dg * Dh * a - Df * b for a, b in zip(F, poly_mul(G, H))))
    w0 = int_valuation(top, p) - int_valuation(Df * Dg * Dh, p)
    return rational_valuation(resultant(g, h), p), w0


def _lift_factorization(f, g0, h0, beta, w0, precision):
    """The factors of f near g0, h0, reduced modulo p^precision, given
    beta = v(res(g0, h0)) and w0 = w(f - g0*h0) > 2*beta.

    Each round solves the Sylvester system of the current pair for the
    defect e, of valuation w or more.  The correction has valuation
    >= w - beta, so the next defect has valuation >= 2(w - beta) > w and
    v(res) stays beta (Hensel's lemma), and the rounds are those of the
    Newton precision schedule _halvings(precision + beta, w0, beta).  The
    round that raises w to K works modulo p^K, the digits it can use: it
    reduces g and h modulo p^K, which leaves their defect 0 mod p^w.  Their
    leads are those of g0, h0 reduced afresh each round: no correction
    moves a lead and e is read only below degree s + t, so a lead cut to an
    earlier round's p^K would lift the factors of another f.  The round
    solves for correction / p^(w - beta) from e / p^(w - beta) modulo
    p^(K - w + beta); A x = b holds modulo that power, so the new defect
    vanishes modulo p^K.  The scale must be p^(w - beta), not p^w: the
    correction / p^w is not integral when beta > 0.  After the last round
    w >= precision + beta, so every later correction is 0 mod p^precision
    and the reduced pair is that of the true factors, whatever the
    starting pair and whichever lift of it modulo each p^K.
    """
    p, s, t = f.p, g0.degree, h0.degree
    top, mod_top = precision + beta, p ** (precision + beta)
    f_i, g, h = ([_residue(c, p, top, mod_top) for c in x.coefficients] for x in (f, g0, h0))
    lead_g, lead_h = g[-1], h[-1]  # no correction reaches them
    levels = _halvings(top, w0, beta)
    for w, K in zip([w0, *levels], levels):
        mod, scale = p**K, p ** (w - beta)
        g = [c % mod for c in g[:-1]] + [lead_g % mod]
        h = [c % mod for c in h[:-1]] + [lead_h % mod]
        gh = poly_mul(g, h)
        e = [(c - (gh[i] if i < len(gh) else 0)) % mod for i, c in enumerate(f_i[: s + t])]
        rhs = [c // scale for c in reversed(e)]
        x = _solve_mod_prime_power(p, K - w + beta, _sylvester(g, h, s, t), rhs)
        delta = [scale * c for c in reversed(x[:t])]  # added to H
        gamma = [scale * c for c in reversed(x[t:])]  # added to G
        g = [gc + (gamma[i] if i < len(gamma) else 0) for i, gc in enumerate(g)]
        h = [hc + (delta[i] if i < len(delta) else 0) for i, hc in enumerate(h)]
    # the exact leading terms of g0, h0: the reduction may have changed them
    modN = p**precision
    return tuple(
        PadicPolynomial(p, [c % modN for c in x[:-1]] + [x0.coefficients[-1]])
        for x, x0 in ((g, g0), (h, h0))
    )


# ---------------------------------------------------------------------------
# slope factorization
# ---------------------------------------------------------------------------


def _gauss_w(p, ints, a, b):
    """min_j (j*a + b*v(c_j)): b times the Gauss valuation with w(T) = a/b; 0 gives +inf."""
    return min((j * a + b * int_valuation(c, p) for j, c in enumerate(ints) if c), default=INFINITY)


def _moduli(p, a, b, cap, n):
    """p^ceil((cap - j*a)/b) for j < n: modulo these the digits of weight >= cap go."""
    return [p ** max(0, (cap - j * a + b - 1) // b) for j in range(n)]


def _crop(ints, moduli):
    return _trim([c % m for c, m in zip(ints, moduli)])


def _divmod(x, g, p_lead, inv_lead, mod):
    """(x div g, x mod g) modulo mod = p^M; lead(g) = p_lead * u, inv_lead = 1/u."""
    x, n = list(x), len(g) - 1
    q = [0] * max(0, len(x) - n)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = x[i + n] // p_lead * inv_lead % mod
        for j, y in enumerate(g):
            x[i + j] -= c * y
    return q, [c % mod for c in x[:n]]


def _lift(p, f, g, h, t, beta, C, target):
    """The factors of f near g*h for the Gauss valuation w(T) = C = a/b,
    once w(f - g*h) >= target; all weights are scaled by b.

    g must be regular (its leading term attains w(g)), so reducing modulo g
    lowers no weight, the divisions by lead(g) and p^beta are exact and g's
    leading coefficient stays fixed; t*h = p^beta (1 + eps) mod g with
    w(eps) > 0, and the caller certifies that the first step converges.
    Each round t -= t*(t*h mod g - p^beta) mod g / p^beta, then with
    e = f - g*h, g += (t*e mod g) / p^beta and h += (e - h*dg) div g (von zur
    Gathen-Gerhard, Modern Computer Algebra, Alg. 15.10).  The excess of
    w(e) over w(g) + w(h) doubles, and so does each round's reach, the
    weight g, h and t are kept to and the power of p they work modulo.  The
    stop test on f - g*h certifies the result.
    """
    a, b = Fraction(C).numerator, Fraction(C).denominator
    v_lead, n = rational_valuation(g[-1], p), len(f)

    def digits(reach):
        return (reach + max(0, (1 - n) * a) + b - 1) // b + 2 * (beta + v_lead) + 5

    M = digits(target)
    full, p_beta, p_lead = p**M, p**beta, p**v_lead
    f, g, h, t = ([_residue(c, p, M, full) for c in x] for x in (f, g, h, t))
    w_g, w_h = _gauss_w(p, g, a, b), _gauss_w(p, h, a, b)
    # w(t) <= b*beta as t*h = p^beta mod g; an empty t (g constant) takes b*beta
    w_t = min(_gauss_w(p, t, a, b), b * beta)
    inv_lead = _inverse_mod_prime_power(g[-1] // p_lead, p, M)
    w_f, mod_e, reach = w_g + w_h, _moduli(p, a, b, target, n), 0
    for _ in range(target.bit_length() + 5):
        gh = poly_mul(g, h)
        e = [(c - (gh[i] if i < len(gh) else 0)) % full for i, c in enumerate(f)]
        if not _crop(e, mod_e):
            return g, h
        # the excess over w_f is measured once, then doubled (+1 digit, so
        # that an excess of 0 grows too)
        excess = max(0, (reach or _gauss_w(p, e, a, b)) - w_f)
        reach = min(target, w_f + 2 * excess + b)
        mod = p ** digits(reach)
        inv, e = inv_lead % mod, [c % mod for c in e]
        rel = max(0, reach - w_f) + 2 * b
        mod_g, mod_h, mod_t = (_moduli(p, a, b, w + rel, n) for w in (w_g, w_h, w_t))
        mod_g[len(g) - 1] = full  # g's leading coefficient is fixed: keep all its digits
        r = poly_sub(_divmod(poly_mul(t, h), g, p_lead, inv, mod)[1], [p_beta])
        dt = _divmod(poly_mul(t, r), g, p_lead, inv, mod)[1]
        t = _crop(poly_sub(t, [c // p_beta for c in dt]), mod_t)
        dg = [c // p_beta for c in _divmod(poly_mul(t, e), g, p_lead, inv, mod)[1]]
        dh = _divmod(poly_sub(e, poly_mul(h, dg)), g, p_lead, inv, mod)[0]
        g = _crop(poly_add(g, dg), mod_g)
        h = _crop(poly_add(h, dh), mod_h)
    raise PrecisionLossError("lifting did not converge within its round budget")


def slope_factorization(
    f: PadicPolynomial, precision: int
) -> list[tuple[PadicPolynomial, tuple[int, Fraction]]]:
    """Factor f into pure polynomials, one per Newton polygon side.

    The factors are ordered by increasing slope, factor i is pure of the
    i-th type entry, and their product agrees with f coefficientwise
    modulo p^precision: Hensel's lemma for each side's Gauss valuation
    (von zur Gathen-Gerhard, Modern Computer Algebra, Alg. 15.10)
    guarantees all three, so nothing is checked after the entry checks.
    The content p^c, c the least vertex valuation, is divided out, and
    _lift splits the work (the primitive polynomial, then each cofactor)
    one side at a time with w(T) = C = -slope, from G = (the work cut
    after the side's length) / p^c_G, c_G its ends' least valuation.
    Each split's target is the larger of precision - c plus slack plus
    max(0, deg*C), the digits the product needs, and the polygon's
    height max_j (j*C + v_j) + 1, so every cofactor keeps its leading
    vertex.  Factor i is the true pure factor with G's leading
    coefficient (that of the true cofactor), reduced to canonical
    residues modulo p^ceil(cap - j*C), cap = target + 2 - c_G, or
    target + 2 + c_G - v(work(0)) for the last factor: a higher
    precision gives the same residues to more digits.  The first factor
    is p^c times a primitive integer polynomial.  A constant f has no
    side and raises InvalidArgumentError.
    """
    _instance(PadicPolynomial, f)
    _precision(precision)
    if f.degree < 1:
        raise InvalidArgumentError("slope factorization needs degree >= 1")
    if f.coefficients[0] == 0:
        raise InvalidArgumentError("f(0) = 0: strip the exact T power first")
    p = f.p
    polygon = newton_polygon(f)
    if polygon.is_pure:
        return [(f, polygon.sides[0])]

    slack = 8
    c = int(min(y for _, y in polygon.vertices))
    content = Fraction(p) ** c
    work = [a / content for a in f.coefficients]
    splits, (x_r, y_r) = polygon.sides[:-1], polygon.vertices[-1]
    # every split runs to `reach` above its work's weight: 2 beyond the largest
    # relative target, plus what a cofactor's error loses under a later C
    reach = max(
        max(precision - c + slack + max(0, (x - x_r) * gamma), y_r - y + (x - x_r) * gamma + 1)
        for (x, y), (_, gamma) in zip(polygon.vertices, splits)
    )
    reach += 2 + (x_r - splits[0][0]) * (splits[-1][1] - splits[0][1])
    factors = []
    for length, gamma in splits:
        deg, C = len(work) - 1, -gamma
        a, b = C.numerator, C.denominator
        v0, v_top = rational_valuation(work[0], p), rational_valuation(work[-1], p)
        relative = precision - c + slack + max(0, deg * C)
        cap = math.ceil(max(relative, max(v0, v_top + deg * C) + 1) * b) + 2 * b
        c_g = min(v0, rational_valuation(work[length], p))
        lam = max(0, math.ceil((length - 1) * C))  # t = p^lam stays integral if C > 0
        low = [Fraction(x) / p**c_g for x in work[: length + 1]]
        g, work = _lift(p, work, low, [p**c_g], [p**lam], c_g + lam, C, math.ceil((v0 + reach) * b))
        factors.append(_crop(g, _moduli(p, a, b, cap - b * c_g, len(g))))
    factors.append(_crop(work, _moduli(p, a, b, cap + b * (c_g - v0), len(work))))
    factors[0] = [a * content for a in factors[0]]
    return [(PadicPolynomial(p, fac), side) for fac, side in zip(factors, polygon.sides)]


# ---------------------------------------------------------------------------
# Weierstrass preparation on truncated series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 T + ... + c_M T^M with v(c_i) >= tail for all i > M.

    Models an element of the ring of series whose coefficients tend to 0;
    the finite tail bound is what certifies membership.
    """

    p: int
    coefficients: tuple[Fraction, ...]
    tail: int

    def __post_init__(self):
        require_prime(self.p)
        if isinstance(self.tail, bool) or not isinstance(self.tail, int):
            raise InvalidArgumentError(f"tail bound {self.tail!r} is not an integer")
        object.__setattr__(self, "coefficients", tuple(_fractions(self.coefficients)))

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1


def weierstrass_prepare(
    f: TruncatedSeries, precision: int
) -> tuple[PadicPolynomial, TruncatedSeries]:
    """Factor f = g * h with g a polynomial of the distinguished degree
    and h a unit series with h(0) = 1, w(h - 1) > 0.

    The distinguished degree is the last index where the minimal
    coefficient valuation is attained; it must be certified by the tail
    bound, otherwise PrecisionLossError is raised.  The product matches f
    coefficientwise modulo p^min(precision, tail).  The preparation
    theorem guarantees the rest, so nothing is checked after the tail
    check: _lift keeps g's leading coefficient, a unit, and h = 1 mod p.
    After scaling f to minimal valuation 0 this is _lift at w(T) = 0,
    started from g = f cut after the distinguished degree, h = 1 and
    cofactor 1, on integer residues; it is normalized by the inverse of
    h(0) modulo p^t, t = h.tail = min(precision, tail) - w(f).  The
    coefficients of h and of g / p^w(f) come back as canonical residues
    modulo p^max(1, t): those of the true factors, which are unique under
    h(0) = 1.
    """
    _instance(TruncatedSeries, f)
    _precision(precision)
    p = f.p
    vals = [rational_valuation(c, p) for c in f.coefficients]
    finite = [v for v in vals if v != INFINITY]
    if not finite:
        raise InvalidArgumentError("the zero series cannot be prepared")
    w = min(finite)
    if f.tail <= w:
        raise PrecisionLossError(
            "tail bound does not exceed the minimal valuation: distinguished "
            "index is not determined by the truncation"
        )
    n_dist = max(j for j, v in enumerate(vals) if v == w)

    # scale to w = 0 so division by g loses no precision
    scale = Fraction(p) ** w
    coeffs = [c / scale for c in f.coefficients]
    target = min(precision, f.tail) - w
    # below w = 0 there is nothing to divide: the first stop test ends the loop
    g, h = _lift(p, coeffs, coeffs[: n_dist + 1], [1], [1], 0, 0, max(target, 0))

    mod = p ** max(1, target)
    inv = _inverse_mod_prime_power(h[0], p, max(1, target))
    g_out = [c * h[0] % mod * scale for c in g]
    h_out = [c * inv % mod for c in h]
    h_series = TruncatedSeries(
        p, h_out + [0] * (f.truncation - len(h_out) + 1), target
    )
    return PadicPolynomial(p, g_out), h_series


# ---------------------------------------------------------------------------
# primitive rescaling of a factorization
# ---------------------------------------------------------------------------


def primitive_rescale(
    f: PadicPolynomial, g: PadicPolynomial, h: PadicPolynomial
) -> tuple[Fraction, PadicPolynomial, PadicPolynomial]:
    """Given integral f = g*h over Q_p, rescale so both factors are integral.

    Returns (b, g/b, b*h) with b = p^w(g), w the Gauss valuation with
    w(T) = 0; multiplicativity of w makes both outputs integral.
    """
    _instance(PadicPolynomial, f, g, h)
    p = f.p
    if g.p != p or h.p != p:
        raise InvalidArgumentError("f, g and h must be over the same Q_p")
    if poly_sub(list(f.coefficients), poly_mul(list(g.coefficients), list(h.coefficients))):
        raise InvalidArgumentError("f must equal g*h exactly")
    if any(rational_valuation(c, p) < 0 for c in f.coefficients):
        raise InvalidArgumentError("f must have integral coefficients")
    w_g = min(rational_valuation(c, p) for c in g.coefficients if c)
    b = Fraction(p) ** w_g
    g_out = PadicPolynomial(p, poly_scale(list(g.coefficients), 1 / b))
    h_out = PadicPolynomial(p, poly_scale(list(h.coefficients), b))
    return b, g_out, h_out
