"""Polynomials over Q_p at finite precision.

Coefficients are exact rationals tagged with the prime p (ints and
Fractions only), so coefficient valuations are always exact.  No floating
point is used anywhere: Newton polygons are built with exact rational
slope comparisons, resultants are fraction-free (Bareiss) determinants
over Z after clearing each row's denominators, and the factor lifts solve
linear systems over Z/p^M with minimal-valuation pivoting, inverting
units modulo p^M by Newton doubling.

Slope factorization and Weierstrass preparation run one engine, _lift:
log(precision) Newton steps on f = G*H and on a cofactor p^beta / H mod G
in a Gauss valuation w(T) = C, on integer residues modulo powers of p that
double with the rounds.  The factor lifts (_lift_factorization) solve the
Sylvester system of the current pair once per round instead, because their
factors need not be regular.  Outputs are canonical residues of the true
factors: lifted factors modulo p^N, slope factors modulo the power their
split needs, and the Weierstrass factors h and g / p^w(f) modulo
p^(h.tail) after normalizing h(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HypothesisFailedError,
    InvalidArgumentError,
    PrecisionLossError,
)
from .numtheory import (
    INFINITY,
    _count,
    _exact,
    _inverse_mod_prime_power,
    _precision,
    _trim,
    int_valuation,
    poly_derivative,
    poly_eval,
    rational_valuation,
    require_prime,
)


# ---------------------------------------------------------------------------
# exact polynomial helpers over Q and Z (ascending coefficient sequences;
# integer inputs give integer results)
# ---------------------------------------------------------------------------


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
        cs = _trim([Fraction(_exact(c)) for c in coefficients])
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
# resultants and discriminants (exact Sylvester determinants)
# ---------------------------------------------------------------------------


def sylvester_matrix(g, h, m: int, n: int):
    """The (m+n) x (m+n) matrix whose determinant is res_{m,n}(g, h).

    Column j < n carries the coefficients of g, column n+j those of h:
    entry (i, j) = g_{m-i+j} and entry (i, n+j) = h_{n-i+j}.  This is the
    layout fixed by the m=2, n=3 display and makes the first n unknowns
    of the associated linear system the descending coefficients of the
    cofactor multiplying g.
    """
    if m + n <= 0:
        raise InvalidArgumentError("resultant requires m + n > 0")
    zero = Fraction(0)
    gc = [Fraction(_exact(c)) for c in g] + [zero] * (m + 1 - len(g))
    hc = [Fraction(_exact(c)) for c in h] + [zero] * (n + 1 - len(h))
    return _sylvester(gc, hc, m, n, zero)


def _sylvester(gc, hc, m, n, zero=0):
    """sylvester_matrix on coefficient lists of lengths >= m + 1 and
    >= n + 1, entries taken as they are; ``zero`` fills the rest."""
    rows = []
    for i in range(m + n):
        row = []
        for j in range(n):
            k = m - i + j
            row.append(gc[k] if 0 <= k <= m else zero)
        for j in range(m):
            k = n - i + j
            row.append(hc[k] if 0 <= k <= n else zero)
        rows.append(row)
    return rows


def _det(matrix) -> Fraction:
    """Exact determinant of a square matrix of rationals, by fraction-free
    elimination (Bareiss 1968).

    Each row is scaled once by the lcm of its denominators, so the
    elimination runs on integers: step k replaces every entry below and
    right of the pivot by (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1), an
    exact division, so entries stay minors of the scaled matrix and never
    outgrow Hadamard's bound.  A zero pivot is replaced by the first
    nonzero entry below it, each swap flipping the sign.  The last pivot
    is the determinant of the scaled matrix; dividing by the product of
    the row scales gives the determinant.
    """
    a, scale = [], 1
    for row in matrix:
        d = math.lcm(*(c.denominator for c in row))
        a.append([c.numerator * (d // c.denominator) for c in row])
        scale *= d
    size, sign, previous = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k][k + 1 :]
        for i in range(k + 1, size):
            row, lead = a[i], a[i][k]
            a[i][k + 1 :] = [
                (x * pivot - lead * y) // previous for x, y in zip(row[k + 1 :], pivot_row)
            ]
        previous = pivot
    return Fraction(sign * a[-1][-1], scale)


def _coeffs_of(f):
    if isinstance(f, PadicPolynomial):
        return list(f.coefficients)
    return _trim([Fraction(_exact(c)) for c in f])


def resultant_mn(g, h, m: int, n: int) -> Fraction:
    return _det(sylvester_matrix(_coeffs_of(g), _coeffs_of(h), m, n))


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
    r = resultant_mn(gc, poly_derivative(gc), m, m - 1)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * r / gc[-1]


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
    if f.coefficients[0] == 0:
        raise InvalidArgumentError(
            "constant term vanishes: strip the exact T power first (strip_t_power)"
        )
    vals = f.coefficient_valuations()
    points = [(j, Fraction(v)) for j, v in enumerate(vals) if v != INFINITY]
    hull: list[tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    sides = tuple(
        (x2 - x1, Fraction(y2 - y1, x2 - x1))
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), sides)


def root_valuations(f: PadicPolynomial) -> tuple[list[tuple[Fraction, int]], int]:
    """Valuations of the roots of f, read off the Newton polygon.

    Returns ([(valuation, multiplicity), ...], k) where k is the
    multiplicity of the root 0 (the exact power of T stripped first).
    A side of type (l, gamma) contributes l roots of valuation -gamma.
    """
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
    vals = f.coefficient_valuations()
    if len(vals) < 2:
        return False
    return (
        vals[0] == 1
        and vals[-1] == 0
        and all(v > 0 for v in vals[1:-1])
    )


def cyclotomic(p: int, n: int) -> list[int]:
    """Coefficients of the p^n-th cyclotomic polynomial Phi_p(T^(p^(n-1)))."""
    require_prime(p)
    if _count(n) < 1:
        raise InvalidArgumentError("n must be at least 1")
    step = p ** (n - 1)
    out = [0] * ((p - 1) * step + 1)
    for i in range(p):
        out[i * step] = 1
    return out


# ---------------------------------------------------------------------------
# modular linear algebra (Z/p^M with minimal-valuation pivoting)
# ---------------------------------------------------------------------------


def _solve_mod_prime_power(p, M, matrix, rhs):
    """Solve A x = b over Z/p^M where v_p(det A) = beta < M.

    Entries are integers; returns x, valid modulo p^(M - beta).  Pivots
    are chosen with minimal valuation, so the spent precision is exactly
    beta.  Each pivot p^t u is inverted once, u by Newton doubling modulo
    p^M, and the back substitution reuses that inverse.
    """
    mod = p**M
    size = len(matrix)
    a = [[matrix[i][j] % mod for j in range(size)] + [rhs[i] % mod] for i in range(size)]
    pivots = []
    for col in range(size):
        best, best_v = None, M
        for r in range(col, size):
            v = int_valuation(a[r][col], p)
            if v < best_v:
                best, best_v = r, v
        if best is None or best_v >= M:
            raise HypothesisFailedError("matrix is singular at this precision")
        if best != col:
            a[col], a[best] = a[best], a[col]
        pivot_row, p_t = a[col], p**best_v
        inv_u = _inverse_mod_prime_power(pivot_row[col] // p_t, p, M)
        pivots.append((p_t, inv_u))
        for r in range(col + 1, size):
            row = a[r]
            if row[col]:
                factor = row[col] * inv_u % mod // p_t
                row[col:] = [(x - factor * y) % mod for x, y in zip(row[col:], pivot_row[col:])]
    xs = [0] * size
    for col in range(size - 1, -1, -1):
        acc = a[col][size]
        for c in range(col + 1, size):
            acc -= a[col][c] * xs[c]
        acc %= mod
        p_t, inv_u = pivots[col]
        if acc % p_t:
            raise PrecisionLossError("solution is not integral at this precision")
        xs[col] = acc // p_t * inv_u % mod
    return xs


def _int_reps(p, M, coeffs):
    """Canonical integer representatives modulo p^M of p-integral rationals."""
    mod = p**M
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator % p == 0:
            raise InvalidArgumentError(f"coefficient {c} is not p-integral")
        out.append(c.numerator * pow(c.denominator, -1, mod) % mod)
    return out


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
    return _lift_factorization(f, g0, h0, beta, precision)


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
        return _lift_factorization(f, big_g, big_h, 0, precision)
    if beta == INFINITY or w0 <= 2 * beta:
        raise HypothesisFailedError(
            f"w(f - GH) = {w0} is not > 2 v(res(G, H)) = {2 * beta}"
        )
    return _lift_factorization(f, big_g, big_h, beta, precision)


def _lift_data(f, g, h, precision, product):
    """(v(res(g, h)), w(f - g*h)) after the checks both factor lifts make."""
    _precision(precision)
    p = f.p
    if g.p != p or h.p != p:
        raise InvalidArgumentError("all polynomials must share one prime")
    gh = poly_mul(g.coefficients, h.coefficients)
    if f.degree != len(gh) - 1 or f.coefficients[-1] != gh[-1]:
        raise HypothesisFailedError(f"f and {product} must have the same leading term")
    w0 = min((rational_valuation(c, p) for c in poly_sub(f.coefficients, gh)), default=INFINITY)
    return rational_valuation(resultant(g, h), p), w0


def _lift_factorization(f, g0, h0, beta, precision):
    """The factors of f near g0, h0, reduced modulo p^precision, given
    beta = v(res(g0, h0)) and w(f - g0*h0) > 2*beta.

    Each round solves the Sylvester system of the current pair modulo
    p^M for the defect, of valuation w.  The correction has valuation
    >= w - beta, so the next defect has valuation >= 2(w - beta) > w and
    v(res) stays beta.  Once w >= precision + beta every later correction
    is 0 mod p^precision, so the reduced pair is that of the true factors,
    whatever the starting pair.
    """
    p = f.p
    s, t = g0.degree, h0.degree
    M = precision + 2 * beta + 2
    mod, done = p**M, p ** (precision + beta)
    f_i = _int_reps(p, M, f.coefficients)
    g = _int_reps(p, M, g0.coefficients)
    h = _int_reps(p, M, h0.coefficients)
    for _ in range(precision + 2):
        gh = poly_mul(g, h)
        diff = [(f_i[i] - (gh[i] if i < len(gh) else 0)) % mod for i in range(len(f_i))]
        if all(c % done == 0 for c in diff):
            break
        rhs = [diff[s + t - 1 - i] for i in range(s + t)]
        x = _solve_mod_prime_power(p, M, _sylvester(g, h, s, t), rhs)
        delta = list(reversed(x[:t]))  # added to H
        gamma = list(reversed(x[t:]))  # added to G
        g = [(gc + (gamma[i] if i < len(gamma) else 0)) % mod for i, gc in enumerate(g)]
        h = [(hc + (delta[i] if i < len(delta) else 0)) % mod for i, hc in enumerate(h)]
    else:
        raise HypothesisFailedError("factor lifting failed to converge")

    modN = p**precision
    g_out = [c % modN for c in g]
    h_out = [c % modN for c in h]
    # restore the exact leading terms (reduction may have changed them)
    g_out[-1] = g0.coefficients[-1]
    h_out[-1] = h0.coefficients[-1]
    return PadicPolynomial(p, g_out), PadicPolynomial(p, h_out)


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
    f, g, h, t = (_int_reps(p, M, x) for x in (f, g, h, t))
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
    modulo p^precision (exact check; PrecisionLossError if the working
    slack was insufficient).  The content p^c, c the least vertex
    valuation, is divided out, and _lift splits the work (the primitive
    polynomial, then each cofactor) one side at a time with w(T) = C =
    -slope, from G = (the work cut after the side's length) / p^c_G, c_G
    its ends' least valuation.  Each split's target is the larger of
    precision - c plus slack plus max(0, deg*C), which the product check
    needs, and the polygon's height max_j (j*C + v_j) + 1, so every
    cofactor keeps its leading vertex.  Factor i is the true pure factor
    with G's leading coefficient (that of the true cofactor), reduced to
    canonical residues modulo p^ceil(cap - j*C), cap = target + 2 - c_G,
    or target + 2 + c_G - v(work(0)) for the last factor: a higher
    precision gives the same residues to more digits.  The first factor
    is p^c times a primitive integer polynomial.
    """
    _precision(precision)
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
        tail = [j * C + rational_valuation(x, p) for j, x in enumerate(work) if j > length and x]
        if min(tail) <= v0:
            raise PrecisionLossError("cannot certify the side gap at this precision")
        lam = max(0, math.ceil((length - 1) * C))  # t = p^lam stays integral if C > 0
        low = [Fraction(x) / p**c_g for x in work[: length + 1]]
        g, work = _lift(p, work, low, [p**c_g], [p**lam], c_g + lam, C, math.ceil((v0 + reach) * b))
        factors.append(_crop(g, _moduli(p, a, b, cap - b * c_g, len(g))))
    factors.append(_crop(work, _moduli(p, a, b, cap + b * (c_g - v0), len(work))))
    factors[0] = [a * content for a in factors[0]]

    product = [Fraction(1)]
    for fac in factors:
        product = poly_mul(product, fac)
    err = poly_sub(list(f.coefficients), product)
    if any(rational_valuation(c, p) < precision for c in err):
        raise PrecisionLossError(
            "factor product does not match f at the requested precision"
        )
    out = []
    for fac, side in zip(factors, polygon.sides):
        poly = PadicPolynomial(p, fac)
        got = newton_polygon(poly)
        if not got.is_pure or got.sides[0] != side:
            raise PrecisionLossError("split factor is not pure of the expected type")
        out.append((poly, side))
    return out


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
        if isinstance(self.tail, bool) or not isinstance(self.tail, int):
            raise InvalidArgumentError(f"tail bound {self.tail!r} is not an integer")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(_exact(c)) for c in self.coefficients)
        )

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def weighted_valuation(self):
        vals = [rational_valuation(c, self.p) for c in self.coefficients]
        finite = [v for v in vals if v != INFINITY]
        return min(finite + [self.tail])


def weierstrass_prepare(
    f: TruncatedSeries, precision: int
) -> tuple[PadicPolynomial, TruncatedSeries]:
    """Factor f = g * h with g a polynomial of the distinguished degree
    and h a unit series with h(0) = 1, w(h - 1) > 0.

    The distinguished degree is the last index where the minimal
    coefficient valuation is attained; it must be certified by the tail
    bound, otherwise PrecisionLossError is raised.  The product matches f
    coefficientwise modulo p^min(precision, tail).  After scaling f to
    minimal valuation 0 this is _lift at w(T) = 0, started from g = f cut
    after the distinguished degree, h = 1 and cofactor 1, on integer
    residues; it is normalized by the inverse of h(0) modulo p^t,
    t = h.tail = min(precision, tail) - w(f).  The coefficients of h and
    of g / p^w(f) come back as canonical residues modulo p^max(1, t): those
    of the true factors, which are unique under h(0) = 1.
    """
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
    if len(g_out) - 1 != n_dist:
        raise PrecisionLossError("prepared polynomial has the wrong degree")
    if any(rational_valuation(c, p) <= 0 for c in h_out[1:] if c):
        raise PrecisionLossError("unit part does not satisfy w(h - 1) > 0")
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
    p = f.p
    if poly_sub(list(f.coefficients), poly_mul(list(g.coefficients), list(h.coefficients))):
        raise InvalidArgumentError("f must equal g*h exactly")
    if any(rational_valuation(c, p) < 0 for c in f.coefficients):
        raise InvalidArgumentError("f must have integral coefficients")
    w_g = min(rational_valuation(c, p) for c in g.coefficients if c)
    b = Fraction(p) ** w_g
    g_out = PadicPolynomial(p, poly_scale(list(g.coefficients), 1 / b))
    h_out = PadicPolynomial(p, poly_scale(list(h.coefficients), b))
    if any(rational_valuation(c, p) < 0 for c in g_out.coefficients + h_out.coefficients):
        raise InvalidArgumentError("rescaled factors are not integral")  # unreachable
    return b, g_out, h_out
