"""Valuations and normalized absolute values on Q and on GF(q)(T).

On Q the finite place p carries |x|_p = p^(-v_p(x)) and the infinite
place the usual absolute value; with these normalizations the product
over all places is exactly 1.  On GF(q)(T) the places are the monic
irreducibles and the degree place; no transcendental absolute values are
ever materialized there: the product formula is checked additively as
sum deg(place) * v_place(x) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .numtheory import (
    INFINITY,
    _count,
    _exact,
    _instance,
    _residue,
    _sequence,
    _unchecked,
    crt,
    factorint,
    is_prime,
    prime_power_decomposition,
    rational_valuation,
    require_prime,
)

# The GF(q)(T) functions import finitefield when they run, so callers working
# over Q never load it; FqPoly in annotations is finitefield.FqPoly.


# ---------------------------------------------------------------------------
# places of Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPlace:
    """A place of Q: a finite prime or the archimedean place (prime=None)."""

    prime: int | None

    def __post_init__(self):
        if self.prime is not None:
            require_prime(self.prime)

    @classmethod
    def finite(cls, p: int) -> "RationalPlace":
        return cls(p)

    @classmethod
    def infinite(cls) -> "RationalPlace":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


def vp_rational(p: int, x) -> int | float:
    """p-adic valuation of a rational number; v_p(0) = +infinity."""
    require_prime(p)
    return rational_valuation(x, p)


def normalized_absolute_value(place: RationalPlace, x) -> Fraction:
    """|x|_v with the product-formula normalization, as an exact Fraction."""
    _instance(RationalPlace, place)
    x = Fraction(_exact(x))
    if not place.is_finite:
        return abs(x)
    if x == 0:
        return Fraction(0)
    v = rational_valuation(x, place.prime)
    return Fraction(place.prime) ** (-v)


@dataclass(frozen=True)
class ProductFormulaReport:
    entries: tuple[tuple[RationalPlace, Fraction], ...]
    product: Fraction


def product_formula_report(x) -> ProductFormulaReport:
    """Every place with |x|_v != 1, plus the infinite place; product is 1.

    The product of the listed normalized absolute values is computed
    exactly and returned alongside the per-place report.
    """
    x = Fraction(_exact(x))
    if x == 0:
        raise InvalidArgumentError("the product formula concerns nonzero rationals")
    # numerator and denominator are coprime: v_p(x) is p's exponent in one, signed
    v = factorint(x.numerator) | {p: -e for p, e in factorint(x.denominator).items()}
    # factorint's primes are proved prime: the places skip the check
    entries = [(_unchecked(RationalPlace, prime=p), Fraction(p) ** -v[p]) for p in sorted(v)]
    entries.append((RationalPlace.infinite(), abs(x)))
    return ProductFormulaReport(tuple(entries), math.prod(a for _, a in entries))


# ---------------------------------------------------------------------------
# places of GF(q)(T)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionFieldPlace:
    """A place of GF(q)(T): a monic irreducible polynomial, or the degree
    place (poly=None), which has degree 1."""

    q: int
    poly: FqPoly | None

    def __post_init__(self):
        if self.poly is None:
            prime_power_decomposition(_count(self.q))
            return
        from .finitefield import _common_field

        poly = self.poly
        if _common_field(poly).q != self.q or not poly.is_monic() or not poly.is_irreducible():
            raise InvalidArgumentError(f"{poly!r} is not monic irreducible over GF({self.q})")

    @classmethod
    def finite(cls, poly: FqPoly) -> "FunctionFieldPlace":
        from .finitefield import _common_field

        return cls(_common_field(poly).q, poly)

    @classmethod
    def infinite(cls, q: int) -> "FunctionFieldPlace":
        return cls(q, None)

    @property
    def is_finite(self) -> bool:
        return self.poly is not None

    @property
    def degree(self) -> int:
        return self.poly.degree if self.poly is not None else 1

    def __str__(self):
        return "inf" if self.poly is None else repr(self.poly)


def _poly_place_valuation(place_poly: FqPoly, f: FqPoly) -> int:
    """The exponent of the monic place_poly in a nonzero f of the same field."""
    from .finitefield import _divmod

    v, (a, remainder) = 0, _divmod(f.coeffs, place_poly.coeffs, f.field)
    while not remainder:
        v += 1
        a, remainder = _divmod(a, place_poly.coeffs, f.field)
    return v


def ff_valuation(place: FunctionFieldPlace, num: FqPoly, den: FqPoly | None = None) -> int | float:
    """Valuation at a place of the rational function num/den over GF(q)."""
    from .finitefield import FqPoly, _common_field

    _instance(FunctionFieldPlace, place)
    field = _common_field(num, *(g for g in (den, place.poly) if g is not None))
    if place.q != field.q:
        raise InvalidArgumentError("all polynomials must share one field")
    if den is None or den.is_zero():
        if den is not None:
            raise InvalidArgumentError("denominator must be nonzero")
        den = FqPoly(field, (1,))
    if num.is_zero():
        return INFINITY
    if not place.is_finite:
        return den.degree - num.degree
    return _poly_place_valuation(place.poly, num) - _poly_place_valuation(place.poly, den)


@dataclass(frozen=True)
class SumFormulaReport:
    entries: tuple[tuple[FunctionFieldPlace, int], ...]
    total: int
    holds: bool


def sum_formula_check(num: FqPoly, den: FqPoly | None = None) -> SumFormulaReport:
    """Verify sum over places of deg(place) * v_place(x) = 0 for x = num/den."""
    from .finitefield import FqPoly, _common_field, factor_monic

    field = _common_field(num) if den is None else _common_field(num, den)
    if num.is_zero():
        raise InvalidArgumentError("the sum formula concerns nonzero functions")
    if den is None:
        den = FqPoly(field, (1,))
    if den.is_zero():
        raise InvalidArgumentError("denominator must be nonzero")
    multiplicities: dict[FqPoly, int] = {}
    for f, e in factor_monic(num).items():
        multiplicities[f] = multiplicities.get(f, 0) + e
    for f, e in factor_monic(den).items():
        multiplicities[f] = multiplicities.get(f, 0) - e
    entries = []
    total = 0
    for f in sorted(multiplicities, key=lambda g: (g.degree, g.coeffs)):
        v = multiplicities[f]
        if v != 0:
            # factor_monic returns monic irreducibles: the places skip the check
            entries.append((_unchecked(FunctionFieldPlace, q=field.q, poly=f), v))
            total += f.degree * v
    v_inf = den.degree - num.degree
    if v_inf != 0:
        entries.append((_unchecked(FunctionFieldPlace, q=field.q, poly=None), v_inf))
        total += v_inf
    return SumFormulaReport(tuple(entries), total, total == 0)


# ---------------------------------------------------------------------------
# Gauss valuations on polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussParameter:
    """The assigned value w(T) = C of the Gauss extension of a valuation."""

    C: Fraction

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(_exact(self.C)))


def gauss_valuation(C, coeff_valuations) -> tuple[Fraction, frozenset[int]]:
    """Valuation of a polynomial under the extension with w(T) = C.

    ``C`` may be a GaussParameter or a raw rational.  Returns
    min_j (j*C + v_j) together with the set of indices attaining it; the
    infimum is attained more than once exactly when -C is a side slope of
    the Newton polygon.
    """
    C = Fraction(_exact(C.C if isinstance(C, GaussParameter) else C))
    best = None
    attaining: set[int] = set()
    for j, v in enumerate(_sequence(coeff_valuations, "coefficient valuations must be a sequence")):
        if v == INFINITY:
            continue
        w = j * C + Fraction(_exact(v))
        if best is None or w < best:
            best, attaining = w, {j}
        elif w == best:
            attaining.add(j)
    if best is None:
        raise InvalidArgumentError("the zero polynomial has no Gauss valuation")
    return best, frozenset(attaining)


# ---------------------------------------------------------------------------
# weak approximation on Q
# ---------------------------------------------------------------------------


def _least_exponent(base: int, x: Fraction) -> int:
    """The least n >= 0 with base^n > x, for an integer base >= 2.

    base^n is an integer, so base^n > x exactly when base^n > floor(x);
    bisection on [0, bit length of floor(x)] compares integers only.
    """
    bound = math.floor(x)
    lo, hi = 0, max(bound, 0).bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if base**mid > bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def weak_approximation(targets) -> Fraction:
    """Find one rational y with |x_j - y|_j < eps_j at every listed place.

    ``targets`` is a list of (RationalPlace, x_j, eps_j) with pairwise
    distinct places, at most one of them infinite.  Finite constraints are
    met by a CRT lift of the x_j; an archimedean window is then hit by
    adding (c/d) * prod p_j^(n_j) for a denominator d prime to every
    listed prime.  Exact and terminating: the classical construction
    through weights z^r/(1+z^r) needs a limit in r and is deliberately
    not used.
    """
    try:
        targets = [(place, x, eps) for place, x, eps in targets]
    except (TypeError, ValueError) as exc:  # an entry that is not a triple
        raise InvalidArgumentError("each target is a triple (RationalPlace, x, eps)") from exc
    for place, x, eps in targets:
        if not isinstance(place, RationalPlace):
            raise InvalidArgumentError(f"{place!r} is not a RationalPlace")
        _exact(x)
        if _exact(eps) <= 0:
            raise InvalidArgumentError("tolerances must be positive")
    places = [t[0] for t in targets]
    if len(set(places)) != len(places):
        raise InvalidArgumentError("places must be pairwise distinct")
    finite = [(pl.prime, Fraction(x), Fraction(e)) for pl, x, e in targets if pl.is_finite]
    infinite = [(Fraction(x), Fraction(e)) for pl, x, e in targets if not pl.is_finite]
    primes = [p for p, _, _ in finite]
    for p, x, _ in finite:
        for q in primes:
            if rational_valuation(x, q) < 0:
                raise InvalidArgumentError(
                    f"target {x} has denominator divisible by the listed prime {q}"
                )

    if not finite:
        return infinite[0][0] if infinite else Fraction(0)
    if not infinite and len(finite) == 1:
        return finite[0][1]

    # smallest n >= 0 with p^(-n) < eps
    moduli, residues = [], []
    for p, x, eps in finite:
        n = _least_exponent(p, 1 / eps)
        moduli.append(p**n)
        residues.append(_residue(x, p, n))
    y0 = Fraction(crt(residues, moduli))
    if not infinite:
        return y0

    x_inf, eps_inf = infinite[0]
    if abs(y0 - x_inf) < eps_inf:
        return y0
    M = math.prod(moduli)
    aux = 2
    while aux in primes or not is_prime(aux):
        aux += 1
    # the least power d = aux^m, m >= 1, with M/(2d) < eps_inf
    d = aux ** max(1, _least_exponent(aux, M / (2 * eps_inf)))
    c = round((x_inf - y0) * d / M)
    return y0 + Fraction(c, d) * M
