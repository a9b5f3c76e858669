"""Finite-precision p-adic numbers.

A nonzero value is stored as unit * p^valuation + O(p^(valuation + N)):
the unit is an integer in [1, p^N) coprime to p and N >= 1 is the
relative precision in digits.  Exact zero (valuation +infinity) is kept
distinct from "zero at precision a" = O(p^a), which arises when equal-
valuation operands cancel through every stored digit; asking whether
such a value is zero raises PrecisionLossError instead of guessing.

Addition of operands with different valuations has exact result
valuation; multiplication and division always do.  Precision follows the
smallest absolute precision of the operands and is never silently
extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExcludedCaseError,
    HypothesisFailedError,
    InvalidArgumentError,
    NotASquareError,
    PrecisionLossError,
)
from .numtheory import (
    DEFAULT_PRECISION,
    INFINITY,
    _count,
    _exact,
    _halvings,
    _instance,
    _least_nonresidue,
    _precision,
    _residue,
    _sequence,
    _sqrt_mod_prime,
    _unchecked,
    int_valuation,
    require_prime,
)


class PadicNumber:
    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p, valuation, unit, precision):
        """The nonzero value unit * p^valuation + O(p^(valuation + precision)).

        unit must be an int in [1, p^precision) prime to p; zero() and
        zero_at() build the zeros, from_rational normalizes a rational.
        """
        require_prime(p)
        _precision(precision)
        _count(valuation)
        if _count(unit) % p == 0 or not 0 < unit < p**precision:
            raise InvalidArgumentError(
                f"unit must lie in [1, {p}^{precision}) and be prime to {p}"
            )
        self.p = p
        self.valuation = valuation
        self.unit = unit
        self.precision = precision

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicNumber":
        require_prime(p)
        return _padic(p, INFINITY, None, INFINITY)

    @classmethod
    def zero_at(cls, p: int, abs_precision: int) -> "PadicNumber":
        """O(p^a): indistinguishable from zero below absolute precision a."""
        require_prime(p)
        return _padic(p, _count(abs_precision), None, 0)

    @classmethod
    def from_rational(cls, p: int, x, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
        require_prime(p)
        _precision(precision)
        if _exact(x) == 0:
            return _padic(p, INFINITY, None, INFINITY)
        return _rational(p, x, precision)

    @classmethod
    def _from_integer_at(cls, p, n: int, v, abs_precision) -> "PadicNumber":
        """Value n * p^v known modulo p^abs_precision, a finite precision."""
        rel = abs_precision - v
        n %= p**rel
        if n == 0:
            return _padic(p, abs_precision, None, 0)
        t = int_valuation(n, p)
        unit = n // p**t % p ** (rel - t)
        return _padic(p, v + t, unit, rel - t)

    # -- predicates -------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit is None and self.valuation == INFINITY

    @property
    def is_inexact_zero(self) -> bool:
        return self.unit is None and self.valuation != INFINITY

    @property
    def absolute_precision(self):
        return self.valuation + self.precision

    def is_zero(self) -> bool:
        """True only for exact zero; raises if zero-ness is undecidable."""
        if self.is_exact_zero:
            return True
        if self.is_inexact_zero:
            raise PrecisionLossError(
                f"value is O({self.p}^{self.valuation}): zero-ness undecidable"
            )
        return False

    # -- representatives --------------------------------------------------

    def as_fraction(self) -> Fraction:
        """The canonical rational representative unit * p^valuation."""
        if self.unit is None:
            if self.is_exact_zero:
                return Fraction(0)
            raise PrecisionLossError("no canonical representative of an inexact zero")
        return Fraction(self.unit) * Fraction(self.p) ** self.valuation

    def residue(self, k: int) -> int:
        """The integer representative modulo p^k, k >= 0 (requires valuation >= 0)."""
        if _count(k) < 0:
            raise InvalidArgumentError("k must be non-negative")
        if self.is_exact_zero:
            return 0
        if self.is_inexact_zero:
            if k > self.valuation:
                raise PrecisionLossError(f"known only modulo {self.p}^{self.valuation}")
            return 0
        if self.valuation < 0:
            raise InvalidArgumentError("negative valuation: not a p-adic integer")
        if k > self.absolute_precision:
            raise PrecisionLossError(f"known only modulo {self.p}^{self.absolute_precision}")
        return self.unit * self.p**self.valuation % self.p**k

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise InvalidArgumentError(
                    f"mixed primes {self.p} and {other.p} in p-adic arithmetic"
                )
            return other
        if isinstance(other, (int, Fraction)):
            if _exact(other) == 0:
                return _padic(self.p, INFINITY, None, INFINITY)
            if self.is_exact_zero:
                return _rational(self.p, other, DEFAULT_PRECISION)
            v = int_valuation(other.numerator, self.p) - int_valuation(other.denominator, self.p)
            return _rational(self.p, other, max(1, self.precision, self.absolute_precision - v))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        cap = min(self.absolute_precision, other.absolute_precision)
        v = min(self.valuation, other.valuation)
        n = (self.unit * self.p ** (self.valuation - v) if self.unit else 0) + (
            other.unit * self.p ** (other.valuation - v) if other.unit else 0
        )  # a zero adds 0 and forms no power of p
        return PadicNumber._from_integer_at(self.p, n, v, cap)

    __radd__ = __add__

    def __neg__(self):
        if self.unit is None:
            return self
        return _padic(self.p, self.valuation, self.p**self.precision - self.unit, self.precision)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact_zero or other.is_exact_zero:
            return _padic(self.p, INFINITY, None, INFINITY)
        n = min(self.precision, other.precision)  # 0 digits for an inexact zero: no unit
        return _padic(
            self.p,
            self.valuation + other.valuation,
            self.unit * other.unit % self.p**n if n else None,
            n,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_exact_zero:
            raise InvalidArgumentError("division by exact zero")
        if not other.precision:
            raise PrecisionLossError(
                f"division by a value indistinguishable from 0 (O({self.p}^{other.valuation}))"
            )
        if self.is_exact_zero:
            return self
        n = min(self.precision, other.precision)  # 0 digits for an inexact zero: no unit
        pn = self.p**n
        return _padic(
            self.p,
            self.valuation - other.valuation,
            self.unit * pow(other.unit, -1, pn) % pn if n else None,
            n,
        )

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced / self

    def __eq__(self, other):
        """Indistinguishable at the shared precision (use is_zero for exact tests)."""
        if isinstance(other, (int, Fraction, PadicNumber)):
            return (self - other).unit is None
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        if self.is_exact_zero:
            return f"PadicNumber({self.p}, 0)"
        if self.is_inexact_zero:
            return f"O({self.p}^{self.valuation})"
        return f"{self.unit}*{self.p}^{self.valuation} + O({self.p}^{self.absolute_precision})"


def _padic(p, valuation, unit, precision) -> PadicNumber:
    """PadicNumber without the checks, for values that already satisfy them."""
    x = object.__new__(PadicNumber)
    x.p = p
    x.valuation = valuation
    x.unit = unit
    x.precision = precision
    return x


def _rational(p, x, n) -> PadicNumber:
    """The nonzero int or Fraction x, already checked, to n digits of relative
    precision; the divisions by p^vn and p^vd are exact, so the sign survives."""
    vn = int_valuation(x.numerator, p)
    vd = int_valuation(x.denominator, p)
    pn = p**n
    return _padic(p, vn - vd, x.numerator // p**vn * pow(x.denominator // p**vd, -1, pn) % pn, n)


# ---------------------------------------------------------------------------
# digit expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DigitExpansion:
    """Digits a_i in [0, p) of x = sum a_i p^i starting at i = start."""

    p: int
    start: int
    digits: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.p)
        _count(self.start)
        digits = tuple(_sequence(self.digits, "digits must be a sequence"))
        if any(type(d) is not int or not 0 <= d < self.p for d in digits):
            raise InvalidArgumentError(f"digits must be integers in [0, {self.p})")
        vars(self)["digits"] = digits

    def value(self) -> Fraction:
        return sum(
            (Fraction(d) * Fraction(self.p) ** (self.start + i) for i, d in enumerate(self.digits)),
            Fraction(0),
        )

    def __str__(self):
        if not self.digits:
            return "0"
        return ",".join(str(d) for d in self.digits) + f" (from {self.p}^{self.start})"


def expansion(x: PadicNumber, count: int) -> DigitExpansion:
    """First ``count`` base-p digits of x, starting at its valuation.

    The digits reconstruct x modulo p^(valuation + count).  The expansion
    of exact zero is the empty expansion, by convention.
    """
    _instance(PadicNumber, x)
    if x.is_exact_zero:
        return _unchecked(DigitExpansion, p=x.p, start=0, digits=())
    if x.is_inexact_zero:
        raise PrecisionLossError("digits of an inexact zero are unknown")
    if _count(count) < 1 or count > x.precision:
        raise InvalidArgumentError(f"count must be in [1, {x.precision}]")
    digits = []
    u = x.unit
    for _ in range(count):
        u, d = divmod(u, x.p)
        digits.append(d)
    return _unchecked(DigitExpansion, p=x.p, start=x.valuation, digits=tuple(digits))


# ---------------------------------------------------------------------------
# Teichmuller lift
# ---------------------------------------------------------------------------


def teichmuller(p: int, residue: int, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """The unique (p-1)-st root of unity congruent to ``residue`` mod p.

    Newton lifts the root of x^(p-1) = 1 from the residue, about
    log2(N) rounds; p - 1 is prime to p, so all N digits are exact.
    """
    require_prime(p)
    _precision(precision)
    if _count(residue) % p == 0:
        raise InvalidArgumentError("residue must be a unit modulo p")
    return _unit_root(p, p - 1, 1, residue % p, precision)


# ---------------------------------------------------------------------------
# Newton / Hensel root lifting
# ---------------------------------------------------------------------------


def newton_lift(f, a0, p: int | None = None, precision: int = DEFAULT_PRECISION) -> PadicNumber:
    """Lift an approximate root a0 of an integer polynomial to p^precision.

    Requires v(f(a0)) > 2 v(f'(a0)); the iteration a <- a - f(a)/f'(a)
    then converges quadratically and the result satisfies
    f(a) = 0 mod p^precision together with the displacement bound
    v(a - a0) >= v(f(a0)) - 2 v(f'(a0)).  p may be left out when a0 is a
    PadicNumber or f a PadicPolynomial, which carry their prime.
    """
    _precision(precision)
    if isinstance(a0, PadicNumber):
        if p is not None and p != a0.p:
            raise InvalidArgumentError("prime disagrees with the one carried by a0")
        p = a0.p
        if a0.is_inexact_zero:
            raise PrecisionLossError("starting point is an inexact zero")
        a_int = 0 if a0.is_exact_zero else a0.residue(int(a0.absolute_precision))
        a_prec = INFINITY if a0.is_exact_zero else a0.absolute_precision
    else:
        if p is None and hasattr(f, "coefficients"):  # a PadicPolynomial carries its prime
            p = f.p
        if p is None:
            raise InvalidArgumentError("a prime is required when a0 is an integer")
        require_prime(p)
        if _exact(a0).denominator != 1:
            raise InvalidArgumentError("a0 must be an integer or a PadicNumber")
        a_int, a_prec = a0.numerator, INFINITY
    if hasattr(f, "coefficients"):  # a PadicPolynomial, which carries its prime
        if f.p != p:
            raise InvalidArgumentError("prime disagrees with the one carried by f")
        raw = f.coefficients
    elif isinstance(f, (list, tuple)):
        raw = f
    else:
        raise InvalidArgumentError("f must be a coefficient list or a PadicPolynomial")
    coeffs = []
    for c in raw:
        if _exact(c).denominator != 1:
            raise InvalidArgumentError("newton_lift expects integer coefficients")
        coeffs.append(c.numerator)

    def values(a, mod=0):  # (f(a), f'(a)) by one Horner pass, exact for mod = 0
        fa = dfa = 0
        for c in reversed(coeffs):
            dfa = dfa * a + fa
            fa = fa * a + c
        return (fa % mod, dfa % mod) if mod else (fa, dfa)

    fa, dfa = values(a_int)
    t = int_valuation(dfa, p)
    if t == INFINITY:
        raise HypothesisFailedError("f'(a0) = 0: the convergence hypothesis fails")
    v_fa = int_valuation(fa, p)
    if v_fa < a_prec:
        if v_fa <= 2 * t:
            raise HypothesisFailedError(
                f"v(f(a0)) = {v_fa} is not > 2 v(f'(a0)) = {2 * t}"
            )
    elif a_prec <= 2 * t:
        raise PrecisionLossError(
            "cannot certify v(f(a0)) > 2v(f'(a0)) at the precision of a0"
        )
    return PadicNumber._from_integer_at(p, _newton(p, a_int, values, t, precision), 0, precision)


def _newton(p, a, values, t, target):
    """The root near a of f, modulo p^target, by a <- a - f(a)/f'(a).

    ``values(a, mod)`` returns (f(a), f'(a)) modulo mod, f an integer
    polynomial; t = v(f'(a)) and v(f(a)) > 2t.  If v(f(a)) >= 2t + e and
    s = p^t/f'(a) to e digits, the step gives v(f(a')) >= 2t + 2e and
    s <- s(2 - s f'(a')/p^t) gives s at a' to 2e digits.  On this Newton
    precision schedule (numtheory._halvings) the round that raises v(f(a))
    to k keeps a and s modulo p^k.  The first evaluation, modulo
    p^(target + t), reads e exactly or finds v(f(a)) >= target + t; the
    last round evaluates nothing.  After it v(f(a)) >= target + t, so with
    v(f'(a)) = t the root lies within p^target of a (Hensel's lemma).
    """
    done, p_t = p ** (target + t), p**t
    a %= done
    fa, dfa = values(a, done)
    if fa:
        mods = [p**k for k in _halvings(target + t, int_valuation(fa, p), t)]
        s = pow(dfa // p_t, -1, mods[0])
        for mod, next_mod in zip(mods, mods[1:]):
            a = (a - fa // p_t * s) % mod
            fa, dfa = values(a, next_mod)
            s = s * (2 - dfa // p_t * s) % mod
        a -= fa // p_t * s
    return a % p**target


def _unit_root(p, k, c, a0, N):
    """The root near a0 of x^k = c, for a unit c known modulo p^N.

    Requires v(a0^k - c) > 2 v_p(k).  The root is a unit known to
    N - v_p(k) digits, which is all that c mod p^N determines.
    """
    t = int_valuation(k, p)

    def values(a, mod):
        y = pow(a, k - 1, mod)
        return (a * y - c) % mod, k * y

    return _padic(p, 0, _newton(p, a0, values, t, N - t), N - t)


# ---------------------------------------------------------------------------
# squares and square classes
# ---------------------------------------------------------------------------


def _unit_is_square(p: int, unit: int, known_digits) -> bool:
    if p == 2:
        if known_digits < 3:
            raise PrecisionLossError("squareness mod 2 needs the unit modulo 8")
        return unit % 8 == 1
    return pow(unit % p, (p - 1) // 2, p) == 1


def is_square(x: PadicNumber) -> bool:
    """Whether x is a square in Q_p: even valuation and square unit part
    (a quadratic residue mod p for odd p, congruent to 1 mod 8 for p=2)."""
    _instance(PadicNumber, x)
    if x.is_exact_zero:
        raise InvalidArgumentError("squareness of 0 is excluded; take x nonzero")
    if x.is_inexact_zero:
        raise PrecisionLossError("squareness of an inexact zero is undecidable")
    if x.valuation % 2 != 0:
        return False
    return _unit_is_square(x.p, x.unit, x.precision)


def sqrt(x: PadicNumber) -> PadicNumber:
    """A square root of x, found by Newton lifting from a mod-p witness.

    For odd p the witness is the least residue root a0 = min(r, p - r) of
    the unit, r found by Tonelli-Shanks in O(log^2 p) multiplications mod
    p; for p = 2 the lift starts at 1.  The result has N - v_p(2) digits
    (N for odd p, N-1 for p = 2), which is all the input determines.
    """
    if not is_square(x):
        raise NotASquareError(f"{x!r} is not a square in Q_{x.p}")
    p, u = x.p, x.unit
    r = _sqrt_mod_prime(u, p) if p > 2 else 1
    root = _unit_root(p, 2, u, min(r, p - r), x.precision)
    return _padic(p, x.valuation // 2, root.unit, root.precision)


def square_class_basis(p: int) -> list[int]:
    """Representatives generating Q_p^x modulo squares.

    For odd p the class group has order 4 with basis [b, p], b the least
    positive non-residue; for p = 2 it has order 8 with basis [5, 3, 2].
    """
    require_prime(p)
    if p == 2:
        return [5, 3, 2]
    return [_least_nonresidue(p), p]


# ---------------------------------------------------------------------------
# the p-th power map on the unit filtration
# ---------------------------------------------------------------------------


def unit_filtration_level(p: int, u, precision: int = DEFAULT_PRECISION):
    """Largest n with u in U_n, the units congruent to 1 modulo p^n.

    Returns 0 for units outside U_1, +infinity for u = 1; otherwise the
    level is v_p(u - 1).  Raises PrecisionLossError when u is 1 to the
    available precision without being exactly 1.
    """
    require_prime(p)
    rep = _unit_representative(p, u, precision)
    if not isinstance(u, PadicNumber) and u == 1:
        return INFINITY
    if rep == 1:
        raise PrecisionLossError(
            f"u = 1 + O(p^{precision}): the filtration level exceeds the precision"
        )
    return int_valuation(rep - 1, p)


def _unit_representative(p, u, precision):
    _precision(precision)
    if isinstance(u, PadicNumber):
        if u.p != p:
            raise InvalidArgumentError("prime mismatch")
        if u.unit is None or u.valuation != 0:
            raise InvalidArgumentError("u must be a unit")
        if u.precision < precision:
            raise PrecisionLossError(
                f"u carries {u.precision} digits but {precision} are required"
            )
        return u.unit % p**precision
    x = Fraction(_exact(u))
    if x.numerator % p == 0 or x.denominator % p == 0:
        raise InvalidArgumentError("u must be a unit")
    return _residue(x, p, precision)


def pth_power_on_units(
    p: int, n: int, direction: str, u, precision: int = DEFAULT_PRECISION
) -> PadicNumber:
    """The bijection x -> x^p between U_n and U_{n+1}, either direction.

    Valid for n > 1/(p-1): n >= 1 for odd p, n >= 2 for p = 2.  The case
    p = 2, n = 1 is excluded: squaring on U_1 is neither injective nor
    surjective (the kernel is generated by -1).

    The inverse Newton lifts x^p = u from a0 = 1 + p^n((u-1)/p^(n+1) mod p),
    where v(a0^p - u) >= n + 2.  As x^p mod p^(N+1) pins x mod p^N, u is read
    to N + 1 digits; a PadicNumber u with fewer raises PrecisionLossError.
    """
    require_prime(p)
    _precision(precision)
    if _count(n) < 1:
        raise InvalidArgumentError("n must be at least 1")
    if p == 2 and n == 1:
        raise ExcludedCaseError(
            "p=2, n=1 excluded: squaring U_1 -> U_2 is neither injective nor surjective"
        )
    if direction not in ("forward", "inverse"):
        raise InvalidArgumentError("direction must be 'forward' or 'inverse'")
    inverse = direction == "inverse"
    u_int = _unit_representative(p, u, precision + inverse)
    level = n + inverse
    if u_int != 1 and int_valuation(u_int - 1, p) < level:
        raise InvalidArgumentError(
            f"u is not in U_{level}: its filtration level is "
            f"{int_valuation(u_int - 1, p)}"
        )
    if not inverse:
        return _padic(p, 0, pow(u_int, p, p**precision), precision)
    a0 = 1 + p**n * ((u_int - 1) // p ** (n + 1) % p)
    return _unit_root(p, p, u_int, a0, precision + 1)
