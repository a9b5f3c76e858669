"""Text and JSON codecs for rationals and polynomials.

Polynomial text format: ``c0 + c1*T + c2*T^2`` with rational
coefficients ("3", "-1/2") and exponents up to MAX_DEGREE, which is
checked before the coefficient list is allocated.  The JSON mirror
stores the full coefficient list as exact numerator/denominator strings,
so every emitted value re-parses to an equal value; floats never appear.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError

MAX_DEGREE = 10_000
_TERM = re.compile(r"^(-)?(\d+(?:/\d+)?)?(?:\*?T(?:\^(\d+))?)?$")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"cannot parse rational {text!r}") from exc


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_polynomial(text: str) -> list[Fraction]:
    """Parse ``c0 + c1*T + c2*T^2`` into an ascending coefficient list."""
    s = text.replace(" ", "")
    if not s:
        raise InvalidArgumentError("empty polynomial")
    parts = [t for t in s.replace("-", "+-").split("+") if t]
    coeffs: dict[int, Fraction] = {}
    for part in parts:
        m = _TERM.match(part)
        if not m or part in ("-", "*"):
            raise InvalidArgumentError(f"cannot parse polynomial term {part!r}")
        sign = -1 if m.group(1) else 1
        coef = parse_rational(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(2) is None and "T" not in part:
            raise InvalidArgumentError(f"cannot parse polynomial term {part!r}")
        digits = (m.group(3) or ("1" if "T" in part else "0")).lstrip("0") or "0"
        # lengths are compared first, so a long exponent is never converted
        if len(digits) > len(str(MAX_DEGREE)):
            raise ResourceLimitError(
                f"a degree of {len(digits)} digits exceeds the bound {MAX_DEGREE}"
            )
        exp = int(digits)
        if exp > MAX_DEGREE:
            raise ResourceLimitError(f"degree {exp} exceeds the bound {MAX_DEGREE}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def format_polynomial(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "T" if mag == 1 else f"{mag}*T"
        else:
            body = f"T^{i}" if mag == 1 else f"{mag}*T^{i}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def polynomial_to_json(coeffs) -> dict:
    cs = [Fraction(c) for c in coeffs]
    return {
        "degree": len(cs) - 1,
        "coefficients": [format_rational(c) for c in cs],
    }


def polynomial_from_json(obj: dict) -> list[Fraction]:
    cs = [parse_rational(c) for c in obj["coefficients"]]
    if obj.get("degree") is not None and obj["degree"] != len(cs) - 1:
        raise InvalidArgumentError("degree field disagrees with the coefficients")
    return cs
