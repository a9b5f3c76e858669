"""Command-line frontend.

Every library module is exposed as a subcommand with text and JSON
output; ``reproduce --all`` regenerates the built-in reference tables
(Bernoulli numbers, the degree-7 exponential polygon over Q_2,
cyclotomic ramification data, tame extension counts) deterministically.

Exit codes: 0 success, 2 invalid input, 3 hypothesis failed,
4 precision loss.

Each handler imports the library modules it uses when it runs: a call is
one fresh process, and loading modules the command never touches would be
most of its cost.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import (
    HypothesisFailedError,
    InvalidArgumentError,
    LocalArithError,
    PrecisionLossError,
)
from .formats import (
    format_polynomial,
    format_rational,
    parse_polynomial,
    parse_rational,
    polynomial_to_json,
)
from .numtheory import DEFAULT_PRECISION, INFINITY, prime_power_decomposition


def _default_precision(args) -> int:
    if args.prec is not None:
        return args.prec
    env = os.environ.get("PADIC_PREC")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidArgumentError(f"PADIC_PREC={env!r} is not an integer") from exc
    return DEFAULT_PRECISION


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _read_poly_arg(args) -> list[Fraction]:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidArgumentError(f"cannot read the polynomial file: {exc}") from exc
        return parse_polynomial(text.strip())
    if args.poly is None:
        raise InvalidArgumentError("a polynomial is required (positional or --file)")
    return parse_polynomial(args.poly)


def _describe_padic(x: PadicNumber, digit_count: int = 10) -> tuple[str, dict]:
    from .padic import expansion

    if x.is_exact_zero:
        return "0", {"p": x.p, "zero": True}
    if x.is_inexact_zero:
        text = f"O({x.p}^{x.valuation})"
        return text, {"p": x.p, "zero_mod": str(x.valuation)}
    count = min(digit_count, x.precision)
    digits = expansion(x, count)
    text = (
        f"{x.unit}*{x.p}^{x.valuation} + O({x.p}^{x.absolute_precision})"
        f"  digits {digits} ..."
    )
    payload = {
        "p": x.p,
        "valuation": str(x.valuation),
        "unit": str(x.unit),
        "precision": x.precision,
        "digits": list(digits.digits),
        "digits_from": digits.start,
    }
    return text, payload


def _parse_ff_poly(q: int, text: str) -> FqPoly:
    from .finitefield import FiniteField, FqPoly

    field = FiniteField(q)
    coeffs = parse_polynomial(text)
    if any(c.denominator != 1 for c in coeffs):
        raise InvalidArgumentError("GF(q)[T] coefficients must be integers")
    return FqPoly(field, [int(c) for c in coeffs])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_vp(args) -> int:
    from .valuations import vp_rational

    v = vp_rational(args.p, parse_rational(args.x))
    text = "inf" if v == INFINITY else str(v)
    _emit(args, text, {"p": args.p, "x": args.x, "valuation": text})
    return 0


def _cmd_product_formula(args) -> int:
    from .valuations import product_formula_report

    report = product_formula_report(parse_rational(args.x))
    lines = [f"{place}: {format_rational(a)}" for place, a in report.entries]
    lines.append(f"product: {format_rational(report.product)}")
    payload = {
        "entries": [
            {"place": str(place), "absolute_value": format_rational(a)}
            for place, a in report.entries
        ],
        "product": format_rational(report.product),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_ff_val(args) -> int:
    from .valuations import FunctionFieldPlace, ff_valuation

    num = _parse_ff_poly(args.q, args.num)
    den = _parse_ff_poly(args.q, args.den) if args.den else None
    if args.place == "inf":
        place = FunctionFieldPlace.infinite(args.q)
    else:
        place = FunctionFieldPlace.finite(_parse_ff_poly(args.q, args.place))
    v = ff_valuation(place, num, den)
    text = "inf" if v == INFINITY else str(v)
    _emit(args, text, {"q": args.q, "place": str(place), "valuation": text})
    return 0


def _cmd_weak_approx(args) -> int:
    from .valuations import RationalPlace, weak_approximation

    targets = []
    for spec_str in args.target:
        try:
            place_s, x_s, eps_s = spec_str.split(":")
            prime = None if place_s == "inf" else int(place_s)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"target {spec_str!r} is not place:value:epsilon "
                "with place a prime or inf"
            ) from exc
        place = (
            RationalPlace.infinite()
            if prime is None
            else RationalPlace.finite(prime)
        )
        targets.append((place, parse_rational(x_s), parse_rational(eps_s)))
    y = weak_approximation(targets)
    _emit(args, format_rational(y), {"y": format_rational(y)})
    return 0


def _cmd_bernoulli(args) -> int:
    from .bernoulli import bernoulli

    b = bernoulli(args.k)
    _emit(args, format_rational(b), {"k": args.k, "value": format_rational(b)})
    return 0


def _cmd_staudt_clausen(args) -> int:
    from .bernoulli import staudt_clausen

    sc = staudt_clausen(args.k)
    text = (
        f"W={sc.integer_part} denominator={sc.denominator} "
        f"primes={','.join(str(p) for p in sc.primes)}"
    )
    payload = {
        "k": sc.k,
        "integer_part": sc.integer_part,
        "denominator": sc.denominator,
        "primes": list(sc.primes),
    }
    _emit(args, text, payload)
    return 0


def _cmd_padic_eval(args) -> int:
    from .padic import PadicNumber

    x = PadicNumber.from_rational(args.p, parse_rational(args.x), _default_precision(args))
    text, payload = _describe_padic(x, args.digits)
    _emit(args, text, payload)
    return 0


def _cmd_sqrt(args) -> int:
    from .padic import PadicNumber, sqrt

    x = PadicNumber.from_rational(args.p, parse_rational(args.x), _default_precision(args))
    root = sqrt(x)
    text, payload = _describe_padic(root)
    _emit(args, text, payload)
    return 0


def _cmd_teichmuller(args) -> int:
    from .padic import teichmuller

    w = teichmuller(args.p, args.residue, _default_precision(args))
    text, payload = _describe_padic(w)
    _emit(args, text, payload)
    return 0


def _cmd_lift(args) -> int:
    from .padic import newton_lift

    coeffs = parse_polynomial(args.poly)
    start = parse_rational(args.start)
    if start.denominator != 1:
        raise InvalidArgumentError("the starting point must be an integer")
    root = newton_lift(coeffs, int(start), p=args.p, precision=_default_precision(args))
    text, payload = _describe_padic(root)
    _emit(args, text, payload)
    return 0


def _format_sides(sides) -> str:
    return ";".join(f"({l},{format_rational(s)})" for l, s in sides)


def _cmd_polygon(args) -> int:
    from .polynomials import PadicPolynomial, newton_polygon

    f = PadicPolynomial(args.p, _read_poly_arg(args))
    polygon = newton_polygon(f)
    text = _format_sides(polygon.sides)
    payload = {
        "type": [[l, format_rational(s)] for l, s in polygon.sides],
        "vertices": [[x, format_rational(y)] for x, y in polygon.vertices],
        "pure": polygon.is_pure,
    }
    _emit(args, text, payload)
    return 0


def _cmd_factor_lift(args) -> int:
    from .polynomials import PadicPolynomial, hensel_lift_factors

    p = args.p
    f = PadicPolynomial(p, parse_polynomial(args.f))
    g0 = PadicPolynomial(p, parse_polynomial(args.g0))
    h0 = PadicPolynomial(p, parse_polynomial(args.h0))
    g, h = hensel_lift_factors(f, g0, h0, args.alpha, _default_precision(args))
    text = f"g = {format_polynomial(g.coefficients)}\nh = {format_polynomial(h.coefficients)}"
    payload = {
        "g": polynomial_to_json(g.coefficients),
        "h": polynomial_to_json(h.coefficients),
    }
    _emit(args, text, payload)
    return 0


def _cmd_slope_factor(args) -> int:
    from .polynomials import PadicPolynomial, slope_factorization

    f = PadicPolynomial(args.p, _read_poly_arg(args))
    factors = slope_factorization(f, _default_precision(args))
    lines = []
    payload_factors = []
    for poly, (length, slope) in factors:
        lines.append(
            f"length {length} slope {format_rational(slope)}: "
            f"{format_polynomial(poly.coefficients)}"
        )
        payload_factors.append(
            {
                "length": length,
                "slope": format_rational(slope),
                "factor": polynomial_to_json(poly.coefficients),
            }
        )
    _emit(args, "\n".join(lines), {"factors": payload_factors})
    return 0


def _cmd_weierstrass(args) -> int:
    from .polynomials import TruncatedSeries, weierstrass_prepare

    coeffs = _read_poly_arg(args)
    series = TruncatedSeries(args.p, coeffs, args.tail)
    g, h = weierstrass_prepare(series, _default_precision(args))
    text = (
        f"g = {format_polynomial(g.coefficients)}\n"
        f"h = {format_polynomial(h.coefficients)} + O(T^{h.truncation + 1}; "
        f"tail valuation >= {h.tail})"
    )
    payload = {
        "g": polynomial_to_json(g.coefficients),
        "h": polynomial_to_json(h.coefficients),
        "h_tail_valuation": h.tail,
    }
    _emit(args, text, payload)
    return 0


def _cmd_resultant(args) -> int:
    from .polynomials import discriminant, resultant

    g = parse_polynomial(args.g)
    if args.discriminant:
        r = discriminant(g)
    else:
        if args.h is None:
            raise InvalidArgumentError("a second polynomial is required")
        r = resultant(g, parse_polynomial(args.h))
    _emit(args, format_rational(r), {"value": format_rational(r)})
    return 0


def _cmd_eisenstein(args) -> int:
    from .polynomials import PadicPolynomial, eisenstein_test

    f = PadicPolynomial(args.p, _read_poly_arg(args))
    ok = eisenstein_test(f)
    _emit(args, "true" if ok else "false", {"eisenstein": ok})
    return 0


def _ramification_payload(report: RamificationReport) -> dict:
    return {
        "lower_jumps": list(report.lower_jumps),
        "upper_jumps": [format_rational(v) for v in report.upper_jumps],
        "segment_orders": list(report.segment_orders),
        "different_exponent": report.different_exponent,
        "discriminant_exponent": report.discriminant_exponent,
        "residual_degree": report.residual_degree,
    }


def _cmd_ramification_cyclotomic(args) -> int:
    from .ramification import cyclotomic_group, different_discriminant

    group = cyclotomic_group(args.p, args.n)
    report = different_discriminant(group, args.residual_degree)
    text = (
        f"order {group.order}\n"
        f"lower jumps {','.join(str(u) for u in report.lower_jumps) or '-'}\n"
        f"upper jumps {','.join(format_rational(v) for v in report.upper_jumps) or '-'}\n"
        f"different exponent {report.different_exponent}\n"
        f"discriminant exponent {report.discriminant_exponent}"
    )
    _emit(args, text, _ramification_payload(report))
    return 0


def _cmd_extensions_count(args) -> int:
    from .extensions import count_tame_extensions

    c = count_tame_extensions(args.q, args.e, args.f)
    _emit(args, str(c), {"q": args.q, "e": args.e, "f": args.f, "count": c})
    return 0


def _cmd_extensions_classify(args) -> int:
    from .extensions import TameExtensionDescriptor, classify_tame

    d = TameExtensionDescriptor(args.q, args.e, args.f, args.r)
    c = classify_tame(d)
    lines = [f"galois {str(c.galois).lower()}", f"abelian {str(c.abelian).lower()}"]
    payload = {
        "q": args.q,
        "e": args.e,
        "f": args.f,
        "r": args.r,
        "class_count": d.class_count,
        "galois": c.galois,
        "abelian": c.abelian,
    }
    if c.presentation is not None:
        lines.append(
            f"presentation tau^{args.e}=1, sigma^{args.f}=tau^{args.r}, "
            f"sigma tau sigma^-1=tau^{args.q}, order {c.presentation.order}"
        )
        payload["presentation"] = {
            "relations": [
                f"tau^{args.e}=1",
                f"sigma^{args.f}=tau^{args.r}",
                f"sigma*tau*sigma^-1=tau^{args.q}",
            ],
            "order": c.presentation.order,
        }
    _emit(args, "\n".join(lines), payload)
    return 0


# ---------------------------------------------------------------------------
# reproduction of the reference tables
# ---------------------------------------------------------------------------

EXP7_COEFFS = "1 + T + 1/2*T^2 + 1/6*T^3 + 1/24*T^4 + 1/120*T^5 + 1/720*T^6 + 1/5040*T^7"


def reproduce_lines() -> list[str]:
    from .bernoulli import BernoulliTable
    from .extensions import count_tame_extensions
    from .polynomials import PadicPolynomial, newton_polygon
    from .ramification import cyclotomic_group, different_discriminant

    lines = ["# Bernoulli numbers B_k = N_k/D_k for even k in [2, 20]"]
    table = BernoulliTable()
    for k in range(2, 21, 2):
        b = table.value(k)
        lines.append(f"k={k} N={b.numerator} D={b.denominator}")
    lines.append("")
    lines.append("# Newton polygon type of the degree-7 exponential truncation over Q_2")
    f = PadicPolynomial(2, parse_polynomial(EXP7_COEFFS))
    lines.append(_format_sides(newton_polygon(f).sides))
    lines.append("")
    lines.append("# Ramification of the p^n-th roots of unity over Q_p")
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        report = different_discriminant(cyclotomic_group(p, n))
        lower = ",".join(str(u) for u in report.lower_jumps)
        upper = ",".join(format_rational(v) for v in report.upper_jumps)
        lines.append(
            f"p={p} n={n} lower=[{lower}] upper=[{upper}] "
            f"different={report.different_exponent}"
        )
    lines.append("")
    lines.append("# Tame extension counts (residue size q, index e, residual degree f)")
    for q in (2, 3, 4, 5):
        for e in (2, 3, 4, 5, 6):
            if e % prime_power_decomposition(q)[0] == 0:
                continue
            for f_deg in (1, 2, 3):
                c = count_tame_extensions(q, e, f_deg)
                lines.append(f"q={q} e={e} f={f_deg} count={c}")
    return lines


def _cmd_reproduce(args) -> int:
    if not args.all:
        raise InvalidArgumentError("nothing to reproduce: pass --all")
    print("\n".join(reproduce_lines()))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # let "-1/4" and "-T^2 + 1" pass as positional values
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|T)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="localarith",
        description="valuations, p-adic arithmetic, Newton polygons, "
        "ramification and tame extension counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, prec=False):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if prec:
            sp.add_argument("--prec", type=int, default=None, help="relative precision in digits")

    sp = sub.add_parser("vp", help="p-adic valuation of a rational")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("x")
    common(sp)
    sp.set_defaults(func=_cmd_vp)

    sp = sub.add_parser("product-formula", help="normalized absolute values of a rational")
    sp.add_argument("x")
    common(sp)
    sp.set_defaults(func=_cmd_product_formula)

    sp = sub.add_parser("ff-val", help="valuation on GF(q)(T)")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("--place", required=True, help="'inf' or a monic irreducible")
    sp.add_argument("num")
    sp.add_argument("den", nargs="?", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_ff_val)

    sp = sub.add_parser("weak-approx", help="simultaneous approximation at several places")
    sp.add_argument("target", nargs="+", help="place:value:epsilon, place 'inf' or a prime")
    common(sp)
    sp.set_defaults(func=_cmd_weak_approx)

    sp = sub.add_parser("bernoulli", help="exact Bernoulli number")
    sp.add_argument("k", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_bernoulli)

    sp = sub.add_parser("staudt-clausen", help="integrality decomposition of B_k")
    sp.add_argument("k", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_staudt_clausen)

    sp = sub.add_parser("padic", help="p-adic evaluation")
    padsub = sp.add_subparsers(dest="padic_command", required=True)
    spe = padsub.add_parser("eval", help="evaluate a rational p-adically")
    spe.add_argument("-p", type=int, required=True)
    spe.add_argument("x")
    spe.add_argument("--digits", type=int, default=10)
    common(spe, prec=True)
    spe.set_defaults(func=_cmd_padic_eval)

    sp = sub.add_parser("sqrt", help="square root in Q_p")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("x")
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_sqrt)

    sp = sub.add_parser("teichmuller", help="multiplicative lift of a residue")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("residue", type=int)
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_teichmuller)

    sp = sub.add_parser("lift", help="Newton root lifting")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--start", required=True)
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_lift)

    sp = sub.add_parser("polygon", help="Newton polygon of a polynomial")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("poly", nargs="?", default=None)
    sp.add_argument("--file", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_polygon)

    sp = sub.add_parser("factor-lift", help="lift an approximate factorization")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g0", required=True)
    sp.add_argument("--h0", required=True)
    sp.add_argument("--alpha", type=int, default=0)
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_factor_lift)

    sp = sub.add_parser("slope-factor", help="factor by Newton polygon slopes")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("poly", nargs="?", default=None)
    sp.add_argument("--file", default=None)
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_slope_factor)

    sp = sub.add_parser("weierstrass", help="Weierstrass preparation of a truncated series")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("poly", nargs="?", default=None, help="stored coefficients as a polynomial")
    sp.add_argument("--file", default=None)
    sp.add_argument("--tail", type=int, required=True, help="valuation bound for the tail")
    common(sp, prec=True)
    sp.set_defaults(func=_cmd_weierstrass)

    sp = sub.add_parser("resultant", help="resultant or discriminant")
    sp.add_argument("g")
    sp.add_argument("h", nargs="?", default=None)
    sp.add_argument("--discriminant", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_resultant)

    sp = sub.add_parser("eisenstein", help="Eisenstein criterion")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("poly", nargs="?", default=None)
    sp.add_argument("--file", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_eisenstein)

    sp = sub.add_parser("ramification", help="ramification data")
    ramsub = sp.add_subparsers(dest="ramification_command", required=True)
    spc = ramsub.add_parser("cyclotomic", help="the p^n-th roots of unity instance")
    spc.add_argument("-p", type=int, required=True)
    spc.add_argument("-n", type=int, required=True)
    spc.add_argument("--residual-degree", type=int, default=1)
    common(spc)
    spc.set_defaults(func=_cmd_ramification_cyclotomic)

    sp = sub.add_parser("extensions", help="tame extension counting and classification")
    extsub = sp.add_subparsers(dest="extensions_command", required=True)
    spc = extsub.add_parser("count", help="number of classes with given (e, f)")
    spc.add_argument("-q", type=int, required=True)
    spc.add_argument("-e", type=int, required=True)
    spc.add_argument("-f", type=int, required=True)
    common(spc)
    spc.set_defaults(func=_cmd_extensions_count)
    spc = extsub.add_parser("classify", help="galois/abelian classification of a descriptor")
    spc.add_argument("-q", type=int, required=True)
    spc.add_argument("-e", type=int, required=True)
    spc.add_argument("-f", type=int, required=True)
    spc.add_argument("-r", type=int, required=True)
    common(spc)
    spc.set_defaults(func=_cmd_extensions_classify)

    sp = sub.add_parser("reproduce", help="regenerate the reference tables")
    sp.add_argument("--all", action="store_true")
    sp.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _silence(stream) -> None:
    # the flush at exit writes to the closed pipe again; send it nowhere
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _fail(code: int, message: str) -> int:
    """Report an error on stderr and return its exit code, which stays the
    same when nobody reads stderr any more."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _silence(sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return code
    except BrokenPipeError:
        _silence(sys.stdout)
        return 0
    except InvalidArgumentError as exc:
        return _fail(2, f"error: {exc}")
    except HypothesisFailedError as exc:
        return _fail(3, f"hypothesis failed: {exc}")
    except PrecisionLossError as exc:
        return _fail(4, f"precision loss: {exc}")
    except LocalArithError as exc:
        return _fail(2, f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
