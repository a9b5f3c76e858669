"""Command-line frontend.

Every library module is exposed as a subcommand with text and JSON
output; ``reproduce --all`` regenerates the built-in reference tables
(Bernoulli numbers, the degree-7 exponential polygon over Q_2,
cyclotomic ramification data, tame extension counts) deterministically.

Exit codes: 0 success, 2 invalid input, 3 hypothesis failed,
4 precision loss.

A subcommand is wired in two places.  Its handler ``_cmd_<name>(args)``
returns ``(text, payload)``, and ``run`` prints the text or, under
``--format json``, the payload as sorted JSON; ``reproduce`` has no
``--format`` and returns its text alone.  In ``build_parser`` one
``command(...)`` call attaches the handler and the flags the subcommand
shares with others (-p, the polynomial positional with --file, --format,
--prec); the lines after it add the subcommand's own arguments.

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


def _read_poly_arg(args) -> list[Fraction]:
    if args.file:
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
        return repr(x), {"p": x.p, "zero_mod": str(x.valuation)}
    digits = expansion(x, min(digit_count, x.precision))
    text = repr(x)  # it starts with the unit's digits: int -> str is quadratic, so run it once
    payload = {
        "p": x.p,
        "valuation": str(x.valuation),
        "unit": text[: text.index("*")],
        "precision": x.precision,
        "digits": list(digits.digits),
        "digits_from": digits.start,
    }
    return f"{text}  digits {digits} ...", payload


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


def _cmd_vp(args) -> tuple[str, dict]:
    from .valuations import vp_rational

    v = vp_rational(args.p, parse_rational(args.x))
    text = "inf" if v == INFINITY else str(v)
    return text, {"p": args.p, "x": args.x, "valuation": text}


def _cmd_product_formula(args) -> tuple[str, dict]:
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
    return "\n".join(lines), payload


def _cmd_ff_val(args) -> tuple[str, dict]:
    from .valuations import FunctionFieldPlace, ff_valuation

    num = _parse_ff_poly(args.q, args.num)
    den = _parse_ff_poly(args.q, args.den) if args.den else None
    if args.place == "inf":
        place = FunctionFieldPlace.infinite(args.q)
    else:
        place = FunctionFieldPlace.finite(_parse_ff_poly(args.q, args.place))
    v = ff_valuation(place, num, den)
    text = "inf" if v == INFINITY else str(v)
    return text, {"q": args.q, "place": str(place), "valuation": text}


def _cmd_weak_approx(args) -> tuple[str, dict]:
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
    return format_rational(y), {"y": format_rational(y)}


def _cmd_bernoulli(args) -> tuple[str, dict]:
    from .bernoulli import bernoulli

    b = bernoulli(args.k)
    return format_rational(b), {"k": args.k, "value": format_rational(b)}


def _cmd_staudt_clausen(args) -> tuple[str, dict]:
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
    return text, payload


def _cmd_padic_eval(args) -> tuple[str, dict]:
    from .padic import PadicNumber

    x = PadicNumber.from_rational(args.p, parse_rational(args.x), _default_precision(args))
    return _describe_padic(x, args.digits)


def _cmd_sqrt(args) -> tuple[str, dict]:
    from .padic import PadicNumber, sqrt

    x = PadicNumber.from_rational(args.p, parse_rational(args.x), _default_precision(args))
    return _describe_padic(sqrt(x))


def _cmd_teichmuller(args) -> tuple[str, dict]:
    from .padic import teichmuller

    return _describe_padic(teichmuller(args.p, args.residue, _default_precision(args)))


def _cmd_lift(args) -> tuple[str, dict]:
    from .padic import newton_lift

    coeffs = parse_polynomial(args.poly)
    start = parse_rational(args.start)
    if start.denominator != 1:
        raise InvalidArgumentError("the starting point must be an integer")
    root = newton_lift(coeffs, int(start), p=args.p, precision=_default_precision(args))
    return _describe_padic(root)


def _format_sides(sides) -> str:
    return ";".join(f"({l},{format_rational(s)})" for l, s in sides)


def _cmd_polygon(args) -> tuple[str, dict]:
    from .polynomials import PadicPolynomial, newton_polygon

    f = PadicPolynomial(args.p, _read_poly_arg(args))
    polygon = newton_polygon(f)
    text = _format_sides(polygon.sides) or "-"  # a constant has no sides
    payload = {
        "type": [[l, format_rational(s)] for l, s in polygon.sides],
        "vertices": [[x, format_rational(y)] for x, y in polygon.vertices],
        "pure": polygon.is_pure,
    }
    return text, payload


def _cmd_factor_lift(args) -> tuple[str, dict]:
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
    return text, payload


def _cmd_slope_factor(args) -> tuple[str, dict]:
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
    return "\n".join(lines), {"factors": payload_factors}


def _cmd_weierstrass(args) -> tuple[str, dict]:
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
    return text, payload


def _cmd_resultant(args) -> tuple[str, dict]:
    from .polynomials import discriminant, resultant

    g = parse_polynomial(args.g)
    if args.discriminant:
        r = discriminant(g)
    else:
        if args.h is None:
            raise InvalidArgumentError("a second polynomial is required")
        r = resultant(g, parse_polynomial(args.h))
    return format_rational(r), {"value": format_rational(r)}


def _cmd_eisenstein(args) -> tuple[str, dict]:
    from .polynomials import PadicPolynomial, eisenstein_test

    f = PadicPolynomial(args.p, _read_poly_arg(args))
    ok = eisenstein_test(f)
    return "true" if ok else "false", {"eisenstein": ok}


def _cmd_ramification_cyclotomic(args) -> tuple[str, dict]:
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
    payload = {
        "lower_jumps": list(report.lower_jumps),
        "upper_jumps": [format_rational(v) for v in report.upper_jumps],
        "segment_orders": list(report.segment_orders),
        "different_exponent": report.different_exponent,
        "discriminant_exponent": report.discriminant_exponent,
        "residual_degree": report.residual_degree,
    }
    return text, payload


def _cmd_extensions_count(args) -> tuple[str, dict]:
    from .extensions import count_tame_extensions

    c = count_tame_extensions(args.q, args.e, args.f)
    return str(c), {"q": args.q, "e": args.e, "f": args.f, "count": c}


def _cmd_extensions_classify(args) -> tuple[str, dict]:
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
    return "\n".join(lines), payload


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


def _cmd_reproduce(args) -> str:
    if not args.all:
        raise InvalidArgumentError("nothing to reproduce: pass --all")
    return "\n".join(reproduce_lines())


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
    leaves = []  # (subcommand, reads --prec)

    def command(group, name, func, help, *, p=False, poly=False, prec=False, formats=True):
        """The subcommand ``name`` of ``group``, run by ``func``, with the shared
        flags it asks for: -p, the polynomial (positional or --file; a string
        ``poly`` is the positional's help), --format unless ``formats`` is
        false, and --prec."""
        sp = group.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if p:
            sp.add_argument("-p", type=int, required=True)
        if poly:
            sp.add_argument("poly", nargs="?", default=None,
                            help=None if poly is True else poly)
            sp.add_argument("--file", default=None)
        if formats:
            leaves.append((sp, prec))
        return sp

    sp = command(sub, "vp", _cmd_vp, "p-adic valuation of a rational", p=True)
    sp.add_argument("x")

    sp = command(sub, "product-formula", _cmd_product_formula,
                 "normalized absolute values of a rational")
    sp.add_argument("x")

    sp = command(sub, "ff-val", _cmd_ff_val, "valuation on GF(q)(T)")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("--place", required=True, help="'inf' or a monic irreducible")
    sp.add_argument("num")
    sp.add_argument("den", nargs="?", default=None)

    sp = command(sub, "weak-approx", _cmd_weak_approx,
                 "simultaneous approximation at several places")
    sp.add_argument("target", nargs="+", help="place:value:epsilon, place 'inf' or a prime")

    sp = command(sub, "bernoulli", _cmd_bernoulli, "exact Bernoulli number")
    sp.add_argument("k", type=int)

    sp = command(sub, "staudt-clausen", _cmd_staudt_clausen, "integrality decomposition of B_k")
    sp.add_argument("k", type=int)

    sp = sub.add_parser("padic", help="p-adic evaluation")
    padsub = sp.add_subparsers(dest="padic_command", required=True)
    sp = command(padsub, "eval", _cmd_padic_eval,
                 "evaluate a rational p-adically", p=True, prec=True)
    sp.add_argument("x")
    sp.add_argument("--digits", type=int, default=10)

    sp = command(sub, "sqrt", _cmd_sqrt, "square root in Q_p", p=True, prec=True)
    sp.add_argument("x")

    sp = command(sub, "teichmuller", _cmd_teichmuller,
                 "multiplicative lift of a residue", p=True, prec=True)
    sp.add_argument("residue", type=int)

    sp = command(sub, "lift", _cmd_lift, "Newton root lifting", p=True, prec=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--start", required=True)

    command(sub, "polygon", _cmd_polygon, "Newton polygon of a polynomial", p=True, poly=True)

    sp = command(sub, "factor-lift", _cmd_factor_lift,
                 "lift an approximate factorization", p=True, prec=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g0", required=True)
    sp.add_argument("--h0", required=True)
    sp.add_argument("--alpha", type=int, default=0)

    command(sub, "slope-factor", _cmd_slope_factor,
            "factor by Newton polygon slopes", p=True, poly=True, prec=True)

    sp = command(sub, "weierstrass", _cmd_weierstrass,
                 "Weierstrass preparation of a truncated series",
                 p=True, poly="stored coefficients as a polynomial", prec=True)
    sp.add_argument("--tail", type=int, required=True, help="valuation bound for the tail")

    sp = command(sub, "resultant", _cmd_resultant, "resultant or discriminant")
    sp.add_argument("g")
    sp.add_argument("h", nargs="?", default=None)
    sp.add_argument("--discriminant", action="store_true")

    command(sub, "eisenstein", _cmd_eisenstein, "Eisenstein criterion", p=True, poly=True)

    sp = sub.add_parser("ramification", help="ramification data")
    ramsub = sp.add_subparsers(dest="ramification_command", required=True)
    sp = command(ramsub, "cyclotomic", _cmd_ramification_cyclotomic,
                 "the p^n-th roots of unity instance", p=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--residual-degree", type=int, default=1)

    sp = sub.add_parser("extensions", help="tame extension counting and classification")
    extsub = sp.add_subparsers(dest="extensions_command", required=True)
    sp = command(extsub, "count", _cmd_extensions_count, "number of classes with given (e, f)")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("-e", type=int, required=True)
    sp.add_argument("-f", type=int, required=True)
    sp = command(extsub, "classify", _cmd_extensions_classify,
                 "galois/abelian classification of a descriptor")
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("-e", type=int, required=True)
    sp.add_argument("-f", type=int, required=True)
    sp.add_argument("-r", type=int, required=True)

    sp = command(sub, "reproduce", _cmd_reproduce,
                 "regenerate the reference tables", formats=False)
    sp.add_argument("--all", action="store_true")

    # last, so that usage lines list them after each command's own options
    for sp, prec in leaves:
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if prec:
            sp.add_argument("--prec", type=int, default=None, help="relative precision in digits")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.func(args)
    if isinstance(out, tuple):  # every command but reproduce
        text, payload = out
        out = json.dumps(payload, sort_keys=True) if args.format == "json" else text
    print(out)
    return 0


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
    # print residues past 4300 digits whole, then give an in-process caller its limit back
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = run(argv)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return code
    except BrokenPipeError:
        _silence(sys.stdout)
        return 0
    except HypothesisFailedError as exc:
        return _fail(3, f"hypothesis failed: {exc}")
    except PrecisionLossError as exc:
        return _fail(4, f"precision loss: {exc}")
    except LocalArithError as exc:
        return _fail(2, f"error: {exc}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
