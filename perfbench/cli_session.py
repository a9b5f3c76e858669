"""Workload ``cli_session``: the command line, one fresh process per call.

Why: this is how users run the tool.  Each operation is a new
``python -m localarith.cli ...`` process, run one at a time, so
interpreter start and ``import localarith`` make up most of every call
and the kernels do little.  It exercises the import and ``cli`` layers
and largely bypasses kernel work.

Commands are the README subcommands with small arguments, some with
``--format json``, plus ``reproduce --all``.  Each stdout is checked
against the library's in-process answer and an independent check; the
``reproduce --all`` output must equal ``tests/golden/reproduce_all.txt``
byte for byte.  Inputs built to be invalid must exit with their code.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import groups_fields
import lifting
import localarith as la
import localarith.cli
import oracles as o
import small_ops
from harness import START_REFERENCE, Kind
from spans import NullRecorder

RSS_OF_CHILDREN = True  # the CLI processes are what users wait on
REFERENCE = START_REFERENCE  # each operation is a new process

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reproduce_all.txt"
PRECISION = la.DEFAULT_PRECISION  # what the CLI uses without --prec
PRIMES = (3, 5, 7, 11, 13)
PADIC = re.compile(r"^(?:(\d+)\*(\d+)\^(-?\d+) \+ )?O\((\d+)\^(-?\d+)\)")


def _child_env():
    env = dict(os.environ)
    env.pop("PADIC_PREC", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


ENV = _child_env()
NULL = NullRecorder()


class Command:
    __slots__ = ("argv", "code", "verify")

    def __init__(self, argv, verify, code=0):
        self.argv = [str(a) for a in argv]
        self.verify = verify
        self.code = code


def _run(rec, cmd):
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "localarith.cli", *cmd.argv],
        env=ENV,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc, perf_counter() - t0


def _check(rec, cmd, out):
    proc, wall = out
    ok = proc.returncode == cmd.code and cmd.verify(proc.stdout)
    if rec.traced:
        # the same argv in process: the difference is start-up cost
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with rec.span("cli.main"), redirect_stdout(stdout), redirect_stderr(stderr):
            code = localarith.cli.main(list(cmd.argv))
        rec.sample("cli.startup_ms", (wall - (perf_counter() - t0)) * 1000)
        ok = ok and code == proc.returncode and stdout.getvalue() == proc.stdout
    return ok


CLI = Kind("cli", "cli", _run, _check)


# -- formatting inputs and parsing outputs ---------------------------------------------------


def _poly(coeffs) -> str:
    terms = [f"{Fraction(c)}*T^{j}" if j else str(Fraction(c)) for j, c in enumerate(coeffs) if c]
    return " + ".join(terms)


def _padic(text):
    """(unit, valuation, absolute precision) of a printed p-adic value;
    a value known only to be 0 mod p^a prints as O(p^a)."""
    unit, _, v, _, absolute = PADIC.match(text).groups()
    if unit is None:
        return None, int(absolute), int(absolute)
    return int(unit), int(v), int(absolute)


def _same_padic(parsed, value):
    return parsed == (value.unit, value.valuation, value.absolute_precision)


def _json_poly(obj):
    return [Fraction(c) for c in obj["coefficients"]]


# -- the commands -------------------------------------------------------------------------------


def _vp(rng, fmt):
    p = rng.choice((2,) + PRIMES)
    x = small_ops.rational(rng, p, -5, 5)
    k = o.vp(x, p)

    def verify(out):
        text = json.loads(out)["valuation"] if fmt == "json" else out.strip()
        return text == str(k) == str(la.vp_rational(p, x))

    return Command(["vp", "-p", p, x, "--format", fmt], verify)


def _product_formula(rng):
    x, finite = small_ops.product_formula_input(rng)

    def verify(out):
        lines = out.strip().split("\n")
        got = dict(line.split(": ") for line in lines[:-2])
        report = la.product_formula_report(x)
        return (
            lines[-1] == "product: 1"
            and lines[-2] == f"inf: {abs(x)}"
            and {int(k): Fraction(v) for k, v in got.items()} == finite
            and [f"{place}: {a}" for place, a in report.entries] == lines[:-1]
        )

    return Command(["product-formula", x], verify)


def _bernoulli(rng):
    k = rng.randint(1, 40)
    return Command(
        ["bernoulli", k],
        lambda out: Fraction(out.strip()) == small_ops.BERNOULLI[k] == la.bernoulli(k),
    )


def _sqrt(rng):
    p = rng.choice(PRIMES)
    r = rng.randrange(1, p) + p * rng.randint(0, 99)
    x = Fraction(r * r) * Fraction(p) ** (2 * rng.randint(-1, 1))

    def verify(out):
        unit, v, absolute = _padic(out)
        root = Fraction(unit) * Fraction(p) ** v
        expected = la.sqrt(la.PadicNumber.from_rational(p, x, PRECISION))
        return (
            absolute - v == PRECISION
            and o.agree(root * root, x, p, o.vp(x, p) + PRECISION)
            and _same_padic((unit, v, absolute), expected)
        )

    return Command(["sqrt", "-p", p, x], verify)


def _nonsquare(rng):
    p, x, _ = lifting.nonsquare_input(rng, rng.choice(PRIMES), PRECISION)
    return Command(["sqrt", "-p", p, x], lambda out: out == "", code=3)


def _teichmuller(rng):
    p = rng.choice(PRIMES)
    r = rng.randrange(1, p)

    def verify(out):
        unit, v, absolute = _padic(out)
        return (
            v == 0
            and pow(unit, p - 1, p**PRECISION) == 1
            and unit % p == r
            and _same_padic((unit, v, absolute), la.teichmuller(p, r, PRECISION))
        )

    return Command(["teichmuller", "-p", p, r], verify)


def _lift(rng):
    coeffs, a0, p, _ = lifting.lift_input(rng, rng.choice(PRIMES), rng.randint(2, 4), PRECISION)

    def verify(out):
        unit, v, absolute = _padic(out)
        root = Fraction(unit or 0) * Fraction(p) ** v
        return (
            absolute >= PRECISION
            and o.agree(o.peval(coeffs, root), 0, p, PRECISION)
            and o.agree(root, a0, p, 1)
            and _same_padic((unit, v, absolute), la.newton_lift(coeffs, a0, p=p, precision=PRECISION))
        )

    return Command(["lift", "-p", p, "--poly", _poly(coeffs), "--start", a0], verify)


def _polygon(rng):
    p, coeffs = small_ops.polygon_input(rng)

    def verify(out):
        text = out.strip()
        sides = [
            (int(length), Fraction(slope))
            for length, slope in re.findall(r"\((\d+),(-?[\d/]+)\)", text)
        ]
        expected = la.newton_polygon(la.PadicPolynomial(p, coeffs)).sides
        return (
            ";".join(f"({length},{slope})" for length, slope in sides) == text
            and o.is_lower_hull(o.valuation_points(coeffs, p), sides)
            and tuple(sides) == expected
        )

    return Command(["polygon", "-p", p, _poly(coeffs)], verify)


def _slope_factor(rng):
    lengths, slopes = rng.choice((((1, 1), (-1, 1)), ((2, 1), (-1, 0)), ((1, 2), (0, Fraction(1, 2)))))
    p, coeffs, _ = lifting.sided_input(rng, rng.choice((2, 3, 5)), lengths, slopes, PRECISION)

    def verify(out):
        factors = json.loads(out)["factors"]
        got = [(_json_poly(f["factor"]), (f["length"], Fraction(f["slope"]))) for f in factors]
        expected = la.slope_factorization(la.PadicPolynomial(p, coeffs), PRECISION)
        return lifting.check_slope(None, (p, coeffs, PRECISION), [
            (la.PadicPolynomial(p, poly), side) for poly, side in got
        ]) and [(list(f.coefficients), s) for f, s in expected] == got

    return Command(["slope-factor", "-p", p, _poly(coeffs), "--format", "json"], verify)


def _factor_lift(rng):
    inp = lifting.factor_input(rng, rng.choice(PRIMES), rng.randint(1, 2), rng.randint(1, 2), PRECISION)
    p, f, g0, h0, _ = inp

    def verify(out):
        payload = json.loads(out)
        g, h = _json_poly(payload["g"]), _json_poly(payload["h"])
        expected = la.hensel_lift_factors(*(la.PadicPolynomial(p, c) for c in (f, g0, h0)), 0, PRECISION)
        return lifting.check_factors(None, inp, [la.PadicPolynomial(p, g), la.PadicPolynomial(p, h)]) and [
            list(x.coefficients) for x in expected
        ] == [g, h]

    return Command(["factor-lift", "-p", p, "--f", _poly(f), "--g0", _poly(g0), "--h0", _poly(h0), "--format", "json"], verify)


def _weierstrass(rng):
    p, coeffs, tail, _ = lifting.weierstrass_input(rng, rng.choice(PRIMES), 3, 1, PRECISION)
    # the text format drops a zero top coefficient, which would shorten the series
    coeffs = o.trim(coeffs)
    inp = p, coeffs, tail, PRECISION

    def verify(out):
        payload = json.loads(out)
        g, h = _json_poly(payload["g"]), _json_poly(payload["h"])
        eg, eh = la.weierstrass_prepare(la.TruncatedSeries(p, coeffs, tail), PRECISION)
        return (
            lifting.check_weierstrass(None, inp, [la.PadicPolynomial(p, g), la.PadicPolynomial(p, h)])
            and list(eg.coefficients) == g
            and list(eh.coefficients) == h
        )

    return Command(["weierstrass", "-p", p, _poly(coeffs), "--tail", tail, "--format", "json"], verify)


def _resultant(rng):
    g, h, expected = lifting.resultant_input(rng, rng.randint(1, 3), rng.randint(1, 3))
    return Command(
        ["resultant", _poly(g), _poly(h)],
        lambda out: Fraction(out.strip()) == expected == la.resultant(g, h),
    )


def _discriminant(rng):
    g, expected = lifting.discriminant_input(rng, rng.randint(2, 4))
    return Command(
        ["resultant", _poly(g), "--discriminant"],
        lambda out: Fraction(out.strip()) == expected == la.discriminant(g),
    )


def _eisenstein(rng):
    p, coeffs, expected = small_ops.eisenstein_input(rng)
    return Command(
        ["eisenstein", "-p", p, _poly(coeffs)],
        lambda out: out.strip() == str(expected).lower()
        and la.eisenstein_test(la.PadicPolynomial(p, coeffs)) == expected,
    )


def _ff_val(rng):
    inp = small_ops.ff_input(rng)
    q, place, num, den, expected = inp
    return Command(
        ["ff-val", "-q", q, "--place", _poly(place), _poly(num), _poly(den)],
        lambda out: out.strip() == str(expected) == str(small_ops.run_ff(NULL, inp)),
    )


def _weak_approx(rng):
    primes = rng.sample((2, 3, 5, 7, 11), rng.randint(1, 3))
    targets = []
    for p in primes:
        x = Fraction(rng.randint(-99, 99), rng.choice((1, 13, 17, 19)))
        targets.append((p, x, Fraction(1, p ** rng.randint(1, 4))))
    if rng.random() < 0.5:
        targets.append(("inf", Fraction(rng.randint(-999, 999), rng.randint(1, 9)), Fraction(1, 10)))

    def verify(out):
        y = Fraction(out.strip())
        places = [la.RationalPlace.infinite() if p == "inf" else la.RationalPlace.finite(p) for p, _, _ in targets]
        expected = la.weak_approximation([(pl, x, eps) for pl, (_, x, eps) in zip(places, targets)])
        return y == expected and all(
            abs(y - x) < eps if p == "inf" else y == x or Fraction(p) ** -o.vp(y - x, p) < eps
            for p, x, eps in targets
        )

    return Command(["weak-approx"] + [f"{p}:{x}:{eps}" for p, x, eps in targets], verify)


def _ramification(rng, fmt, p=None, n=None):
    if p is None:
        p, n = rng.choice(((2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)))
    different = n * p**n - (n + 1) * p ** (n - 1)
    jumps = groups_fields.lower_jumps(p, n)

    def verify(out):
        if fmt == "json":
            payload = json.loads(out)
            got_different, got_jumps = payload["different_exponent"], tuple(payload["lower_jumps"])
        else:
            lines = dict(line.rsplit(" ", 1) for line in out.strip().split("\n"))
            if lines["order"] != str((p - 1) * p ** (n - 1)):
                return False
            got_different = int(lines["different exponent"])
            got_jumps = tuple(int(u) for u in lines["lower jumps"].split(","))
        report = la.different_discriminant(la.cyclotomic_group(p, n))
        return got_different == different == report.different_exponent and got_jumps == jumps == report.lower_jumps

    return Command(["ramification", "cyclotomic", "-p", p, "-n", n, "--format", fmt], verify)


def _extensions_count(rng):
    q, e, f = groups_fields.tame_input(rng)
    return Command(
        ["extensions", "count", "-q", q, "-e", e, "-f", f],
        lambda out: int(out.strip())
        == la.orbit_count_oracle(math.gcd(e, q**f - 1), q)
        == la.count_tame_extensions(q, e, f),
    )


def _extensions_classify(rng):
    q, e, f, r = groups_fields.classify_input(rng)

    def verify(out):
        payload = json.loads(out)
        expected = la.classify_tame(la.TameExtensionDescriptor(q, e, f, r))
        galois = (q**f - 1) % e == 0 and r * (q - 1) % e == 0
        order = payload["presentation"]["order"] if "presentation" in payload else None
        return (
            payload["galois"] == galois == expected.galois
            and payload["abelian"] == (galois and (q - 1) % e == 0) == expected.abelian
            and order == (e * f if galois else None)
        )

    return Command(["extensions", "classify", "-q", q, "-e", e, "-f", f, "-r", r, "--format", "json"], verify)


def _reproduce(rng):
    golden = GOLDEN.read_text(encoding="utf-8")
    return Command(["reproduce", "--all"], lambda out: out == golden)


def _cycle(rng):
    # ramification -p 3 -n 5 is the largest group allowed here (p^n <= 243);
    # its table check sets the peak memory, so every cycle runs it
    commands = [
        _vp(rng, "text"), _vp(rng, "json"), _product_formula(rng), _bernoulli(rng), _sqrt(rng),
        _nonsquare(rng), _teichmuller(rng), _lift(rng), _polygon(rng), _slope_factor(rng),
        _factor_lift(rng), _weierstrass(rng), _resultant(rng), _discriminant(rng), _eisenstein(rng),
        _ff_val(rng), _weak_approx(rng), _ramification(rng, "text", 3, 5), _ramification(rng, "json"),
        _extensions_count(rng), _extensions_classify(rng), _reproduce(rng),
    ]
    rng.shuffle(commands)
    return [(CLI, cmd) for cmd in commands]


def generate(rng):
    """Every command once, as two cycles of eleven: a worker's share of the
    run is about two such cycles, so runs do not grow by a whole round of
    every command when the machine is a little faster."""
    items = _cycle(rng)
    return [items[:11], items[11:]]
