import argparse
import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cli_outputs
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarith import PadicNumber, sqrt, teichmuller
from localarith.cli import build_parser, main
from localarith.formats import (
    format_polynomial,
    parse_polynomial,
    parse_rational,
    polynomial_from_json,
    polynomial_to_json,
)

from conftest import deadline

GOLDEN = Path(__file__).parent / "golden" / "reproduce_all.txt"
CLI_OUTPUTS = Path(__file__).parent / "golden" / "cli_outputs.txt"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def int_str_digits(limit):
    """The interpreter's int <-> str digit limit set to limit for the body and
    restored after it; nothing happens on an interpreter without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def cli_process(argv, **kwargs):
    """``python -m localarith.cli argv`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "localarith.cli", *argv], env=env, timeout=60, **kwargs
    )


class TestFormats:
    def test_polynomial_round_trip(self):
        text = "1 + T + 1/2*T^2 - 3*T^5"
        coeffs = parse_polynomial(text)
        assert parse_polynomial(format_polynomial(coeffs)) == coeffs

    def test_polynomial_json_round_trip(self):
        coeffs = parse_polynomial("-1/4 + T^3")
        assert polynomial_from_json(polynomial_to_json(coeffs)) == coeffs

    def test_zero_polynomial_formats_as_zero(self):
        assert format_polynomial([]) == format_polynomial([0, 0]) == "0"

    def test_bad_term_rejected(self):
        from localarith.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            parse_polynomial("1 + 2x")


class TestSubcommands:
    def test_bernoulli(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "12")
        assert code == 0 and out.strip() == "-691/2730"

    def test_polygon(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "polygon",
            "-p",
            "2",
            "1 + T + 1/2*T^2 + 1/6*T^3 + 1/24*T^4 + 1/120*T^5 + 1/720*T^6 + 1/5040*T^7",
        )
        assert code == 0 and out.strip() == "(4,-3/4);(2,-1/2);(1,0)"

    def test_polygon_of_a_constant(self, capsys):
        # no sides, printed as "-" like an empty list of jumps, not as an empty line
        code, out, _ = run_cli(capsys, "polygon", "-p", "2", "2")
        assert code == 0 and out == "-\n"

    def test_extensions_count(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "count", "-q", "2", "-e", "3", "-f", "2")
        assert code == 0 and out.strip() == "2"

    def test_vp(self, capsys):
        code, out, _ = run_cli(capsys, "vp", "-p", "2", "12")
        assert code == 0 and out.strip() == "2"

    def test_weak_approx(self, capsys):
        code, out, _ = run_cli(capsys, "weak-approx", "2:1:1/7", "3:0:1/2")
        assert code == 0 and out.strip() == "9"

    def test_padic_eval_negative_rational(self, capsys):
        code, out, _ = run_cli(capsys, "padic", "eval", "-p", "5", "-1/4", "--prec", "6")
        assert code == 0 and "digits 1,1,1,1,1,1" in out

    def test_staudt_clausen(self, capsys):
        code, out, _ = run_cli(capsys, "staudt-clausen", "12")
        assert code == 0
        assert out.strip() == "W=1 denominator=2730 primes=2,3,5,7,13"

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_PREC", "4")
        code, out, _ = run_cli(capsys, "teichmuller", "-p", "5", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["precision"] == 4

    def test_a_precision_env_that_is_no_integer_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_PREC", "4.5")
        code, out, err = run_cli(capsys, "teichmuller", "-p", "5", "2")
        assert code == 2 and out == "" and err == "error: PADIC_PREC='4.5' is not an integer\n"

    def test_zero_results(self, capsys):
        lift = ["lift", "-p", "5", "--poly", "T", "--start", "0"]
        code, out, _ = run_cli(capsys, *lift)
        assert code == 0 and out.strip() == "O(5^32)"
        code, out, _ = run_cli(capsys, *lift, "--format", "json")
        assert code == 0 and json.loads(out) == {"p": 5, "zero_mod": "32"}
        code, out, _ = run_cli(capsys, "padic", "eval", "-p", "5", "0")
        assert code == 0 and out.strip() == "0"
        code, out, _ = run_cli(capsys, "padic", "eval", "-p", "5", "0", "--format", "json")
        assert code == 0 and json.loads(out) == {"p": 5, "zero": True}

    def test_prec_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_PREC", "4")
        code, out, _ = run_cli(
            capsys, "teichmuller", "-p", "5", "2", "--prec", "7", "--format", "json"
        )
        assert json.loads(out)["precision"] == 7

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["sqrt", "-p", "10007", "3"], lambda: sqrt(PadicNumber.from_rational(10007, 3, 4096))),
            (["teichmuller", "-p", "10007", "2"], lambda: teichmuller(10007, 2, 4096)),
            (
                ["padic", "eval", "-p", "10007", "-1/4"],
                lambda: PadicNumber.from_rational(10007, Fraction(-1, 4), 4096),
            ),
        ],
        ids=["sqrt", "teichmuller", "padic-eval"],
    )
    def test_units_past_the_int_string_limit(self, capsys, argv, value, fmt):
        # 16k decimal digits, past the default 4300 of int -> str conversion
        code, out, err = run_cli(capsys, *argv, "--prec", "4096", "--format", fmt)
        x = value()
        unit = str(decimal.Decimal(x.residue(x.precision)))  # whole, without the int -> str limit
        assert code == 0 and err == "" and len(unit) > 4300
        if fmt == "json":
            assert json.loads(out)["unit"] == unit
        else:
            assert out.startswith(f"{unit}*10007^0 + O(10007^4096)  digits ")


class TestExitCodes:
    def test_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, "vp", "-p", "6", "12")
        assert code == 2 and "prime" in err

    def test_hypothesis_failed(self, capsys):
        code, _, err = run_cli(capsys, "sqrt", "-p", "2", "15")
        assert code == 3 and "square" in err

    def test_not_coprime_factors(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "factor-lift",
            "-p",
            "2",
            "--f",
            "1 + T + T^2",
            "--g0",
            "T",
            "--h0",
            "1 + T",
        )
        assert code == 3

    def test_coefficient_not_p_integral(self, capsys):
        code, out, err = run_cli(capsys, *NOT_P_INTEGRAL)
        assert (code, out, err) == (2, "", "error: coefficient 10/3 is not p-integral\n")

    def test_precision_loss(self, capsys):
        code, _, err = run_cli(
            capsys, "weierstrass", "-p", "3", "9 + 3*T + 9*T^2", "--tail", "1"
        )
        assert code == 4

    def test_steep_slope_side(self, capsys):
        code, out, err = run_cli(
            capsys, "slope-factor", "-p", "2", "-1 + T + 1125899906842624*T^2", "--prec", "32"
        )
        assert code == 0 and err == ""
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "length 1 slope 0",
            "length 1 slope 50",
        ]

    def test_place_not_an_integer(self, capsys):
        code, out, err = run_cli(capsys, "weak-approx", "x:1:1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "-p", "7", "--poly", "T^2 - 2", "--start", "3"],
            ["factor-lift", "-p", "7", "--f", "T^2 - 2", "--g0", "T - 3", "--h0", "T + 3"],
            ["slope-factor", "-p", "2", "2 + T + T^3"],
            ["weierstrass", "-p", "3", "3 + T", "--tail", "10"],
        ],
    )
    def test_precision_below_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--prec", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["vp", "-p", "2", "12", "--prec", "5"],
            ["bernoulli", "12", "--prec", "5"],
            ["reproduce", "--all", "--format", "json"],
        ],
    )
    def test_options_the_command_ignores_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["vp", "-p", "2", "12"], ["reproduce", "--all"]])
    def test_closed_stdout_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout fails with EPIPE
        try:
            proc = cli_process(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 0 and proc.stderr == b""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["vp", "-p", "4", "12"], 2),
            (["sqrt", "-p", "2", "15"], 3),
            (["weierstrass", "-p", "3", "9 + 3*T + 9*T^2", "--tail", "1"], 4),
        ],
    )
    def test_closed_stderr_keeps_the_exit_code(self, argv, expected):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the error message cannot be written
        try:
            proc = cli_process(argv, stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == expected and proc.stdout == b""

    def test_missing_polynomial_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "polygon", "-p", "2", "--file", missing)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str digit limit"
    )
    @pytest.mark.parametrize(
        "argv, expected", [(["vp", "-p", "2", "12"], 0), (["vp", "-p", "4", "12"], 2)]
    )
    def test_main_gives_the_caller_its_int_str_digit_limit_back(self, capsys, argv, expected):
        with int_str_digits(4300):
            code, _, _ = run_cli(capsys, *argv)
            assert code == expected and sys.get_int_max_str_digits() == 4300


class TestJsonOutput:
    def test_values_reparse(self, capsys):
        code, out, _ = run_cli(capsys, "product-formula", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        product = Fraction(1)
        for entry in payload["entries"]:
            product *= parse_rational(entry["absolute_value"])
        assert parse_rational(payload["product"]) == 1
        assert product / parse_rational(payload["product"]) == abs(Fraction(12)) / 12

    def test_ramification_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "ramification", "cyclotomic", "-p", "3", "-n", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["different_exponent"] == 9
        assert payload["upper_jumps"] == ["0", "1"]
        assert all(parse_rational(v) >= 0 for v in payload["upper_jumps"])

    def test_polygon_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "polygon", "-p", "2", "2 + T + T^3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["pure"] is False
        sides = [(l, parse_rational(s)) for l, s in payload["type"]]
        assert sum(l for l, _ in sides) == 3


class TestReadmeExamples:
    def test_outputs_match_the_pin(self, monkeypatch):
        monkeypatch.delenv("PADIC_PREC", raising=False)
        assert cli_outputs.render() == CLI_OUTPUTS.read_text()

    def test_every_subcommand_but_reproduce_has_an_example(self):
        covered = {_subcommand(argv) for argv in cli_outputs.examples()}
        assert covered == set(_leaves(build_parser())) - {"reproduce"}

    @pytest.mark.parametrize("argv", [
        ["polygon", "-p", "2"],
        ["slope-factor", "-p", "2", "--prec", "8"],
        ["weierstrass", "-p", "3", "--tail", "9"],
        ["eisenstein", "-p", "2"],
    ], ids=" ".join)
    def test_file_reads_like_the_positional(self, capsys, tmp_path, argv):
        path = tmp_path / "f.txt"
        path.write_text("2 + 6*T + T^3\n")
        for fmt in ("text", "json"):
            _, from_file, _ = run_cli(capsys, *argv, "--file", str(path), "--format", fmt)
            _, positional, _ = run_cli(capsys, *argv, "2 + 6*T + T^3", "--format", fmt)
            assert from_file == positional and from_file.count("\n") >= 1


class TestReproduce:
    def test_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--all")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "--all")
        _, second, _ = run_cli(capsys, "reproduce", "--all")
        assert first == second


# Malformed and edge inputs, with the exit code each must give: 0 success,
# 2 invalid input, 3 hypothesis failed, 4 precision loss.
# a factor lift whose coefficients are not 3-integral, caught as they are reduced
NOT_P_INTEGRAL = [
    "factor-lift", "-p", "3", "--f", "T^2 + 1/3*T + 3*T", "--g0", "T + 1/3", "--h0", "T",
    "--prec", "8",
]

FUZZ_ROWS = [
    (["vp", "-p", "4", "12"], 2),
    (["vp", "-p", "-3", "12"], 2),
    (["vp", "-p", "1", "12"], 2),
    (["vp", "-p", "2", "1/0"], 2),
    (["vp", "-p", "2", ""], 2),
    (["vp", "-p", "2", "2^100000"], 2),
    (["vp", "-p", "2", "0"], 0),
    (["vp", "-p", "1000003", str(1000003**300)], 0),
    (["product-formula", "0"], 2),
    (["product-formula", "abc"], 2),
    (["ff-val", "-q", "6", "--place", "T", "T"], 2),
    (["ff-val", "-q", "4", "--place", "T", "7*T"], 2),
    (["ff-val", "-q", "2", "--place", "T^2+1", "T"], 2),
    (["ff-val", "-q", "2", "--place", "inf", "T", "0"], 2),
    (["ff-val", "-q", "2", "--place", "T", "1/2*T"], 2),
    (["ff-val", "-q", "2", "--place", "T+1", "1 + T^200"], 0),
    (["weak-approx", "2:1"], 2),
    (["weak-approx", "4:1:1/2"], 2),
    (["weak-approx", "2:1:0"], 2),
    (["weak-approx", "inf:1:1/10", "inf:2:1/10"], 2),
    (["bernoulli", "-2"], 2),
    (["bernoulli", "300"], 0),
    (["staudt-clausen", "3"], 2),
    (["staudt-clausen", "0"], 2),
    (["padic", "eval", "-p", "6", "1/2"], 2),
    (["padic", "eval", "-p", "3", "1/3", "--digits", "0"], 2),
    (["padic", "eval", "-p", "3", "1/3", "--prec", "0"], 2),
    (["padic", "eval", "-p", "2", "1/3", "--prec", "2000"], 0),
    (["sqrt", "-p", "2", "15"], 3),
    (["sqrt", "-p", "7", "0"], 2),
    (["sqrt", "-p", "7", "3", "--prec", "-1"], 2),
    (["teichmuller", "-p", "7", "7"], 2),
    (["teichmuller", "-p", "9", "2"], 2),
    (["teichmuller", "-p", "7", "3", "--prec", "500"], 0),
    (["lift", "-p", "7", "--poly", "T^2 - 2", "--start", "1"], 3),
    (["lift", "-p", "7", "--poly", "T^2 - 2", "--start", "1/2"], 2),
    (["lift", "-p", "7", "--poly", "", "--start", "3"], 2),
    (["polygon", "-p", "2", "0"], 2),
    (["polygon", "-p", "2"], 2),
    (["polygon", "-p", "2", ""], 2),
    (["polygon", "-p", "2", "T^"], 2),
    (["polygon", "-p", "2", "1 + T^5000"], 0),
    (["factor-lift", "-p", "7", "--f", "T^2 - 2", "--g0", "T - 3", "--h0", "T - 3"], 3),
    (["factor-lift", "-p", "7", "--f", "", "--g0", "T - 3", "--h0", "T + 3"], 2),
    (NOT_P_INTEGRAL, 2),
    (["slope-factor", "-p", "2", "0"], 2),
    (["slope-factor", "-p", "6", "1 + T"], 2),
    (["weierstrass", "-p", "3", "3 + T", "--tail", "-1"], 4),
    (["weierstrass", "-p", "3", "", "--tail", "5"], 2),
    (["resultant", "T^2 + 1"], 2),
    (["resultant", "", "--discriminant"], 2),
    (["resultant", "1", "--discriminant"], 2),
    (["resultant", "0", "T"], 2),
    (["resultant", "1 + T^40", "2 + T^30"], 0),
    (["eisenstein", "-p", "4", "T^2 + 2"], 2),
    (["eisenstein", "-p", "2", "0"], 2),
    (["ramification", "cyclotomic", "-p", "4", "-n", "2"], 2),
    (["ramification", "cyclotomic", "-p", "2", "-n", "0"], 2),
    (["ramification", "cyclotomic", "-p", "2", "-n", "40"], 2),
    (["ramification", "cyclotomic", "-p", "3", "-n", "2", "--residual-degree", "0"], 2),
    (["extensions", "count", "-q", "6", "-e", "2", "-f", "1"], 2),
    (["extensions", "count", "-q", "3", "-e", "3", "-f", "1"], 2),
    (["extensions", "count", "-q", "3", "-e", "0", "-f", "1"], 2),
    (["extensions", "count", "-q", "7", "-e", "60", "-f", "6"], 0),
    (["extensions", "classify", "-q", "3", "-e", "2", "-f", "1", "-r", "5"], 2),
    (["extensions", "classify", "-q", "1", "-e", "2", "-f", "1", "-r", "0"], 2),
    (["extensions", "classify", "-q", "2", "-e", "255", "-f", "8", "-r", "0"], 0),  # order 2040
    (["reproduce"], 2),
    # a zero denominator in a polynomial, a series over p = 0 or 1, the slope
    # factors of a constant, a degree past formats.MAX_DEGREE, which is
    # rejected before its coefficients are allocated, and a zero tolerance at
    # the infinite place, and a cyclotomic group order far past the bound
    (["polygon", "-p", "3", "T^2+1/0"], 2),
    (["lift", "-p", "7", "--poly", "T^2-2/0", "--start", "3"], 2),
    (["ff-val", "-q", "2", "--place", "T", "T^2+1/0"], 2),
    (["weierstrass", "-p", "1", "T^2+1", "--tail", "0"], 2),
    (["weierstrass", "-p", "0", "T^2+1", "--tail", "0"], 2),
    (["slope-factor", "-p", "11", "2"], 2),
    (["polygon", "-p", "3", "1 + T^999999999"], 2),
    (["weak-approx", "inf:1:0"], 2),
    (["ramification", "cyclotomic", "-p", "2", "-n", "10000000"], 2),
    (["ff-val", "-q", "131072", "--place", "T", "T"], 2),  # past finitefield.MAX_TABLE_ORDER
    # a residual degree whose q^f would take gigabytes: only q^f mod e is computed
    (["extensions", "count", "-q", "2", "-e", "3", "-f", "10000000000"], 0),
    (["extensions", "classify", "-q", "2", "-e", "3", "-f", "10000000000", "-r", "0"], 0),
    # psi_12, the least strong pseudoprime to the 12 prime bases up to 37,
    # psi_13, which passes all 13 bases up to 41 and fails the strong Lucas
    # test, and Bernoulli indices past bernoulli.MAX_BERNOULLI_INDEX, which
    # are rejected before any table is allocated
    (["sqrt", "-p", "318665857834031151167461", "4", "--prec", "2"], 2),
    (["sqrt", "-p", "3317044064679887385961981", "4", "--prec", "2"], 2),
    (["bernoulli", str(10**30)], 2),
    (["staudt-clausen", str(10**30)], 2),
    (["bernoulli", "100000000000"], 2),
    # the prime 2^61 - 1 as a field size and as a rational: it is not trial-divided
    (["extensions", "count", "-q", "2305843009213693951", "-e", "3", "-f", "1"], 0),
    (["extensions", "classify", "-q", "2305843009213693951", "-e", "3", "-f", "1", "-r", "0"], 0),
    (["ff-val", "-q", "2305843009213693951", "--place", "T", "T"], 0),
    (["product-formula", "2305843009213693951"], 0),
    # the prime 2^89 - 1, past psi_13: factoring believes is_prime there too
    (["ff-val", "-q", "618970019642690137449562111", "--place", "T", "T"], 0),
    (["product-formula", "618970019642690137449562111"], 0),
    (["extensions", "count", "-q", "618970019642690137449562111", "-e", "3", "-f", "1"], 0),
    # field sizes psi_12, psi_13 and (2^61 - 1)^2, read by integer roots
    # without factoring: two are no prime power, one is past the table bound
    (["extensions", "count", "-q", "318665857834031151167461", "-e", "3", "-f", "1"], 2),
    (["ff-val", "-q", "3317044064679887385961981", "--place", "T", "T"], 2),
    (["ff-val", "-q", "5316911983139663487003542222693990401", "--place", "T", "T"], 2),
]

# rejected by the argument parser: usage lines, then one error line
PARSER_ROWS = [
    [],
    ["frobnicate"],
    ["padic"],
    ["vp", "-p", "two", "12"],
    ["vp", "-p", "2", "12", "--format", "xml"],
    ["bernoulli", "x"],
    ["extensions", "count", "-q", "3", "-e", "x", "-f", "1"],
]


def _subcommand(argv):
    return " ".join(argv[:2] if argv[0] in ("padic", "ramification", "extensions") else argv[:1])


def _leaves(parser, prefix=()):
    """The subcommand paths of a parser, in the order they were added."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*prefix, name))
            return
    yield " ".join(prefix)


def _first_rows(rows):
    first = {}
    for argv, code in rows:
        first.setdefault(_subcommand(argv), (argv, code))
    return list(first.values())


FIRST_ROWS = _first_rows(FUZZ_ROWS)  # one per subcommand, for a fresh process each


class TestMalformedInput:
    @pytest.mark.parametrize("argv, expected", FUZZ_ROWS, ids=lambda v: str(v)[:60])
    def test_in_process(self, capsys, argv, expected):
        with deadline(5):  # a row that hangs fails
            code, out, err = run_cli(capsys, *argv)
        assert code == expected
        assert "Traceback" not in err
        if code:
            assert out == "" and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("argv", PARSER_ROWS, ids=str)
    def test_parser_rejects(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("localarith") and ": error: " in last

    def test_every_subcommand_has_rows(self):
        assert [_subcommand(argv) for argv, _ in FIRST_ROWS] == list(_leaves(build_parser()))

    # a fresh process imports each handler's modules for the first time; that
    # must not turn an input error into an ImportError or a NameError
    @pytest.mark.parametrize("argv, expected", FIRST_ROWS, ids=lambda v: str(v)[:60])
    def test_in_a_fresh_process(self, argv, expected):
        proc = cli_process(argv, capture_output=True, text=True)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        if expected:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1


# Generated argv: each subcommand's flags and positionals drawn from valid
# tokens, the tokens of FUZZ_ROWS, and strings that int() and Fraction() take
# unexpectedly or not at all.  Precisions stay <= 64 and degrees <= 12, apart
# from the degrees past formats.MAX_DEGREE, which are rejected unbuilt.
# Large tokens: the primes 2^61 - 1 and 2^89 - 1; psi_12 and psi_13, the
# least strong pseudoprimes to the prime bases up to 37 and 41; (2^31 - 1)^2;
# and 10^30.  A field size is read by integer roots, so all of these but
# 10^30 are field sizes too.  psi_12, psi_13 and (2^31 - 1)^2 are not
# rationals yet: each would be trial-divided up to a prime factor past 10^9.
EDGE = ["", "+5", "\u0663", "\uff17"]  # ARABIC-INDIC THREE, FULLWIDTH SEVEN
M61, PSI_12, PSI_13 = str(2**61 - 1), "318665857834031151167461", "3317044064679887385961981"
M89, M31_SQUARED = str(2**89 - 1), str((2**31 - 1) ** 2)
INTS = ["0", "1", "2", "3", "12", "-1", "-2", "1_00", "1_000", str(10**30), *EDGE]
PRIMES = [
    "2", "3", "7", "11", "0", "1", "4", "6", "-3", "1000003", "1_000",
    M61, PSI_12, PSI_13, M31_SQUARED, *EDGE,
]
FIELD_SIZES = [
    "2", "3", "4", "5", "7", "9", "1", "6", "1_000", "131072",
    M61, M89, PSI_12, PSI_13, M31_SQUARED, *EDGE,
]
PRECS = ["1", "2", "8", "64", "0", "-1", *EDGE]
RATIONALS = [
    "0", "1", "12", "15", "-1/4", "1/3", "1/2", "1/0", "abc", "2^100000", "1_000", M61, *EDGE,
]
POLYS = [
    "T^2 + 1", "T^2 - 2", "T^2 + 2", "3 + T", "1 + T", "T - 3", "T + 3", "-T^2 + 1",
    "-1 + T + 4*T^2", "7 + 14*T + T^2", "1/2*T^12 - 3", "1 + T + 1/2*T^2 + 1/6*T^3",
    "T", "0", "2", "", "T^", "2x", "T^2+1/0", "T^2-2/0", "1 + T^10001", "T^999999999",
    "1_000*T + 1", "+5*T^3 + 7", "T^\u0663 + 2",
]
PLACES = ["T", "T+1", "T^2+T+1", "inf", "T^2+1", "7*T", "1/2*T", "T^2+1/0", ""]
TARGETS = [
    f"{place}:{x}:{eps}"
    for place in ("2", "3", "inf", "4")
    for x in ("1", "-1/4", "0")
    for eps in ("1/2", "1/10", "0")
] + ["2:1", "", "+5:1_000:1/\u0663"]

# (subcommand, required slots, optional slots); a slot is (flag or None for a
# positional, its token pool or None for a bare flag)
ARGV_GRAMMAR = [
    (["vp"], [("-p", PRIMES), (None, RATIONALS)], []),
    (["product-formula"], [(None, RATIONALS)], []),
    (["ff-val"], [("-q", FIELD_SIZES), ("--place", PLACES), (None, POLYS)], [(None, POLYS)]),
    (["weak-approx"], [(None, TARGETS)], [(None, TARGETS), (None, TARGETS)]),
    (["bernoulli"], [(None, INTS)], []),
    (["staudt-clausen"], [(None, INTS)], []),
    (
        ["padic", "eval"],
        [("-p", PRIMES), (None, RATIONALS)],
        [("--digits", INTS), ("--prec", PRECS)],
    ),
    (["sqrt"], [("-p", PRIMES), (None, RATIONALS)], [("--prec", PRECS)]),
    (["teichmuller"], [("-p", PRIMES), (None, INTS)], [("--prec", PRECS)]),
    (["lift"], [("-p", PRIMES), ("--poly", POLYS), ("--start", RATIONALS)], [("--prec", PRECS)]),
    (["polygon"], [("-p", PRIMES), (None, POLYS)], []),
    (
        ["factor-lift"],
        [("-p", PRIMES), ("--f", POLYS), ("--g0", POLYS), ("--h0", POLYS)],
        [("--alpha", INTS), ("--prec", PRECS)],
    ),
    (["slope-factor"], [("-p", PRIMES), (None, POLYS)], [("--prec", PRECS)]),
    (["weierstrass"], [("-p", PRIMES), (None, POLYS), ("--tail", INTS)], [("--prec", PRECS)]),
    (["resultant"], [(None, POLYS)], [(None, POLYS), ("--discriminant", None)]),
    (["eisenstein"], [("-p", PRIMES), (None, POLYS)], []),
    (
        ["ramification", "cyclotomic"],
        [("-p", PRIMES), ("-n", [*INTS, "10000000"])],
        [("--residual-degree", INTS)],
    ),
    (["extensions", "count"], [("-q", FIELD_SIZES), ("-e", INTS), ("-f", INTS)], []),
    (
        ["extensions", "classify"],
        [("-q", FIELD_SIZES), ("-e", INTS), ("-f", INTS), ("-r", INTS)],
        [],
    ),
    (["reproduce"], [], [("--all", None)]),
]


@st.composite
def generated_argv(draw):
    words, required, optional = draw(st.sampled_from(ARGV_GRAMMAR))
    slots = required + [slot for slot in optional if draw(st.booleans())]
    if words != ["reproduce"] and draw(st.booleans()):
        slots.append(("--format", ["text", "json"]))
    argv = list(words)
    for flag, pool in slots:
        argv += [flag] if flag else []
        argv += [draw(st.sampled_from(pool))] if pool else []
    return argv


class TestGeneratedArgv:
    def test_grammar_covers_every_subcommand(self):
        assert [" ".join(words) for words, _, _ in ARGV_GRAMMAR] == list(_leaves(build_parser()))

    @given(generated_argv())
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the argument parser's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue().strip()
