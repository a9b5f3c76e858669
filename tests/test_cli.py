import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from localarith.cli import main
from localarith.formats import (
    format_polynomial,
    parse_polynomial,
    parse_rational,
    polynomial_from_json,
    polynomial_to_json,
)

GOLDEN = Path(__file__).parent / "golden" / "reproduce_all.txt"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormats:
    def test_polynomial_round_trip(self):
        text = "1 + T + 1/2*T^2 - 3*T^5"
        coeffs = parse_polynomial(text)
        assert parse_polynomial(format_polynomial(coeffs)) == coeffs

    def test_polynomial_json_round_trip(self):
        coeffs = parse_polynomial("-1/4 + T^3")
        assert polynomial_from_json(polynomial_to_json(coeffs)) == coeffs

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

    def test_prec_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_PREC", "4")
        code, out, _ = run_cli(
            capsys, "teichmuller", "-p", "5", "2", "--prec", "7", "--format", "json"
        )
        assert json.loads(out)["precision"] == 7


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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "localarith.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0 and proc.stderr == b""

    def test_missing_polynomial_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, "polygon", "-p", "2", "--file", missing)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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


class TestReproduce:
    def test_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--all")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "--all")
        _, second, _ = run_cli(capsys, "reproduce", "--all")
        assert first == second
