"""Command-line interface: grammars, formats, exit codes, round-trips."""

import json
import math
import os
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

import envasym
from envasym import cli, coeffs, demo, verify
from envasym.cli import run_cli
from envasym.precision import MIN_PRECISION, PRECISION_ENV_VAR, decimal_digits
from envasym.series import INDEX_CAP


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffsCommand:
    def test_csv_reproduces_published_column(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--family", "beta-tilde", "--max-k", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8  # header + 7 rows
        assert lines[-1].endswith("5461/425984")

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--family", "beta", "--max-k", "2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        rows = record["result"]["rows"]
        assert [r["fraction"] for r in rows] == ["1/12", "1/360", "1/1260"]

    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--family", "beta-hat", "--max-k", "0",
            "--format", "plain",
        )
        assert code == 0
        assert out.strip() == "beta-hat(0) = 1/24"

    def test_digits_past_the_int_to_str_limit_exit_2(self, capsys):
        # beta(230) has 672 digits; 640 is the lowest limit Python allows.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "coeffs", "--family", "beta", "--max-k", "240")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "limit of 640" in err
        assert "Traceback" not in err

    def test_stops_at_the_first_row_past_the_int_to_str_limit(self, capsys, monkeypatch):
        # beta(223) is the first row with more than 640 digits
        beta = coeffs.COEFFICIENT_FAMILIES["beta"]
        seen = []

        def counted(k):
            seen.append(k)
            return beta(k)

        monkeypatch.setitem(coeffs.COEFFICIENT_FAMILIES, "beta", counted)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "coeffs", "--family", "beta", "--max-k", "600")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert not out
        assert err.startswith("error: beta(223) has more decimal digits")
        assert max(seen) == 223

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeffs", "--family", "gamma", "--max-k", "3")
        assert code == 1
        assert err


class TestEvalCommand:
    def test_central_binomial_encloses_exact_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--series", "central-binom", "--z", "10",
            "--tol", "1e-8", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        result = record["result"]
        with mp.workprec(300):
            truth = mp.log(184756)
            value = mpf(result["value"])
            bound = mpf(result["error_bound"])
            assert value - bound <= truth <= value + bound
            assert mpf(result["lo"]) <= truth <= mpf(result["hi"])
        assert record["params"]["series"] == "central-binom"
        assert record["precision"] == 256

    def test_negative_terms_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--series", "binet", "--z", "3", "--terms", "-1"
        )
        assert code == 1
        assert not out
        assert err == "error: --terms must be >= 0\n"

    def test_unattainable_tolerance_exits_2_naming_best_bound(self, capsys):
        code, out, err = run(
            capsys, "eval", "--series", "binet", "--z", "1", "--tol", "1e-30"
        )
        assert code == 2
        assert not out
        assert "best" in err
        assert "0.0005952" in err  # 1/1680, the smallest term at z = 1

    def test_unattainable_tolerance_at_20000_bits_exits_2(self, capsys):
        # printing the 20,000-bit tolerance and bound in full passed Python's
        # 4,300-digit limit on int-to-str conversion: a traceback, exit 1
        code, out, err = run(capsys, "eval", "--series", "binet", "--z", "7.3",
                             "--tol", "1e-5000", "--precision", "20000")
        assert code == 2
        assert not out
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: tolerance 1.0e-5000 is below the accuracy floor")
        assert lines[1].startswith("best_bound: 1.42164637376")
        assert lines[1].endswith("(at k = 23)")

    def test_index_above_the_cap_exits_2_at_once(self, capsys):
        # The minimum-term index at z = 1000 is about 3142; the float guess
        # rejects it before any coefficient is built.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "eval", "--series", "binet", "--z", "1000", "--tol", "1e-5000"
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert not out
        assert f"cap of {INDEX_CAP}" in err

    @pytest.mark.parametrize("command", ["eval", "bound"])
    def test_terms_above_the_cap_exit_1_before_any_coefficient_is_built(
            self, capsys, monkeypatch, command):
        # cold, eval --series binet --z 7.3 --terms 3000 ran for 70 s
        calls = []
        for family, build in coeffs.COEFFICIENT_FAMILIES.items():
            monkeypatch.setitem(coeffs.COEFFICIENT_FAMILIES, family,
                                lambda j, build=build: calls.append(j) or build(j))
        code, out, err = run(capsys, command, "--series", "binet", "--z", "7.3",
                             "--terms", str(INDEX_CAP + 1))
        assert (code, out, calls) == (1, "", [])
        assert err == f"error: --terms must be <= {INDEX_CAP}, got {INDEX_CAP + 1}\n"

    def test_decides_on_the_argument_as_typed(self, capsys):
        # sqrt(beta(6)/beta(5)) - 1e-35: the terms turn at k = 5, but the
        # 96-bit rounding of this decimal lies past the turn, where k = 6.
        code, out, err = run(
            capsys, "eval", "--series", "binet",
            "--z", "1.828382122721058102987729815173610049198637433",
            "--tol", "1e-30", "--precision", "64",
        )
        assert code == 2
        assert not out
        assert "at k = 5" in err

    @pytest.mark.parametrize("z, tol", [("20.5", "1e-100001"), ("1e100001", "1e-5")])
    def test_decimal_exponent_out_of_range_exits_2(self, capsys, z, tol):
        code, out, err = run(capsys, "eval", "--series", "binet", "--z", z, "--tol", tol)
        assert code == 2
        assert not out
        assert err.count("\n") == 1
        assert "between -100000 and 100000" in err

    @pytest.mark.parametrize("command", ["eval", "bound"])
    def test_the_exponent_range_holds_with_terms_too(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--series", "binet", "--z", "1e100001",
                             "--terms", "2")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "between -100000 and 100000" in err

    def test_terms_and_tol_conflict_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--series", "binet", "--z", "5",
            "--tol", "1e-6", "--terms", "3",
        )
        assert code == 1

    def test_non_integer_argument_for_integer_series_exits_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "--series", "demoivre", "--z", "2.5", "--tol", "1e-4"
        )
        assert code == 2
        assert "integer" in err

    def test_integer_series_error_echoes_the_argument_as_typed(self, capsys):
        code, _, err = run(capsys, "eval", "--series", "central-binom", "--z", "1e3")
        assert code == 2
        assert err == "error: n must be a positive integer, got '1e3'\n"

    def test_nonpositive_argument_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--series", "binet", "--z", "-3")
        assert code == 2

    def test_malformed_argument_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--series", "binet", "--z", "abc")
        assert code == 1

    def test_fixed_terms_mode(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--series", "gamma-half", "--z", "5", "--terms", "2",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["k_used"] == 2
        assert record["result"]["error_sign"] == -1

    def test_value_rendered_at_full_precision(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--series", "binet", "--z", "7", "--tol", "1e-10",
            "--precision", "256", "--format", "json",
        )
        record = json.loads(out)
        digits = sum(c.isdigit() for c in record["result"]["value"])
        assert digits >= decimal_digits(256)


class TestBoundCommand:
    def test_envelope_record(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--series", "central-binom", "--z", "10", "--terms", "1",
            "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        with mp.workprec(300):
            truth = mp.log(184756) - (10 * mp.log(4) - mp.log(10 * mp.pi) / 2)
            assert mpf(result["lo"]) <= truth <= mpf(result["hi"])
        assert result["k_used"] == 1

    def test_csv_single_row(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--series", "binet", "--z", "2", "--terms", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("command,precision,format_version,series")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--family", "beta", "--max-k", "4"],
            ["eval", "--series", "binet", "--z", "5", "--tol", "1e-9"],
            ["eval", "--series", "demoivre", "--z", "6", "--terms", "2"],
            ["bound", "--series", "gamma-half", "--z", "5", "--terms", "2"],
            ["demo", "--b", "1", "--x-from", "9", "--x-to", "11", "--steps", "3",
             "--k-max", "2"],
        ],
    )
    def test_json_reserializes_byte_identically(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out.endswith("\n")
        payload = out[:-1]
        assert json.dumps(json.loads(payload)) == payload


class TestVerifyCommand:
    def test_passes_and_prints_per_check_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "plain")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        assert sum("PASS" in line for line in lines) >= 10
        assert lines[-1].startswith("PASS overall")

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["result"]["passed"] is True
        names = {c["name"] for c in record["result"]["checks"]}
        assert {"coefficient-quadrature", "theta-containment", "bracketing-grid"} <= names

    def test_deep_widens_grids(self, capsys):
        # precision forced down to keep the test quick; grid widening is the
        # point, the 512-bit default path is exercised by `verify --deep`
        code, out, _ = run(
            capsys, "verify", "--deep", "--precision", "256", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["precision"] == 256
        assert record["result"]["passed"] is True
        grid_detail = next(
            c["detail"] for c in record["result"]["checks"]
            if c["name"] == "bracketing-grid"
        )
        assert "286 containment checks" in grid_detail

    # At 64 bits every agreement check's gate, 8 times the quadrature floor
    # 2**(32-P), is 2**-29, far above the unit roundoff.  At 80 and
    # 82 bits (and 116 and 118 when deep) a quadrature truth for Binet's
    # function once had an error estimate as large as the enclosure's
    # rounding margin.
    @pytest.mark.parametrize("deep, precision", [
        (False, MIN_PRECISION), (True, MIN_PRECISION),
        (False, 80), (False, 82), (True, 80), (True, 82), (True, 116), (True, 118),
    ])
    def test_passes_at_the_minimum_precision(self, deep, precision):
        results = verify.run_verification(deep=deep, precision=precision)
        assert [(r.name, r.detail) for r in results if not r.passed] == []


class TestDemoCommand:
    def test_default_invocation_reports_witness_and_clean_control(self, capsys):
        code, out, _ = run(capsys, "demo", "--b", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        witness = record["result"]["witness"]
        assert witness is not None
        assert witness["mode"] == "magnitude_exceeded"
        assert record["result"]["control_witnesses"] == 0
        assert record["params"] == {
            "b": "1", "x_from": "5", "x_to": "20", "steps": 16, "k_max": 5,
        }

    def test_bad_rate_exits_2(self, capsys):
        code, _, err = run(capsys, "demo", "--b", "9")
        assert code == 2
        assert err == "error: decay rate must lie strictly inside (0, 2*pi), got '9'\n"

    def test_complex_rate_exits_2_with_one_line(self, capsys):
        code, out, err = run(capsys, "demo", "--b", "2j", "--steps", "2")
        assert code == 2
        assert out == ""
        assert err == "error: decay rate must lie strictly inside (0, 2*pi), got '2j'\n"

    @pytest.mark.parametrize("steps", [cli.DEMO_STEPS_CAP + 1, 10**12])
    def test_steps_above_the_cap_exit_1_before_the_grid_is_built(self, capsys, monkeypatch,
                                                                 steps):
        # --steps 100000 used to scan for about 17 minutes, after building
        # every grid point
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(cli, "exact", no_grid)
        monkeypatch.setattr(demo, "binet_J", no_grid)
        code, out, err = run(capsys, "demo", "--b", "1", "--steps", str(steps))
        assert (code, out) == (1, "")
        assert err == f"error: --steps must be <= {cli.DEMO_STEPS_CAP}, got {steps}\n"

    def test_the_steps_cap_is_in_the_help(self, capsys):
        code, out, _ = run(capsys, "demo", "--help")
        assert code == 0
        assert f"1 to {cli.DEMO_STEPS_CAP}" in out

    @pytest.mark.parametrize("k_max", [INDEX_CAP + 1, 10**12])
    def test_k_max_above_the_cap_exit_1_before_the_grid_is_built(self, capsys, monkeypatch,
                                                                 k_max):
        # --steps 1 --k-max 3000 at 64 bits ran for more than 20 s, building
        # the coefficients up to k = 3000
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(cli, "exact", no_grid)
        monkeypatch.setattr(demo, "binet_J", no_grid)
        code, out, err = run(capsys, "demo", "--b", "1", "--steps", "1",
                             "--k-max", str(k_max))
        assert (code, out) == (1, "")
        assert err == f"error: --k-max must be <= {INDEX_CAP}, got {k_max}\n"

    def test_the_k_max_cap_is_in_the_help(self, capsys):
        code, out, _ = run(capsys, "demo", "--help")
        assert code == 0
        assert f"truncation index, 1 to {INDEX_CAP}" in " ".join(out.split())

    def test_no_witness_is_reported_in_plain_format(self, capsys):
        code, out, _ = run(capsys, "demo", "--b", "6", "--steps", "1", "--k-max", "1",
                           "--precision", "64", "--format", "plain")
        assert code == 0
        assert out.splitlines()[2:] == ["no violation witness found on this grid",
                                        "control scan witnesses (unperturbed): 0"]

    @pytest.mark.parametrize("flag", ["--x-from", "--x-to"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_endpoint_exits_2_before_any_quadrature(self, capsys, monkeypatch,
                                                         flag, value):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(demo, "binet_J", no_quadrature)
        code, out, err = run(capsys, "demo", "--b", "1", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be a finite real > 0, got {value!r}\n"


class TestPrecisionPlumbing:
    def test_env_var_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "128")
        code, out, _ = run(
            capsys, "eval", "--series", "binet", "--z", "4", "--tol", "1e-6",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["precision"] == 128

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "128")
        code, out, _ = run(
            capsys, "eval", "--series", "binet", "--z", "4", "--tol", "1e-6",
            "--precision", "192", "--format", "json",
        )
        assert json.loads(out)["precision"] == 192

    def test_garbage_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "lots")
        code, _, err = run(capsys, "eval", "--series", "binet", "--z", "4")
        assert code == 1
        assert PRECISION_ENV_VAR in err

    @pytest.mark.parametrize("flags, env, expected", [
        ([], None, 256),
        (["--deep"], None, 512),
        ([], "128", 128),
        (["--deep"], "128", 128),
        (["--deep", "--precision", "192"], "128", 192),
        (["--precision", "32"], None, None),
        ([], "32", None),
    ])
    def test_verify_precision_precedence(self, capsys, monkeypatch, flags, env, expected):
        seen = []

        def fake_run(deep, precision):
            seen.append(precision)
            return [verify.CheckResult("one", True, "ok")]

        monkeypatch.setattr(verify, "run_verification", fake_run)
        if env is None:
            monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(PRECISION_ENV_VAR, env)
        code, out, _ = run(capsys, "verify", *flags, "--format", "json")
        if expected is None:
            assert (code, seen) == (1, [])
        else:
            assert (code, seen) == (0, [expected])
            assert json.loads(out)["precision"] == expected

    def test_too_small_precision_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--series", "binet", "--z", "4", "--precision", "32"
        )
        assert code == 1


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "coeffs", "--family", "beta", "--wat", "1")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "bound", "--series", "binet", "--z", "2")[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "coeffs" in out and "verify" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--help")
        assert code == 0
        assert "--tol" in out

    @pytest.mark.parametrize("env, argv, message", [
        (None, ["coeffs", "--family", "beta", "--max-k", "-1"], "--max-k must be >= 0"),
        (None, ["eval", "--series", "binet", "--z", "3", "--terms", "-1"],
         "--terms must be >= 0"),
        (None, ["bound", "--series", "binet", "--z", "3", "--terms", "-1"],
         "--terms must be >= 0"),
        (None, ["eval", "--series", "binet", "--z", "3", "--terms", "1001"],
         "--terms must be <= 1000, got 1001"),
        (None, ["bound", "--series", "binet", "--z", "3", "--terms", "1001"],
         "--terms must be <= 1000, got 1001"),
        (None, ["demo", "--b", "1", "--steps", "0"], "--steps must be >= 1"),
        (None, ["demo", "--b", "1", "--steps", "1001"], "--steps must be <= 1000, got 1001"),
        (None, ["demo", "--b", "1", "--k-max", "0"], "--k-max must be >= 1"),
        (None, ["demo", "--b", "1", "--k-max", "1001"], "--k-max must be <= 1000, got 1001"),
        (None, ["eval", "--series", "binet", "--z", "3", "--precision", "32"],
         f"--precision must be >= {MIN_PRECISION}"),
        ("lots", ["eval", "--series", "binet", "--z", "3"],
         f"{PRECISION_ENV_VAR} must be an integer number of bits, got 'lots'"),
        ("32", ["verify"], f"{PRECISION_ENV_VAR} must be >= {MIN_PRECISION}"),
        # every command resolves the precision first, coeffs too, which has no flag
        ("lots", ["coeffs", "--family", "beta", "--max-k", "-1"],
         f"{PRECISION_ENV_VAR} must be an integer number of bits, got 'lots'"),
    ])
    def test_index_below_its_range(self, capsys, monkeypatch, env, argv, message):
        if env is None:
            monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(PRECISION_ENV_VAR, env)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "--series", "binet", "--z", "3/0"],
        ["bound", "--series", "binet", "--terms", "2", "--z", "3/0"],
        ["eval", "--series", "binet", "--z", "3", "--tol", "3/0"],
        ["demo", "--b", "3/0"],
        ["demo", "--b", "1", "--x-from", "3/0"],
        ["demo", "--b", "1", "--x-to", "3/0"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_a_zero_denominator_is_usage_error(self, capsys, argv):
        # mpmath divides the literal, and its ZeroDivisionError escaped as a traceback
        flag = argv[-2]
        assert run(capsys, *argv) == (
            1, "", f"error: {flag} must be a decimal number, got '3/0'\n")


# One call of each kind, a usage error and help among them; eval comes twice.
REUSE_SEQUENCE = [
    ["eval", "--series", "binet", "--z", "7.3", "--tol", "1e-20"],
    ["eval", "--series", "demoivre", "--z", "5", "--terms", "3", "--format", "plain"],
    ["bound", "--series", "gamma-half", "--z", "5", "--terms", "2", "--format", "csv"],
    ["coeffs", "--family", "beta-tilde", "--max-k", "6"],
    ["eval", "--series", "binet", "--z", "3", "--tol", "1e-3", "--terms", "2"],
    ["--help"],
    ["eval", "--series", "central-binom", "--z", "10", "--tol", "1e-8"],
]


class TestParserReuse:
    """In-process calls share one parser, built at the first call."""

    def test_shared_parser_gives_the_output_of_a_fresh_one(self, capsys):
        shared = [run(capsys, *argv) for argv in REUSE_SEQUENCE]
        fresh = []
        for argv in REUSE_SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0]
        assert "not allowed with argument" in shared[4][2]

    def test_env_var_set_between_calls_is_honoured(self, capsys, monkeypatch):
        argv = ["eval", "--series", "binet", "--z", "4", "--tol", "1e-6"]
        seen = []
        for bits in ("128", "192"):
            monkeypatch.setenv(PRECISION_ENV_VAR, bits)
            code, out, _ = run(capsys, *argv)
            seen.append((code, json.loads(out)["precision"]))
        assert seen == [(0, 128), (0, 192)]

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for i in range(20):
            run(capsys, *REUSE_SEQUENCE[i % len(REUSE_SEQUENCE)])
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 19)


def test_console_entry_point_runs():
    # The child imports the same envasym as this process, installed or not.
    src = os.path.dirname(os.path.dirname(envasym.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "envasym", "coeffs", "--family", "beta",
         "--max-k", "1", "--format", "plain"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "1/360" in proc.stdout


EVAL_ARGV = ["eval", "--series", "central-binom", "--z", "10", "--tol", "1e-8",
             "--precision", "64"]
BOUND_ARGV = ["bound", "--series", "gamma-half", "--z", "5", "--terms", "2",
              "--precision", "64"]

FULL_OUTPUT = {
    ("eval", "json"):
        '{"format_version": "1", "command": "eval", "params": {"series": '
        '"central-binom", "z": "10", "tol": "1e-8", "terms": null}, "precision": 64, '
        '"result": {"value": "12.126791311662027966", "error_bound": '
        '"5.7655598437289611043e-9", "error_sign": 1, "k_used": 3, "lo": '
        '"12.126791311662027966", "hi": "12.126791317427587809"}}\n',
    ("eval", "csv"):
        "command,precision,format_version,series,z,tol,terms,k_used,value,"
        "error_bound,error_sign,lo,hi\n"
        "eval,64,1,central-binom,10,1e-8,,3,12.126791311662027966,"
        "5.7655598437289611043e-9,1,12.126791311662027966,12.126791317427587809\n",
    ("eval", "plain"):
        "series       = central-binom\n"
        "z            = 10\n"
        "k_used       = 3\n"
        "value        = 12.126791311662027966\n"
        "error_bound  = 5.7655598437289611043e-9\n"
        "error_sign   = +1\n"
        "enclosure    = [12.126791311662027966, 12.126791317427587809]\n"
        "precision    = 64\n",
    ("bound", "json"):
        '{"format_version": "1", "command": "bound", "params": {"series": '
        '"gamma-half", "z": "5", "terms": 2}, "precision": 64, "result": {"lo": '
        '"-0.0083141349225707060197", "hi": "-0.0083138888869531035042", "bound": '
        '"2.4603174608902976154e-7", "k_used": 2}}\n',
    ("bound", "csv"):
        "command,precision,format_version,series,z,terms,k_used,lo,hi,bound\n"
        "bound,64,1,gamma-half,5,2,2,-0.0083141349225707060197,"
        "-0.0083138888869531035042,2.4603174608902976154e-7\n",
    ("bound", "plain"):
        "series    = gamma-half\n"
        "z         = 5\n"
        "k_used    = 2\n"
        "enclosure = [-0.0083141349225707060197, -0.0083138888869531035042]\n"
        "bound     = 2.4603174608902976154e-7\n"
        "precision = 64\n",
}


class TestOutputFormats:
    @pytest.mark.parametrize("command, fmt", sorted(FULL_OUTPUT))
    def test_full_stdout(self, capsys, command, fmt):
        argv = EVAL_ARGV if command == "eval" else BOUND_ARGV
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == FULL_OUTPUT[command, fmt]

    def test_coeffs_csv_header_and_plain_layout(self, capsys):
        argv = ["coeffs", "--family", "beta-hat", "--max-k", "1"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert out.splitlines() == [
            "command,precision,format_version,family,k,numerator,denominator,fraction",
            "coeffs,256,1,beta-hat,0,1,24,1/24",
            "coeffs,256,1,beta-hat,1,7,2880,7/2880",
        ]
        _, out, _ = run(capsys, *argv, "--format", "plain")
        assert out == "beta-hat(0) = 1/24\nbeta-hat(1) = 7/2880\n"

    def test_plain_layout_of_eval_and_bound(self, capsys):
        _, out, _ = run(capsys, "eval", "--series", "binet", "--z", "3", "--terms", "1",
                        "--format", "plain")
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "series       ", "z            ", "k_used       ", "value        ",
            "error_bound  ", "error_sign   ", "enclosure    ", "precision    "]
        _, out, _ = run(capsys, "bound", "--series", "binet", "--z", "3", "--terms", "1",
                        "--format", "plain")
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "series    ", "z         ", "k_used    ", "enclosure ", "bound     ",
            "precision "]

    def test_verify_csv_header_and_quoted_detail(self, capsys, monkeypatch):
        results = [verify.CheckResult("one", True, 'say "hi", twice'),
                   verify.CheckResult("two", False, "bad")]
        monkeypatch.setattr(verify, "run_verification", lambda deep, precision: results)
        code, out, _ = run(capsys, "verify", "--format", "csv")
        assert code == 3
        assert out.splitlines() == [
            "command,precision,format_version,deep,name,passed,detail",
            "verify,256,1,False,one,True,\"say 'hi', twice\"",
            'verify,256,1,False,two,False,"bad"',
        ]
        _, out, _ = run(capsys, "verify", "--deep", "--format", "plain")
        assert out == ('PASS one: say "hi", twice\nFAIL two: bad\n'
                       "FAIL overall (2 checks)\n")

    def test_demo_csv_header(self, capsys):
        code, out, _ = run(capsys, "demo", "--b", "1", "--x-from", "9", "--x-to", "9",
                           "--steps", "1", "--k-max", "1", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == (
            "command,precision,format_version,b,x_from,x_to,steps,k_max,witness_found,"
            "x,k,mode,remainder,next_term_bound,control_witnesses")
        assert row.startswith("demo,256,1,1,9,9,1,1,True,9.000")
        assert row.endswith(",0")


class TestPrecisionFloor:
    def test_bound_above_tol_exits_2_naming_precision(self, capsys):
        code, out, err = run(capsys, "eval", "--series", "binet", "--z", "50",
                             "--tol", "1e-80")
        assert code == 2
        assert not out
        assert "precision" in err
        assert "best_bound: 1.07244829" in err

    def test_more_bits_reach_the_tolerance(self, capsys):
        code, out, _ = run(capsys, "eval", "--series", "binet", "--z", "50",
                           "--tol", "1e-80", "--precision", "512")
        assert code == 0
        assert mpf(json.loads(out)["result"]["error_bound"]) <= mpf("1e-80")
