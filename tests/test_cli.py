"""Integration tests for the command-line interface: formats, exit codes,
cache persistence, schema conformance, and byte-level determinism."""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest

from plouffe.bernoulli import Target, triple_for
from plouffe.cli import _load_cache, build_parser, main
from plouffe.precision import decimal_string, pi_const

bernoulli_module = importlib.import_module("plouffe.bernoulli")  # the package rebinds the name
SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schema"
                     / "output_record.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


def test_coeffs_plain_zeta3(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "zeta", "3", "--format", "plain")
    assert code == 0
    assert out == "28 -37 7\n"


def test_coeffs_plain_pi7(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "pi", "7", "--format", "plain")
    assert code == 0
    assert out == "907200/13 -70875 14175/13\n"


def test_coeffs_latex_mirrors_display_shape(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "zeta", "7", "--format", "latex")
    assert code == 0
    assert out.strip() == (r"\zeta(7) = \frac{304}{13} S_{7}(1) - \frac{103}{4} S_{7}(2) "
                           r"+ \frac{19}{52} S_{7}(4)")
    code, out, _ = run_cli(capsys, "coeffs", "pi", "3", "--format", "latex")
    assert out.strip() == r"\pi^{3} = 720 S_{3}(1) - 900 S_{3}(2) + 180 S_{3}(4)"


def test_coeffs_json_validates_against_schema(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "zeta", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["result"] == {"target": "zeta", "exponent": 5,
                                 "a": "24", "b": "-259/10", "c": "-1/10"}


def test_coeffs_divergent_target_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "coeffs", "zeta", "1")
    assert code == 2
    assert "diverges" in err


def test_eval_pi_100_digits(capsys):
    code, out, _ = run_cli(capsys, "eval", "pi", "1", "--digits", "100")
    assert code == 0
    assert out.strip() == pi_const(100).to_decimal_string()
    assert len(out.strip().replace(".", "")) == 100


def test_eval_zeta3_with_check(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta", "3", "--digits", "50", "--check")
    assert code == 0
    value_line, check_line = out.strip().splitlines()
    assert value_line.startswith("1.2020569031595942853997381615")
    agreed = int(check_line.rsplit(">=", 1)[1].split()[0])
    assert agreed >= 45


def test_eval_csv_check_appends_the_agreement(capsys):
    argv = ["eval", "zeta", "3", "--digits", "20", "--format"]
    code, plain, _ = run_cli(capsys, *argv, "csv")
    assert code == 0 and plain == "zeta,3,20,1.2020569031595942854\n"
    code, checked, _ = run_cli(capsys, *argv, "csv", "--check")
    _, record, _ = run_cli(capsys, *argv, "json", "--check")
    agree = json.loads(record)["result"]["oracle_agreement_digits"]
    assert code == 0 and checked == f"zeta,3,20,1.2020569031595942854,{agree}\n"


DIGIT_PIN_GRID = ([("pi", n, 500) for n in range(1, 14, 2)]
                  + [("zeta", n, 200) for n in range(3, 14, 2)]
                  + [("pi", 1, 4000)]
                  # the triple's weight sum |a|+|b|+|c| is past the float range here
                  + [("pi", 621, 20)])


@pytest.mark.parametrize("target, exponent, digits", DIGIT_PIN_GRID)
def test_eval_digits_pinned_to_mpmath(capsys, target, exponent, digits):
    # the printed digits must match mpmath's own constants rounded once
    code, out, _ = run_cli(capsys, "eval", target, str(exponent), "--digits", str(digits))
    assert code == 0
    with mp.workdps(digits + 40):
        value = mp.pi ** exponent if target == "pi" else mp.zeta(exponent)
        assert out == decimal_string(value, digits) + "\n"


def test_eval_even_exponent_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "pi", "4", "--digits", "10")
    assert code == 2


def test_eval_json_validates(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta", "5", "--digits", "30",
                           "--check", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["digits"] == 30
    assert payload["result"]["oracle_agreement_digits"] >= 25


def test_verify_passes_and_validates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "1", "--digits", "100")
    assert code == 0
    reports = json.loads(out)
    validate(reports)
    assert len(reports) == 20
    assert all(r["pass"] for r in reports)


def test_verify_low_precision_still_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "2", "--digits", "30")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_verify_empty_range_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max-m", "0")
    assert code == 2


def test_discover_pi(capsys):
    code, out, _ = run_cli(capsys, "discover", "pi", "1", "--digits", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "[-1, 72, -96, 24]"
    assert lines[1] == "pi = 72 S_1(1) - 96 S_1(2) + 24 S_1(4)"


def test_discover_zeta3(capsys):
    code, out, _ = run_cli(capsys, "discover", "zeta", "3", "--digits", "100")
    assert code == 0
    assert out.strip().splitlines()[0] == "[-1, 28, -37, 7]"


def test_discover_insufficient_precision(capsys):
    code, _, err = run_cli(capsys, "discover", "pi", "1", "--digits", "8")
    assert code == 1
    assert "insufficient precision" in err


@pytest.mark.parametrize("target, exponent, vector", [("pi", 1, "[-1, 72, -96, 24]"),
                                                       ("zeta", 3, "[-1, 28, -37, 7]")])
def test_discover_at_30_digits(capsys, target, exponent, vector):
    code, out, _ = run_cli(capsys, "discover", target, str(exponent), "--digits", "30")
    assert code == 0
    assert out.splitlines()[0] == vector


@pytest.mark.parametrize("target, exponent, digits", [("pi", 2, 20), ("zeta", 1, 30),
                                                      ("pi", -5, 10)])
def test_discover_rejects_a_target_without_a_triple_at_any_digits(capsys, target, exponent,
                                                                   digits):
    with pytest.raises(ValueError) as exc:
        triple_for(Target(target), exponent)
    code, out, err = run_cli(capsys, "discover", target, str(exponent), "--digits", str(digits))
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_discover_names_the_coefficient_bound_when_it_stops_there(capsys):
    # pi^11's relation needs coefficients near 10^11.3, past MAX_COEFF = 10^9
    code, out, err = run_cli(capsys, "discover", "pi", "11", "--digits", "1000")
    assert (code, out) == (1, "")
    assert "1e+09 coefficient bound" in err and re.search(r"after \d+ iterations", err)


def test_discover_json_validates(capsys):
    code, out, _ = run_cli(capsys, "discover", "zeta", "7", "--digits", "150",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["result"]["vector"] == "[-1, 304/13, -103/4, 19/52]"


def test_table_csv_row_count_and_zeta5_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-m", "1", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 5
    assert rows[0] == "pi,1,72,-96,24"
    assert "zeta,5,24,-259/10,-1/10" in rows


def test_table_json_validates_against_schema(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert len(payload["result"]) == 9


def test_bernoulli_command(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "12")
    assert code == 0
    assert out.strip() == "-691/2730"
    code, out, _ = run_cli(capsys, "bernoulli", "0")
    assert out.strip() == "1"
    code, _, _ = run_cli(capsys, "bernoulli", "-3")
    assert code == 2


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "bernoulli.cache"
    code, _, _ = run_cli(capsys, "bernoulli", "24", "--cache", str(cache))
    assert code == 0
    lines = cache.read_text().strip().splitlines()
    assert lines[0] == "0 1/1"
    assert lines[1] == "1 -1/2"
    assert lines[12] == "12 -691/2730"
    assert len(lines) >= 25  # everything memoized so far is persisted
    # a second run loads the cache and does not shrink it
    code, out, _ = run_cli(capsys, "bernoulli", "12", "--cache", str(cache))
    assert code == 0 and out.strip() == "-691/2730"
    assert len(cache.read_text().strip().splitlines()) >= len(lines)


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.cache"
    monkeypatch.setenv("PLOUFFE_CACHE", str(cache))
    code, _, _ = run_cli(capsys, "bernoulli", "10")
    assert code == 0
    assert cache.exists()


def test_corrupt_cache_is_ignored(tmp_path, capsys):
    cache = tmp_path / "corrupt.cache"
    cache.write_text("0 not-a-rational\n")
    code, out, _ = run_cli(capsys, "bernoulli", "4", "--cache", str(cache))
    assert code == 0
    assert out.strip() == "-1/30"


def test_cache_with_a_zero_denominator_is_rejected_and_rewritten(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    cache = tmp_path / "zero.cache"
    cache.write_text("0 1/0\n1 -1/2\n2 1/6\n3 0\n4 -1/30\n")
    code, out, _ = run_cli(capsys, "bernoulli", "4", "--cache", str(cache))
    assert (code, out) == (0, "-1/30\n")
    rows = [line.split() for line in cache.read_text().splitlines()]
    assert [int(index) for index, _ in rows] == list(range(len(rows)))
    assert all(Fraction(value) == Fraction(*(int(x) for x in mp.bernfrac(int(index))))
               for index, value in rows)


def test_cache_with_a_wrong_value_is_rejected_and_rewritten(tmp_path, capsys, monkeypatch):
    # a well-formed file whose B_4 has the wrong denominator must not be served
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    cache = tmp_path / "wrong.cache"
    cache.write_text("0 1\n1 -1/2\n2 1/6\n3 0\n4 -1/31\n")
    code, out, _ = run_cli(capsys, "bernoulli", "4", "--cache", str(cache))
    assert (code, out) == (0, "-1/30\n")
    rows = [line.split() for line in cache.read_text().splitlines()]
    assert [int(index) for index, _ in rows] == list(range(len(rows)))
    assert len(rows) > 4
    assert all(Fraction(value) == Fraction(*(int(x) for x in mp.bernfrac(int(index))))
               for index, value in rows)


def test_cache_with_a_wrong_numerator_is_rejected_and_rewritten(tmp_path, capsys, monkeypatch):
    # B_4 = -7/30 has the right sign and denominator; only the recurrence exposes it
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    cache = tmp_path / "wrong.cache"
    cache.write_text("0 1\n1 -1/2\n2 1/6\n3 0\n4 -7/30\n")
    code, out, _ = run_cli(capsys, "bernoulli", "4", "--cache", str(cache))
    assert (code, out) == (0, "-1/30\n")
    rows = [line.split() for line in cache.read_text().splitlines()]
    assert [int(index) for index, _ in rows] == list(range(len(rows)))
    assert all(Fraction(value) == Fraction(*(int(x) for x in mp.bernfrac(int(index))))
               for index, value in rows)


def test_readme_flags_are_the_registered_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flags = re.search(r"^Flags:(.*?)\n\n", readme, re.S | re.M).group(1)
    subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    registered = {option for p in subparsers.choices.values() for action in p._actions
                  for option in action.option_strings if option.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", flags)) == registered - {"--help"}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_exact_output_past_the_int_str_limit(tmp_path, capsys, monkeypatch):
    # the lowest limit Python accepts; B_600 and the pi^501 triple exceed it
    latex_at_default = run_cli(capsys, "coeffs", "pi", "501", "--format", "latex")
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])  # so the cache holds B_0..B_600
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    cache = tmp_path / "big.cache"
    try:
        bernoulli_run = run_cli(capsys, "bernoulli", "600", "--cache", str(cache))
        coeffs_run = run_cli(capsys, "coeffs", "pi", "501")
        assert sys.get_int_max_str_digits() == 640  # restored for the caller
        assert run_cli(capsys, "coeffs", "pi", "501", "--format", "latex") == latex_at_default
        monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])  # read back
        monkeypatch.setattr(bernoulli_module, "_column", [])
        assert _load_cache(str(cache)) == 601
    finally:
        sys.set_int_max_str_digits(previous)
    code, out, err = bernoulli_run
    assert (code, err) == (0, "")
    assert Fraction(out.strip()) == Fraction(*(int(x) for x in mp.bernfrac(600)))
    assert cache.read_text().splitlines()[600] == f"600 {out.strip()}"
    assert [p.name for p in tmp_path.iterdir()] == ["big.cache"]
    code, out, err = coeffs_run
    assert (code, err) == (0, "")
    assert [Fraction(q) for q in out.split()] == list(triple_for("pi", 501).coefficients())


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_a_command_runs_under_the_callers_int_str_limit(capsys, monkeypatch):
    seen = []

    def handler(args):
        seen.append(sys.get_int_max_str_digits())
        return 0

    monkeypatch.setattr("plouffe.cli._cmd_bernoulli", handler)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code = run_cli(capsys, "bernoulli", "2")[0]
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, seen) == (0, [1000])


@pytest.mark.parametrize("value", ["1/6.5", "1e0/6"])
def test_cache_with_a_non_integer_notation_is_rejected_and_rewritten(tmp_path, capsys,
                                                                      monkeypatch, value):
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    cache = tmp_path / "notation.cache"
    cache.write_text(f"0 1/1\n1 -1/2\n2 {value}\n")
    assert _load_cache(str(cache)) == 0
    code, out, _ = run_cli(capsys, "bernoulli", "2", "--cache", str(cache))
    assert (code, out) == (0, "1/6\n")
    assert cache.read_text() == "0 1/1\n1 -1/2\n2 1/6\n"


def failing_replace(*args):
    raise OSError("disk full")


@pytest.mark.parametrize("argv, expected_code", [
    (["bernoulli", "30"], 0),
    (["coeffs", "pi", "4"], 2),
])
@pytest.mark.parametrize("failure", ["os.replace raises", "path holds a NUL byte"])
def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch,
                                                argv, expected_code, failure):
    cache = tmp_path / "bernoulli.cache"
    if failure == "os.replace raises":
        monkeypatch.setattr(os, "replace", failing_replace)
    else:
        cache = tmp_path / "bern\0oulli.cache"  # os.replace raises ValueError
    code, _, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == expected_code
    assert "warning: could not write cache" in err
    assert list(tmp_path.iterdir()) == []


def test_timing_flag_keeps_stdout_clean(capsys):
    code, out, err = run_cli(capsys, "coeffs", "zeta", "3", "--timing")
    assert code == 0
    assert out == "28 -37 7\n"
    assert "wall_time_ms=" in err
    code, out, _ = run_cli(capsys, "coeffs", "zeta", "3", "--format", "json", "--timing")
    payload = json.loads(out)
    validate(payload)
    assert "wall_time_ms" in payload


def test_eval_json_with_timing_keeps_the_record_key_order(capsys):
    code, out, err = run_cli(capsys, "eval", "pi", "3", "--digits", "50", "--format", "json", "--timing")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    validate(payload)
    assert list(payload) == ["command", "inputs", "result", "digits", "wall_time_ms"]


def test_verify_timing_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-m", "1", "--digits", "10", "--timing")
    assert code == 0
    validate(json.loads(out))
    assert re.fullmatch(r"wall_time_ms=\d+\n", err)


def test_byte_identical_stdout_across_runs():
    command = [sys.executable, "-m", "plouffe", "eval", "pi", "3", "--digits", "300"]
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    first = subprocess.run(command, capture_output=True, env=env)
    second = subprocess.run(command, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.strip()) == 301  # 300 significant digits plus the point


def test_closed_pipe_exits_1_without_a_traceback():
    # the reader is gone before the command prints anything, as with `| head -c 10`
    command = [sys.executable, "-m", "plouffe", "verify", "--max-m", "1", "--digits", "1"]
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
