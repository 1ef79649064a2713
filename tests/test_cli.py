"""Integration tests for the command-line interface: formats, exit codes,
cache persistence, schema conformance, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest

from plouffe.cli import main
from plouffe.precision import decimal_string, pi_const

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


def test_timing_flag_keeps_stdout_clean(capsys):
    code, out, err = run_cli(capsys, "coeffs", "zeta", "3", "--timing")
    assert code == 0
    assert out == "28 -37 7\n"
    assert "wall_time_ms=" in err
    code, out, _ = run_cli(capsys, "coeffs", "zeta", "3", "--format", "json", "--timing")
    payload = json.loads(out)
    validate(payload)
    assert "wall_time_ms" in payload


def test_byte_identical_stdout_across_runs():
    command = [sys.executable, "-m", "plouffe", "eval", "pi", "3", "--digits", "300"]
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    first = subprocess.run(command, capture_output=True, env=env)
    second = subprocess.run(command, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.strip()) == 301  # 300 significant digits plus the point
