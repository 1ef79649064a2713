"""Integration tests for the command-line interface: formats, exit codes,
cache persistence, schema conformance, byte-level determinism, and the
direct argv reader's agreement with argparse."""

import ast
import contextlib
import hashlib
import io
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
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracles import pi_const
from test_cli_golden import COMMANDS as GOLDEN_COMMANDS

from plouffe import cli, oracles, relations, series
from plouffe.bernoulli import Target, format_rational, triple_for
from plouffe.cli import _load_cache, build_parser, main
from plouffe.fixed import agreement_digits, nstr
from plouffe.identities import verify_all
from plouffe.precision import decimal_string
from plouffe.relations import RelationNotFoundError, rediscover_triple

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


@pytest.mark.parametrize("target, oracle", [("zeta", "zeta_fixed"), ("pi", "pi_power")])
def test_eval_check_exits_1_when_the_oracle_disagrees(monkeypatch, capsys, target, oracle):
    # exit 1 is a failed verification, as for verify: an oracle off by about
    # 10**-(D-5) leaves the printed value alone and the agreement below D
    digits = 40
    argv = ["eval", target, "3", "--digits", str(digits), "--check"]
    code, out, _ = run_cli(capsys, *argv)
    value = out.splitlines()[0]
    assert code == 0 and out == f"{value}\nagrees with oracle to >={digits} digits\n"
    real = getattr(series, oracle)

    def off(k, accuracy):
        m, prec = real(k, accuracy)
        return m + 2 * (1 << prec) // 10 ** (digits - 5), prec

    monkeypatch.setattr(series, oracle, off)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and out == f"{value}\nagrees with oracle to >={digits - 6} digits\n"


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


@pytest.mark.parametrize("argv", [("eval", "pi", "1"), ("eval", "pi", "1", "--check"),
                                  ("eval", "zeta", "3", "--check"), ("discover", "pi", "1")],
                         ids=["eval", "eval-check-pi", "eval-check-zeta", "discover"])
def test_eval_past_the_term_limit_is_usage_error(monkeypatch, capsys, argv):
    # 2 million digits need about 1.47 million terms: refused before any sum is
    # formed, and before any oracle runs, which would take minutes here
    def computed(*_):
        raise AssertionError("oracle work before the term limit refused the sum")

    for module in (series, oracles):
        for name in ("pi_power", "zeta_fixed", "machin_pi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, computed)
    code, out, err = run_cli(capsys, *argv, "--digits", "2000000")
    assert (code, out) == (2, "")
    assert err == ("error: a q-series at rate 1.0 needs about 1.47e+6 terms, "
                   "past the limit of MAX_TERMS = 1000000\n")


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


def test_verify_prints_the_records_of_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-m", "2", "--digits", "60")
    assert code == 0
    assert out == json.dumps([r.to_json_dict() for r in verify_all(2, 60)], indent=2) + "\n"


def test_discover_prints_the_result_of_rediscover_triple(capsys):
    code, out, _ = run_cli(capsys, "discover", "zeta", "5", "--digits", "120", "--format", "json")
    result, _ = rediscover_triple("zeta", 5, 120)
    assert code == 0
    record = json.loads(out)["result"]
    assert record["canonical_vector"] == list(result.vector)
    assert record["iterations"] == result.iterations
    assert record["residual"] == nstr(result.residual, 5)


@pytest.mark.parametrize("target, exponent, digits", [("pi", 7, 300), ("zeta", 9, 200)])
def test_eval_prints_what_the_api_returns(capsys, target, exponent, digits):
    # the value of eval_pi_power or eval_zeta_odd, and under --check its
    # agreement with the oracle term (zeta_reference's for a zeta target)
    argv = ["eval", target, str(exponent), "--digits", str(digits)]
    evaluate = series.eval_pi_power if target == "pi" else series.eval_zeta_odd
    value = evaluate(exponent, digits)
    oracle = series._value((target, exponent), digits)
    if target == "zeta":
        assert oracle == series.zeta_reference(exponent, digits)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, value.to_decimal_string() + "\n")
    code, out, _ = run_cli(capsys, *argv, "--check", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {
        "value": value.to_decimal_string(),
        "oracle_agreement_digits": min(agreement_digits(value, oracle), digits)}


def test_cli_imports_no_private_name_of_identities_or_relations():
    # the commands run the public API, so the API returns what they print
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").rsplit(".", 1)[-1] in ("identities", "relations")
               for alias in node.names if alias.name.startswith("_")]
    assert not private


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
    # cli._run alone turns the ArithmeticError into "error: <reason>" and exit 1
    with pytest.raises(RelationNotFoundError) as exc:
        rediscover_triple("pi", 11, 1000)
    assert isinstance(exc.value, ArithmeticError) and err == f"error: {exc.value}\n"


def test_cli_names_no_exception_class_of_relations():
    exceptions = {name for name, value in vars(relations).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    assert exceptions == {"RelationNotFoundError"}
    tree = ast.parse(Path(cli.__file__).read_text())
    named = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
             | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names})
    assert not exceptions & named


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


# SHA-256 of `table --max-m 60`'s stdout, pinned from before the pair
# products became one table
TABLE_60_SHA256 = {
    "plain": "dc8161e7085c64c95884b805f02562cb48cf22eacb910f222cad558d88643dd3",
    "json": "140f980482d8a1b03799c119455b613af8d3dc040f879ec6838289be83663694",
    "csv": "624ffd9ae2443c5231361d13274bc475d5ff17a5e58c1779ad2b488f035a7d9b",
    "latex": "0c5a173663408e72d12f264f70db57357c00f998aa3cec3edcc1ebaa54d47285",
}


@pytest.mark.parametrize("fmt", TABLE_60_SHA256)
def test_table_to_max_m_60_hashes_as_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "table", "--max-m", "60", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == TABLE_60_SHA256[fmt]


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
    assert lines[0] == "0 1"
    assert lines[1] == "1 -1/2"
    assert lines[12] == "12 -691/2730"
    assert len(lines) >= 25  # everything memoized so far is persisted
    # a second run loads the cache and does not shrink it
    code, out, _ = run_cli(capsys, "bernoulli", "12", "--cache", str(cache))
    assert code == 0 and out.strip() == "-691/2730"
    assert len(cache.read_text().strip().splitlines()) >= len(lines)


def test_a_cache_line_is_the_index_and_what_bernoulli_prints(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "bernoulli.cache"
    assert run_cli(capsys, "bernoulli", "24", "--cache", str(cache))[0] == 0
    lines = cache.read_text().splitlines()
    assert len(lines) >= 25
    assert lines == [f"{i} {format_rational(bernoulli_module.bernoulli(i))}"
                     for i in range(len(lines))]
    # a file written with "/1" on every integer entry still loads whole
    older = tmp_path / "older.cache"
    memo = bernoulli_module.memo_snapshot()[:len(lines)]
    older.write_text("".join(f"{i} {q.numerator}/{q.denominator}\n" for i, q in enumerate(memo)))
    assert older.read_text().startswith("0 1/1\n1 -1/2\n2 1/6\n3 0/1\n")
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    assert _load_cache(str(older)) == _load_cache(str(cache)) == len(lines)


SIX_COMMANDS = [("coeffs", "pi", "3"), ("eval", "pi", "3", "--digits", "20"),
                ("verify", "--max-m", "1", "--digits", "10"), ("discover", "pi", "1", "--digits", "30"),
                ("table", "--max-m", "1"), ("bernoulli", "12")]


@pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda argv: argv[0])
def test_the_plouffe_cache_variable_is_neither_read_nor_written(tmp_path, capsys, monkeypatch, argv):
    # a command acts on its arguments alone: the variable changes no output,
    # and no file it names is created, read or rewritten
    monkeypatch.delenv("PLOUFFE_CACHE", raising=False)
    unset = run_cli(capsys, *argv)
    paths = []
    for name in ("_load_cache", "_save_cache"):
        monkeypatch.setattr(cli, name, lambda path, *rest, call=getattr(cli, name):
                            paths.append(path) or call(path, *rest))
    missing, preset = tmp_path / "missing.cache", tmp_path / "preset.cache"
    preset.write_text("0 1\n1 -1/2\n2 1/6\n")
    stamp = preset.stat().st_mtime_ns
    for path in (missing, preset):
        monkeypatch.setenv("PLOUFFE_CACHE", str(path))
        assert run_cli(capsys, *argv) == unset
    assert paths == [None] * 4
    assert [p.name for p in tmp_path.iterdir()] == ["preset.cache"]
    assert (preset.read_text(), preset.stat().st_mtime_ns) == ("0 1\n1 -1/2\n2 1/6\n", stamp)


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


def test_a_cache_past_4300_digit_numerators_round_trips(tmp_path, capsys, monkeypatch):
    # B_2064 has the first numerator past Python's default limit of 4300 digits
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    cache = tmp_path / "long.cache"
    assert run_cli(capsys, "bernoulli", "2064", "--cache", str(cache))[0] == 0
    memo = bernoulli_module.memo_snapshot()
    assert abs(memo[2064].numerator) >= 10 ** 4300
    monkeypatch.setattr(bernoulli_module, "_memo", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(bernoulli_module, "_column", [])
    assert _load_cache(str(cache)) == len(memo)
    assert bernoulli_module.memo_snapshot() == memo


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
    assert cache.read_text() == "0 1\n1 -1/2\n2 1/6\n"


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


@pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda argv: argv[0])
def test_timing_is_no_option(capsys, argv):
    # stdout reads no clock; `time plouffe ...` gives the wall time
    code, out, err = run_cli(capsys, *argv, "--timing")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --timing" in err


def test_byte_identical_stdout_across_runs():
    command = [sys.executable, "-m", "plouffe", "eval", "pi", "3", "--digits", "300"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.strip()) == 301  # 300 significant digits plus the point


def test_closed_pipe_exits_1_without_a_traceback():
    # the reader is gone before the command prints anything, as with `| head -c 10`
    command = [sys.executable, "-m", "plouffe", "verify", "--max-m", "1", "--digits", "1"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


# Every token a command reads as a number is drawn where the command answers
# at once: exponents <= 61, Bernoulli indices <= 600, --max-m <= 2, and
# --digits <= 60 or past what MAX_TERMS refuses before any work.  Junk
# holds no decimal digit, so int() reads none of it, and no option prefix
# of --cache, so no command reads or writes a file.
OPTIONS = {"coeffs": ["--format"], "eval": ["--format", "--digits", "--check"],
           "verify": ["--digits", "--max-m"], "discover": ["--format", "--digits"],
           "table": ["--format", "--max-m"], "bernoulli": ["--format"]}
JUNK = st.one_of(
    st.sampled_from(["--bogus", "-x", "--", "-h", "--form", "--format=", "--digits=x", "--max-m=",
                     "--check=1", "pi", "zeta", "1.5", "1e3", "0x10", " ", ""]),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=6).filter(
        lambda text: not text.startswith("-")))
RARELY = st.sampled_from([True] + [False] * 7)


@st.composite
def command_lines(draw):
    """An argv: mostly a command with its own arguments, its options in any
    place, at times a foreign option, a missing argument or a junk token."""
    command = draw(st.sampled_from(sorted(OPTIONS) + [None])) or draw(JUNK)
    exponent = draw(st.integers(-3, 61)) if draw(RARELY) else draw(st.integers(0, 30)) * 2 + 1
    groups = {"bernoulli": [[str(draw(st.integers(-3, 600)))]], "verify": [], "table": []}.get(
        command, [[draw(st.sampled_from(["pi", "zeta"]))], [str(exponent)]])
    if groups and draw(RARELY):
        groups.pop()
    digits = draw(st.integers(2 * 10 ** 6, 10 ** 9)) if draw(RARELY) else draw(st.integers(-1, 60))
    values = {"--format": [draw(st.sampled_from(["json", "csv", "latex", "plain", "xml"]))],
              "--digits": [str(digits)], "--max-m": [str(draw(st.integers(0, 2)))], "--check": []}
    names = sorted(values) if draw(RARELY) else OPTIONS.get(command, sorted(values))
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        groups.insert(draw(st.integers(0, len(groups))), [name] + values[name])
    if draw(RARELY):
        groups.insert(draw(st.integers(0, len(groups))), [draw(JUNK)])
    return [command] + [token for group in groups for token in group]


@settings(max_examples=100, deadline=None)
@given(argv=command_lines())
def test_every_command_line_exits_0_1_or_2_with_a_reason(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception that leaves main fails the test
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().strip(), argv
    if code == 2:
        assert out.getvalue() == "", argv


def parsed_by_argparse(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_the_direct_reader_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    assert read is None or vars(read) == parsed_by_argparse(argv), argv


@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_the_direct_reader_takes_every_golden_command(command):
    read = cli._read_argv(command.split())
    assert read is not None and vars(read) == parsed_by_argparse(command.split())


# Command lines past the plain shape: argparse reads each, or refuses it.
@pytest.mark.parametrize("command", [
    "eval pi 1 --dig 5", "eval pi 1 --digits=5", "eval pi 1 --digits 5 --digits 6",
    "eval pi 1 --check --check", "eval pi 1 --digits -5", "coeffs pi -1", "bernoulli -2",
    "coeffs pi 1 --cache", "coeffs pi 1 --cache -", "coeffs pi 1 --", "-h", "coeffs -h", ""])
def test_argparse_reads_what_the_direct_reader_leaves(command):
    assert cli._read_argv(command.split()) is None
