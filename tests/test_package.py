"""The package's import cost and public surface.

Each command imports only what it uses: `coeffs`, `table` and `bernoulli`
are exact Fraction arithmetic, and `eval` without `--check` integer fixed
point, so they start without mpmath, dataclasses or inspect.  The package resolves the names of its mpmath-backed layers on
first access, with the same objects as their home modules.  The record
types keep the value semantics of frozen dataclasses, and they pickle, so a
process pool can return them.  Public entry points reject digits < 1 before
they compute anything.
"""

import copy
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest

import plouffe
from plouffe import fixed, identities, relations, series
from plouffe.bernoulli import CoefficientTriple, Target, triple_for
from plouffe.identities import (ResidualReport, ramanujan_residual, symmetric_point_residual,
                                triple_residual, ts_identity_residual, vepstas_residual,
                                verify_all, zeta_4m1_residual)
from plouffe.precision import PrecisionReal
from plouffe.relations import RelationResult, pslq, rediscover_triple
from plouffe.series import SeriesSpec, eval_pi_power, eval_zeta_odd

# Runs the commands (each one argv string) in one fresh interpreter and
# prints, as its last stderr line, the modules loaded past the ones the
# interpreter itself preloads.
CHILD = """
import sys
before = set(sys.modules)
import plouffe
if sys.argv[1:]:
    from plouffe.cli import main
    for command in sys.argv[1:]:
        main(command.split())
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""
EXACT_ONLY = {"mpmath", "dataclasses", "inspect"}


def loaded_by(*commands):
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    proc = subprocess.run([sys.executable, "-c", CHILD, *commands],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("command, formats", [
    ("coeffs zeta 9", ("plain", "csv", "latex", "json")),
    ("table --max-m 2", ("plain", "csv", "latex", "json")),
    ("bernoulli 30", ("plain", "json")),
    ("eval zeta 5 --digits 30", ("plain", "csv", "json")),
])
def test_exact_commands_import_only_what_they_use(tmp_path, command, formats):
    for fmt in formats:
        cache = tmp_path / f"{fmt}.cache"
        # without a cache, then writing one, then reading it back
        runs = [f"{command} --format {fmt}"] + [f"{command} --format {fmt} --cache {cache}"] * 2
        loaded = loaded_by(*runs)
        assert cache.exists()
        assert not loaded & EXACT_ONLY, (runs, loaded & EXACT_ONLY)
        if fmt != "json":
            assert "json" not in loaded, runs


@pytest.mark.parametrize("command", [
    "eval zeta 3 --digits 20 --check --format json",
    "verify --max-m 1 --digits 10",
    "discover pi 3 --digits 50",
])
def test_mpmath_commands_import_no_dataclasses(command):
    loaded = loaded_by(command)
    assert "mpmath" in loaded
    assert "dataclasses" not in loaded


def test_a_bare_import_loads_no_mpmath():
    assert "mpmath" not in loaded_by()


# In a fresh interpreter, where no name has been resolved yet.
LAZY_API = """
import sys
import plouffe
assert plouffe.bernoulli is sys.modules["plouffe.bernoulli"].bernoulli
import plouffe.series
assert plouffe.bernoulli is sys.modules["plouffe.bernoulli"].bernoulli
for name in plouffe.__all__:
    value = getattr(plouffe, name)
    assert value.__module__.startswith("plouffe."), name
    assert value is getattr(sys.modules[value.__module__], name), name
import plouffe.precision
assert plouffe.format_rational is plouffe.precision.format_rational
namespace = {}
exec("from plouffe import *", namespace)
assert set(plouffe.__all__) <= set(namespace), set(plouffe.__all__) - set(namespace)
"""


def test_every_public_name_resolves_to_its_home_object():
    proc = subprocess.run([sys.executable, "-c", LAZY_API], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_is_the_eager_names_and_every_lazy_name():
    eager = {name for name, value in vars(plouffe).items()
             if getattr(value, "__module__", None) == "plouffe.bernoulli"}
    assert len(plouffe.__all__) == len(set(plouffe.__all__))
    assert set(plouffe.__all__) == eager | set(plouffe._HOME)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        plouffe.no_such_name
    assert not hasattr(plouffe, "eval_pi")


def records():
    """Pairs of distinct but equal records, one of each type."""
    value = PrecisionReal(mp.mpf(1) / 3, 5)
    same_value = PrecisionReal(mp.mpf(1) / 3, 5)
    return [
        (triple_for("zeta", 3), CoefficientTriple(Target.ZETA_VALUE, 3, Fraction(28), Fraction(-37),
                                                  Fraction(7))),
        (value, same_value),
        (SeriesSpec(1, 2, 5), SeriesSpec(1, Fraction(2), 5)),
        (RelationResult((2, -1), value, 1, True, 2.5, "found"),
         RelationResult((2, -1), same_value, 1, True, 2.5, "found")),
    ]


def test_records_compare_and_hash_by_field():
    for left, right in records():
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)
    assert PrecisionReal(mp.mpf(1), 5) != PrecisionReal(mp.mpf(1), 6)
    assert PrecisionReal(mp.mpf(1), 5) != PrecisionReal(mp.mpf(2), 5)
    assert SeriesSpec(1, 2, 5) != SeriesSpec(3, 2, 5)
    report = ResidualReport("ramanujan", {"n": 3}, PrecisionReal(mp.mpf(0), 5), 5, True)
    assert report == ResidualReport("ramanujan", {"n": 3}, PrecisionReal(mp.mpf(0), 5), 5, True)
    assert report != ResidualReport("ramanujan", {"n": 5}, PrecisionReal(mp.mpf(0), 5), 5, True)


def test_records_reject_assignment():
    report = ResidualReport("ramanujan", {"n": 3}, PrecisionReal(mp.mpf(0), 5), 5, True)
    for record in [left for left, _ in records()] + [report]:
        with pytest.raises(AttributeError):
            setattr(record, "digits", 7)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 7)
    with pytest.raises(AttributeError):
        del PrecisionReal(mp.mpf(1), 5).digits


def test_replace_checks_as_the_constructor_does():
    value, spec = PrecisionReal(mp.mpf(1), 5), SeriesSpec(1, 2, 5)
    assert value._replace(digits=7) == PrecisionReal(mp.mpf(1), 7)
    assert type(spec._replace(r=4)) is SeriesSpec
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        value._replace(digits=0)
    with pytest.raises(ValueError, match=r"^series exponent n must be an integer >= 1$"):
        spec._replace(n=0)
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        SeriesSpec._make([1, 2, 0])


def test_records_raise_the_same_errors():
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        PrecisionReal(mp.mpf(1), 0)
    with pytest.raises(ValueError, match=r"^series exponent n must be an integer >= 1$"):
        SeriesSpec(0, 1, 5)
    with pytest.raises(ValueError, match=r"^series rate r must be positive$"):
        SeriesSpec(1, 0, 5)
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        SeriesSpec(1, 1, 0)


def test_record_reprs():
    with mp.workdps(40):
        value = PrecisionReal(mp.mpf(1) / 3, 40)
    assert repr(value) == "PrecisionReal(0.333333333333333333333333333333, digits=40)"
    assert repr(PrecisionReal(mp.mpf(2) / 3, 5)) == "PrecisionReal(0.66667, digits=5)"
    assert repr(triple_for("zeta", 3)) == (
        "CoefficientTriple(target=<Target.ZETA_VALUE: 'zeta'>, exponent=3, "
        "a=Fraction(28, 1), b=Fraction(-37, 1), c=Fraction(7, 1))")
    assert repr(SeriesSpec(1, 2, 5)) == "SeriesSpec(n=1, r=2, digits=5)"


def test_records_survive_pickle_and_copy():
    report = ResidualReport("ramanujan", {"n": 3}, PrecisionReal(mp.mpf(0), 5), 5, True)
    values = [left for left, _ in records()] + [report, verify_all(1, 30)[0],
                                                 rediscover_triple("pi", 1, 40)]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
    for record_type in (CoefficientTriple, PrecisionReal, SeriesSpec, ResidualReport,
                        RelationResult):
        assert issubclass(record_type, tuple)


def test_a_process_pool_returns_library_values():
    # spawn: independent of the platform's default start method and of any
    # threads other tests left running
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        pooled = list(pool.map(eval_pi_power, [1, 3], [30, 30], timeout=120))
    assert pooled == [eval_pi_power(1, 30), eval_pi_power(3, 30)]


# Each public entry point that takes digits, with its other arguments.
ENTRY_POINTS = [
    (pslq, ([1, 2],)),
    (verify_all, (1,)),
    (ramanujan_residual, ((Fraction(1), 1), 1)),
    (symmetric_point_residual, (1,)),
    (zeta_4m1_residual, (1,)),
    (vepstas_residual, (1,)),
    (ts_identity_residual, (3, 1)),
    (triple_residual, ("zeta", 3)),
    (eval_pi_power, (3,)),
    (eval_zeta_odd, (3,)),
    (rediscover_triple, ("pi", 1)),
]


@pytest.mark.parametrize("digits", [0, -3])
@pytest.mark.parametrize("function, args", ENTRY_POINTS)
def test_entry_points_reject_digits_below_one(function, args, digits):
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        function(*args, digits)


@pytest.mark.parametrize("function, args", ENTRY_POINTS)
def test_entry_points_reject_digits_before_computing(monkeypatch, function, args):
    def computed(*_):
        raise AssertionError("computed before rejecting digits")

    for module in (identities, relations):
        monkeypatch.setattr(module, "term_values", computed)
    monkeypatch.setattr(series, "_s_raw", computed)
    # and the kernel itself, wherever it is bound
    for module in (fixed, series):
        monkeypatch.setattr(module, "q_series", computed)
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        function(*args, 0)
