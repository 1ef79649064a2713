"""The package's import cost and public surface.

Each command imports only what it uses: `coeffs`, `table` and `bernoulli`
are exact Fraction arithmetic, `eval` (with or without `--check`) and
`verify` integer fixed point, and `discover` integers and `decimal`, so
every command starts without mpmath, dataclasses or inspect, and a plain
command line without argparse, which only --help and usage errors load;
its golden output with mpmath blocked is `test_cli_golden.py`'s, and the
Python API runs without mpmath too, which only `PrecisionReal.mpf`
imports.  The package resolves the names of its other layers on first
access, with the same objects as their home modules.  The record types keep the value
semantics of frozen dataclasses, and they pickle, so a process pool can
return them; a thread pool returns the same values as serial calls.
Public entry points reject a digits that is no integer, or below 1, before
they compute anything, the Bernoulli layer included, and the CLI leaves
that refusal, and max_m's, to them; no module checks digits but through
`bernoulli._index`, whose test `decimal_string` states for its
`sig_digits`.  Every function the benchmark's tracer wraps or reads still
exists.  The kernel and the oracles are reached only through
`series.term_values`, whose integers only `series._exact` reads.

These tests, with the rest of tier-1, hold every behaviour check; CI adds
the installed `plouffe` command, a run under `-X dev`, pi to 20000 digits
against mpmath, and the benchmark's selftest.
"""

import ast
import copy
import importlib
import importlib.util
import multiprocessing
import pathlib
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest

import plouffe
from plouffe import fixed, identities, relations, series
from plouffe.bernoulli import CoefficientTriple, Target, _index, triple_for
from plouffe.cli import main
from plouffe.identities import (ResidualReport, ramanujan_residual, symmetric_point_residual,
                                triple_residual, ts_identity_residual, vepstas_residual,
                                verify_all, zeta_4m1_residual)
from plouffe.precision import PrecisionReal
from plouffe.relations import RelationResult, min_digits_for, pslq, rediscover_triple
from plouffe.series import (SeriesSpec, apery_zeta3, eval_pi_power, eval_zeta_odd, s_series,
                            zeta_reference)

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
ARGPARSE = {"argparse", "gettext", "locale"}  # --help and usage errors alone load these


def loaded_by(*commands):
    proc = subprocess.run([sys.executable, "-c", CHILD, *commands],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("command, formats", [
    ("coeffs zeta 9", ("plain", "csv", "latex", "json")),
    ("table --max-m 2", ("plain", "csv", "latex", "json")),
    ("bernoulli 30", ("plain", "json")),
    ("eval zeta 5 --digits 30", ("plain", "csv", "json")),
    ("discover pi 7 --digits 200", ("plain",)),
    ("eval zeta 3 --digits 20 --check", ("plain", "csv", "json")),
    ("verify --max-m 1 --digits 10", (None,)),  # JSON, with no --format option
    ("discover pi 3 --digits 50", ("json",)),
])
def test_exact_commands_import_only_what_they_use(tmp_path, command, formats):
    for fmt in formats:
        cache = tmp_path / f"{fmt}.cache"
        command_fmt = f"{command} --format {fmt}" if fmt else command
        # without a cache, then writing one, then reading it back
        runs = [command_fmt] + [f"{command_fmt} --cache {cache}"] * 2
        loaded = loaded_by(*runs)
        assert cache.exists()
        assert not loaded & (EXACT_ONLY | ARGPARSE), (runs, loaded & (EXACT_ONLY | ARGPARSE))
        if fmt not in ("json", None):
            assert "json" not in loaded, runs


def test_a_bare_import_loads_no_mpmath():
    assert "mpmath" not in loaded_by()


def test_a_usage_error_loads_argparse():
    # so that the plain command lines above are shown to start without it
    assert ARGPARSE <= loaded_by("eval pi x")


# The Python API with mpmath blocked: every value is exact without it.
API_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
import plouffe
plouffe.eval_pi_power(1, 30); plouffe.eval_zeta_odd(3, 30); plouffe.zeta_reference(3, 30)
plouffe.apery_zeta3(30); plouffe.verify_all(1, 30); plouffe.rediscover_triple("pi", 1, 30)
assert plouffe.ts_identity_residual(3, (1, 1), 40).passed
plouffe.s_series(plouffe.SeriesSpec(3, (1, 1), 30))
value = plouffe.eval_pi_power(1, 30)
print(value.to_decimal_string(), repr(value), float(value), value == plouffe.eval_pi_power(1, 30))
try:
    value.mpf
except ImportError:
    print("mpf needs mpmath")
"""


def test_the_python_api_runs_without_mpmath():
    proc = subprocess.run([sys.executable, "-c", API_WITHOUT_MPMATH], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("3.14159265358979323846264338328 "
                           "PrecisionReal(3.14159265358979323846264338328, digits=30) "
                           "3.141592653589793 True\nmpf needs mpmath\n")


def test_values_are_exact_dyadic_fractions_and_mpf_is_exact():
    value = eval_pi_power(1, 300)
    assert isinstance(value.value, Fraction) and value.digits == 300
    assert value.value.denominator & (value.value.denominator - 1) == 0
    num, den = value.value.as_integer_ratio()
    with mp.workprec(15):  # the mpf keeps every bit, whatever mpmath's precision
        x = value.mpf
    with mp.workprec(num.bit_length() + den.bit_length()):
        assert x * den == num
    assert PrecisionReal(Fraction(3, 4), 5) == PrecisionReal(mp.mpf(0.75), 5) == (Fraction(3, 4), 5)
    with pytest.raises(ValueError, match="dyadic"):
        PrecisionReal(Fraction(1, 3), 5)


def test_a_thread_pool_returns_the_serial_values():
    calls = [(eval_pi_power, 1, 30), (zeta_reference, 3, 300), (verify_all, 1, 60),
             (eval_pi_power, 5, 1000), (zeta_reference, 9, 40), (verify_all, 1, 20),
             (eval_pi_power, 3, 200), (zeta_reference, 5, 1200)] * 2
    serial = [function(a, digits) for function, a, digits in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so that the threads interleave inside each call
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda call: call[0](*call[1:]), calls, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_no_module_has_a_global_statement():
    # no call rebinds module state: fixed holds its two constants alone, and
    # what a call leaves behind is the Bernoulli memo and the pair table
    source = pathlib.Path(plouffe.__file__).resolve().parent
    for path in source.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name
    tree = ast.parse((source / "fixed.py").read_text())
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets}
    assert assigned == {"GUARD", "MAX_TERMS"}


def test_every_name_the_benchmark_tracer_wraps_is_callable():
    # perfbench/tracer.py skips a missing name in silence, so check them here
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [pair for pairs in tracer.SPANS.values() for pair in pairs]
    names += [("plouffe.series", "truncation_index"), ("plouffe.bernoulli", "memo_snapshot")]
    assert len(names) > 12
    for module, name in names:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def names_used(path):
    """{name: the functions of the module at `path` that use it}, for every
    name and attribute the code reads; code outside a function counts as
    the module's own."""
    used = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name:
                used.setdefault(name, set()).add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{path.stem}.{child.name}" if inner else owner)

    visit(ast.parse(path.read_text()), path.stem)
    return used


def test_the_kernel_and_the_oracles_are_reached_only_through_term_values():
    # series.term_values is the one door to the numbers: everything reaches
    # the kernel and the oracles through it, and its integers (m, prec) are
    # read by series._exact alone, so they never leave series
    source = pathlib.Path(plouffe.__file__).resolve().parent
    used = {}
    for path in source.glob("*.py"):
        for name, owners in names_used(path).items():
            used.setdefault(name, set()).update(owners)
    assert used["q_sums"] == used["zeta_fixed"] == used["pi_power"] == used["apery_fixed"] == {
        "series.term_values"}
    assert used["term_values"] == {"series._exact"}
    for module in ("cli", "relations", "identities"):
        tree = ast.parse((source / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("oracles", "plouffe.oracles"), module
                assert "q_sums" not in {alias.name for alias in node.names}, module
            elif isinstance(node, ast.Import):
                assert "plouffe.oracles" not in {alias.name for alias in node.names}, module


def test_each_zeta_identity_and_the_rho_pi_j_reader_are_stated_once():
    # triple_for and the verify forms read one statement of each zeta
    # identity, and every (rho, j) pair, alpha included, is read by _rho_j
    source = pathlib.Path(plouffe.__file__).resolve().parent
    in_bernoulli, in_identities = (names_used(source / f"{module}.py")
                                   for module in ("bernoulli", "identities"))
    assert "bernoulli.triple_for" in in_bernoulli["_zeta_identity"]
    assert any(owner.startswith("identities.") for owner in in_identities["_zeta_identity"])
    assert "f_sum" not in in_identities
    imported = {alias.name for node in ast.walk(ast.parse((source / "identities.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "f_sum" not in imported
    assert "identities._ramanujan" in in_identities["_rho_j"]
    assert "identities._ramanujan" not in in_identities.get("ratio", ())
    assert "_pslq" not in names_used(source / "relations.py")


def test_the_pair_products_and_every_rate_are_read_in_one_place():
    # bernoulli._pairs is the one table of Bernoulli pair products, which the
    # F/G/H sums and Ramanujan's formula read, and series._rho_j reads every rate
    source = pathlib.Path(plouffe.__file__).resolve().parent
    in_bernoulli, in_identities, in_series = (names_used(source / f"{module}.py")
                                              for module in ("bernoulli", "identities", "series"))
    assert "bernoulli._pair_sum" in in_bernoulli["_pairs"]
    assert "identities._ramanujan" in in_identities["_pairs"]
    for path in source.glob("*.py"):
        assert not {"_bernoulli_pair_term", "comb"} & set(names_used(path)), path.name
    for reader, used in (("series.__new__", in_series), ("identities._ts_identity", in_identities)):
        assert reader in used["_rho_j"]
        assert reader not in used.get("ratio", ())


def test_the_triples_up_to_max_m_are_listed_once():
    # bernoulli._triples is the one list of the triples that table prints and verify checks
    source = pathlib.Path(plouffe.__file__).resolve().parent
    in_cli, in_identities = (names_used(source / f"{module}.py") for module in ("cli", "identities"))
    assert "cli._cmd_table" in in_cli["_triples"]
    assert "identities._verify_checks" in in_identities["_triples"]
    assert "cli._cmd_table" not in in_cli["PI_POWER"]
    assert "PI_POWER" not in in_identities


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
    with pytest.raises(ValueError, match=r"^series exponent n must be >= 1$"):
        spec._replace(n=0)
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        SeriesSpec._make([1, 2, 0])


def test_records_raise_the_same_errors():
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        PrecisionReal(mp.mpf(1), 0)
    with pytest.raises(ValueError, match=r"^series exponent n must be >= 1$"):
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


def test_every_residual_is_a_precision_real():
    # pslq's zero-entry, found and not-found exits, and every API record
    results = [pslq([0, 1], 10), pslq([1, 2], 30),
               pslq([Fraction(314159265358979323846, 10 ** 20),
                     Fraction(271828182845904523536, 10 ** 20)], 15, 10),
               rediscover_triple("zeta", 3, 30)[0], *verify_all(1, 20),
               ramanujan_residual((Fraction(1), 1), 1, 20), symmetric_point_residual(1, 20),
               zeta_4m1_residual(1, 20), vepstas_residual(1, 20), ts_identity_residual(3, 1, 20),
               triple_residual("zeta", 3, 20)]
    assert [r.stop for r in results[:3]] == ["found", "found", "norm bound"]
    assert all(type(r.residual) is PrecisionReal for r in results)
    assert {r.residual.digits for r in results[3:]} == {20, 30}


def s_series_of_spec(n, r, digits):
    return s_series(SeriesSpec(n, r, digits))


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
    (s_series_of_spec, (3, 1)),
    (zeta_reference, (3,)),
    (apery_zeta3, ()),
    (PrecisionReal, (1,)),
]


def forbid_computing(monkeypatch):
    """Make the one evaluator, the kernel, the oracles and the Bernoulli layer
    fail wherever they are bound."""
    def computed(*_):
        raise AssertionError("computed before rejecting digits")

    monkeypatch.setattr(series, "term_values", computed)  # which series._exact reads
    monkeypatch.setattr(series, "_s_raw", computed)
    for module in (fixed, series):
        monkeypatch.setattr(module, "q_sums", computed)
    for name in ("pi_power", "zeta_fixed", "apery_fixed"):
        monkeypatch.setattr(series, name, computed)
    for name in ("triple_for", "_triples", "_pairs", "_zeta_identity", "g_sum", "h_sum"):
        monkeypatch.setattr(identities, name, computed)
    for module in (series, relations):
        monkeypatch.setattr(module, "triple_for", computed)


@pytest.mark.parametrize("digits", [0, -3])
@pytest.mark.parametrize("function, args", ENTRY_POINTS)
def test_entry_points_reject_digits_below_one(function, args, digits):
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        function(*args, digits)


@pytest.mark.parametrize("function, args", ENTRY_POINTS)
def test_entry_points_reject_digits_before_computing(monkeypatch, function, args):
    forbid_computing(monkeypatch)
    with pytest.raises(ValueError, match=r"^digits must be >= 1$"):
        function(*args, 0)


@pytest.mark.parametrize("argv, message", [
    *[((command, *args, "--digits", digits), "digits must be >= 1")
      for command, args in (("eval", ("pi", "3")), ("verify", ()), ("discover", ("pi", "3")))
      for digits in ("0", "-3")],
    (("verify", "--max-m", "150", "--digits", "0"), "digits must be >= 1"),
    (("verify", "--max-m", "0"), "max_m must be >= 1"),
    (("table", "--max-m", "0"), "max_m must be >= 1"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_the_cli_leaves_refusing_digits_and_max_m_to_the_library(monkeypatch, capsys, argv,
                                                                 message):
    # exit 2 with the library's own message, nothing printed, nothing computed
    forbid_computing(monkeypatch)
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("digits", [10.5, 10.0, Fraction(10), True, "10"])
@pytest.mark.parametrize("function, args", ENTRY_POINTS)
def test_entry_points_reject_a_non_integer_digits_before_computing(monkeypatch, function, args,
                                                                    digits):
    # an integral float or Fraction is refused too, as for n, m and exponents
    forbid_computing(monkeypatch)
    with pytest.raises(ValueError, match=r"^digits must be an integer$"):
        function(*args, digits)


@pytest.mark.parametrize("value", [10.5, 10.0, Fraction(10), True, "10", 0])
def test_decimal_string_refuses_the_sig_digits_index_refuses(value):
    # fixed imports nothing from the package, so it states _index's test itself
    with pytest.raises(ValueError) as refused:
        _index(value, "sig_digits", 1)
    with pytest.raises(ValueError, match=rf"^{refused.value}$"):
        fixed.decimal_string(1, value)
    assert _index(10, "sig_digits", 1) == 10 and fixed.decimal_string(1, 10) == "1.000000000"


def test_no_module_checks_digits_itself():
    # bernoulli._index is the one integer check of digits, as of every other index
    source = pathlib.Path(plouffe.__file__).resolve().parent
    for path in source.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name):
                assert node.left.id != "digits", (path.name, node.lineno)


@pytest.mark.parametrize("function, args, message", [
    (symmetric_point_residual, (1.0, 10), "n must be an integer"),
    (zeta_4m1_residual, (1.5, 10), "m must be an integer"),
    (vepstas_residual, (1.5, 10), "m must be an integer"),
    (ramanujan_residual, (1, 1.5, 10), "n must be an integer"),
    (ts_identity_residual, (True, 1, 10), "n must be an integer"),
    (verify_all, (1.5, 10), "max_m must be an integer"),
    (min_digits_for, (4, 0), "max_coeff_bound must be >= 1"),
    (SeriesSpec, (True, 1, 10), "series exponent n must be an integer"),
    (SeriesSpec, (3.0, 1, 10), "series exponent n must be an integer"),
    (min_digits_for, (4.5, 10), "n_values must be an integer"),
    (min_digits_for, (True, 10), "n_values must be an integer"),
    (zeta_reference, (3.0, 10), "s must be an integer"),
    (zeta_reference, (True, 10), "s must be an integer"),
    (zeta_reference, (1, 10), "s must be >= 2"),
    (min_digits_for, (4, True), "max_coeff_bound must be an integer"),
    (min_digits_for, (4, 2.5), "max_coeff_bound must be an integer"),
    (min_digits_for, (4, "10"), "max_coeff_bound must be an integer"),
    (pslq, ([3, 7], 30, True), "max_coeff_bound must be an integer"),
    (pslq, ([3, 7], 30, 2.5), "max_coeff_bound must be an integer"),
    (pslq, ([3, 7], 30, "10"), "max_coeff_bound must be an integer"),
    (pslq, ([3, 7], 30, 0), "max_coeff_bound must be >= 1"),
])
def test_a_bad_number_is_named_before_computing(monkeypatch, function, args, message):
    def computed(*_):
        raise AssertionError("computed before rejecting the input")

    monkeypatch.setattr(series, "term_values", computed)  # which series._exact reads
    with pytest.raises(ValueError, match=rf"^{message}$"):
        function(*args)


@pytest.mark.parametrize("function, args", [
    (ramanujan_residual, ((1, 1.5), 1, 10)),
    (identities._run, (lambda: [("c", {}, [((1, 0.5), ("zeta", 3))])], 10)),
    (identities._run, (lambda: [("r", {}, [(1, series.series_term(3, (1, 1.5)))])], 10)),
    (series.term_values, ([series.series_term(3, (2, 1.0))], 10)),
])
def test_a_non_integer_power_of_pi_is_refused_before_computing(monkeypatch, function, args):
    def computed(*_):
        raise AssertionError("computed before rejecting the power of pi")

    # the kernel, the kernel's pi and the oracles, wherever they are bound
    for module in (fixed, series):
        monkeypatch.setattr(module, "q_sums", computed)
        monkeypatch.setattr(module, "pi_fixed", computed)
    for name in ("pi_power", "zeta_fixed"):
        monkeypatch.setattr(series, name, computed)
    with pytest.raises(ValueError, match=r"^the power of pi in rho pi\^j must be an integer, "
                                         r"not (1\.5|0\.5|1\.0)$"):
        function(*args)
