"""The integer fixed-point layer: pi, e^(-x) and q = e^(-pi r) against
mpmath's floors, values independent of the call order, and an `eval` that
runs with mpmath unavailable.
"""

import os
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plouffe import fixed
from plouffe.cli import main
from plouffe.series import eval_pi_power

# Drawn up to 70000 bits, past the 66500 bits of a 20000-digit eval.
PRECS = st.integers(0, 70000)
RATES = st.one_of(st.fractions(Fraction(1, 100), 50, max_denominator=1000),
                  st.floats(0.01, 50).map(mp.mpf))


def mpmath_floor(value, prec):
    """floor(value 2^prec) for an mpmath expression, taken 64 bits finer."""
    with mp.workprec(prec + 64):
        return int(mp.floor(mp.ldexp(value(), prec)))


@pytest.fixture
def fresh_pi(monkeypatch):
    """An empty pi memo, as in a new process."""
    monkeypatch.setattr(fixed, "_pi", (0, 3))


@settings(max_examples=25, deadline=None)
@given(prec=PRECS, fresh=st.booleans())
@example(prec=70000, fresh=True)
def test_pi_fixed_is_the_floor_of_pi(prec, fresh):
    saved = fixed._pi
    try:
        if fresh:
            fixed._pi = (0, 3)
        assert fixed.pi_fixed(prec) == mpmath_floor(lambda: +mp.pi, prec)
    finally:
        fixed._pi = saved


@settings(max_examples=15, deadline=None)
@given(prec=PRECS, rate=RATES)
@example(prec=70000, rate=Fraction(1, 100))
@example(prec=66500, rate=mp.mpf(50))
def test_q_fixed_is_within_one_unit_of_the_floor(prec, rate):
    exact = Fraction(*fixed.ratio(rate))
    with mp.workprec(prec + 64 + exact.denominator.bit_length()):
        rate_mpf = mp.mpf(exact.numerator) / exact.denominator
    expected = mpmath_floor(lambda: mp.exp(-mp.pi * rate_mpf), prec)
    assert abs(fixed.q_fixed(exact, prec) - expected) <= 1


@settings(max_examples=40, deadline=None)
@given(prec=st.integers(0, 3000), x=st.integers(0, 2 ** 3100))
def test_exp_neg_is_within_one_unit_of_the_floor(prec, x):
    # x 2^-prec spans 0 to far past the point where the value floors to 0
    expected = mpmath_floor(lambda: mp.exp(-mp.ldexp(x, -prec)), prec)
    assert abs(fixed.exp_neg(x, prec) - expected) <= 1


def test_exp_neg_of_zero_is_one():
    for prec in (0, 1, 64, 5000):
        assert fixed.exp_neg(0, prec) == 1 << prec


def test_pi_memo_serves_shorter_pi_as_the_fresh_floor(fresh_pi):
    precs = [1, 100, 3323, 13300, 13301]
    fresh = []
    for prec in precs:
        fixed._pi = (0, 3)
        fresh.append(fixed.pi_fixed(prec))
    fixed.pi_fixed(20000)
    assert [fixed.pi_fixed(prec) for prec in precs] == fresh


def test_threads_share_the_pi_memo_safely(fresh_pi):
    top = 4000
    exact = mpmath_floor(lambda: +mp.pi, top)
    wrong, errors = [], []

    def worker(offset):
        try:
            for prec in range(offset, top, 97):  # rising, so the memo keeps being rebound
                if fixed.pi_fixed(prec) != exact >> (top - prec):
                    wrong.append(prec)
                if offset == 1:
                    fixed._pi = (0, 3)  # a lower memo, as a slower thread may store
        except Exception as exc:  # uncaught, it would surface only as a warning
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == []


def test_values_do_not_depend_on_the_call_order(fresh_pi):
    first = eval_pi_power(1, 300)
    eval_pi_power(1, 4000)
    assert eval_pi_power(1, 300) == first


def test_decimal_string_scales_by_a_power_of_two():
    m = 3 * 2 ** 70 + 12345
    assert fixed.decimal_string(m, 30, -70) == fixed.decimal_string(Fraction(m, 2 ** 70), 30)
    assert fixed.decimal_string(5, 4, 3) == "40.00"
    assert fixed.decimal_string(0, 4, -10) == "0"


def test_ratio_is_exact_and_rejects_non_finite_values():
    assert fixed.ratio(mp.mpf(0.375)) == (3, 8)
    assert fixed.ratio(mp.mpf(-24)) == (-24, 1)
    assert fixed.ratio(Fraction(-6, 4)) == (-3, 2)
    assert fixed.ratio(0.1) == Fraction(0.1).as_integer_ratio()
    for value in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(ValueError, match="non-finite"):
            fixed.ratio(value)


# A fresh interpreter in which `import mpmath` fails.
NO_MPMATH = """
import contextlib, io, sys
sys.modules["mpmath"] = None
from plouffe.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
sys.stdout.write(f"{code}\\n{out.getvalue()}")
"""


def without_mpmath(*argv):
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    return subprocess.run([sys.executable, "-c", NO_MPMATH, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_eval_runs_without_mpmath(monkeypatch, capsys, fmt):
    monkeypatch.delenv("PLOUFFE_CACHE", raising=False)
    argv = ["eval", "zeta", "5", "--digits", "60", "--format", fmt]
    proc = without_mpmath(*argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == f"0\n{capsys.readouterr().out}"


def test_eval_check_needs_mpmath():
    proc = without_mpmath("eval", "pi", "1", "--check")
    assert proc.returncode != 0
    assert "mpmath" in proc.stderr
