"""The integer oracles: Machin's pi is exactly floor(pi 2^prec), and its
powers, the pi-power targets of `discover`, and the eta oracle's zeta(s)
keep their error bounds, on both sides of the s past which zeta(s) is 1 to
the working precision; all against mpmath.  A huge s returns at once."""

import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plouffe import oracles
from plouffe.oracles import machin_pi, pi_power, zeta_fixed


def mpmath_floor(value, prec):
    """floor(value 2^prec) for an mpmath expression, taken 64 bits finer."""
    with mp.workprec(prec + 64):
        return int(mp.floor(mp.ldexp(value(), prec)))


# Drawn up to 70000 bits, past the 66500 bits of a 20000-digit pi.
@settings(max_examples=15, deadline=None)
@given(prec=st.integers(0, 70000))
@example(prec=0)
@example(prec=70000)
def test_machin_pi_is_the_floor_of_pi(prec):
    assert machin_pi(prec) == mpmath_floor(lambda: +mp.pi, prec)


def test_machin_pi_doubles_its_guard_past_an_unclear_floor(monkeypatch):
    # pi's bits leave no precision below 10^6 within 40 units of a multiple
    # of 2^guard, so the first pass is made unclear: both arctans read 0
    split, calls = oracles._arctan_split, []

    def unclear_first_pass(x, a, b):
        calls.append(b)
        return (1, 1, 0) if len(calls) <= 2 else split(x, a, b)

    monkeypatch.setattr(oracles, "_arctan_split", unclear_first_pass)
    assert machin_pi(3000) == mpmath_floor(lambda: +mp.pi, 3000)
    assert calls[2] > calls[0]  # the second pass sums more terms, at twice the guard


@pytest.mark.parametrize("k", [0, 1, 2, 13, 41])
@pytest.mark.parametrize("digits", [1, 50, 2035])
def test_pi_power_is_within_its_bound(k, digits):
    m, prec = pi_power(k, digits)
    with mp.workdps(digits + k + 30):
        error = abs(mp.ldexp(m, -prec) - mp.pi ** k)
        assert error < mp.mpf(10) ** -digits


# (9, 2036) and (17, 2036): zeta targets of a discover near 2000 digits, at
# its accuracy; D = 145, 229 and 232 are the only D <= 2100 where the eta
# sum runs unshifted.
@settings(max_examples=12, deadline=None)
@given(s=st.integers(2, 60), digits=st.integers(1, 2100))
@example(s=9, digits=2036)
@example(s=17, digits=2036)
@example(s=2, digits=145)
@example(s=3, digits=229)
@example(s=60, digits=1)
def test_zeta_fixed_is_within_its_bound(s, digits):
    m, prec = zeta_fixed(s, digits)
    with mp.workdps(digits + 30):
        error = abs(mp.ldexp(m, -prec) - mp.zeta(s))
        assert error < mp.mpf(10) ** -digits


@pytest.mark.parametrize("digits", [1, 30, 500])
def test_zeta_fixed_is_within_its_bound_at_the_large_s_threshold(digits):
    # from s = prec + 2 on, zeta(s) - 1 < 2**-(prec + 1) and no term is summed
    prec = zeta_fixed(2, digits)[1]
    assert zeta_fixed(prec + 2, digits) == (1 << prec, prec)
    for s in (prec + 1, prec + 2, prec + 3):
        m, p = zeta_fixed(s, digits)
        with mp.workdps(digits + 30):
            assert abs(mp.ldexp(m, -p) - mp.zeta(s)) < mp.mpf(10) ** -digits


def test_zeta_reference_at_a_huge_s_returns_at_once():
    # an eta sum over (k + 1)**(10**7) runs for minutes: in a child, so that
    # it fails on the timeout instead of hanging the suite
    child = "from plouffe import zeta_reference; print(zeta_reference(10**7, 5).to_decimal_string())"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "1.0000\n"), proc.stderr
