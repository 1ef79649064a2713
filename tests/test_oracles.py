"""The integer oracles: Machin's pi is exactly floor(pi 2^prec), and its
powers, the pi-power targets of `discover`, and the eta oracle's zeta(s)
keep their error bounds; all against mpmath."""

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
