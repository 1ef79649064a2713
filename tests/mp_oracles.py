"""mpmath oracles and conversions for the tests, which alone import mpmath:
pi and the exponent-1 closed forms of S_1 as PrecisionReals, and exact
values as mpfs."""

import mpmath as mp

from plouffe.fixed import ratio
from plouffe.precision import GUARD, PrecisionReal


def mpf(x):
    """An exact dyadic value (a Fraction, PrecisionReal, int, float or mpf)
    as the mpf it is, not rounded to mpmath's context."""
    num, den = ratio(x)
    assert not den & (den - 1), f"not dyadic: denominator {den}"
    return mp.make_mpf(mp.libmp.from_man_exp(num, 1 - den.bit_length()))


def to_mpf(x):
    """Anything `ratio` takes as an mpf rounded to mpmath's context, once
    for a dyadic value (the division by a power of two is exact)."""
    num, den = ratio(x)
    return mp.mpf(num) / den


def pi_const(digits):
    """mpmath's pi with absolute error below 10**-digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD):
        return PrecisionReal(+mp.pi, digits)


def _s1_closed(r):
    """Closed form of S_1(r) for r in {1, 2, 4} at mpmath's precision."""
    pi = +mp.pi
    if r == 2:
        return mp.log(4 / pi) / 4 - pi / 12 + mp.loggamma(mp.mpf(3) / 4)
    s14 = (mp.mpf(11) / 8) * mp.log(2) + (mp.mpf(3) / 4) * mp.log(pi) \
        - mp.loggamma(mp.mpf(1) / 4) - pi / 6
    if r == 4:
        return s14
    return s14 + mp.log(mp.mpf(1) / 4) / 4 + pi / 8


def s1_closed_form(r, digits):
    """Log/log-gamma closed form of S_1(r), valid only for r in {1, 2, 4}."""
    if r not in (1, 2, 4):
        raise ValueError(f"no closed form implemented for rate {r!r}; use r in {{1, 2, 4}}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD + 5):
        return PrecisionReal(_s1_closed(int(r)), digits)
