"""Arbitrary-precision primitives with explicit decimal-precision contracts.

The only unit of precision is decimal digits: a value carrying
``digits = D`` is accurate to an absolute error below ``10**-D``.  It is
computed at ``D + GUARD`` decimal places, a fixed 20 guard digits that
absorb rounding noise, so the contract is stated in ``D`` alone.

Exact rational arithmetic is :class:`fractions.Fraction`, which already
guarantees a reduced numerator/denominator pair with a positive
denominator.  Real arithmetic is backed by mpmath.  A value is a named tuple
(mpf, digits); a (rho, j) pair in `identities` is a plain tuple.  mpmath's
precision context is process-global, so evaluate concurrently in processes.
"""

from collections import namedtuple
from fractions import Fraction

import mpmath as mp

# public here too; their homes import no mpmath
from .bernoulli import format_rational  # noqa: F401
from .fixed import GUARD, decimal_string  # noqa: F401


def to_mpf(value):
    """Convert to mpf at the ambient mpmath precision (exact for Fraction)."""
    if isinstance(value, PrecisionReal):
        return value.mpf
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def from_fixed(mantissa, prec):
    """mantissa 2^-prec as an exact mpf, not rounded to the context."""
    return mp.make_mpf(mp.libmp.from_man_exp(mantissa, -prec))


class PrecisionReal(namedtuple("PrecisionReal", "mpf digits")):
    """Real number accurate to an absolute error below ``10**-digits``."""

    __slots__ = ()

    def __new__(cls, mpf, digits):
        if digits < 1:
            raise ValueError("digits must be >= 1")
        return super().__new__(cls, mpf, digits)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks as the constructor does

    def to_decimal_string(self):
        """Decimal string with exactly ``digits`` significant digits
        (round-half-even at the final digit, trailing zeros kept)."""
        return decimal_string(self.mpf, self.digits)

    def __float__(self):
        return float(self.mpf)

    def __repr__(self):
        shown = min(self.digits, 30)
        return f"PrecisionReal({decimal_string(self.mpf, shown)}, digits={self.digits})"


def pi_const(digits):
    """pi with absolute error below 10**-digits.

    Deterministic: repeated calls at the same precision yield identical
    digit strings.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD):
        return PrecisionReal(+mp.pi, digits)


def agreement_digits(a, b):
    """Decimal digits of absolute agreement of two PrecisionReals:
    floor(-log10 |a - b|).

    Returns a large sentinel (10**6) when the two values are identical.
    """
    with mp.workdps(max(a.digits, b.digits) + GUARD + 10):
        diff = abs(a.mpf - b.mpf)
        if diff == 0:
            return 10 ** 6
        return int(mp.floor(-mp.log10(diff)))
