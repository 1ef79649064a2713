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
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

import mpmath as mp

from .bernoulli import format_rational  # noqa: F401  (public here too; its home imports no mpmath)

GUARD = 20  # decimal places computed beyond the requested digits


def to_mpf(value):
    """Convert to mpf at the ambient mpmath precision (exact for Fraction)."""
    if isinstance(value, PrecisionReal):
        return value.mpf
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


class PrecisionReal(namedtuple("PrecisionReal", "mpf digits")):
    """Real number accurate to an absolute error below ``10**-digits``."""

    __slots__ = ()

    def __new__(cls, mpf, digits):
        if digits < 1:
            raise ValueError("digits must be >= 1")
        return super().__new__(cls, mpf, digits)

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


def decimal_string(x, sig_digits):
    """Render an mpf, or anything `Fraction` takes, with exactly
    ``sig_digits`` significant digits.

    The value is one exact ratio of integers (an mpf is man * 2**exp), and
    one half-even decimal division at ``sig_digits`` rounds it, so the digit
    string is a deterministic function of the value.  Trailing zeros are
    kept: the digit count is part of the contract.  No int passes through
    str(), so Python's int/str digit limit never applies.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise ValueError(f"cannot render non-finite value {x!r}")
        # from the raw (sign, mantissa, exponent) triple: any mpmath arithmetic
        # here would silently re-round the value at the ambient precision
        num, den = map(int, mp.libmp.to_rational(x._mpf_))
    else:
        num, den = Fraction(x).as_integer_ratio()
    if num == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = ROUND_HALF_EVEN
        # the one rounding; a carry (9.99... -> 10.0...) moves the exponent
        rounded = Decimal(num) / Decimal(den)
        target = rounded.adjusted() - sig_digits + 1
        r = rounded.quantize(Decimal(1).scaleb(target))  # pads trailing zeros, exactly
    if target > 0:
        # fewer requested digits than integer places: keep the count visible
        return format(r, "e")
    return format(r, "f")


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
