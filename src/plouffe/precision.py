"""Arbitrary-precision primitives with explicit decimal-precision contracts.

The external unit of precision is decimal digits: a value carrying
``digits = D`` is accurate to an absolute error below ``10**-D``, and is
computed at ``digits + guard`` decimal places, so the published contract is
stated at the requested precision and the guard absorbs rounding noise.

Exact rational arithmetic is :class:`fractions.Fraction`, which already
guarantees a reduced numerator/denominator pair with a positive
denominator.  Real arithmetic is backed by mpmath.  Values are immutable
once constructed; note that mpmath's precision context is process-global,
so concurrent evaluation should use separate processes.
"""

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

import mpmath as mp

DEFAULT_GUARD = 20


def to_mpf(value):
    """Convert to mpf at the ambient mpmath precision (exact for Fraction)."""
    if isinstance(value, PrecisionReal):
        return value.mpf
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


@dataclass(frozen=True)
class PrecisionReal:
    """Real number accurate to an absolute error below ``10**-digits``."""

    mpf: mp.mpf
    digits: int
    guard: int = DEFAULT_GUARD

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")

    def to_decimal_string(self, sig_digits=None):
        """Decimal string with exactly ``sig_digits`` significant digits
        (round-half-even at the final digit, trailing zeros kept)."""
        return decimal_string(self.mpf, sig_digits if sig_digits is not None else self.digits)

    def __float__(self):
        return float(self.mpf)

    def __repr__(self):
        shown = min(self.digits, 30)
        return f"PrecisionReal({decimal_string(self.mpf, shown)}, digits={self.digits})"


def pi_const(digits, guard=DEFAULT_GUARD):
    """pi with absolute error below 10**-digits.

    Deterministic: repeated calls at the same precision yield identical
    digit strings.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + guard):
        return PrecisionReal(+mp.pi, digits, guard)


def decimal_string(x, sig_digits):
    """Render an mpf with exactly ``sig_digits`` significant digits.

    Exact binary-to-decimal conversion followed by a single half-even
    rounding, so the digit string is a deterministic function of the value.
    Trailing zeros are kept: the digit count is part of the contract.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    if not isinstance(x, mp.mpf):
        with mp.workdps(sig_digits + 30):
            x = mp.mpf(x)
    if x == 0:
        return "0"
    # read the raw (sign, mantissa, exponent) triple: any mpmath arithmetic
    # here would silently re-round the value at the ambient precision
    sign_bit, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    if man == 0:
        raise ValueError(f"cannot render non-finite value {x!r}")
    sign = "-" if sign_bit else ""
    with localcontext() as ctx:
        # man * 2**exp expands to a finite decimal; convert exactly
        ctx.prec = len(str(man)) + abs(exp) + sig_digits + 10
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(man) * (Decimal(2) ** exp)
        target = d.adjusted() - sig_digits + 1
        r = d.quantize(Decimal(1).scaleb(target))
        if r.adjusted() > d.adjusted():
            # the round carried into a new leading digit (9.99... -> 10.0...)
            r = r.quantize(Decimal(1).scaleb(target + 1))
    if target > 0:
        # fewer requested digits than integer places: keep the count visible
        return sign + format(r, "e")
    return sign + format(r, "f")


def agreement_digits(a, b, dps=None):
    """Decimal digits of absolute agreement: floor(-log10 |a - b|).

    Returns a large sentinel (10**6) when the two values are identical.
    """
    if dps is None:
        da = a.digits + a.guard if isinstance(a, PrecisionReal) else mp.mp.dps
        db = b.digits + b.guard if isinstance(b, PrecisionReal) else mp.mp.dps
        dps = max(da, db) + 10
    with mp.workdps(dps):
        diff = abs(to_mpf(a) - to_mpf(b))
        if diff == 0:
            return 10 ** 6
        return int(mp.floor(-mp.log10(diff)))


def format_rational(q):
    """Fully reduced "p/q" string, or a bare integer when q == 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
