"""The Python API's value type, with an explicit decimal-precision contract.

The only unit of precision is decimal digits: a value carrying
``digits = D`` is accurate to an absolute error below ``10**-D``.  It is
computed at ``D + GUARD`` decimal places, a fixed 20 guard digits that
absorb rounding noise, so the contract is stated in ``D`` alone.  The value
is the exact dyadic Fraction m 2**-prec that the library's integer paths
compute; its ``.mpf`` property is the one place that imports mpmath.
"""

from collections import namedtuple
from fractions import Fraction

# public here too
from .bernoulli import _index, format_rational  # noqa: F401
from .fixed import GUARD, agreement_digits, decimal_string, ratio  # noqa: F401


class PrecisionReal(namedtuple("PrecisionReal", "value digits")):
    """Real number accurate to an absolute error below ``10**-digits``: an
    exact dyadic Fraction, made from anything `fixed.ratio` takes."""

    __slots__ = ()

    def __new__(cls, value, digits):
        digits = _index(digits, "digits", 1)
        if not isinstance(value, Fraction):
            value = Fraction(*ratio(value))
        if value.denominator & (value.denominator - 1):
            raise ValueError(f"a PrecisionReal value is dyadic, got denominator {value.denominator}")
        return super().__new__(cls, value, digits)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks as the constructor does

    @property
    def mpf(self):
        """The value as an exact mpmath mpf, not rounded to mpmath's context."""
        import mpmath

        return mpmath.make_mpf(mpmath.libmp.from_man_exp(
            self.value.numerator, 1 - self.value.denominator.bit_length()))

    def as_integer_ratio(self):
        return self.value.as_integer_ratio()

    def to_decimal_string(self):
        """Decimal string with exactly ``digits`` significant digits
        (round-half-even at the final digit, trailing zeros kept)."""
        return decimal_string(self.value, self.digits)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        shown = min(self.digits, 30)
        return f"PrecisionReal({decimal_string(self.value, shown)}, digits={self.digits})"
