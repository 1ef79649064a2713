"""Contract tests for the arbitrary-precision primitives.

The cross-validation oracle here is deliberately independent of the
implementation backend: pi comes from an integer-arithmetic Machin-type
arctangent sum.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from plouffe.precision import PrecisionReal, decimal_string, format_rational, pi_const

PI_20 = "3.1415926535897932385"


def machin_pi_digits(count):
    """First `count` digits of pi ("3.1415...") from
    pi = 16 arctan(1/5) - 4 arctan(1/239) in pure integer arithmetic."""
    unit = 10 ** (count + 15)

    def arctan_inv(x):
        total = 0
        power = unit // x
        k = 0
        while power:
            term = power // (2 * k + 1)
            total += term if k % 2 == 0 else -term
            power //= x * x
            k += 1
        return total

    digits = str(16 * arctan_inv(5) - 4 * arctan_inv(239))
    return digits[0] + "." + digits[1:count]


def test_pi_20_digit_string():
    assert pi_const(20).to_decimal_string() == PI_20


def test_pi_minimal_precision():
    assert abs(float(pi_const(1)) - math.pi) < 0.1


def test_pi_monotonicity_500_vs_1000():
    long = pi_const(1000).to_decimal_string()
    short = pi_const(500).to_decimal_string()
    assert long[:498] == short[:498]


def test_pi_repeated_calls_identical():
    assert pi_const(200).to_decimal_string() == pi_const(200).to_decimal_string()


def test_pi_cross_validated_against_machin_oracle():
    oracle = machin_pi_digits(1010)
    value = pi_const(1000)
    with mp.workdps(1040):
        assert abs(value.mpf - mp.mpf(oracle)) < mp.mpf(10) ** -995
    assert value.to_decimal_string()[:998] == oracle[:998]


def test_exact_rational_field_axioms():
    rng = random.Random(20110220)

    def rand_fraction():
        return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 40))

    for _ in range(100):
        a, b, c = rand_fraction(), rand_fraction(), rand_fraction()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if b != 0:
            assert (a / b) * b == a
        assert math.gcd(abs(a.numerator), a.denominator) == 1
        assert a.denominator > 0


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_decimal_string_rounding_and_padding():
    with mp.workdps(30):
        assert decimal_string(mp.mpf(1), 8) == "1.0000000"
        assert decimal_string(mp.mpf("2.5"), 1) == "2"   # half to even
        assert decimal_string(mp.mpf("3.5"), 1) == "4"
        assert decimal_string(mp.mpf("-2.5"), 2) == "-2.5"
        assert decimal_string(mp.mpf(0), 5) == "0"
        assert decimal_string(mp.mpf(1) / 2 ** 20, 6) == "0.000000953674"


def test_precision_real_validation():
    with pytest.raises(ValueError):
        PrecisionReal(mp.mpf(1), 0)
    with pytest.raises(ValueError):
        PrecisionReal(mp.mpf(1), 10, guard=-1)


def test_format_rational():
    assert format_rational(Fraction(-259, 10)) == "-259/10"
    assert format_rational(Fraction(24)) == "24"
