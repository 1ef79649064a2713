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
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def decimal_reference(value, sig_digits):
    """The digit string of an exact Fraction, rounded half-even on integers."""
    sign, value = ("-" if value < 0 else ""), abs(value)
    e = len(str(value.numerator)) - len(str(value.denominator))  # floor(log10), off by <= 1
    e += (value >= Fraction(10) ** (e + 1)) - (value < Fraction(10) ** e)
    t = e - sig_digits + 1
    n = round(value / Fraction(10) ** t)  # Fraction rounds half to even
    if n == 10 ** sig_digits:  # the round carried into a new leading digit
        t, n = t + 1, 10 ** (sig_digits - 1)
    digits = str(n)
    if t > 0:
        mantissa = digits[0] + ("." + digits[1:] if sig_digits > 1 else "")
        return f"{sign}{mantissa}e{t + sig_digits - 1:+d}"
    digits = digits.rjust(1 - t, "0")
    return sign + digits[:len(digits) + t] + ("." + digits[len(digits) + t:] if t else "")


@st.composite
def dyadic_cases(draw):
    """(man, exp, sig_digits); some values sit on a decimal tie or next to a power of ten."""
    kind = draw(st.sampled_from(["any", "tie", "power of ten"]))
    if kind == "power of ten":
        k, bits = draw(st.integers(-100, 50)), draw(st.integers(10, 300))
        exp = math.floor(k * math.log2(10)) - bits
        man = round(Fraction(10) ** k / Fraction(2) ** exp) + draw(st.integers(-2, 2))
    else:
        man = draw(st.integers(1, 2 ** 20 if kind == "tie" else 2 ** 300))
        exp = draw(st.integers(-40, 20) if kind == "tie" else st.integers(-400, 200))
    value = Fraction(man) * Fraction(2) ** exp
    exact = len(str(value.numerator * 10 ** 400 // value.denominator).rstrip("0"))
    # a dyadic non-integer ends in the digit 5, so one digit fewer is a tie
    if kind == "tie" and 2 <= exact <= 61:
        sig = exact - 1
    else:
        sig = draw(st.integers(1, 60))
    return draw(st.sampled_from([man, -man])), exp, sig


@settings(max_examples=200, deadline=None)
@given(case=dyadic_cases())
@example(case=(1279, -7, 1))  # 9.99... carries to 1e+1 at one digit, not "10"
def test_decimal_string_matches_an_exact_fraction_reference(case):
    man, exp, sig = case
    x = mp.make_mpf(mp.libmp.from_man_exp(man, exp))  # exact; mp.mpf(...) would round to 53 bits
    assert decimal_string(x, sig) == decimal_reference(Fraction(man) * Fraction(2) ** exp, sig)


def test_precision_real_validation():
    with pytest.raises(ValueError):
        PrecisionReal(mp.mpf(1), 0)


def test_format_rational():
    assert format_rational(Fraction(-259, 10)) == "-259/10"
    assert format_rational(Fraction(24)) == "24"
