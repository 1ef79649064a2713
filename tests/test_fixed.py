"""The integer fixed-point layer: pi, e^(-x) and q = e^(-pi r) against
mpmath's floors, the shared kernel pass against mpmath and against each
sum alone, values independent of the call order, `nstr` against an exact
reference and mpmath's, and an `eval` that runs with mpmath unavailable.
"""

import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plouffe import fixed
from plouffe.bernoulli import triple_for
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


@settings(max_examples=25, deadline=None)
@given(prec=PRECS)
@example(prec=70000)
def test_pi_fixed_is_the_floor_of_pi(prec):
    assert fixed.pi_fixed(prec) == mpmath_floor(lambda: +mp.pi, prec)


def test_pi_fixed_doubles_its_guard_past_an_unclear_floor(monkeypatch):
    # pi's bits leave no precision below 10^6 within 4 units of a multiple of
    # 2^32, so the first pass is made unclear: its sum reads Q = 0, so v = 0
    chudnovsky, calls = fixed._chudnovsky, []

    def unclear_first_pass(a, b):
        calls.append(b)
        return (1, 0, 1) if len(calls) == 1 else chudnovsky(a, b)

    monkeypatch.setattr(fixed, "_chudnovsky", unclear_first_pass)
    assert fixed.pi_fixed(3000) == mpmath_floor(lambda: +mp.pi, 3000)
    assert calls[1] > calls[0]  # the second pass sums more terms, at twice the guard


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


def lambert(n, rate, plus_one):
    """S_n(rate), or T_n(rate) with plus_one, summed by mpmath to 10 places
    past the ambient precision (its terms fall at least fivefold)."""
    x, total, k, eps = mp.pi * rate.numerator / rate.denominator, mp.mpf(0), 1, mp.eps / 1e10
    while True:
        term = 1 / (mp.mpf(k) ** n * (mp.exp(x * k) + (1 if plus_one else -1)))
        total += term
        if term < eps:
            return total
        k += 1


OUTPUT = st.lists(st.tuples(st.sampled_from((1, 2, 4, 8)),
                            st.fractions(-1000, 1000, max_denominator=60).filter(bool)),
                  min_size=1, max_size=3).map(tuple)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 41), plus_one=st.booleans(),
       rate=st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2))),
       triple=st.tuples(st.sampled_from(("pi", "zeta")), st.integers(1, 20).map(lambda i: 2 * i + 1)),
       others=st.lists(OUTPUT, max_size=3), position=st.integers(0, 3),
       digits=st.integers(1, 400))
@example(n=5, plus_one=False, rate=Fraction(1), triple=("pi", 5),
         others=[((1, 1),), ((2, 1),), ((4, 1),)], position=3, digits=400)
def test_shared_pass_matches_mpmath_and_each_sum_alone(n, plus_one, rate, triple, others,
                                                       position, digits):
    outputs = others[:position] + [triple_for(*triple).weights()] + others[position:]
    sums, prec = fixed.q_sums(n, rate, digits, outputs, plus_one)
    assert fixed.q_sums(n, rate, digits, outputs, plus_one) == (sums, prec)
    assert fixed.q_sums(n, rate, digits, outputs[::-1], plus_one) == (sums[::-1], prec)
    size = max(abs(w) for weights in outputs for _, w in weights)
    with mp.workdps(digits + 30 + int(size).bit_length() // 3):
        series = {s: lambert(n, s * rate, plus_one) for s in (1, 2, 4, 8)}
        for weights, m in zip(outputs, sums):
            reference = mp.fsum(series[s] * w.numerator / w.denominator for s, w in weights)
            assert abs(mp.ldexp(m, -prec) - reference) < mp.mpf(10) ** -digits
            # the same truncation alone, so only the roundings differ, each
            # under 10**-(digits + 1)
            (alone,), alone_prec = fixed.q_sums(n, rate, digits, [weights], plus_one)
            gap = abs((m << alone_prec) - (alone << prec))
            assert gap * 10 ** (digits + 1) < 2 << (prec + alone_prec)


def test_values_do_not_depend_on_the_call_order():
    first = eval_pi_power(1, 300)
    eval_pi_power(1, 4000)
    assert eval_pi_power(1, 300) == first


def test_decimal_string_renders_a_dyadic_value_whole():
    # eval renders its value's dyadic Fraction, reduced or not, with no power
    # of two passed apart: decimal_string takes the value and the digits alone
    m = 3 * 2 ** 70 + 12345
    assert fixed.decimal_string(Fraction(m, 2 ** 70), 30) == "3.00000000000000001045662173385"
    assert fixed.decimal_string(Fraction(5 << 70, 2 ** 67), 4) == "40.00"
    assert fixed.decimal_string(Fraction(0, 2 ** 10), 4) == "0"
    with pytest.raises(TypeError):
        fixed.decimal_string(m, 30, -70)


def test_ratio_is_exact_and_rejects_non_finite_values():
    assert fixed.ratio(mp.mpf(0.375)) == (3, 8)
    assert fixed.ratio(mp.mpf(-24)) == (-24, 1)
    assert fixed.ratio(Fraction(-6, 4)) == (-3, 2)
    assert fixed.ratio(0.1) == Fraction(0.1).as_integer_ratio()
    assert fixed.ratio(10 ** 400) == (10 ** 400, 1)  # no float is taken of the input
    for value in (mp.inf, -mp.inf, mp.nan, math.inf, -math.inf, math.nan,
                  Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), Decimal("sNaN")):
        with pytest.raises(ValueError, match="non-finite"):
            fixed.ratio(value)


@st.composite
def near_decimals(draw):
    """(m, e) for m 2**e next to, or at, d 10**k: d a tie or a carry at 5 or
    10 digits (9.99995 rounds up to 10.000), k inside the fixed-notation
    window, around +-300 or +-1200, or anywhere in +-1300."""
    d = draw(st.sampled_from([999995, 123445, 100005, 99999, 5, 99999999995, 12345678905]))
    k = draw(st.one_of(st.integers(-12, 12), st.sampled_from([-1200, -300, 300, 1200]),
                       st.integers(-1300, 1300)))
    value = d * Fraction(10) ** k
    if value.denominator == 1 and draw(st.booleans()):
        return value.numerator, 0  # the tie itself
    num, den = value.as_integer_ratio()
    shift = draw(st.integers(20, 140)) - num.bit_length() + den.bit_length()
    return math.floor(value * Fraction(2) ** shift) + draw(st.integers(-1, 1)), -shift


DYADICS = st.one_of(
    near_decimals(),
    st.tuples(st.integers(-2 ** 200, 2 ** 200),
              st.one_of(st.integers(-80, 80), st.integers(-4300, 4300))),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.just(0)))


def log10_floor(value):
    """floor(log10 value) of a Fraction value > 0, exactly."""
    e = math.floor((value.numerator.bit_length() - value.denominator.bit_length()) * math.log10(2))
    return e + (value >= Fraction(10) ** (e + 1)) - (value < Fraction(10) ** e)  # off by <= 1


def nstr_reference(value, dps):
    """The text `nstr` gives for a Fraction, from Fractions alone: rounded half
    up at dps significant digits, trailing zeros stripped, fixed notation for
    decimal exponents strictly inside (min(-(dps // 3), -5), dps)."""
    if not value:
        return "0.0"
    sign, value = "-" * (value < 0), abs(value)
    e = log10_floor(value)
    n = math.floor(value / Fraction(10) ** (e - dps + 1) + Fraction(1, 2))
    if n == 10 ** dps:  # 9.99... carried into a new leading digit
        n, e = n // 10, e + 1
    digits = str(n)
    if min(-(dps // 3), -5) < e < dps:
        text = "0." + "0" * (-e - 1) + digits if e < 0 else digits[:e + 1] + "." + digits[e + 1:]
        e = 0
    else:
        text = digits[0] + "." + digits[1:]
    text = text.rstrip("0")
    return sign + text + "0" * text.endswith(".") + (f"e{e:+d}" if e else "")


def near_a_tie(value, dps):
    """Whether |value| lies within 1/100 of a unit in the dps-th digit of a
    half-way point, where mpmath's truncated digits may round the other way."""
    units = abs(value) / Fraction(10) ** (log10_floor(abs(value)) - dps + 1)
    return abs(units - math.floor(units) - Fraction(1, 2)) < Fraction(1, 100)


VALUES = st.one_of(
    DYADICS.map(lambda dyadic: Fraction(dyadic[0]) * Fraction(2) ** dyadic[1]),
    st.fractions(),
    # exact decimal ties and carries, dyadic or not, across both notation boundaries
    st.builds(lambda d, k: d * Fraction(10) ** k,
              st.sampled_from([999995, 123445, 100005, 99999, 5, 99999999995, 12345678905]),
              st.integers(-20, 20)))


@settings(max_examples=400, deadline=None)
@given(value=VALUES)
@example(value=Fraction(9.99995e-300))
@example(value=Fraction(999995 * 10 ** 1195))
@example(value=Fraction(0))
@example(value=Fraction(123445 * 10 ** 1259))  # past 2^3500, on a tie at 5 digits
@example(value=Fraction(1001362694914403195, 2 ** 3787))  # past 2^-3500
@example(value=Fraction(78833629391487, 2 ** 4657))
@example(value=Fraction(999995, 10 ** 5))  # 9.99995 carries to 10.0 at 5 digits
@example(value=Fraction(999995, 10))  # and 99999.5 to 1.0e+5, out of fixed notation
@example(value=Fraction(999995, 10 ** 10))  # and 0.0000999995 to 0.0001, into it
def test_nstr_is_correctly_rounded_in_mpmaths_notation(value):
    # against an exact reference, and for a dyadic value, which mpmath holds
    # exactly, against mpmath's nstr wherever its truncated digits cannot
    # double-round
    num, den = value.as_integer_ratio()
    for dps in (5, 10):
        expected = nstr_reference(value, dps)
        assert fixed.nstr(value, dps) == expected
        assert fixed.nstr(-value, dps) == nstr_reference(-value, dps)
        if not den & (den - 1):
            x = mp.make_mpf(mp.libmp.from_man_exp(num, 1 - den.bit_length()))  # exact, not rounded
            assert fixed.nstr(x, dps) == expected
            if not value or not near_a_tie(value, dps):
                assert mp.nstr(x, dps) == expected


@pytest.mark.parametrize("value, dps, text", [
    (Fraction(1, 8), 2, "0.13"),  # a tie rounds half up
    (Fraction(-1, 8), 2, "-0.13"),
    (Fraction(1, 3), 5, "0.33333"),  # a value that is not dyadic
    (Fraction(123445, 10 ** 5), 5, "1.2345"),
    (Fraction(999995, 10 ** 5), 5, "10.0"),
    (Fraction(999995, 10), 5, "1.0e+5"),
    (Fraction(999995, 10 ** 10), 5, "0.0001"),
    (Fraction(123456, 10 ** 10), 5, "1.2346e-5"),  # exponent -5: the lower boundary
    (Fraction(123456, 10 ** 9), 5, "0.00012346"),
    (Fraction(12345678, 100), 10, "123456.78"),
    (Fraction(2) ** 4000, 5, "1.3182e+1204"),  # past 2^3500
    (Fraction(2) ** -4000, 5, "7.5861e-1205"),
])
def test_nstr_examples(value, dps, text):
    assert fixed.nstr(value, dps) == text


@settings(max_examples=100, deadline=None)
@given(a=st.fractions(), b=st.fractions(), scale=st.integers(-3000, 3000))
@example(a=Fraction(1, 10), b=Fraction(0), scale=-3)  # |a - b| = 10**-4 exactly
@example(a=Fraction(3), b=Fraction(2), scale=0)
@example(a=Fraction(10 ** 50 - 1, 10 ** 47), b=Fraction(0), scale=0)  # 999.99..., 50 nines
def test_agreement_digits_is_the_floor_of_minus_log10(a, b, scale):
    a, b = a * Fraction(10) ** scale, b * Fraction(10) ** scale
    k = fixed.agreement_digits(a, b)
    if a == b:
        assert k == 10 ** 6
    else:
        assert Fraction(10) ** -(k + 1) < abs(a - b) <= Fraction(10) ** -k


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
    return subprocess.run([sys.executable, "-c", NO_MPMATH, *argv], capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_eval_runs_without_mpmath(capsys, fmt):
    argv = ["eval", "zeta", "5", "--digits", "60", "--format", fmt]
    proc = without_mpmath(*argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == f"0\n{capsys.readouterr().out}"


def test_eval_check_runs_without_mpmath(capsys):
    argv = ["eval", "pi", "1", "--check"]
    proc = without_mpmath(*argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == f"0\n{capsys.readouterr().out}"
