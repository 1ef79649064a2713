"""Series evaluation tests: Lambert-type sums, assembly of pi powers and
odd zeta values, the independent oracles, the exponent-1 closed forms, and
rates checked exactly.

Brute-force oracles recompute each term with its own exponential (no
incremental power trick), so they exercise a different code path than the
evaluators under test.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracles import mpf, pi_const, s1_closed_form, to_mpf

from plouffe import fixed
from plouffe.bernoulli import Target, triple_for
from plouffe.oracles import apery_fixed
from plouffe.precision import PrecisionReal, agreement_digits
from plouffe.series import (
    SeriesSpec,
    _s_raw,
    _zeta_ref_raw,
    apery_zeta3,
    eval_pi_power,
    eval_zeta_odd,
    s_series,
    truncation_index,
    zeta_reference,
)

APERY_30 = "1.20205690315959428539973816151"


def brute_force_series(n, r, terms, dps, plus_one=False):
    """Direct summation, one exponential per term."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for k in range(1, terms + 1):
            denom = mp.exp(mp.pi * r * k) + (1 if plus_one else -1)
            total += 1 / (k ** n * denom)
        return total


def test_first_term_and_geometric_bounds():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([1, 2, 3, 5, 9])
        r = rng.choice([1, 2, 4, Fraction(3, 2)])
        value = s_series(SeriesSpec(n, r, 60)).mpf
        with mp.workdps(90):
            e = mp.exp(mp.pi * to_mpf(Fraction(r)))
            lower = 1 / (e - 1)
            upper = 1 / ((e - 1) * (1 - 1 / e))
            assert lower < value < upper


def test_pi_combination_of_s1_values():
    d = 120
    s1 = s_series(SeriesSpec(1, 1, d)).mpf
    s2 = s_series(SeriesSpec(1, 2, d)).mpf
    s4 = s_series(SeriesSpec(1, 4, d)).mpf
    with mp.workdps(d + 30):
        assert abs(72 * s1 - 96 * s2 + 24 * s4 - (+mp.pi)) < mp.mpf(10) ** -(d - 5)


def test_s_series_against_brute_force():
    value = s_series(SeriesSpec(5, 2, 100))
    oracle = brute_force_series(5, 2, 300, 140)
    with mp.workdps(140):
        assert abs(value.mpf - oracle) < mp.mpf(10) ** -100


def test_t_series_against_brute_force():
    value = mpf(_s_raw(5, 2, 100, plus_one=True))
    oracle = brute_force_series(5, 2, 300, 140, plus_one=True)
    with mp.workdps(140):
        assert abs(value - oracle) < mp.mpf(10) ** -100


@pytest.mark.parametrize("n", [1, 3, 5, 7])
@pytest.mark.parametrize("rate", [1, 2, 4, Fraction(1, 2)])
def test_t_equals_s_minus_2s_doubled(n, rate):
    d = 80
    t = mpf(_s_raw(n, rate, d + 20, plus_one=True))
    s = s_series(SeriesSpec(n, rate, d)).mpf
    s2 = s_series(SeriesSpec(n, 2 * rate, d)).mpf
    with mp.workdps(d + 30):
        assert abs(t - (s - 2 * s2)) < mp.mpf(10) ** -(d - 5)


def test_t_between_zero_and_s():
    for n, rate in ((1, 1), (3, 2), (5, 4), (2, Fraction(1, 2))):
        t = _s_raw(n, rate, 70, plus_one=True)
        s = s_series(SeriesSpec(n, rate, 50)).value
        assert 0 < t < s


def test_truncation_five_extra_terms_are_below_guard():
    for n, rate, d in ((1, 1, 100), (5, 2, 200), (9, 4, 150)):
        with mp.workdps(d + 40):
            base = _s_raw(n, rate, d + 20)
            with pytest.MonkeyPatch.context() as patch:  # the kernel sums five terms more
                patch.setattr(fixed, "truncation_index", lambda *args: truncation_index(*args) + 5)
                more = _s_raw(n, rate, d + 20)
            assert abs(more - base) < Fraction(1, 10 ** (d + 10))


def partial_sum(n, rate, terms, digits, plus_one=False, weights=((1, 1),)):
    """The first `terms` q-series terms of _s_raw as an mpf, rounded far below 10**-digits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixed, "truncation_index", lambda *_: terms)
        return mpf(_s_raw(n, rate, digits, plus_one, weights))


PI5_WEIGHTS = tuple(zip((1, 2, 4), triple_for(Target.PI_POWER, 5).coefficients()))


TAIL_CASES = (  # n, rate, digits, plus_one (T), weights
    (1, 1, 60, False, ((1, 1),)),
    (3, 2, 80, False, ((1, 1),)),
    (1, 1, 60, True, ((1, 1),)),
    (5, 2, 80, True, ((1, 1),)),
    (3, Fraction(1, 2), 60, False, ((1, 1),)),
    (3, Fraction(1, 2), 60, True, ((1, 1),)),
    (7, 2 * 1.3 / math.pi, 70, False, ((1, 1),)),
    (7, 2 * 1.3 / math.pi, 70, True, ((1, 1),)),
    (5, 1, 100, False, PI5_WEIGHTS),
)


def test_truncation_index_tail_bound_holds():
    # the proven bound must cover the actual tail: compare N against N + 200
    for n, rate, d, plus_one, weights in TAIL_CASES:
        weight = float(sum(abs(Fraction(w)) for _, w in weights))
        terms = truncation_index(n, rate, d, weight)
        with mp.workdps(d + 60):
            short = partial_sum(n, rate, terms, d + 40, plus_one, weights)
            long = partial_sum(n, rate, terms + 200, d + 40, plus_one, weights)
            assert abs(long - short) < mp.mpf(10) ** -d, (n, rate, plus_one)
        assert terms == truncation_index(n, rate, d, weight)


def test_weighted_sum_matches_separate_series():
    d = 100
    value = _s_raw(5, 1, d, weights=PI5_WEIGHTS)
    parts = sum(w * _s_raw(5, s, d + 10) for s, w in PI5_WEIGHTS)
    assert abs(value - parts) < Fraction(1, 10 ** d)


def lambert_partial_sum(n, rate, terms, dps, plus_one=False, weights=((1, 1),)):
    """The q-series of sum_s w_s S_n(s rate) (T_n with plus_one) up to q^terms,
    summed as the Lambert double sum w_s (+-1) q^(s j d) / d^n, with every
    power of q its own exponential."""
    with mp.workdps(dps):
        powers = [mp.exp(-mp.pi * to_mpf(rate) * m) for m in range(terms + 1)]
        return mp.fsum(to_mpf(Fraction(w)) * (-1 if plus_one and j % 2 == 0 else 1)
                       * powers[s * j * d] / d ** n
                       for s, w in weights
                       for d in range(1, terms // s + 1)
                       for j in range(1, terms // (s * d) + 1))


EDGE_CASES = (  # n, rate, digits, plus_one, weights, block size k
    (3, 1, 50, False, ((1, 1),), 5),
    (1, 1, 50, True, ((1, 1),), 5),
    (5, 1, 50, False, PI5_WEIGHTS, 5),
    (5, Fraction(1, 100), 30, False, ((1, 1),), 32),
    (2, Fraction(1, 100), 30, True, ((1, Fraction(1, 3)), (3, -2)), 32),
)


@pytest.mark.parametrize("n, rate, digits, plus_one, weights, k", EDGE_CASES)
def test_block_edges_match_lambert_partial_sums(n, rate, digits, plus_one, weights, k):
    # term counts on each side of a block boundary (k) and of a square (k^2),
    # where isqrt(terms) and the last block's length change
    for terms in (1, 2, k - 1, k, k + 1, k * k - 1, k * k, k * k + 1):
        value = partial_sum(n, rate, terms, digits, plus_one, weights)
        reference = lambert_partial_sum(n, rate, terms, digits + 20, plus_one, weights)
        with mp.workdps(digits + 20):
            assert abs(value - reference) < mp.mpf(10) ** -digits, terms


@pytest.mark.parametrize("plus_one", [False, True])
def test_slow_rate_with_thousands_of_terms(plus_one):
    # r = 1/100: q = 0.969, 2452 terms in blocks of 49
    rate = Fraction(1, 100)
    value = mpf(_s_raw(5, rate, 30, plus_one=plus_one))
    with mp.workdps(60):
        reference = brute_force_reference(5, to_mpf(rate), 30, plus_one)
        assert abs(value - reference) < mp.mpf(10) ** -30


def test_pi_at_3000_digits_meets_its_guard():
    value = eval_pi_power(1, 3000)
    with mp.workdps(3060):
        assert abs(value.mpf - mp.pi) < mp.mpf(10) ** -3020


def brute_force_reference(n, r, digits, plus_one):
    """Brute-force S_n(r) or T_n(r) with its tail below 10**-(digits + 5)."""
    terms = math.ceil((digits + 10) * math.log(10) / (math.pi * float(r))) + 5
    return brute_force_series(n, r, terms, digits + 30, plus_one)


RATES = st.one_of(st.sampled_from([Fraction(1, 2), 1, 2, 4]),
                  st.floats(min_value=0.5, max_value=5).map(mp.mpf))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 41), rate=RATES, digits=st.integers(1, 300), plus_one=st.booleans())
def test_s_raw_matches_brute_force(n, rate, digits, plus_one):
    with mp.workdps(digits + 30):
        r = to_mpf(rate)
        value = mpf(_s_raw(n, r, digits, plus_one=plus_one))
        reference = brute_force_reference(n, r, digits, plus_one)
        assert abs(value - reference) < mp.mpf(10) ** -digits


def test_monotone_in_exponent_and_rate():
    d = 40
    grid = [s_series(SeriesSpec(n, 1, d)).mpf for n in (1, 2, 3, 4, 6)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    grid = [s_series(SeriesSpec(3, r, d)).mpf for r in (Fraction(1, 2), 1, 2, 4)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_eval_pi_power_examples():
    assert agreement_digits(eval_pi_power(1, 1000), pi_const(1010)) >= 995
    v3 = eval_pi_power(3, 500)
    with mp.workdps(540):
        assert abs(v3.mpf - pi_const(510).mpf ** 3) < mp.mpf(10) ** -495
    v7 = eval_pi_power(7, 200)
    with mp.workdps(240):
        assert abs(v7.mpf - pi_const(210).mpf ** 7) < mp.mpf(10) ** -195


def test_eval_pi_power_rejects_even():
    with pytest.raises(ValueError):
        eval_pi_power(4, 50)


def test_eval_zeta_odd_examples():
    v3 = eval_zeta_odd(3, 500)
    with mp.workdps(540):
        assert abs(v3.mpf - apery_zeta3(510).mpf) < mp.mpf(10) ** -495
    v5 = eval_zeta_odd(5, 200)
    with mp.workdps(240):
        assert abs(v5.mpf - zeta_reference(5, 210).mpf) < mp.mpf(10) ** -195


def test_eval_zeta_odd_rejects_divergent_and_even():
    with pytest.raises(ValueError):
        eval_zeta_odd(1, 50)
    with pytest.raises(ValueError):
        eval_zeta_odd(6, 50)


def test_apery_30_digit_string():
    assert apery_zeta3(30).to_decimal_string() == APERY_30


def test_apery_partial_sums_alternate_around_limit():
    with mp.workdps(60):
        limit = apery_zeta3(40).mpf
        partial = mp.mpf(0)
        binom = 2
        for n in range(1, 20):
            term = mp.mpf(1) / (n ** 3 * binom)
            partial += term if n % 2 == 1 else -term
            binom = binom * 2 * (2 * n + 1) // (n + 1)
            sign = mp.sign(mp.mpf(5) / 2 * partial - limit)
            assert sign == (1 if n % 2 == 1 else -1)


def test_apery_agrees_with_eta_oracle():
    assert agreement_digits(apery_zeta3(100), zeta_reference(3, 110)) >= 95


@settings(max_examples=40, deadline=None)
@given(digits=st.integers(1, 600))
def test_apery_oracle_matches_mpmath_zeta(digits):
    m, prec = apery_fixed(digits)
    with mp.workdps(digits + 30):
        assert abs(mp.ldexp(m, -prec) - mp.zeta(3)) < mp.mpf(10) ** -digits


def test_apery_oracle_ignores_the_ambient_precision():
    with mp.workdps(15):
        coarse = apery_zeta3(100)
    with mp.workdps(3000):
        fine = apery_zeta3(100)
    assert coarse == fine


def test_zeta_reference_even_values():
    z2 = zeta_reference(2, 50)
    z4 = zeta_reference(4, 50)
    with mp.workdps(90):
        pi = +mp.pi
        assert abs(z2.mpf - pi ** 2 / 6) < mp.mpf(10) ** -45
        assert abs(z4.mpf - pi ** 4 / 90) < mp.mpf(10) ** -45


@settings(max_examples=40, deadline=None)
@given(s=st.integers(2, 41), digits=st.integers(1, 600))
def test_eta_oracle_matches_mpmath_zeta(s, digits):
    value = mpf(_zeta_ref_raw(s, digits))
    with mp.workdps(digits + 30):
        assert abs(value - mp.zeta(s)) < mp.mpf(10) ** -digits


def test_eta_oracle_ignores_the_ambient_precision():
    with mp.workdps(15):
        coarse = _zeta_ref_raw(7, 300)
    with mp.workdps(3000):
        fine = _zeta_ref_raw(7, 300)
    assert coarse == fine


@settings(max_examples=30, deadline=None)
@given(target=st.sampled_from(Target), half=st.integers(0, 20), digits=st.integers(1, 600))
def test_eval_agrees_with_itself_at_40_more_digits(target, half, digits):
    exponent = 2 * half + 1 if target is Target.PI_POWER else 2 * max(half, 1) + 1
    evaluate = eval_pi_power if target is Target.PI_POWER else eval_zeta_odd
    coarse, fine = evaluate(exponent, digits), evaluate(exponent, digits + 40)
    with mp.workdps(digits + 80):
        assert abs(coarse.mpf - fine.mpf) < mp.mpf(10) ** -digits


def test_zeta_reference_domain():
    with pytest.raises(ValueError):
        zeta_reference(1, 50)
    with pytest.raises(ValueError):
        zeta_reference(0, 50)


@pytest.mark.parametrize("rate", [1, 2, 4])
def test_s1_closed_form_matches_series(rate):
    closed = s1_closed_form(rate, 100)
    series = s_series(SeriesSpec(1, rate, 100))
    assert agreement_digits(closed, series) >= 90


def test_s1_closed_form_shift_relation():
    d = 100
    one = s1_closed_form(1, d).mpf
    four = s1_closed_form(4, d).mpf
    with mp.workdps(d + 30):
        shift = mp.log(mp.mpf(1) / 4) / 4 + (+mp.pi) / 8
        assert abs((one - four) - shift) < mp.mpf(10) ** -(d - 5)


def test_s1_closed_forms_recombine_to_pi():
    d = 100
    values = [s1_closed_form(r, d).mpf for r in (1, 2, 4)]
    with mp.workdps(d + 30):
        combo = 72 * values[0] - 96 * values[1] + 24 * values[2]
        assert abs(combo - (+mp.pi)) < mp.mpf(10) ** -(d - 5)


def test_s1_closed_form_domain():
    with pytest.raises(ValueError):
        s1_closed_form(3, 50)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(0, 1, 50)
    with pytest.raises(ValueError):
        SeriesSpec(1, 0, 50)
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, 0)


def test_rates_are_checked_exactly():
    # float(r) underflows to 0 at 10^-400 and overflows at 10^400
    for rate in (Fraction(1, 10 ** 400), 10 ** 400):
        assert SeriesSpec(3, rate, 10).r == rate
    for rate in (-Fraction(1, 10 ** 400), -10 ** 400):
        with pytest.raises(ValueError, match=r"^series rate r must be positive$"):
            SeriesSpec(3, rate, 10)
    assert truncation_index(3, 10 ** 400, 10) == 1
    assert s_series(SeriesSpec(3, 10 ** 400, 10)).value == 0  # e^(-pi 10^400) is 0 at any precision
    # a rate is its exact value whatever its type; a PrecisionReal is no (rho, j) pair
    half = s_series(SeriesSpec(3, Fraction(1, 2), 10))
    for rate in (0.5, mp.mpf(0.5), PrecisionReal(Fraction(1, 2), 5)):
        assert s_series(SeriesSpec(3, rate, 10)) == half


@pytest.mark.parametrize("n, rate, digits", [(3, (1, -1), 60), (1, (1, 1), 80),
                                            (5, (Fraction(1, 3), 2), 100), (2, (7, -2), 120),
                                            (1, (1, -2), 40)])
def test_a_pi_power_rate_meets_the_contract_at_the_exact_rate(n, rate, digits):
    # term_values rounds pi in rho pi^j; the brute-force sum takes mpmath's pi
    # at 30 more digits, so it sees that rounding where an identity whose two
    # sides read the same rounded rate cannot
    value = s_series(SeriesSpec(n, rate, digits))
    with mp.workdps(digits + 30):
        reference = brute_force_reference(n, to_mpf(rate[0]) * mp.pi ** rate[1], digits, False)
        assert abs(value.mpf - reference) < mp.mpf(10) ** -digits


@pytest.mark.parametrize("weight", [0, -1, Fraction(-1, 2)])
def test_truncation_index_names_a_weight_below_one(weight):
    with pytest.raises(ValueError, match=rf"^weight {weight} must be positive$"):
        truncation_index(1, 1, 10, weight)


@pytest.mark.parametrize("rate", [-1, 0])
def test_truncation_index_refuses_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="^rate must be positive$"):
        truncation_index(3, rate, 30)


@pytest.mark.parametrize("rate, estimate", [(Fraction(1, 10 ** 400), "2.27e+401"),
                                            (Fraction(1, 10 ** 6), "2.27e+7")])
def test_a_rate_past_the_term_limit_is_refused_before_any_kernel_work(monkeypatch, rate,
                                                                      estimate):
    def computed(*_):
        raise AssertionError("kernel work before the term limit refused the rate")

    monkeypatch.setattr(fixed, "q_fixed", computed)
    with pytest.raises(ValueError) as refused:
        s_series(SeriesSpec(3, rate, 10))
    assert str(refused.value).endswith(
        f"needs about {estimate} terms, past the limit of MAX_TERMS = 1000000")


@pytest.mark.parametrize("exponent", [1, 3, 5, 7, 9, 11, 13])
def test_triple_identity_through_independent_oracles(exponent):
    d = 120
    s_values = [s_series(SeriesSpec(exponent, r, d + 20)).mpf for r in (1, 2, 4)]
    for target in Target:
        if target is Target.ZETA_VALUE and exponent == 1:
            continue
        triple = triple_for(target, exponent)
        with mp.workdps(d + 50):
            combo = mp.fsum(to_mpf(q) * s for q, s in zip(triple.coefficients(), s_values))
            if target is Target.PI_POWER:
                oracle = (+mp.pi) ** exponent
            else:
                oracle = zeta_reference(exponent, d + 30).mpf
            assert abs(combo - oracle) < mp.mpf(10) ** -(d - 5)
