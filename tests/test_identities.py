"""Residual checks for the identity layer: the alpha/beta transformation,
its two special-point reductions, the Vepstas expression, the T/S
companion identity, and the batch driver."""

import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mp_oracles import pi_const

import plouffe.identities as identities
from plouffe import fixed, series
from plouffe.bernoulli import triple_for
from plouffe.identities import (
    ramanujan_residual,
    symmetric_point_residual,
    triple_residual,
    ts_identity_residual,
    verify_all,
    vepstas_residual,
    zeta_4m1_residual,
)
from plouffe.precision import GUARD


def test_ramanujan_at_symmetric_point():
    report = ramanujan_residual(pi_const(230), 2, 200)
    assert report.passed
    assert report.residual.mpf < mp.mpf(10) ** -190


def test_ramanujan_at_half_pi_substitution():
    alpha = pi_const(230)
    with mp.workdps(230):
        half = alpha.mpf / 2
    report = ramanujan_residual(half, 1, 200)
    assert report.passed


def test_ramanujan_at_generic_point():
    report = ramanujan_residual(1.3, 4, 100)
    assert report.passed
    assert report.residual.mpf < mp.mpf(10) ** -90


def test_ramanujan_swap_invariance():
    # beta = pi^2/alpha; the identity is one equality read two ways
    d = 120
    with mp.workdps(d + 40):
        alpha = mp.mpf("1.7")
        beta = (+mp.pi) ** 2 / alpha
    first = ramanujan_residual(alpha, 3, d)
    second = ramanujan_residual(beta, 3, d)
    assert first.passed and second.passed


def test_ramanujan_residual_shrinks_with_precision():
    coarse = ramanujan_residual(1.3, 2, 100)
    fine = ramanujan_residual(1.3, 2, 200)
    threshold = mp.mpf(10) ** -190
    assert fine.residual.mpf < coarse.residual.mpf or (
        fine.residual.mpf < threshold and coarse.residual.mpf < threshold)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [(1, 1), (3, 1), (2, 0), (5, 1), (1.5, 1)])
def test_ramanujan_reads_a_rho_pi_j_alpha_exactly(alpha, n):
    # an int or float rho is taken as its exact rational, as series._rho_j
    # reads every rate and coefficient, so the check holds to its digits
    report = ramanujan_residual(alpha, n, 40)
    assert report.passed
    assert report.residual.value < Fraction(1, 10 ** 60)


@pytest.mark.parametrize("rate", [(1, 1), (2, 0), (Fraction(1, 2), 1), (3, -1)])
def test_every_rate_is_read_as_rho_pi_j(rate):
    # SeriesSpec and ts_identity read a rate with series._rho_j, as term_values does
    assert series.s_series(series.SeriesSpec(3, rate, 30)) == series._value(
        series.series_term(3, rate), 30)
    for n in (1, 3):
        assert ts_identity_residual(n, rate, 40).passed, n


def test_ramanujan_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        ramanujan_residual(-2.0, 1, 50)
    with pytest.raises(ValueError):
        ramanujan_residual(0, 1, 50)


def test_rates_past_the_float_range_are_served_or_refused(monkeypatch):
    # e^(-pi 10^400) is 0 at any precision, so T_3 = S_3 - 2 S_3(2 x) holds exactly
    report = ts_identity_residual(3, 10 ** 400, 10)
    assert report.passed and report.residual.value == 0
    # beta = pi^2 / 10^400 would need about 10^402 terms: refused, and a 10^-6
    # rate, which needs 2.35e7, before any kernel work
    with pytest.raises(ValueError, match=r"needs about 9\.68e\+401 terms, past the limit of "
                                         r"MAX_TERMS = 1000000$"):
        ramanujan_residual(10 ** 400, 1, 10)

    def computed(*_):
        raise AssertionError("kernel work before the term limit refused the rate")

    monkeypatch.setattr(fixed, "q_fixed", computed)
    with pytest.raises(ValueError, match=r"needs about 2\.35e\+7 terms, past the limit of "
                                         r"MAX_TERMS = 1000000$"):
        ts_identity_residual(3, Fraction(1, 10 ** 6), 10)


def test_symmetric_point_small_odd_cases():
    for n in (1, 3):
        report = symmetric_point_residual(n, 200)
        assert report.passed
        assert report.residual.mpf < mp.mpf(10) ** -190


def test_symmetric_point_rejects_even():
    with pytest.raises(ValueError):
        symmetric_point_residual(2, 100)


def test_zeta_4m1_cases():
    assert zeta_4m1_residual(1, 200).passed
    assert zeta_4m1_residual(3, 150).passed


def test_zeta_4m1_rejects_m_zero():
    with pytest.raises(ValueError):
        zeta_4m1_residual(0, 100)


def test_vepstas_cases():
    assert vepstas_residual(1, 200).passed
    assert vepstas_residual(2, 150).passed


def test_vepstas_rejects_m_zero():
    with pytest.raises(ValueError):
        vepstas_residual(0, 100)


def test_ts_identity_residual():
    report = ts_identity_residual(3, 2, 100)
    assert report.passed


@pytest.mark.parametrize("rate", [-1, 0, (-1, 1)])
def test_ts_identity_refuses_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="^rate must be positive$"):
        ts_identity_residual(3, rate, 30)


def test_triple_residual_both_targets():
    assert triple_residual("pi", 5, 100).passed
    assert triple_residual("zeta", 7, 100).passed


# (25, 30): every zeta identity triple_for shares with verify, for e <= 101
@pytest.mark.parametrize("max_m, digits", [(2, 150), (25, 30)])
def test_verify_all_composite_run(max_m, digits):
    reports = verify_all(max_m, digits)
    assert all(r.passed for r in reports)
    assert len(reports) == 17 * max_m + 3


def test_verify_all_report_count_formula():
    reports = verify_all(1, 40)
    assert len(reports) == 17 * 1 + 3
    names = {r.identity for r in reports}
    assert names == {"ramanujan", "symmetric_point", "zeta_4m1", "vepstas",
                     "ts_identity", "triple"}


def test_verify_all_desk_scale_under_a_minute():
    started = time.monotonic()
    reports = verify_all(1, 50)
    assert time.monotonic() - started < 60
    assert all(r.passed for r in reports)


def test_verify_all_rejects_empty_range():
    with pytest.raises(ValueError):
        verify_all(0, 50)


def test_report_serialization_shape():
    report = symmetric_point_residual(1, 60)
    payload = report.to_json_dict()
    assert set(payload) == {"identity", "parameters", "residual", "digits", "pass"}
    assert payload["pass"] is True
    assert payload["digits"] == 60


def test_verify_all_computes_each_zeta_value_once(monkeypatch):
    calls = []

    def counting(s, target_digits):
        calls.append(s)
        return zeta_oracle(s, target_digits)

    zeta_oracle = series.zeta_fixed
    monkeypatch.setattr(series, "zeta_fixed", counting)
    reports = identities.verify_all(3, 60)
    assert all(r.passed for r in reports)
    assert sorted(calls) == [3, 5, 7, 9, 11, 13]


def mpmath_residual(form, places, cache):
    """|sum c v| of a form in mpmath at `places`, every term from mpmath alone:
    S_n and T_n by their defining sums, zeta(s) and pi^k."""
    def number(x):
        rho, j = x if isinstance(x, tuple) else (x, 0)
        rho = Fraction(rho)
        return mp.mpf(rho.numerator) / rho.denominator * mp.pi ** j

    def lambert(n, r, plus_one):
        total, k, sign = mp.mpf(0), 1, 1 if plus_one else -1
        while True:
            term = 1 / (mp.mpf(k) ** n * (mp.exp(mp.pi * r * k) + sign))
            if term < mp.mpf(10) ** -(places + 10):
                return total
            total, k = total + term, k + 1

    def value(term):
        if term not in cache:
            if term[0] == "pi":
                cache[term] = mp.pi ** term[1]
            elif term[0] == "zeta":
                cache[term] = mp.zeta(term[1])
            else:
                _, n, rate, plus_one, weights = term
                cache[term] = mp.fsum(number(w) * lambert(n, s * number(rate), plus_one)
                                      for s, w in weights)
        return cache[term]

    with mp.workdps(places):
        return abs(mp.fsum(number(c) * value(term) for c, term in form))


@pytest.mark.parametrize("digits", [1, 30, 150])
def test_exact_residuals_agree_with_mpmath(digits):
    checks = identities._verify_checks(2) + [identities._ramanujan(1.3, 3)]
    places, cache = digits + GUARD + 40, {}
    reports = identities._run(lambda: checks, digits)
    assert len(reports) == len(checks) == 17 * 2 + 3 + 1
    for (identity, params, form), report in zip(checks, reports):
        reference = Fraction(*fixed.ratio(mpmath_residual(form, places, cache)))
        assert abs(report.residual.value - reference) < Fraction(1, 10 ** (digits + GUARD)), (
            identity, params)
        assert report.passed


def perturbed(coefficient):
    """The coefficient changed by a relative 10**-20."""
    rho, j = coefficient if isinstance(coefficient, tuple) else (coefficient, 0)
    return (Fraction(rho) * (1 + Fraction(1, 10 ** 20)), j)


def test_every_coefficient_of_every_identity_matters():
    # guards against a form that holds whatever its coefficients are: a
    # check that passes unchanged must fail once any one coefficient moves
    checks = [identities._ramanujan((Fraction(1), 1), 2), identities._ramanujan(1.3, 3),
              identities._ramanujan((Fraction(2), 1), 1), identities._symmetric_point(3),
              identities._zeta_4m1(2), identities._vepstas(2), identities._ts_identity(5, 2),
              identities._triple(triple_for("pi", 7)),
              identities._triple(triple_for("zeta", 5))]
    assert {identity for identity, _, _ in checks} == {
        "ramanujan", "symmetric_point", "zeta_4m1", "vepstas", "ts_identity", "triple"}
    variants = [(identity, params, form[:i] + [(perturbed(c), term)] + form[i + 1:])
                for identity, params, form in checks for i, (c, term) in enumerate(form)]
    assert all(r.passed for r in identities._run(lambda: checks, 60))
    passed = [r.passed for r in identities._run(lambda: variants, 60)]
    assert len(passed) == len(variants) and not any(passed)


@pytest.mark.parametrize("digits", [5, 30])
def test_a_residual_above_ten_to_the_minus_digits_fails(digits):
    # the pass rule is the precision contract itself, with no digits of slack
    identity, params, form = identities._ts_identity(3, 2)
    off = form + [(Fraction(1, 10 ** (digits - 5)), ("pi", 0))]  # plus the constant 10**-(digits-5)
    true_report, off_report = identities._run(
        lambda: [(identity, params, form), (identity, params, off)], digits)
    assert true_report.passed
    assert not off_report.passed


def test_zeta_triples_solve_the_identity_forms_exactly():
    # the forms verify checks numerically, solved over Fractions for zeta(e)
    # with the pi triple put in for pi^e, give triple_for's zeta triple
    for e in range(3, 202, 2):
        if e % 4 == 3:
            _, _, form = identities._symmetric_point((e - 1) // 2)
        else:
            _, _, form = identities._zeta_4m1((e - 1) // 4)
        zeta, series = Fraction(0), Counter()  # series: rate -> coefficient of S(rate)
        for c, term in form:
            if term == ("zeta", e):
                zeta += c
            elif term == ("pi", e):
                for rate, t in triple_for("pi", e).weights():
                    series[rate] += c * t
            else:
                kind, n, rate, plus_one, weights = term
                assert (kind, n, plus_one) == ("S", e, False)
                for s, w in weights:
                    series[rate * s] += c * w
        assert set(series) <= {1, 2, 4}
        solved = tuple(-series[rate] / zeta for rate in (1, 2, 4))
        assert solved == triple_for("zeta", e).coefficients(), e
