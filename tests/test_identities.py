"""Residual checks for the identity layer: the alpha/beta transformation,
its two special-point reductions, the Vepstas expression, the T/S
companion identity, and the batch driver."""

import time
from fractions import Fraction

import mpmath as mp
import pytest

import plouffe.identities as identities
from plouffe.identities import (
    ramanujan_residual,
    symmetric_point_residual,
    triple_residual,
    ts_identity_residual,
    verify_all,
    vepstas_residual,
    zeta_4m1_residual,
)
from plouffe.precision import pi_const


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


def test_ramanujan_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        ramanujan_residual(-2.0, 1, 50)
    with pytest.raises(ValueError):
        ramanujan_residual(0, 1, 50)


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


def test_triple_residual_both_targets():
    assert triple_residual("pi", 5, 100).passed
    assert triple_residual("zeta", 7, 100).passed


def test_verify_all_composite_run():
    reports = verify_all(2, 150)
    assert all(r.passed for r in reports)
    assert len(reports) == 17 * 2 + 3


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

    zeta_oracle = identities._zeta_ref_raw
    monkeypatch.setattr(identities, "_zeta_ref_raw", counting)
    reports = identities.verify_all(3, 60)
    assert all(r.passed for r in reports)
    assert sorted(calls) == [3, 5, 7, 9, 11, 13]


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
              identities._triple("pi", 7), identities._triple("zeta", 5)]
    assert {identity for identity, _, _ in checks} == {
        "ramanujan", "symmetric_point", "zeta_4m1", "vepstas", "ts_identity", "triple"}
    variants = [(identity, params, form[:i] + [(perturbed(c), term)] + form[i + 1:])
                for identity, params, form in checks for i, (c, term) in enumerate(form)]
    assert all(r.passed for r in identities._run(checks, 60))
    passed = [r.passed for r in identities._run(variants, 60)]
    assert len(passed) == len(variants) and not any(passed)
