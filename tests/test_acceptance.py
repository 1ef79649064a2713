"""Acceptance suite: one test per criterion, each printing a PASS line at
its stated tolerance (run with -s to see them).

Tolerances are pinned here, not calibrated elsewhere:
  1. seven classical triples, exact, under 1 s
  2. pi powers at 500 digits agree with an independent pi to >= 495 digits,
     each evaluation under 30 s
  3. zeta(3) at 500 digits vs the accelerated central-binomial series to
     >= 495 digits; zeta(s) at 200 digits vs the eta oracle to >= 195
  4. identity residuals below 10**-(D-10) across the stated grids
  5. exact Bernoulli properties up to index 200
  6. PSLQ rediscovery from 100-digit inputs in under 10 s; exact triple
     agreement through exponent 9
  7. exponent-1 closed forms to >= 90 digits at D = 100
  8. structural independence of the zeta oracles from the series assembly,
     and of the assembly's pi from the pi-power oracle's
  9. byte-identical CLI output across identical invocations
"""

import ast
import inspect
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp

import plouffe.fixed as fixed_module
import plouffe.series as series_module
from plouffe.bernoulli import Target, bernoulli, f_sum, triple_for
from plouffe.identities import (
    ramanujan_residual,
    symmetric_point_residual,
    vepstas_residual,
    zeta_4m1_residual,
)
from plouffe.precision import pi_const
from plouffe.relations import pslq, rediscover_triple
from plouffe.series import (
    SeriesSpec,
    apery_zeta3,
    eval_pi_power,
    eval_zeta_odd,
    s1_closed_form,
    s_series,
    zeta_reference,
)

SEVEN_TRIPLES = {
    (Target.PI_POWER, 1): (Fraction(72), Fraction(-96), Fraction(24)),
    (Target.PI_POWER, 3): (Fraction(720), Fraction(-900), Fraction(180)),
    (Target.PI_POWER, 5): (Fraction(7056), Fraction(-6993), Fraction(-63)),
    (Target.PI_POWER, 7): (Fraction(907200, 13), Fraction(-70875), Fraction(14175, 13)),
    (Target.ZETA_VALUE, 3): (Fraction(28), Fraction(-37), Fraction(7)),
    (Target.ZETA_VALUE, 5): (Fraction(24), Fraction(-259, 10), Fraction(-1, 10)),
    (Target.ZETA_VALUE, 7): (Fraction(304, 13), Fraction(-103, 4), Fraction(19, 52)),
}


def announce(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_coefficient_reproduction():
    started = time.monotonic()
    for (target, exponent), expected in SEVEN_TRIPLES.items():
        assert triple_for(target, exponent).coefficients() == expected
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    announce(1, "coefficient reproduction (exact, seven formulas)")


def test_criterion_2_pi_assembly_500_digits():
    tolerance = mp.mpf(10) ** -495
    for exponent in (1, 3, 5, 7, 9, 11, 13):
        started = time.monotonic()
        value = eval_pi_power(exponent, 500)
        elapsed = time.monotonic() - started
        with mp.workdps(560):
            oracle = pi_const(540).mpf ** exponent
            assert abs(value.mpf - oracle) < tolerance, f"pi^{exponent}"
        assert elapsed < 30.0, f"pi^{exponent} took {elapsed:.1f}s"
    announce(2, "pi assembly to >= 495 digits for n in {1..13} odd")


def test_criterion_3_zeta_assembly():
    with mp.workdps(560):
        assert abs(eval_zeta_odd(3, 500).mpf - apery_zeta3(510).mpf) < mp.mpf(10) ** -495
    for s in (5, 7, 9, 11, 13):
        with mp.workdps(260):
            diff = abs(eval_zeta_odd(s, 200).mpf - zeta_reference(s, 210).mpf)
            assert diff < mp.mpf(10) ** -195, f"zeta({s})"
    announce(3, "zeta assembly vs independent oracles")


def test_criterion_4_identity_residuals():
    with mp.workdps(240):
        pi = +mp.pi
        alphas = (pi, pi / 2, 2 * pi, mp.mpf("1.3"))
    for n in range(1, 9):
        for alpha in alphas:
            report = ramanujan_residual(alpha, n, 200)
            assert report.passed and report.residual.mpf < mp.mpf(10) ** -190, \
                f"ramanujan n={n} alpha={mp.nstr(alpha, 8)}"
    for n in (1, 3, 5, 7):
        report = symmetric_point_residual(n, 200)
        assert report.passed and report.residual.mpf < mp.mpf(10) ** -190, f"n={n}"
    for m in range(1, 5):
        assert zeta_4m1_residual(m, 200).residual.mpf < mp.mpf(10) ** -190, f"m={m}"
        assert vepstas_residual(m, 200).residual.mpf < mp.mpf(10) ** -190, f"m={m}"
    announce(4, "identity residuals below 1e-190 at D=200 on the full grid")


def test_criterion_5_bernoulli_properties():
    for n in range(1, 201):
        assert sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0
    for k in range(1, 101):
        assert bernoulli(2 * k + 1) == 0
    for k in range(21):
        assert f_sum(2 * k) == 0
    announce(5, "Bernoulli recurrence, odd vanishing, F_(2k) = 0")


def test_criterion_6_pslq_rediscovery():
    digits = 100
    started = time.monotonic()
    values = [pi_const(digits + 20).mpf] + [
        s_series(SeriesSpec(1, r, digits + 20)).mpf for r in (1, 2, 4)]
    result = pslq(values, digits)
    assert result.found and result.vector == (1, -72, 96, -24)
    assert time.monotonic() - started < 10.0

    started = time.monotonic()
    values = [zeta_reference(3, digits + 20).mpf] + [
        s_series(SeriesSpec(3, r, digits + 20)).mpf for r in (1, 2, 4)]
    result = pslq(values, digits)
    assert result.found and result.vector == (1, -28, 37, -7)
    assert time.monotonic() - started < 10.0

    rediscovery_digits = {1: 100, 3: 100, 5: 120, 7: 150, 9: 200}
    for exponent, d in rediscovery_digits.items():
        for target in Target:
            if target is Target.ZETA_VALUE and exponent == 1:
                continue
            _, triple = rediscover_triple(target, exponent, d)
            assert triple.coefficients() == triple_for(target, exponent).coefficients()
    announce(6, "PSLQ rediscovery (pi, zeta(3) in <10 s; exact match through 9)")


def test_criterion_7_closed_forms():
    digits = 100
    for rate in (1, 2, 4):
        closed = s1_closed_form(rate, digits)
        direct = s_series(SeriesSpec(1, rate, digits))
        with mp.workdps(digits + 40):
            assert abs(closed.mpf - direct.mpf) < mp.mpf(10) ** -90, f"rate {rate}"
    one = s1_closed_form(1, digits)
    four = s1_closed_form(4, digits)
    with mp.workdps(digits + 40):
        shift = mp.log(mp.mpf(1) / 4) / 4 + (+mp.pi) / 8
        assert abs(one.mpf - four.mpf - shift) < mp.mpf(10) ** -90
    announce(7, "closed forms match the series to >= 90 digits at D=100")


def test_criterion_8_oracle_independence_is_structural():
    # the zeta oracles never touch the Lambert-series evaluator, and the
    # assembly path, down to the integer kernel, never touches the oracles
    oracle_side = (inspect.getsource(series_module._zeta_ref_raw)
                   + inspect.getsource(series_module._apery_raw))
    assembly_side = (inspect.getsource(series_module._s_raw)
                     + inspect.getsource(series_module._assemble)
                     + inspect.getsource(fixed_module))
    for name in ("_s_raw", "q_series", "q_fixed", "triple_for"):
        assert name not in oracle_side, name
    assert "_zeta_ref_raw" not in assembly_side
    assert "_apery_raw" not in assembly_side
    # the kernel imports no mpmath, so its pi is not the pi-power oracle's
    tree = ast.parse(inspect.getsource(fixed_module))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"math", "decimal", "fractions"}
    # and the agreement evidence from criteria 2-3 is therefore non-circular
    announce(8, "oracle independence enforced structurally")


def test_criterion_9_cli_determinism():
    command = [sys.executable, "-m", "plouffe", "eval", "pi", "3", "--digits", "300"]
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    runs = [subprocess.run(command, capture_output=True, env=env) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    announce(9, "byte-identical output for repeated `eval pi 3 --digits 300`")
