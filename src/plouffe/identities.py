"""Numeric residual checks for the identities the three-series formulas
rest on: Ramanujan's alpha/beta transformation of zeta(2n+1), its two
special-point reductions, the Vepstas expression for zeta(4m+1), and the
T/S companion identity.

Every zeta value on a right-hand side comes from the independent
alternating-eta oracle, never from the three-series assembly, so a passing
residual is evidence and not circularity.  A report passes when the
absolute residual is below 10**-(digits - slack) with slack = 10 by
default: ten digits of headroom absorb rounding drift across the ~10^3
high-precision operations in the larger checks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, bernoulli, f_sum, g_sum, h_sum, triple_for
from .precision import DEFAULT_GUARD, PrecisionReal, to_mpf
from .series import _s_raw, _zeta_ref_raw

DEFAULT_SLACK = 10


@dataclass(frozen=True)
class ResidualReport:
    identity: str
    parameters: dict
    residual: PrecisionReal
    digits: int
    passed: bool

    def to_json_dict(self):
        return {
            "identity": self.identity,
            "parameters": self.parameters,
            "residual": mp.nstr(self.residual.mpf, 5),
            "digits": self.digits,
            "pass": self.passed,
        }


def _report(identity, parameters, residual, digits, guard, slack):
    passed = bool(residual < mp.mpf(10) ** (-(digits - slack)))
    return ResidualReport(identity, parameters, PrecisionReal(abs(residual), digits, guard), digits, passed)


def _bernoulli_pair_term(n, k):
    """B_(2k) B_(2n+2-2k) / ((2k)! (2n+2-2k)!) as an exact Fraction."""
    return bernoulli(2 * k) * bernoulli(2 * n + 2 - 2 * k) \
        / (math.factorial(2 * k) * math.factorial(2 * n + 2 - 2 * k))


def ramanujan_residual(alpha, n, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of the alpha/beta transformation with beta = pi^2/alpha:

        alpha^-n (zeta(2n+1)/2 + S_(2n+1)(2 alpha/pi))
          = (-beta)^-n (zeta(2n+1)/2 + S_(2n+1)(2 beta/pi))
            - 4^n sum_k (-1)^k [B-pair term] alpha^(n+1-k) beta^k

    Holds for every alpha > 0 and n >= 1; checked numerically at the given
    precision with zeta from the independent oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha_f = float(to_mpf(alpha) if not isinstance(alpha, PrecisionReal) else alpha.mpf)
    if alpha_f <= 0:
        raise ValueError("alpha must be positive")
    beta_f = math.pi ** 2 / alpha_f
    # alpha^(n+1-k) beta^k peaks at max(alpha, beta)^(n+1)
    mag = max(0, math.ceil((n + 1) * math.log10(max(alpha_f, beta_f, 1.0)))) + 4 * n // 3 + 5
    target = digits + guard + 10
    with mp.workdps(target + mag + 10):
        a = to_mpf(alpha)
        pi = +mp.pi
        b = pi ** 2 / a
        z_half = _zeta_ref_raw(2 * n + 1, target + mag) / 2
        s_a = _s_raw(2 * n + 1, 2 * a / pi, target + mag)
        s_b = _s_raw(2 * n + 1, 2 * b / pi, target + mag)
        pair_sum = mp.mpf(0)
        for k in range(n + 2):
            coeff = _bernoulli_pair_term(n, k)
            if coeff:
                pair_sum += (-1) ** k * to_mpf(coeff) * a ** (n + 1 - k) * b ** k
        lhs = a ** (-n) * (z_half + s_a)
        rhs = (-1) ** n * b ** (-n) * (z_half + s_b) - mp.mpf(4) ** n * pair_sum
        residual = abs(lhs - rhs)
    params = {"alpha": mp.nstr(mp.mpf(alpha_f), 10), "n": n}
    return _report("ramanujan", params, residual, digits, guard, slack)


def symmetric_point_residual(n, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of the odd-n reduction at the symmetric point alpha = beta = pi:

        zeta(2n+1)/2 + S_(2n+1)(2) = -(4^n/2) pi^(2n+1) F_n

    Even n is rejected: F_n = 0 makes both sides vanish identically, so a
    residual check there would pass vacuously.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1 (even n degenerates to 0 = 0)")
    mag = math.ceil((2 * n + 1) * math.log10(math.pi)) + math.ceil(n * math.log10(4)) + 5
    target = digits + guard + 10
    with mp.workdps(target + mag + 10):
        pi = +mp.pi
        lhs = _zeta_ref_raw(2 * n + 1, target + mag) / 2 + _s_raw(2 * n + 1, 2, target + mag)
        rhs = -mp.mpf(4) ** n / 2 * pi ** (2 * n + 1) * to_mpf(f_sum(n))
        residual = abs(lhs - rhs)
    return _report("symmetric_point", {"n": n}, residual, digits, guard, slack)


def zeta_4m1_residual(m, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of the zeta(4m+1) evaluation (alpha = 2 pi, beta = pi/2):

        zeta(4m+1) = (-2*16^m S(1) + 2 S(4) - 16^m pi^(4m+1) G_(2m)) / (16^m - 1)

    with S = S_(4m+1).  m = 0 is rejected (the denominator vanishes).
    """
    if m < 1:
        raise ValueError("m must be >= 1 (the denominator 16^m - 1 vanishes at m = 0)")
    e = 4 * m + 1
    mag = math.ceil(e * math.log10(math.pi)) + math.ceil(m * math.log10(16)) + 5
    target = digits + guard + 10
    with mp.workdps(target + mag + 10):
        pi = +mp.pi
        sixteen = mp.mpf(16) ** m
        lhs = _zeta_ref_raw(e, target + mag)
        rhs = (_s_raw(e, 1, target + mag, weights=((1, -2 * 16 ** m), (4, 2)))
               - sixteen * pi ** e * to_mpf(g_sum(2 * m))) / (sixteen - 1)
        residual = abs(lhs - rhs)
    return _report("zeta_4m1", {"m": m}, residual, digits, guard, slack)


def vepstas_residual(m, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of the Vepstas expression for zeta(4m+1), m >= 1:

        (1 + (-4)^m - 2^(4m+1)) zeta(4m+1)
          = 2 T(2) + 2 (2^(4m+1) - (-4)^m) S(2)
            + 2^(4m+1) pi^(4m+1) H_m + 2^(4m) pi^(4m+1) G_(2m)

    with S, T at exponent 4m+1 and T from the companion-series evaluator.
    """
    if m < 1:
        raise ValueError("m must be >= 1 (the identity is stated for m >= 1)")
    e = 4 * m + 1
    mag = math.ceil(e * math.log10(math.pi)) + math.ceil((4 * m + 1) * math.log10(2)) + 5
    target = digits + guard + 10
    with mp.workdps(target + mag + 10):
        pi = +mp.pi
        lhs = (1 + (-4) ** m - 2 ** (4 * m + 1)) * _zeta_ref_raw(e, target + mag)
        rhs = (2 * _s_raw(e, 2, target + mag, plus_one=True)
               + 2 * (2 ** (4 * m + 1) - (-4) ** m) * _s_raw(e, 2, target + mag)
               + mp.mpf(2) ** (4 * m + 1) * pi ** e * to_mpf(h_sum(m))
               + mp.mpf(2) ** (4 * m) * pi ** e * to_mpf(g_sum(2 * m)))
        residual = abs(lhs - rhs)
    return _report("vepstas", {"m": m}, residual, digits, guard, slack)


def ts_identity_residual(n, rate, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of T_n(x) = S_n(x) - 2 S_n(2x) at rate x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if float(rate) <= 0:
        raise ValueError("rate must be positive")
    target = digits + guard + 10
    with mp.workdps(target + 10):
        x = to_mpf(Fraction(rate) if isinstance(rate, (int, Fraction)) else rate)
        residual = abs(_s_raw(n, x, target, plus_one=True)
                       - _s_raw(n, x, target, weights=((1, 1), (2, -2))))
    return _report("ts_identity", {"n": n, "rate": str(rate)}, residual, digits, guard, slack)


def triple_residual(target, exponent, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual of a*S(1) + b*S(2) + c*S(4) against an independent oracle
    (pi**exponent, or the alternating-eta zeta value)."""
    triple = triple_for(target, exponent)
    mag = math.ceil(exponent * math.log10(math.pi)) + 5
    target_digits = digits + guard + 10
    with mp.workdps(target_digits + mag + 10):
        combo = _s_raw(exponent, 1, target_digits, weights=zip((1, 2, 4), triple.coefficients()))
        if triple.target is Target.PI_POWER:
            oracle = (+mp.pi) ** exponent
        else:
            oracle = _zeta_ref_raw(exponent, target_digits + mag)
        residual = abs(combo - oracle)
    params = {"target": triple.target.value, "exponent": exponent}
    return _report("triple", params, residual, digits, guard, slack)


def verify_all(max_m, digits, guard=DEFAULT_GUARD, slack=DEFAULT_SLACK):
    """Residual reports for every identity over its parameter range up to
    max_m, plus the triple identities for all odd exponents <= 4*max_m + 1.

    Expansion (17*max_m + 3 reports in total):
      - ramanujan: n = 1..2*max_m, alpha in {pi, pi/2, 2*pi}
      - symmetric_point: n = 2m-1 for m = 1..max_m
      - zeta_4m1 and vepstas: m = 1..max_m
      - ts_identity: odd exponents <= 4*max_m+1, rates {1, 2}
      - triple: pi for every odd exponent <= 4*max_m+1, zeta for those >= 3
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    reports = []
    with mp.workdps(digits + guard + 10):
        pi = +mp.pi
        alphas = (pi, pi / 2, 2 * pi)
    for n in range(1, 2 * max_m + 1):
        for alpha in alphas:
            reports.append(ramanujan_residual(alpha, n, digits, guard, slack))
    for m in range(1, max_m + 1):
        reports.append(symmetric_point_residual(2 * m - 1, digits, guard, slack))
    for m in range(1, max_m + 1):
        reports.append(zeta_4m1_residual(m, digits, guard, slack))
    for m in range(1, max_m + 1):
        reports.append(vepstas_residual(m, digits, guard, slack))
    for exponent in range(1, 4 * max_m + 2, 2):
        for rate in (1, 2):
            reports.append(ts_identity_residual(exponent, rate, digits, guard, slack))
    for exponent in range(1, 4 * max_m + 2, 2):
        reports.append(triple_residual(Target.PI_POWER, exponent, digits, guard, slack))
        if exponent >= 3:
            reports.append(triple_residual(Target.ZETA_VALUE, exponent, digits, guard, slack))
    return reports
