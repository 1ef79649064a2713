"""Numeric residual checks for the identities the three-series formulas
rest on: Ramanujan's alpha/beta transformation of zeta(2n+1), its two
special-point reductions, the Vepstas expression for zeta(4m+1), and the
T/S companion identity.

Each identity is a form: (coefficient, term) pairs whose sum vanishes when
the identity holds.  A term is ("S", n, rate, plus_one, weights) for the
q-series sum_s w_s S_n(s rate) (T_n with plus_one), ("zeta", s) for the
independent eta oracle, or ("pi", k) for pi**k.  A coefficient or a rate is
an exact rational, or a pair (rho, j) for rho * pi**j, so that no number is
rounded before :func:`_run` fixes the precision with the one rule in
:func:`places`; it evaluates each distinct term once.

Every zeta value comes from the independent alternating-eta oracle, never
from the three-series assembly, so a passing residual is evidence and not
circularity.  A report passes when the absolute residual is below
10**-digits, the contract every value is computed to; the residual itself is
accurate to 10**-(digits + GUARD).
"""

import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, bernoulli, f_sum, g_sum, h_sum, triple_for
from .fixed import ratio
from .precision import GUARD, PrecisionReal, to_mpf
from .series import _s_raw, _zeta_ref_raw


class ResidualReport(namedtuple("ResidualReport", "identity parameters residual digits passed")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "identity": self.identity,
            "parameters": self.parameters,
            "residual": mp.nstr(self.residual.mpf, 5),
            "digits": self.digits,
            "pass": self.passed,
        }


def series_term(n, rate, plus_one=False, weights=((1, 1),)):
    """The term sum_s w_s S_n(s rate), or T_n(rate) with plus_one."""
    if isinstance(rate, tuple) and rate[1] == 0:
        rate = rate[0]  # so that equal terms compare equal
    return ("S", n, rate, plus_one, tuple(weights))


def _mpf(x):
    """A coefficient or rate at the ambient precision."""
    rho, j = x if isinstance(x, tuple) else (x, 0)
    return to_mpf(Fraction(rho)) * (+mp.pi) ** j


def places(target, size=1):
    """The precision rule: decimal places that keep a quantity of magnitude
    up to |size|, or an error magnified by |size|, within 10**-target."""
    return target + max(0, math.ceil(mp.mag(size) * math.log10(2)))  # mag bounds log2 |size|


def term_values(terms, accuracy):
    """{term: value} for each term, with absolute error below 10**-accuracy."""
    values = {}
    for term in terms:
        kind, *args = term
        with mp.workdps(places(accuracy, mp.pi ** args[0] if kind == "pi" else 1) + 10):
            if kind == "S":
                n, rate, plus_one, weights = args
                values[term] = _s_raw(n, _mpf(rate), accuracy, plus_one, weights=weights)
            elif kind == "zeta":
                values[term] = _zeta_ref_raw(args[0], accuracy)
            else:
                values[term] = (+mp.pi) ** args[0]
    return values


def _run(checks, digits):
    """Reports for (identity, parameters, form) checks, whose residuals
    |sum c v| have absolute error below 10**-(digits + GUARD): a form of N
    pairs with coefficients up to C needs its terms to places(digits + GUARD,
    N C).  Each distinct term is evaluated once, to the accuracy the most
    demanding form needs.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    forms = [form for _, _, form in checks]
    accuracy = max(places(digits + GUARD, len(form) * max(abs(_mpf(c)) for c, _ in form))
                   for form in forms)
    values = term_values(dict.fromkeys(term for form in forms for _, term in form), accuracy)
    threshold = mp.mpf(10) ** -digits
    reports = []
    for identity, parameters, form in checks:
        with mp.workdps(places(accuracy, max(abs(_mpf(c) * values[t]) for c, t in form)) + 10):
            residual = abs(mp.fsum(_mpf(c) * values[t] for c, t in form))
        reports.append(ResidualReport(identity, parameters, PrecisionReal(residual, digits),
                                      digits, bool(residual < threshold)))
    return reports


def _exact(x):
    """x as an exact Fraction (an mpf is a dyadic rational)."""
    return Fraction(*ratio(x.mpf if isinstance(x, PrecisionReal) else x))


def _bernoulli_pair_term(n, k):
    """B_(2k) B_(2n+2-2k) / ((2k)! (2n+2-2k)!) as an exact Fraction."""
    return bernoulli(2 * k) * bernoulli(2 * n + 2 - 2 * k) \
        / (math.factorial(2 * k) * math.factorial(2 * n + 2 - 2 * k))


def _ramanujan(alpha, n):
    """The check at alpha = rho pi^j, given as a plain tuple (rho, j), or at an exact alpha."""
    rho, j = alpha if type(alpha) is tuple else (_exact(alpha), 0)
    if n < 1:
        raise ValueError("n must be >= 1")
    if rho <= 0:
        raise ValueError("alpha must be positive")
    e = 2 * n + 1
    a = (rho ** -n, -j * n)  # alpha^-n
    b = ((-1) ** n * rho ** n, (j - 2) * n)  # (-beta)^-n with beta = pi^2/alpha
    form = [((a[0] / 2, a[1]), ("zeta", e)), ((-b[0] / 2, b[1]), ("zeta", e)),
            (a, series_term(e, (2 * rho, j - 1))),
            ((-b[0], b[1]), series_term(e, (2 / rho, 1 - j)))]
    for k in range(n + 2):
        coeff = _bernoulli_pair_term(n, k)
        if coeff:  # 4^n (-1)^k [pair] alpha^(n+1-k) beta^k
            form.append((4 ** n * (-1) ** k * coeff * rho ** (n + 1 - 2 * k),
                         ("pi", j * (n + 1 - k) + (2 - j) * k)))
    return "ramanujan", {"alpha": mp.nstr(mp.mpf(float(rho) * math.pi ** j), 10), "n": n}, form


def ramanujan_residual(alpha, n, digits):
    """Residual of the alpha/beta transformation with beta = pi^2/alpha:

        alpha^-n (zeta(2n+1)/2 + S_(2n+1)(2 alpha/pi))
          = (-beta)^-n (zeta(2n+1)/2 + S_(2n+1)(2 beta/pi))
            - 4^n sum_k (-1)^k [B-pair term] alpha^(n+1-k) beta^k

    Holds for every alpha > 0 and n >= 1; checked numerically at the given
    precision, at alpha taken exactly, with zeta from the independent oracle.
    """
    return _run([_ramanujan(alpha, n)], digits)[0]


def _symmetric_point(n):
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1 (even n degenerates to 0 = 0)")
    e = 2 * n + 1
    return "symmetric_point", {"n": n}, [
        (Fraction(1, 2), ("zeta", e)), (1, series_term(e, 2)),
        (Fraction(4 ** n, 2) * f_sum(n), ("pi", e))]


def symmetric_point_residual(n, digits):
    """Residual of the odd-n reduction at the symmetric point alpha = beta = pi:

        zeta(2n+1)/2 + S_(2n+1)(2) = -(4^n/2) pi^(2n+1) F_n

    Even n is rejected: F_n = 0 makes both sides vanish identically, so a
    residual check there would pass vacuously.
    """
    return _run([_symmetric_point(n)], digits)[0]


def _zeta_4m1(m):
    if m < 1:
        raise ValueError("m must be >= 1 (the denominator 16^m - 1 vanishes at m = 0)")
    e, sixteen = 4 * m + 1, 16 ** m
    return "zeta_4m1", {"m": m}, [
        (1, ("zeta", e)),
        (Fraction(-1, sixteen - 1), series_term(e, 1, weights=((1, -2 * sixteen), (4, 2)))),
        (Fraction(sixteen, sixteen - 1) * g_sum(2 * m), ("pi", e))]


def zeta_4m1_residual(m, digits):
    """Residual of the zeta(4m+1) evaluation (alpha = 2 pi, beta = pi/2):

        zeta(4m+1) = (-2*16^m S(1) + 2 S(4) - 16^m pi^(4m+1) G_(2m)) / (16^m - 1)

    with S = S_(4m+1).  m = 0 is rejected (the denominator vanishes).
    """
    return _run([_zeta_4m1(m)], digits)[0]


def _vepstas(m):
    if m < 1:
        raise ValueError("m must be >= 1 (the identity is stated for m >= 1)")
    e = 4 * m + 1
    return "vepstas", {"m": m}, [
        (1 + (-4) ** m - 2 ** e, ("zeta", e)), (-2, series_term(e, 2, plus_one=True)),
        (-2 * (2 ** e - (-4) ** m), series_term(e, 2)),
        (-(2 ** e * h_sum(m) + 2 ** (4 * m) * g_sum(2 * m)), ("pi", e))]


def vepstas_residual(m, digits):
    """Residual of the Vepstas expression for zeta(4m+1), m >= 1:

        (1 + (-4)^m - 2^(4m+1)) zeta(4m+1)
          = 2 T(2) + 2 (2^(4m+1) - (-4)^m) S(2)
            + 2^(4m+1) pi^(4m+1) H_m + 2^(4m) pi^(4m+1) G_(2m)

    with S, T at exponent 4m+1 and T from the companion-series evaluator.
    """
    return _run([_vepstas(m)], digits)[0]


def _ts_identity(n, rate):
    if n < 1:
        raise ValueError("n must be >= 1")
    x = _exact(rate)
    if x <= 0:
        raise ValueError("rate must be positive")
    return "ts_identity", {"n": n, "rate": str(rate)}, [
        (1, series_term(n, x, plus_one=True)), (-1, series_term(n, x, weights=((1, 1), (2, -2))))]


def ts_identity_residual(n, rate, digits):
    """Residual of T_n(x) = S_n(x) - 2 S_n(2x) at rate x."""
    return _run([_ts_identity(n, rate)], digits)[0]


def target_term(target, exponent):
    """The oracle term for pi**exponent or zeta(exponent)."""
    return ("pi" if Target(target) is Target.PI_POWER else "zeta", exponent)


def _triple(target, exponent):
    triple = triple_for(target, exponent)
    return "triple", {"target": triple.target.value, "exponent": exponent}, [
        (1, series_term(exponent, 1, weights=triple.weights())),
        (-1, target_term(triple.target, exponent))]


def triple_residual(target, exponent, digits):
    """Residual of a*S(1) + b*S(2) + c*S(4) against an independent oracle
    (pi**exponent, or the alternating-eta zeta value)."""
    return _run([_triple(target, exponent)], digits)[0]


def verify_all(max_m, digits):
    """Residual reports for every identity over its parameter range up to
    max_m, plus the triple identities for all odd exponents <= 4*max_m + 1,
    evaluated together so that each distinct term is computed once.

    Expansion (17*max_m + 3 reports in total):
      - ramanujan: n = 1..2*max_m, alpha in {pi, pi/2, 2*pi}
      - symmetric_point: n = 2m-1 for m = 1..max_m
      - zeta_4m1 and vepstas: m = 1..max_m
      - ts_identity: odd exponents <= 4*max_m+1, rates {1, 2}
      - triple: pi for every odd exponent <= 4*max_m+1, zeta for those >= 3
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    ms, exponents = range(1, max_m + 1), range(1, 4 * max_m + 2, 2)
    alphas = ((Fraction(1), 1), (Fraction(1, 2), 1), (Fraction(2), 1))  # pi, pi/2, 2 pi
    checks = [_ramanujan(alpha, n) for n in range(1, 2 * max_m + 1) for alpha in alphas]
    checks += [_symmetric_point(2 * m - 1) for m in ms]
    checks += [_zeta_4m1(m) for m in ms] + [_vepstas(m) for m in ms]
    checks += [_ts_identity(e, rate) for e in exponents for rate in (1, 2)]
    checks += [_triple(target, e) for e in exponents for target in Target
               if target is Target.PI_POWER or e >= 3]
    return _run(checks, digits)
