"""Numeric residual checks for the identities the three-series formulas
rest on: Ramanujan's alpha/beta transformation of zeta(2n+1), its two
special-point reductions, the Vepstas expression for zeta(4m+1), and the
T/S companion identity.

Each identity is a form: (coefficient, term) pairs whose sum vanishes when
the identity holds, its terms those that `series.term_values` evaluates:
("S", n, rate, plus_one, weights) for the q-series sum_s w_s S_n(s rate)
(T_n with plus_one), ("zeta", s) for the independent eta oracle, or
("pi", k) for pi**k.  A coefficient or a rate is an exact rational, or a
pair (rho, j) for rho * pi**j, so that no number is rounded before
:func:`_run` fixes the precision with the one rule in :func:`places`; it
evaluates each distinct term once.

Every zeta value comes from the independent alternating-eta oracle, never
from the three-series assembly, and every power of pi from Machin's formula
(`oracles.pi_power`), never from the kernel's pi, so a passing residual is
evidence and not circularity.  A report passes when the exact absolute
residual is below 10**-digits, the contract every value is computed to; the
residual itself is accurate to 10**-(digits + GUARD).  Values are exact
dyadic Fractions from `series._exact`, and each report's residual is an
exact dyadic PrecisionReal from the moment `_run` makes it.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .bernoulli import _index, _pairs, _triples, _zeta_identity, g_sum, h_sum, triple_for
from .fixed import GUARD, nstr, places
from .precision import PrecisionReal
from .series import _exact, _rho_j, series_term


class ResidualReport(namedtuple("ResidualReport", "identity parameters residual digits passed")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "identity": self.identity,
            "parameters": self.parameters,
            "residual": nstr(self.residual, 5),
            "digits": self.digits,
            "pass": self.passed,
        }


def _run(build, digits):
    """Reports for the (identity, parameters, form) checks that `build()`
    returns, residuals exact PrecisionReals of `digits`; digits is read first,
    so that a bad one is refused before the Bernoulli layer works.

    A form of N pairs with coefficients up to C (bounded with 3 < pi < 4)
    needs its S and zeta terms to places(digits + GUARD, N C), and each
    distinct term is evaluated once, to the most demanding form's accuracy.
    A form's pairs, read by `series._exact`, are summed exactly by power j of
    pi, ("pi", k) being 1 at j + k, each sum A_j in integers over the largest
    denominator 2**P, then multiplied by pi^j, the ("pi", |j|) term at
    places(accuracy + 1, A_j) for the largest A_j.  So the terms leave the
    residual off by under 10**-(digits + GUARD), and each pi^j by
    10**-(accuracy + 1).  A report passes when the exact |residual| is below
    10**-digits; it holds |residual| cut to 2**-(P + 64).
    """
    digits = _index(digits, "digits", 1)
    checks = build()
    forms = [[(*_rho_j(c), term) for c, term in form] for _, _, form in checks]
    accuracy = max(places(digits + GUARD, len(form) * max(
        abs(rho) * Fraction(4 if j > 0 else 3) ** j for rho, j, _ in form)) for form in forms)
    terms = list(dict.fromkeys(t for form in forms for *_, t in form if t[0] != "pi"))
    values = dict(zip(terms, _exact(terms, accuracy)))
    P = max((v.denominator.bit_length() - 1 for v in values.values()), default=0)
    sums = [{} for _ in forms]  # per form, {j: A_j 2**P}
    for form, groups in zip(forms, sums):
        for rho, j, term in form:
            v = values.get(term, 1)  # ("pi", k): 1 at pi^(j + k)
            j += term[1] if term[0] == "pi" else 0
            groups[j] = groups.get(j, 0) + rho * (v.numerator << (P + 1 - v.denominator.bit_length()))
    places_pi = max((places(accuracy + 1, int(abs(a)) >> P) for groups in sums
                     for j, a in groups.items() if j), default=0)
    pis, powers = {0: 1}, {abs(j) for groups in sums for j in groups if j}
    for k, value in zip(powers, _exact([("pi", k) for k in powers], places_pi)):
        pis[k], pis[-k] = value, 1 / value
    reports = []
    for (identity, parameters, _), groups in zip(checks, sums):
        total = abs(sum(a * pis[j] for j, a in groups.items()))
        residual = PrecisionReal(Fraction(math.floor(total * 2 ** 64), 1 << (P + 64)), digits)
        reports.append(ResidualReport(identity, parameters, residual, digits,
                                      total * 10 ** digits < 1 << P))
    return reports


def _ramanujan(alpha, n):
    """The check at alpha = rho pi^j, given as a plain tuple (rho, j), or at an exact alpha."""
    rho, j = _rho_j(alpha)
    n = _index(n, "n", 1)
    if rho <= 0:
        raise ValueError("alpha must be positive")
    e = 2 * n + 1
    a = (rho ** -n, -j * n)  # alpha^-n
    b = ((-1) ** n * rho ** n, (j - 2) * n)  # (-beta)^-n with beta = pi^2/alpha
    form = [((a[0] / 2, a[1]), ("zeta", e)), ((-b[0] / 2, b[1]), ("zeta", e)),
            (a, series_term(e, (2 * rho, j - 1))),
            ((-b[0], b[1]), series_term(e, (2 / rho, 1 - j)))]
    products, denominator = _pairs(2 * n + 2)
    for k in range(n + 2):  # 4^n (-1)^k [pair] alpha^(n+1-k) beta^k, each pair nonzero
        form.append((Fraction(4 ** n * (-1) ** k * products[2 * k], denominator)
                     * rho ** (n + 1 - 2 * k), ("pi", j * (n + 1 - k) + (2 - j) * k)))
    return "ramanujan", {"alpha": nstr(rho * Fraction(math.pi) ** j, 10), "n": n}, form


def ramanujan_residual(alpha, n, digits):
    """Residual of the alpha/beta transformation with beta = pi^2/alpha:

        alpha^-n (zeta(2n+1)/2 + S_(2n+1)(2 alpha/pi))
          = (-beta)^-n (zeta(2n+1)/2 + S_(2n+1)(2 beta/pi))
            - 4^n sum_k (-1)^k [B-pair term] alpha^(n+1-k) beta^k

    Holds for every alpha > 0 and n >= 1; checked numerically at the given
    precision, at alpha taken exactly, with zeta from the independent oracle.
    """
    return _run(lambda: [_ramanujan(alpha, n)], digits)[0]


def _zeta_form(e):
    """The (coefficient, term) pairs of `_zeta_identity(e)`."""
    z, c, rate, weights, p = _zeta_identity(e)
    return [(z, ("zeta", e)), (c, series_term(e, rate, weights=weights)), (p, ("pi", e))]


def _symmetric_point(n):
    n = _index(n, "n")
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1 (even n degenerates to 0 = 0)")
    return "symmetric_point", {"n": n}, _zeta_form(2 * n + 1)


def symmetric_point_residual(n, digits):
    """Residual of the odd-n reduction at the symmetric point alpha = beta = pi:

        zeta(2n+1)/2 + S_(2n+1)(2) = -(4^n/2) pi^(2n+1) F_n

    Even n is rejected: F_n = 0 makes both sides vanish identically, so a
    residual check there would pass vacuously.
    """
    return _run(lambda: [_symmetric_point(n)], digits)[0]


def _zeta_4m1(m):
    m = _index(m, "m", 1, " (the denominator 16^m - 1 vanishes at m = 0)")
    return "zeta_4m1", {"m": m}, _zeta_form(4 * m + 1)


def zeta_4m1_residual(m, digits):
    """Residual of the zeta(4m+1) evaluation (alpha = 2 pi, beta = pi/2):

        zeta(4m+1) = (-2*16^m S(1) + 2 S(4) - 16^m pi^(4m+1) G_(2m)) / (16^m - 1)

    with S = S_(4m+1).  m = 0 is rejected (the denominator vanishes).
    """
    return _run(lambda: [_zeta_4m1(m)], digits)[0]


def _vepstas(m):
    m = _index(m, "m", 1, " (the identity is stated for m >= 1)")
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
    return _run(lambda: [_vepstas(m)], digits)[0]


def _ts_identity(n, rate):
    n = _index(n, "n", 1)
    x = _rho_j(rate)
    if x[0] <= 0:
        raise ValueError("rate must be positive")
    return "ts_identity", {"n": n, "rate": str(rate)}, [
        (1, series_term(n, x, plus_one=True)), (-1, series_term(n, x, weights=((1, 1), (2, -2))))]


def ts_identity_residual(n, rate, digits):
    """Residual of T_n(x) = S_n(x) - 2 S_n(2x) at rate x."""
    return _run(lambda: [_ts_identity(n, rate)], digits)[0]


def _triple(triple):
    e = triple.exponent
    return "triple", {"target": triple.target.value, "exponent": e}, [
        (1, series_term(e, 1, weights=triple.weights())), (-1, (triple.target.value, e))]


def triple_residual(target, exponent, digits):
    """Residual of a*S(1) + b*S(2) + c*S(4) against an independent oracle
    (pi**exponent, or the alternating-eta zeta value)."""
    return _run(lambda: [_triple(triple_for(target, exponent))], digits)[0]


def _verify_checks(max_m):
    """The (identity, parameters, form) checks of `verify_all`."""
    max_m = _index(max_m, "max_m", 1)
    ms, exponents = range(1, max_m + 1), range(1, 4 * max_m + 2, 2)
    alphas = ((Fraction(1), 1), (Fraction(1, 2), 1), (Fraction(2), 1))  # pi, pi/2, 2 pi
    checks = [_ramanujan(alpha, n) for n in range(1, 2 * max_m + 1) for alpha in alphas]
    checks += [_symmetric_point(2 * m - 1) for m in ms]
    checks += [_zeta_4m1(m) for m in ms] + [_vepstas(m) for m in ms]
    checks += [_ts_identity(e, rate) for e in exponents for rate in (1, 2)]
    checks += [_triple(triple) for triple in _triples(max_m)]
    return checks


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
    return _run(lambda: _verify_checks(max_m), digits)
