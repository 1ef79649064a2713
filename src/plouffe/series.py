"""High-precision evaluation of the Lambert-type series S_n(r) and T_n(r),
assembly of pi^(2n+1) and zeta(2n+1) from exact coefficient triples, and
independent zeta oracles for cross-checking.

With q = e^(-pi r), S_n(s r) = sum_k 1/(k^n (e^(pi s r k) - 1)) is the power
series sum_{s|M} sigma_{-n}(M/s) q^M, sigma_{-n}(m) = sum_{d|m} d^(-n).  So a
rational combination such as a S_n(1) + b S_n(2) + c S_n(4) is one q-series,
summed once in fixed-point integers (:func:`_s_raw`) up to a proven tail
bound (:func:`truncation_index`), with no full-precision division.

Oracle independence: :func:`zeta_reference` (accelerated alternating eta
series) and :func:`apery_zeta3` share no code path with the S/T series or
the triple assembly, so agreement between the two routes is meaningful
evidence rather than a tautology.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, triple_for
from .precision import GUARD, PrecisionReal, to_mpf


@dataclass(frozen=True)
class SeriesSpec:
    """Evaluation request: exponent n >= 1, rate r > 0, decimal digits D."""

    n: int
    r: object  # int, Fraction, float or mpf; any positive rate
    digits: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("series exponent n must be an integer >= 1")
        if float(self.r) <= 0:
            raise ValueError("series rate r must be positive")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")


def truncation_index(n, rate, target_digits, weight=1):
    """Smallest term count N whose proven q-series tail bound is below
    10**-target_digits, for weights w_s with sum |w_s| = weight.

    The coefficient of q^M is sum_{s|M} w_s sigma_{-n}(M/s), and for every
    n >= 1, sigma_{-n}(m) <= sum_{d<=m} 1/d <= 1 + ln m.  With ln M <= ln(N+1)
    + (M-N-1)/(N+1) for M > N and sum_i i q^i = q/(1-q)^2, the tail is at most

        weight q^(N+1)/(1-q) (1 + ln(N+1) + q/((1-q)(N+1))).
    """
    rate = float(rate)
    if rate <= 0:
        raise ValueError("rate must be positive")
    log10_q = -math.pi * rate / math.log(10)  # not log10(exp(...)), which underflows at large rates
    one_minus_q = -math.expm1(-math.pi * rate)
    budget = -target_digits - math.log10(weight) + math.log10(one_minus_q)
    terms = max(1, math.floor(budget / log10_q) - 1)  # the log factor is >= 1
    while (terms + 1) * log10_q + math.log10(
            1 + math.log(terms + 1) + (1 - one_minus_q) / (one_minus_q * (terms + 1))) >= budget:
        terms += 1
    return terms


def _s_raw(n, r, target_digits, plus_one=False, extra_terms=0, weights=((1, 1),)):
    """sum_s w_s S_n(s r) (T_n with plus_one) for nonzero rational w_s and
    integers s >= 1, as an exact mpf with absolute error below 10**-target_digits.

    In integers scaled by 2^prec, P = q^M 2^prec is updated with q cut to
    P's own length, so the multiply shrinks as the terms decay, and term M
    adds (sum_s L w_s s^n sigma_n(M/s)) P // (L M^n), L the common
    denominator of the w_s.  For T_n, 1/(e^x + 1) = sum_j (-1)^(j-1) e^(-jx)
    turns sigma_n(m) = sum_{jk=m} j^n into sum_{jk=m} (-1)^(j-1) j^n.

    Error: the tail is below 10**-(target_digits+1), and so is the rounding:
    P is off by at most 4/(1-q) units of 2^-prec (one from q, two per step,
    shrunk by q at each later step), term M's coefficient is below
    weight (1 + ln M), and each floor adds one unit.

    Memory: a sieve table of terms + 1 divisor sums of about n log2(terms) bits
    each; peak 0.14 MB for pi at 4000 digits, 3.6 MB for S_5(1/100) at 1000 digits.
    """
    weights = [(s, Fraction(w)) for s, w in weights]
    scale = math.lcm(*(w.denominator for _, w in weights))
    numerators = [(s, int(w * scale) * s ** n) for s, w in weights]
    weight = math.ceil(sum(abs(w) for _, w in weights))  # an int: past the float range for pi^n, n >= 619
    terms = truncation_index(n, r, target_digits + 1, weight) + extra_terms
    slack = terms * (weight * math.ceil((1 + math.log(terms)) * 4 / -math.expm1(-math.pi * float(r))) + 1)
    prec = math.ceil((target_digits + 1) * math.log2(10) + math.log2(slack))
    with mp.workprec(prec + 20):
        q = int(mp.ldexp(mp.exp(-mp.pi * to_mpf(r)), prec))
    sigma = [0] * (terms + 1)  # sigma[m]: sum of the (signed) d^n over divisors d of m
    for d in range(1, terms + 1):
        power = -(d ** n) if plus_one and d % 2 == 0 else d ** n
        for m in range(d, terms + 1, d):
            sigma[m] += power
    total, p = 0, 1 << prec
    for m in range(1, terms + 1):
        shift = max(0, prec - p.bit_length())
        p = (p * (q >> shift)) >> (prec - shift)
        c = sum(v * sigma[m // s] for s, v in numerators if m % s == 0)
        total += c * p // (scale * m ** n)
    return mp.make_mpf(mp.libmp.from_man_exp(total, -prec))  # exact, not rounded to the context


def s_series(spec):
    """S_n(r) at the precision requested by `spec`."""
    value = _s_raw(spec.n, spec.r, spec.digits + GUARD)
    return PrecisionReal(value, spec.digits)


def _assemble(triple, digits):
    """a*S(1) + b*S(2) + c*S(4) at absolute error below 10**-(digits + GUARD),
    summed as one weighted q-series."""
    value = _s_raw(triple.exponent, 1, digits + GUARD, weights=zip((1, 2, 4), triple.coefficients()))
    return PrecisionReal(value, digits)


def eval_pi_power(exponent, digits):
    """pi**exponent assembled from its three-series representation."""
    return _assemble(triple_for(Target.PI_POWER, exponent), digits)


def eval_zeta_odd(exponent, digits):
    """zeta(exponent) for odd exponent >= 3, assembled from its triple."""
    if exponent == 1:
        raise ValueError("zeta(1) diverges")
    return _assemble(triple_for(Target.ZETA_VALUE, exponent), digits)


def _apery_raw(target_digits):
    """zeta(3) via the accelerated central-binomial series, raw mpf.

    Terms gain ~log10(4) digits each; the alternating tail is bounded by
    the first omitted term, which is the stopping rule.
    """
    threshold = mp.mpf(10) ** (-(target_digits + 2))
    binom = 2  # C(2n, n) at n = 1, updated with an exact integer recurrence
    total = mp.mpf(0)
    n = 1
    while True:
        term = mp.mpf(1) / (n ** 3 * binom)
        if term < threshold:
            break
        total += term if n % 2 == 1 else -term
        binom = binom * 2 * (2 * n + 1) // (n + 1)
        n += 1
    return mp.mpf(5) / 2 * total


def apery_zeta3(digits):
    """zeta(3) through the accelerated series, to the precision contract."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD + 5):
        value = _apery_raw(digits + GUARD)
    return PrecisionReal(value, digits)


def _zeta_ref_raw(s, target_digits):
    """zeta(s), integer s >= 2, as an exact mpf with absolute error below
    10**-target_digits, summed in integers scaled by 2^prec, so the ambient
    mpmath precision plays no part.  Shares no code with the Lambert-series
    evaluators above.

    Chebyshev acceleration of eta(s) = sum (-1)^k/(k+1)^s (Cohen, Rodriguez
    Villegas & Zagier 2000): d = T_n(3) and the b_k, the coefficients of
    T_n(1 + 2x) up to sign, are integers.  Truncation leaves below
    3/(3+sqrt 8)^n on eta, at most doubled by 1/(1 - 2^(1-s)): below
    10**-(D+4) for D = target_digits and n = int(1.31 D) + 8.  Each floor adds
    one unit of 2^-prec; acc // d shrinks the sum's n units to below one, so
    eta is off by under 2 units and zeta by under 5, below 10**-(D+1).
    """
    n = int(1.31 * target_digits) + 8
    prec = math.ceil((target_digits + 1) * math.log2(10)) + 3
    d_prev, d = 1, 3  # T_0(3), T_1(3); T_(k+1) = 6 T_k - T_(k-1)
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += (c << prec) // (k + 1) ** s
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))  # exact
    zeta = ((acc // d) << (s - 1)) // ((1 << (s - 1)) - 1)  # eta / (1 - 2^(1-s))
    return mp.make_mpf(mp.libmp.from_man_exp(zeta, -prec))


def zeta_reference(s, digits):
    """Independent zeta oracle for integer s >= 2 (no Lambert-series code)."""
    if not isinstance(s, int) or s < 2:
        raise ValueError("zeta_reference requires an integer s >= 2")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return PrecisionReal(_zeta_ref_raw(s, digits + GUARD), digits)


_S1_RATES = (1, 2, 4)


def _s1_closed_raw(r):
    """Closed form of S_1(r) for r in {1, 2, 4} at ambient precision."""
    pi = +mp.pi
    if r == 2:
        return mp.log(4 / pi) / 4 - pi / 12 + mp.loggamma(mp.mpf(3) / 4)
    s14 = (mp.mpf(11) / 8) * mp.log(2) + (mp.mpf(3) / 4) * mp.log(pi) \
        - mp.loggamma(mp.mpf(1) / 4) - pi / 6
    if r == 4:
        return s14
    return s14 + mp.log(mp.mpf(1) / 4) / 4 + pi / 8


def s1_closed_form(r, digits):
    """Log/log-gamma closed form of S_1(r), valid only for r in {1, 2, 4}."""
    if r not in _S1_RATES:
        raise ValueError(f"no closed form implemented for rate {r!r}; use r in {{1, 2, 4}}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD + 5):
        value = _s1_closed_raw(int(r))
    return PrecisionReal(value, digits)
