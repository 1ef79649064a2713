"""High-precision evaluation of the Lambert-type series S_n(r) and T_n(r),
assembly of pi^(2n+1) and zeta(2n+1) from exact coefficient triples, and
independent zeta oracles for cross-checking.

With q = e^(-pi r), S_n(s r) = sum_k 1/(k^n (e^(pi s r k) - 1)) is the power
series sum_{s|M} sigma_{-n}(M/s) q^M, sigma_{-n}(m) = sum_{d|m} d^(-n).  So a
rational combination such as a S_n(1) + b S_n(2) + c S_n(4) is one q-series,
summed once in fixed-point integers (:func:`_s_raw`) up to a proven tail
bound (:func:`truncation_index`), with no full-precision division.  Its N
small rational coefficients make it a polynomial in one fixed q, which
rectangular splitting evaluates with about 2 sqrt(N) full multiplies and N
scalar operations, each linear in the working precision.

Oracle independence: :func:`zeta_reference` (accelerated alternating eta
series) and :func:`apery_zeta3` share no code path with the S/T series or
the triple assembly, so agreement between the two routes is meaningful
evidence rather than a tautology.
"""

import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, triple_for
from .precision import GUARD, PrecisionReal, to_mpf


class SeriesSpec(namedtuple("SeriesSpec", "n r digits")):
    """Evaluation request: exponent n >= 1, rate r > 0 (int, Fraction, float
    or mpf), decimal digits D."""

    __slots__ = ()

    def __new__(cls, n, r, digits):
        if not isinstance(n, int) or n < 1:
            raise ValueError("series exponent n must be an integer >= 1")
        if float(r) <= 0:
            raise ValueError("series rate r must be positive")
        if digits < 1:
            raise ValueError("digits must be >= 1")
        return super().__new__(cls, n, r, digits)


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

    The sum is the polynomial sum_{m<=N} a_m q^m with a_m = c_m / (L m^n),
    c_m = sum_s L w_s s^n sigma_n(m/s) and L the common denominator of the
    w_s.  For T_n, 1/(e^x + 1) = sum_j (-1)^(j-1) e^(-jx) turns
    sigma_n(m) = sum_{jk=m} j^n into sum_{jk=m} (-1)^(j-1) j^n.

    Rectangular splitting (Paterson & Stockmeyer 1973; Brent & Zimmermann,
    Modern Computer Arithmetic, 4.4.3), in integers scaled by 2^prec: with
    k = isqrt(N), Q_j = q^j 2^prec for j = 0..k, and block i holding the terms
    m = i k + j, 0 <= j < k, the block sum is sum_j c_m Q_j // (L m^n), and the
    blocks are combined by Horner in q^k from the last one down.  Block i is
    later multiplied by q^(ik) = 2^(-ik log2(1/q)), so it is summed with the
    Q_j cut by cut_i <= ik log2(1/q) bits, as is the q^k of its Horner step.
    That costs about 2k full multiplies (the Q_j and the Horner steps) and N
    scalar multiplies and divisions, each linear in prec.

    Error, in units of 2^-prec: the tail is below 10**-(target_digits+1),
    and so is the rounding.  Q_1 is off by just over one unit, and Q_j, a
    floored product of Q_(j-1) and Q_1, by under 3j.  |a_m| <= W = w (1 + ln N)
    with w = ceil(sum |w_s|), so term m is off by under 3k W + 1 units of
    its block's scale, the floor included.  A Horner step adds one unit plus
    |total| (3k + 1), where |total| <= (W + k + 1)/(1-q) bounds any partial
    Horner sum.  Each later step multiplies earlier errors by the cut q^k,
    which is below q^k, so an error of e units at block i's scale
    2^(cut_i - prec) ends as under e q^(ik) 2^cut_i <= e units.  Summed over
    N terms and N/k steps, the rounding stays under 17 N k W / (1-q) units.

    Memory: the k + 1 powers Q_j of up to prec bits each (about 1 MB for pi
    at 20000 digits) and a sieve table of N + 1 divisor sums of about
    n log2(N) bits each (3.6 MB for S_5(1/100) at 1000 digits).
    """
    weights = [(s, Fraction(w)) for s, w in weights]
    scale = math.lcm(*(w.denominator for _, w in weights))
    numerators = [(s, int(w * scale) * s ** n) for s, w in weights]
    weight = math.ceil(sum(abs(w) for _, w in weights))  # an int: past the float range for pi^n, n >= 619
    terms = truncation_index(n, r, target_digits + 1, weight) + extra_terms
    k = math.isqrt(terms)
    slack = 17 * terms * k * weight * math.ceil((1 + math.log(terms)) / -math.expm1(-math.pi * float(r)))
    prec = math.ceil((target_digits + 1) * math.log2(10) + math.log2(slack))
    with mp.workprec(prec + 20):
        q = int(mp.ldexp(mp.exp(-mp.pi * to_mpf(r)), prec))
    sigma = [0] * (terms + 1)  # sigma[m]: sum of the (signed) d^n over divisors d of m
    for d in range(1, terms + 1):
        power = -(d ** n) if plus_one and d % 2 == 0 else d ** n
        for m in range(d, terms + 1, d):
            sigma[m] += power
    powers = [1 << prec, q]  # powers[j] = Q_j
    for _ in range(k - 1):
        powers.append(powers[-1] * q >> prec)
    block_bits = k * math.pi * float(r) / math.log(2)  # log2(1/q^k)
    total, cut_prev = 0, prec
    for i in range(terms // k, -1, -1):
        cut = min(prec, max(0, math.floor(i * block_bits) - 1))  # -1: float error in i * block_bits
        block = 0
        for m in range(max(1, i * k), min(terms + 1, i * k + k)):
            c = sum(v * sigma[m // s] for s, v in numerators if m % s == 0)
            block += c * (powers[m - i * k] >> cut) // (scale * m ** n)
        total = (total * (powers[k] >> cut) >> (prec - cut_prev)) + block
        cut_prev = cut
    return mp.make_mpf(mp.libmp.from_man_exp(total, -prec))  # exact, not rounded to the context


def s_series(spec):
    """S_n(r) at the precision requested by `spec`."""
    value = _s_raw(spec.n, spec.r, spec.digits + GUARD)
    return PrecisionReal(value, spec.digits)


def _assemble(triple, digits):
    """a*S(1) + b*S(2) + c*S(4) at absolute error below 10**-(digits + GUARD),
    summed as one weighted q-series."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    value = _s_raw(triple.exponent, 1, digits + GUARD, weights=triple.weights())
    return PrecisionReal(value, digits)


def eval_pi_power(exponent, digits):
    """pi**exponent assembled from its three-series representation."""
    return _assemble(triple_for(Target.PI_POWER, exponent), digits)


def eval_zeta_odd(exponent, digits):
    """zeta(exponent) for odd exponent >= 3, assembled from its triple."""
    return _assemble(triple_for(Target.ZETA_VALUE, exponent), digits)


def _apery_raw(target_digits):
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 C(2n, n)) as an exact mpf
    with absolute error below 10**-target_digits, summed in integers scaled
    by 2^prec, so the ambient mpmath precision plays no part.  Shares no code
    with the Lambert-series evaluators above.

    Term n+1 is term n times n^3 / (2 (n+1)^2 (2n+1)) < 1/4: one small
    multiply and one floor, so each term is off by under 4/3 units of
    2^-prec.  The loop stops at the first term that floors to zero, whose
    true value bounds the alternating tail by 4/3 units.  With N <= prec/2 + 2
    terms, the sum is off by under 4N/3 units and zeta(3), after the factor
    5/2 and its floor, by under 4N <= 2 prec + 8 units: below 10**-D for
    D = target_digits, bits = ceil(D log2 10), prec = bits + bit_length(bits) + 4.
    """
    bits = math.ceil(target_digits * math.log2(10))
    prec = bits + bits.bit_length() + 4
    term, total, n = 1 << (prec - 1), 0, 1  # 1 / (1^3 C(2, 1))
    while term:
        total += term if n % 2 else -term
        term = term * n ** 3 // (2 * (n + 1) ** 2 * (2 * n + 1))
        n += 1
    return mp.make_mpf(mp.libmp.from_man_exp(5 * total >> 1, -prec))


def apery_zeta3(digits):
    """zeta(3) through the accelerated series, to the precision contract."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return PrecisionReal(_apery_raw(digits + GUARD), digits)


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
