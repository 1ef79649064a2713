"""High-precision evaluation of the Lambert-type series S_n(r) and T_n(r),
assembly of pi^(2n+1) and zeta(2n+1) from exact coefficient triples, and
independent zeta oracles for cross-checking.

With q = e^(-pi r), S_n(s r) = sum_k 1/(k^n (e^(pi s r k) - 1)) is the power
series sum_{s|M} sigma_{-n}(M/s) q^M, sigma_{-n}(m) = sum_{d|m} d^(-n).  So a
rational combination such as a S_n(1) + b S_n(2) + c S_n(4) is one q-series,
summed once in fixed-point integers (`fixed.q_series`, wrapped by
:func:`_s_raw`) up to a proven tail bound (:func:`truncation_index`), with no
full-precision division.  Its N small rational coefficients make it a
polynomial in one fixed q, which rectangular splitting evaluates with about
2 sqrt(N) full multiplies and N scalar operations, each linear in the
working precision.

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
from .fixed import q_series, ratio, truncation_index  # noqa: F401  (public here too)
from .precision import GUARD, PrecisionReal, from_fixed


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

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks as the constructor does


def _s_raw(n, r, target_digits, plus_one=False, extra_terms=0, weights=((1, 1),)):
    """sum_s w_s S_n(s r) (T_n with plus_one) as an exact mpf with absolute
    error below 10**-target_digits: `fixed.q_series` at the exact rational
    of r, an int, Fraction, float or mpf."""
    return from_fixed(*q_series(n, Fraction(*ratio(r)), target_digits, plus_one, extra_terms,
                                weights))


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
    return from_fixed(5 * total >> 1, prec)


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
    return from_fixed(zeta, prec)


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
