"""High-precision evaluation of the Lambert-type series S_n(r) and T_n(r),
assembly of pi^(2n+1) and zeta(2n+1) from exact coefficient triples, and
independent zeta oracles for cross-checking, each value an exact dyadic
Fraction in a PrecisionReal.

With q = e^(-pi r), S_n(s r) = sum_k 1/(k^n (e^(pi s r k) - 1)) is the power
series sum_{s|M} sigma_{-n}(M/s) q^M, sigma_{-n}(m) = sum_{d|m} d^(-n).  So a
rational combination such as a S_n(1) + b S_n(2) + c S_n(4) is one q-series,
summed once in fixed-point integers (`fixed.q_sums`, wrapped by
:func:`_s_raw`) up to a proven tail bound (:func:`truncation_index`), with no
full-precision division.  Its N small rational coefficients make it a
polynomial in one fixed q, which rectangular splitting evaluates with about
2 sqrt(N) full multiplies and N scalar operations, each linear in the
working precision.

Oracle independence: :func:`zeta_reference` (accelerated alternating eta
series) and :func:`apery_zeta3` wrap the integer oracles of
`plouffe.oracles`, which share no code path with the S/T series or the
triple assembly, so agreement between the two routes is meaningful
evidence rather than a tautology.
"""

from collections import namedtuple
from fractions import Fraction

from .bernoulli import Target, triple_for
from .fixed import q_sums, ratio, truncation_index  # noqa: F401  (public here too)
from .oracles import apery_fixed, zeta_fixed
from .precision import GUARD, PrecisionReal


class SeriesSpec(namedtuple("SeriesSpec", "n r digits")):
    """Evaluation request: exponent n >= 1, rate r > 0 (int, Fraction, float
    or mpf, its sign checked exactly), decimal digits D."""

    __slots__ = ()

    def __new__(cls, n, r, digits):
        if not isinstance(n, int) or n < 1:
            raise ValueError("series exponent n must be an integer >= 1")
        if Fraction(*ratio(r)) <= 0:
            raise ValueError("series rate r must be positive")
        if digits < 1:
            raise ValueError("digits must be >= 1")
        return super().__new__(cls, n, r, digits)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks as the constructor does


def _s_raw(n, r, target_digits, plus_one=False, extra_terms=0, weights=((1, 1),)):
    """sum_s w_s S_n(s r) (T_n with plus_one) as an exact dyadic Fraction with
    absolute error below 10**-target_digits: `fixed.q_sums` of one output at
    the exact rational of r, an int, Fraction, float or mpf."""
    (m,), prec = q_sums(n, Fraction(*ratio(r)), target_digits, [weights], plus_one, extra_terms)
    return Fraction(m, 1 << prec)


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


def apery_zeta3(digits):
    """zeta(3) through the accelerated series, to the precision contract."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    m, prec = apery_fixed(digits + GUARD)
    return PrecisionReal(Fraction(m, 1 << prec), digits)


def _zeta_ref_raw(s, target_digits):
    """zeta(s) within 10**-target_digits, as the exact Fraction of `oracles.zeta_fixed`."""
    m, prec = zeta_fixed(s, target_digits)
    return Fraction(m, 1 << prec)


def zeta_reference(s, digits):
    """Independent zeta oracle for integer s >= 2 (no Lambert-series code)."""
    if not isinstance(s, int) or s < 2:
        raise ValueError("zeta_reference requires an integer s >= 2")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return PrecisionReal(_zeta_ref_raw(s, digits + GUARD), digits)
