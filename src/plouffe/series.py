"""The evaluation layer: :func:`term_values`, the one caller of the kernel
and of every oracle, gives the Lambert-type series S_n(r) and T_n(r), and
pi^(2n+1) and zeta(2n+1) from exact triples, with their oracles, as integers
m 2**-prec, which :func:`_exact` alone reads as exact dyadic Fractions.

With q = e^(-pi r), S_n(s r) = sum_k 1/(k^n (e^(pi s r k) - 1)) is the power
series sum_{s|M} sigma_{-n}(M/s) q^M, sigma_{-n}(m) = sum_{d|m} d^(-n).  So a
rational combination such as a S_n(1) + b S_n(2) + c S_n(4) is one q-series,
summed once in fixed-point integers (`fixed.q_sums`) up to a proven tail
bound (:func:`truncation_index`), with no full-precision division.  Its N
small rational coefficients make it a polynomial in one fixed q, which
rectangular splitting evaluates with about 2 sqrt(N) full multiplies and N
scalar operations, each linear in the working precision.

Oracle independence: the ("zeta", s), ("pi", k) and ("apery", 3) terms come
from the integer oracles of `plouffe.oracles`, which share no code path
with the S/T series or the triple assembly, so agreement between the two
routes is evidence rather than a tautology.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .bernoulli import Target, _index, triple_for
from .fixed import pi_fixed, q_sums, ratio, truncation_index  # noqa: F401  (public here too)
from .oracles import apery_fixed, pi_power, zeta_fixed
from .precision import GUARD, PrecisionReal


class SeriesSpec(namedtuple("SeriesSpec", "n r digits")):
    """Evaluation request: exponent n >= 1, rate r > 0 (int, Fraction, float,
    mpf or a pair (rho, j) for rho pi^j, its sign checked exactly), decimal digits D."""

    __slots__ = ()

    def __new__(cls, n, r, digits):
        n = _index(n, "series exponent n", 1)
        if _rho_j(r)[0] <= 0:
            raise ValueError("series rate r must be positive")
        return super().__new__(cls, n, r, _index(digits, "digits", 1))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks as the constructor does


def series_term(n, rate, plus_one=False, weights=((1, 1),)):
    """The term sum_s w_s S_n(s rate), or T_n(rate) with plus_one."""
    if type(rate) is tuple and rate[1] == 0:
        rate = rate[0]  # so that equal terms compare equal
    return ("S", n, rate, plus_one, tuple(weights))


def _rho_j(x):
    """A coefficient, rate or alpha as (rho, j), rho a Fraction and j an int, for rho pi^j."""
    rho, j = x if type(x) is tuple else (x, 0)  # a named tuple, as a PrecisionReal, is a rho
    if not isinstance(j, int):
        raise ValueError(f"the power of pi in rho pi^j must be an integer, not {j!r}")
    return Fraction(*ratio(rho)), j


def term_values(terms, accuracy):
    """{term: (m, prec)}, each value m 2**-prec within 10**-accuracy, for S
    terms (`series_term`), ("zeta", s) from the eta oracle and ("pi", k) from
    Machin's pi^k.  The S terms of one (n, plus_one) at integer multiples of
    their lowest rate share one `q_sums` pass, the rest take further passes.
    A rate rho pi^j takes pi rounded down to accuracy + 10 places
    (`pi_fixed`), which moves the rate r by a relative |j| 10**-(accuracy+10)
    / 3 at most, and a sum of weights W by at most that times W zeta(2) /
    (pi r), as x / (2 cosh x - 2) <= 1/x.  A sum within MAX_TERMS has
    1/(pi r) < 4.4e5, so the error is below |j| W 10**-(accuracy+4) / 4,
    within the 0.8 10**-accuracy `q_sums` leaves while |j| W <= 10**4.  The
    S passes run first: a sum past MAX_TERMS is refused before any oracle
    runs."""
    groups, values = {}, {}
    bits = math.ceil((accuracy + 10) * math.log2(10))
    for term in terms:
        if term[0] == "S":
            rho, j = _rho_j(term[2])
            rate = rho * Fraction(pi_fixed(bits), 1 << bits) ** j if j else rho
            groups.setdefault((term[1], term[3]), []).append((rate, term))
    for (n, plus_one), group in groups.items():
        while group:
            base = min(rate for rate, _ in group)
            shared = [(rate, term) for rate, term in group if (rate / base).denominator == 1]
            weights = [tuple((s * int(rate / base), w) for s, w in t[4]) for rate, t in shared]
            sums, prec = q_sums(n, base, accuracy, weights, plus_one)
            values.update((term, (m, prec)) for (_, term), m in zip(shared, sums))
            group = [pair for pair in group if pair not in shared]
    for kind, k in (term for term in terms if term[0] != "S"):
        values[kind, k] = (apery_fixed(accuracy) if kind == "apery" else
                           zeta_fixed(k, accuracy) if kind == "zeta" else pi_power(k, accuracy))
    return values


def _exact(terms, accuracy):
    """The exact dyadic Fraction of each term, in order, within 10**-accuracy."""
    return [Fraction(m, 1 << prec) for m, prec in map(term_values(terms, accuracy).get, terms)]


def _value(term, digits):
    """The term's value as a PrecisionReal of `digits`, computed within 10**-(digits + GUARD)."""
    digits = _index(digits, "digits", 1)
    return PrecisionReal(*_exact([term], digits + GUARD), digits)


def _s_raw(n, r, target_digits, plus_one=False, weights=((1, 1),)):
    """sum_s w_s S_n(s r) (T_n with plus_one) as an exact dyadic Fraction with
    absolute error below 10**-target_digits: its S term at r, an int,
    Fraction, float or mpf, read by `_exact`."""
    return _exact([series_term(n, r, plus_one, weights)], target_digits)[0]


def s_series(spec):
    """S_n(r) at the precision requested by `spec`."""
    return _value(series_term(spec.n, spec.r), spec.digits)


def eval_pi_power(exponent, digits):
    """pi**exponent assembled from its three-series representation."""
    digits = _index(digits, "digits", 1)  # before the Bernoulli layer works
    triple = triple_for(Target.PI_POWER, exponent)
    return _value(series_term(exponent, 1, weights=triple.weights()), digits)


def eval_zeta_odd(exponent, digits):
    """zeta(exponent) for odd exponent >= 3, assembled from its triple."""
    digits = _index(digits, "digits", 1)  # before the Bernoulli layer works
    triple = triple_for(Target.ZETA_VALUE, exponent)
    return _value(series_term(exponent, 1, weights=triple.weights()), digits)


def apery_zeta3(digits):
    """zeta(3) through the accelerated series, to the precision contract."""
    return _value(("apery", 3), digits)


def _zeta_ref_raw(s, target_digits):
    """zeta(s) within 10**-target_digits, as the exact Fraction of its ("zeta", s) term."""
    return _exact([("zeta", s)], target_digits)[0]


def zeta_reference(s, digits):
    """Independent zeta oracle for integer s >= 2 (no Lambert-series code)."""
    return _value(("zeta", _index(s, "s", 2)), digits)
