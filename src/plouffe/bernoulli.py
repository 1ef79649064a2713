"""Exact Bernoulli numbers and the rational coefficient families behind the
three-series formulas for odd powers of pi and odd zeta values.

Everything here stays in exact rational arithmetic; no floating point ever
enters a coefficient.  The three-series representation writes the target as

    target = a * S_n(1) + b * S_n(2) + c * S_n(4)

with S_n(r) = sum_{k>=1} 1/(k^n (e^(pi r k) - 1)) and exact rationals
(a, b, c) produced by :func:`triple_for`.

Bernoulli numbers come from the tangent numbers T_k (tan x = sum T_k
x^(2k-1)/(2k-1)!), computed in place on Python integers by the algorithm
of Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers" (arXiv:1108.0286), so no gcd is taken until each B_2k is formed.
The memo holds a dense prefix B_0..B_N and grows in place: the recurrence
runs column by column and keeps its last column, so a miss appends only the
entries past the memo's end and each T_k is computed once per process.  The
coefficient sums F, G and H are each computed once per process, from one
table of pair products per top (`_pairs`), which Ramanujan's formula reads too.
Every index and exponent is an integer; anything else is a ValueError.
"""

import operator
import threading
from collections import namedtuple
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, lcm


class Target(Enum):
    PI_POWER = "pi"
    ZETA_VALUE = "zeta"


# B_0 = 1 is forced by the generating function x/(e^x - 1) and by every
# derived coefficient below.  Writers append under _memo_lock, so a reader
# that sees k < len(_memo) reads a finished entry.
_memo = [Fraction(1), Fraction(-1, 2)]
_memo_lock = threading.Lock()
# The last column of the tangent-number recurrence, the memo's only other
# state: after column j, _column[k-1] holds t(k, j) for k = 1..j, and T_j is last.
_column = []


def _tangent_column():
    """Run the next column j of the tangent-number recurrence in place.

    Brent & Harvey, Algorithm TangentNumbers, with its two loops swapped: the
    value t(k, j) of T_j after sweep k is (j-k) t(k, j-1) + (j-k+2) t(k-1, j),
    from t(1, j) = (j-1)!, and T_j = t(j, j).  So column j needs only column
    j-1, and each entry costs the same one multiply-add as in the row order.
    """
    j = len(_column) + 1
    previous = 0  # t(k-1, j)
    for i, d in enumerate(range(j - 1, 0, -1)):  # i = k - 1, d = j - k
        previous = _column[i] = d * _column[i] + (d + 2) * previous
    _column.append(2 * previous or 1)  # t(j, j) = 2 t(j-1, j); T_1 = 1 starts it


def _index(value, name, low=None, note=""):
    """value as an int, at least `low` if given, else a ValueError that names it;
    a bool, or anything `operator.index` refuses, is no integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer")
    if low is not None and operator.index(value) < low:
        raise ValueError(f"{name} must be >= {low}{note}")
    return operator.index(value)


def bernoulli(k):
    """Exact k-th Bernoulli number (B_0 = 1, B_1 = -1/2), memoized.

    A miss appends B_n for n = len(memo)..k: zero at odd n, and at even
    n = 2j, B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), with the tangent
    recurrence run on to column j from the column this process last reached.
    """
    k = _index(k, "Bernoulli index", 0)
    memo = _memo
    if k < len(memo):
        return memo[k]
    with _memo_lock:
        while len(_memo) <= k:
            j, odd = divmod(len(_memo), 2)
            if odd:
                _memo.append(Fraction(0))
                continue
            while len(_column) < j:
                _tangent_column()
            power = 1 << 2 * j  # 4^j
            numerator = 2 * j * _column[-1]
            _memo.append(Fraction(numerator if j % 2 else -numerator, power * (power - 1)))
        return _memo[k]


def memo_snapshot():
    """Copy of the memoized values B_0..B_N (dense, index order)."""
    with _memo_lock:
        return list(_memo)


def memo_preload(values):
    """Seed the memo with a dense prefix B_0..B_N (e.g. from a cache file);
    the entries past the memo's end are appended.

    Entries failing cheap sanity checks are rejected wholesale; the numbers
    are then simply recomputed on demand.  Returns True when accepted.
    """
    values = [Fraction(v) for v in values]
    if len(values) < 2 or values[0] != 1 or values[1] != Fraction(-1, 2):
        return False
    for i in range(3, len(values), 2):
        if values[i] != 0:
            return False
    # von Staudt-Clausen: the denominator of B_2k is the product of the primes p with (p-1) | 2k
    denominators = [1] * len(values)
    for p in range(2, len(values) + 1):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            for i in range(p - 1, len(values), p - 1):
                denominators[i] *= p
    for i in range(2, len(values), 2):
        if (values[i] > 0) != (i % 4 == 2) or values[i].denominator != denominators[i]:
            return False
    # sum_{j<=n} C(n+1, j) B_j = 0 at the top index n, summed in integers over the
    # common denominator; every C(n+1, j) is nonzero, so one wrong entry breaks it
    n, common = len(values) - 1, lcm(*denominators)
    total, binomial = 0, 1
    for j, v in enumerate(values):
        total += binomial * v.numerator * (common // v.denominator)
        binomial = binomial * (n + 1 - j) // (j + 1)
    if total:
        return False
    with _memo_lock:
        _memo.extend(values[len(_memo):])
    return True


@lru_cache(maxsize=2)
def _pairs(top):
    """The pair products B_i B_(top-i) / (i! (top-i)!), i = 0..top, as the integers
    C(top, i) L B_i L B_(top-i), by a running binomial, over one denominator
    L^2 top!, L = lcm(den B_0..B_top).  The last two tops are kept, for the sums
    that share one (F and G of 4m-1, G and H of 4m+1, the alphas of one n)."""
    bernoulli(top)
    values = _memo[:top + 1]
    common = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (common // v.denominator) for v in values]
    products, binomial = [], 1
    for i in range(top + 1):
        products.append(binomial * scaled[i] * scaled[top - i])
        binomial = binomial * (top - i) // (i + 1)
    return tuple(products), common * common * factorial(top)


def _pair_sum(top, step, ratio):
    """sum_k ratio^k B_(step k) B_(top - step k) / ((step k)! (top - step k)!), over
    step k <= top, summed in integers over `_pairs`' denominator and reduced once."""
    products, denominator = _pairs(top)
    return Fraction(sum(ratio ** k * p for k, p in enumerate(products[::step])), denominator)


# typed, so that 2.0 or True is not served the cached value of 2 or 1
@lru_cache(maxsize=None, typed=True)
def f_sum(n):
    """F_n, the alternating double-Bernoulli sum over index pairs (2k, 2n+2-2k)."""
    n = _index(n, "n", 0)
    return _pair_sum(2 * n + 2, 2, -1)


@lru_cache(maxsize=None, typed=True)
def g_sum(n):
    """G_n, the (-4)^k-weighted double-Bernoulli sum."""
    n = _index(n, "n", 0)
    return _pair_sum(2 * n + 2, 2, -4)


@lru_cache(maxsize=None, typed=True)
def h_sum(m):
    """H_m, the (-4)^(m+k)-weighted sum over index pairs (4k, 4m+2-4k)."""
    m = _index(m, "m", 0)
    return (-4) ** m * _pair_sum(4 * m + 2, 4, -4)


def d_coeff(m):
    """D_m = 4^(2m-1) [ (4^(2m-1)+1) F_(2m-1) - G_(2m-1) ] / 2, checked nonzero."""
    m = _index(m, "m", 1)
    p = Fraction(4) ** (2 * m - 1)
    d = p * ((p + 1) * f_sum(2 * m - 1) - g_sum(2 * m - 1)) / 2
    if d == 0:
        raise ArithmeticError(f"D_{m} vanishes; the pi^(4m-1) formula is undefined")
    return d


def k_coeff(m):
    """K_m = (1/2)(1 - 4^(2m)) / (1 + (-4)^m - 2^(4m+1)); indeterminate at m = 0."""
    m = _index(m, "m", 1, " (K_0 is an indeterminate 0/0)")
    return Fraction(1, 2) * (1 - Fraction(4) ** (2 * m)) / (1 + Fraction(-4) ** m - Fraction(2) ** (4 * m + 1))


def e_coeff(m):
    """E_m = (4^(2m)/2) G_(2m) - 2^(4m+1) K_m H_m - 2^(4m) K_m G_(2m), checked nonzero."""
    m = _index(m, "m", 1)
    km = k_coeff(m)
    g2m = g_sum(2 * m)
    e = Fraction(4) ** (2 * m) / 2 * g2m - Fraction(2) ** (4 * m + 1) * km * h_sum(m) \
        - Fraction(2) ** (4 * m) * km * g2m
    if e == 0:
        raise ArithmeticError(f"E_{m} vanishes; the pi^(4m+1) formula is undefined")
    return e


class CoefficientTriple(namedtuple("CoefficientTriple", "target exponent a b c")):
    """Exact rationals (a, b, c) with target = a S_n(1) + b S_n(2) + c S_n(4);
    :meth:`weights` is the one place that pairs them with the rates 1, 2, 4."""

    __slots__ = ()

    def coefficients(self):
        return (self.a, self.b, self.c)

    def weights(self):
        """((rate, coefficient), ...) for the three series S_n(rate)."""
        return ((1, self.a), (2, self.b), (4, self.c))


def _zeta_identity(exponent):
    """(z, c, rate, weights, p) with z zeta(e) + c sum_s w_s S_e(s rate) + p pi^e = 0,
    the form `verify` checks for zeta(e): zeta(e)/2 + S(2) + (4^n/2) F_n pi^e = 0 at
    the symmetric point for e = 2n+1 = 4m-1, and zeta(e) = (2 S(4) - 2 16^m S(1)
    - 16^m G_2m pi^e) / (16^m - 1), the zeta(4m+1) evaluation, for e = 4m+1."""
    if exponent % 4 == 3:
        n = (exponent - 1) // 2
        return Fraction(1, 2), 1, 2, ((1, 1),), Fraction(4 ** n, 2) * f_sum(n)
    m = (exponent - 1) // 4
    sixteen = 16 ** m
    return (1, Fraction(-1, sixteen - 1), 1, ((1, -2 * sixteen), (4, 2)),
            Fraction(sixteen, sixteen - 1) * g_sum(2 * m))


def triple_for(target, exponent):
    """Exact coefficient triple for pi**exponent or zeta(exponent), odd exponent.

    The pi triple is the paper's closed form for the exponent's class mod 4
    (D_m for 4m-1; K_m and E_m for 4m+1; the classical (72, -96, 24) at 1).
    A zeta triple is its pi triple put through `_zeta_identity`, the identity
    `verify` checks for zeta(e), solved for zeta(e).
    """
    target, exponent = Target(target), _index(exponent, "exponent")
    if exponent % 2 == 0:
        raise ValueError(f"exponent {exponent} is even; only odd exponents have a triple")
    if exponent < 1:
        raise ValueError("exponent must be positive")
    if target is Target.ZETA_VALUE and exponent < 3:
        raise ValueError("zeta(1) diverges; zeta targets need exponent >= 3")

    if exponent == 1:
        triple = (Fraction(72), Fraction(-96), Fraction(24))
    elif exponent % 4 == 3:
        m = (exponent + 1) // 4
        p, d = Fraction(4) ** (2 * m - 1), d_coeff(m)
        triple = (p / d, -(p + 1) / d, 1 / d)
    else:
        m = (exponent - 1) // 4
        km, em = k_coeff(m), e_coeff(m)
        sixteen = Fraction(16) ** m
        triple = (-sixteen / em, 2 * km * (2 * sixteen - (-4) ** m + 1) / em, (1 - 4 * km) / em)
    if target is Target.ZETA_VALUE:
        z, c, rate, weights, p = _zeta_identity(exponent)
        shift = {s * rate: c * w for s, w in weights}
        pi = CoefficientTriple(Target.PI_POWER, exponent, *triple)
        triple = (-(p * x + shift.get(r, 0)) / z for r, x in pi.weights())

    return CoefficientTriple(target, exponent, *triple)


def _triples(max_m):
    """The triple of pi^e for each odd e <= 4 max_m + 1, each followed by that
    of zeta(e) from e = 3: the triples `table` prints and `verify` checks."""
    max_m = _index(max_m, "max_m", 1)
    return [triple_for(target, e) for e in range(1, 4 * max_m + 2, 2) for target in Target
            if target is Target.PI_POWER or e >= 3]


def format_rational(q):
    """Fully reduced "p/q" string, or a bare integer when q == 1; no int
    passes through str(), so Python's int/str digit limit never applies."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
