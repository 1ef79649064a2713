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
The memo holds a dense prefix B_0..B_N and grows geometrically, so rising
requests rebuild it only O(log N) times.  The coefficient sums F, G and H
are each computed once per process.
"""

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import comb, factorial, isqrt, lcm


class Target(Enum):
    PI_POWER = "pi"
    ZETA_VALUE = "zeta"


# B_0 = 1 is forced by the generating function x/(e^x - 1) and by every
# derived coefficient below.  Writers rebind _memo to a longer list with the
# same prefix under _memo_lock, so a reader holding the old list stays right.
_memo = [Fraction(1), Fraction(-1, 2)]
_memo_lock = threading.Lock()
_built = 0  # the longest prefix this process built; preloaded entries do not count


def _bernoulli_prefix(n):
    """B_0..B_n as a new list, from the tangent numbers T_1..T_(n//2)."""
    half = n // 2
    # Brent & Harvey, Algorithm TangentNumbers: start from T_j = (j-1)!, then
    # for k = 2..half sweep T_j <- (j-k) T_(j-1) + (j-k+2) T_j for j = k..half,
    # in place (T_(j-1) is the value just updated); t[j-1] holds T_j.
    t = [1] * half
    for j in range(1, half):
        t[j] = j * t[j - 1]
    for k in range(2, half + 1):
        previous = 0
        for d, i in enumerate(range(k - 1, half)):  # d = j - k, i = j - 1
            previous = t[i] = d * previous + (d + 2) * t[i]
    values = [Fraction(1), Fraction(-1, 2)]
    zero = Fraction(0)
    power = 1  # 4^k
    for k, tk in enumerate(t, start=1):
        power *= 4
        # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
        numerator = 2 * k * tk
        values += [Fraction(numerator if k % 2 else -numerator, power * (power - 1)), zero]
    del values[n + 1:]
    return values


def bernoulli(k):
    """Exact k-th Bernoulli number (B_0 = 1, B_1 = -1/2), memoized.

    A miss rebuilds B_0..B_N from tangent numbers (Brent & Harvey), N = max(k,
    2 * the longest prefix this process built, capped at the memo length), so
    the memo can outrun k, but a miss just past a preloaded cache builds to k.
    """
    global _memo, _built
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    memo = _memo
    if k < len(memo):
        return memo[k]
    with _memo_lock:
        if len(_memo) <= k:
            _memo = _bernoulli_prefix(max(k, 2 * min(_built, len(_memo))))
            _built = len(_memo)
        return _memo[k]


def memo_snapshot():
    """Copy of the memoized values B_0..B_N (dense, index order)."""
    with _memo_lock:
        return list(_memo)


def memo_preload(values):
    """Seed the memo with a dense prefix B_0..B_N (e.g. from a cache file).

    Entries failing cheap sanity checks are rejected wholesale; the numbers
    are then simply recomputed on demand.  Returns True when accepted.
    """
    global _memo
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
        if len(values) > len(_memo):
            _memo = values
    return True


# Each sum below is taken over binomial weights C(top, i) = top! / (i! (top-i)!)
# and divided by top! once, which keeps the factorials out of every partial sum.

@cache
def f_sum(n):
    """F_n, the alternating double-Bernoulli sum over index pairs (2k, 2n+2-2k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    top = 2 * n + 2
    return sum(
        (-1) ** k * comb(top, 2 * k) * bernoulli(2 * k) * bernoulli(top - 2 * k)
        for k in range(n + 2)
    ) / factorial(top)


@cache
def g_sum(n):
    """G_n, the (-4)^k-weighted double-Bernoulli sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    top = 2 * n + 2
    return sum(
        (-4) ** k * comb(top, 2 * k) * bernoulli(2 * k) * bernoulli(top - 2 * k)
        for k in range(n + 2)
    ) / factorial(top)


@cache
def h_sum(m):
    """H_m, the (-4)^(m+k)-weighted sum over index pairs (4k, 4m+2-4k)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    top = 4 * m + 2
    return sum(
        (-4) ** (m + k) * comb(top, 4 * k) * bernoulli(4 * k) * bernoulli(top - 4 * k)
        for k in range(m + 1)
    ) / factorial(top)


def d_coeff(m):
    """D_m = 4^(2m-1) [ (4^(2m-1)+1) F_(2m-1) - G_(2m-1) ] / 2, checked nonzero."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = Fraction(4) ** (2 * m - 1)
    d = p * ((p + 1) * f_sum(2 * m - 1) - g_sum(2 * m - 1)) / 2
    if d == 0:
        raise ArithmeticError(f"D_{m} vanishes; the pi^(4m-1) formula is undefined")
    return d


def k_coeff(m):
    """K_m = (1/2)(1 - 4^(2m)) / (1 + (-4)^m - 2^(4m+1)); indeterminate at m = 0."""
    if m < 1:
        raise ValueError("m must be >= 1 (K_0 is an indeterminate 0/0)")
    return Fraction(1, 2) * (1 - Fraction(4) ** (2 * m)) / (1 + Fraction(-4) ** m - Fraction(2) ** (4 * m + 1))


def e_coeff(m):
    """E_m = (4^(2m)/2) G_(2m) - 2^(4m+1) K_m H_m - 2^(4m) K_m G_(2m), checked nonzero."""
    if m < 1:
        raise ValueError("m must be >= 1")
    km = k_coeff(m)
    g2m = g_sum(2 * m)
    e = Fraction(4) ** (2 * m) / 2 * g2m - Fraction(2) ** (4 * m + 1) * km * h_sum(m) \
        - Fraction(2) ** (4 * m) * km * g2m
    if e == 0:
        raise ArithmeticError(f"E_{m} vanishes; the pi^(4m+1) formula is undefined")
    return e


@dataclass(frozen=True)
class CoefficientTriple:
    """Exact rationals (a, b, c) with target = a S_n(1) + b S_n(2) + c S_n(4)."""

    target: Target
    exponent: int
    a: Fraction
    b: Fraction
    c: Fraction

    def coefficients(self):
        return (self.a, self.b, self.c)


def _validate_exponent(target, exponent):
    if not isinstance(exponent, int):
        raise ValueError("exponent must be an integer")
    if exponent % 2 == 0:
        raise ValueError(f"exponent {exponent} is even; only odd exponents have a triple")
    if exponent < 1:
        raise ValueError("exponent must be positive")
    if target is Target.ZETA_VALUE and exponent < 3:
        raise ValueError("zeta(1) diverges; zeta targets need exponent >= 3")


def triple_for(target, exponent):
    """Exact coefficient triple for pi**exponent or zeta(exponent), odd exponent.

    Dispatches on exponent mod 4 to the 4m-1 or 4m+1 family; exponent 1 is
    the classical (72, -96, 24) representation of pi itself.
    """
    target = Target(target)
    _validate_exponent(target, exponent)

    if exponent == 1:
        return CoefficientTriple(target, 1, Fraction(72), Fraction(-96), Fraction(24))

    if exponent % 4 == 3:
        m = (exponent + 1) // 4
        d = d_coeff(m)
        p = Fraction(4) ** (2 * m - 1)
        if target is Target.PI_POWER:
            a, b, c = p / d, -(p + 1) / d, 1 / d
        else:
            f = f_sum(2 * m - 1)
            g = g_sum(2 * m - 1)
            a, b, c = -f * p * p / d, g * p / d, -f * p / d
    else:
        m = (exponent - 1) // 4
        km = k_coeff(m)
        em = e_coeff(m)
        g2m = g_sum(2 * m)
        four = Fraction(4) ** (2 * m)           # 16^m
        two = Fraction(2) ** (4 * m + 1)        # 2^(4m+1)
        neg = Fraction(-4) ** m
        if target is Target.PI_POWER:
            a = -four / em
            b = 2 * km * (two - neg + 1) / em
            c = (1 - 4 * km) / em
        else:
            den = (four - 1) * em
            a = -four * (2 * em - four * g2m) / den
            b = -2 * four * g2m * km * (2 * four - neg + 1) / den
            c = -(four * g2m * (1 - 4 * km) - 2 * em) / den

    return CoefficientTriple(target, exponent, a, b, c)


def zeta_even_exact(n):
    """Exact rational q with zeta(2n) = q * pi^(2n) (Euler's formula)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (-1) ** (n + 1) * bernoulli(2 * n) * Fraction(2) ** (2 * n) / (2 * factorial(2 * n))
