"""The independent oracles in integer fixed point, with no mpmath: zeta(s),
zeta(3), and pi and its powers by Machin's formula.  They share no code with
the kernel or the pi of `plouffe.fixed`, so agreement with an assembled
value is evidence.  A value is (m, prec), standing for m 2^-prec."""

import math


def apery_fixed(target_digits):
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 C(2n, n)) as (m, prec),
    with absolute error below 10**-target_digits.

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
    return 5 * total >> 1, prec


def zeta_fixed(s, target_digits):
    """zeta(s), integer s >= 2, as (m, prec), with absolute error below
    10**-target_digits.

    Chebyshev acceleration of eta(s) = sum (-1)^k/(k+1)^s (Cohen, Rodriguez
    Villegas & Zagier 2000): d = T_n(3) and the b_k, the coefficients of
    T_n(1 + 2x) up to sign, are integers.  Truncation leaves below
    3/(3+sqrt 8)^n on eta, at most doubled by 1/(1 - 2^(1-s)): below
    10**-(D+4) for D = target_digits and n = int(1.31 D) + 8.  The sum runs at
    scale 2^sh, sh = max(0, bitlen(d) - prec - g), g = bitlen(n) + 4: each
    floor((c >> sh) / (k+1)^s) is off by under 2 units of 2^sh (1 at sh = 0),
    and one (acc << (sh + prec)) // d takes the sum to 2^-prec.  Unclamped,
    sh >= -1 for every D (bitlen(d) >= 3.3314 D + 16.8 and prec + g <=
    3.3220 D + 12.4 + log2(1.31 D + 8)), so the n floors add under
    4n 2^-g < 1/4 unit; with the last floor, eta is off by under 2 units and
    zeta, after the factor and its floor, by under 5, below 10**-(D+1).  No
    term is summed for s >= prec + 2: zeta(s) - 1 < 2^-s + 2^(1-s)/(s-1) <=
    2^(1-s) <= 2^-(prec+1), so floor(zeta(s) 2^prec) is exactly 2^prec.
    """
    prec = math.ceil((target_digits + 1) * math.log2(10)) + 3
    if s >= prec + 2:
        return 1 << prec, prec
    n = int(1.31 * target_digits) + 8
    d_prev, d = 1, 3  # T_0(3), T_1(3); T_(k+1) = 6 T_k - T_(k-1)
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    sh = max(0, d.bit_length() - prec - n.bit_length() - 4)
    b, c, acc = -1, -d, 0
    for k in range(n):
        c = b - c
        acc += (c >> sh) // (k + 1) ** s
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))  # exact
    eta = (acc << (sh + prec)) // d
    return (eta << (s - 1)) // ((1 << (s - 1)) - 1), prec  # eta / (1 - 2^(1-s))


def _arctan_split(x, a, b):
    """(B, Q, T) with T / (B Q) = sum_{a<=k<b} (-x^2)^(a-k) / (2k+1), by
    binary splitting: B = prod (2k+1), Q = (-x^2)^(b-a)."""
    if b - a == 1:
        return 2 * a + 1, -x * x, -x * x
    b1, q1, t1 = _arctan_split(x, a, (a + b) // 2)
    b2, q2, t2 = _arctan_split(x, (a + b) // 2, b)
    return b1 * b2, q1 * q2, t1 * b2 * q2 + b1 * t2


def machin_pi(prec):
    """floor(pi 2^prec) exactly, by Machin's formula pi = 16 arctan(1/5) -
    4 arctan(1/239) at wp = prec + guard bits.  arctan(1/x) is summed to
    N > wp / (2 log2 x) terms by `_arctan_split`, so the alternating tail
    is below its first term, under 1/x^(2N) < 2^-wp, and one floor of the
    exact partial sum 2^wp T / (B Q x) leaves each arctan under 2 units
    off: v is within E = 40 units of pi 2^wp, and its floor at prec is
    certain once v is E units clear of a multiple of 2^guard."""
    guard = prec.bit_length() + 16
    while True:
        v = 0
        for x, weight in ((5, 16), (239, -4)):
            b, q, t = _arctan_split(x, 0, int((prec + guard) / (2 * math.log2(x))) + 2)
            v += weight * ((t << prec + guard) // (b * q * x))
        if 40 <= v % (1 << guard) < (1 << guard) - 40:
            return v >> guard
        guard *= 2


def pi_power(k, target_digits):
    """pi^k, integer k >= 0, as (m, prec), with absolute error below
    10**-target_digits: P = floor(pi 2^prec) is off by under a unit, so
    P^k / 2^((k-1) prec), floored, is off by under k pi^(k-1) + 1 <= 4^k units,
    and prec = ceil(target_digits log2 10) + 2k makes that below 10**-target_digits."""
    prec = math.ceil(target_digits * math.log2(10)) + 2 * k
    return machin_pi(prec) ** k << prec >> k * prec, prec
