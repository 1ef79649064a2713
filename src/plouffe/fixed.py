"""Integer fixed point with no mpmath, on which `eval` runs alone: pi, e^(-x),
the weighted q-series kernel behind every S/T value, and exact rendering.
A value is m 2^-prec for an integer m, its error stated in units of 2^-prec.
pi is Chudnovsky's series by binary splitting, and e^(-x) Taylor with
argument halving and squaring (Brent & Zimmermann, Modern Computer
Arithmetic, 4.4), as mpmath runs them on its pure-Python backend."""

import math
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

GUARD = 20  # decimal places computed beyond the requested digits

_pi = (0, 3)  # (prec, floor(pi 2^prec)) at the highest precision computed so far


def _chudnovsky(a, b):
    """(P, Q, T) of Chudnovsky's terms a..b-1, by binary splitting."""
    if b - a > 1:
        p1, q1, t1 = _chudnovsky(a, (a + b) // 2)
        p2, q2, t2 = _chudnovsky((a + b) // 2, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1) if a else 1
    return p, max(1, a ** 3 * 10939058860032000), (-1) ** a * p * (13591409 + 545140134 * a)


def pi_fixed(prec):
    """floor(pi 2^prec) exactly, whatever was asked before: pi = 426880
    sqrt(10005) Q / T over terms of 47 bits each gives v within 2 units of
    pi 2^wp, whose floor at prec is certain once v is 4 units clear of a
    multiple of 2^guard.  The highest prec is kept; a lower one shifts it.
    The memo is read once, so a thread rebinding it cannot mix two of them."""
    global _pi
    memo, guard = _pi, 32
    while prec > memo[0]:
        wp = prec + guard
        _, q, t = _chudnovsky(0, wp // 47 + 2)
        v = 426880 * math.isqrt(10005 << 2 * wp) * q // t
        if 4 <= v % (1 << guard) < (1 << guard) - 4:
            memo = _pi = (prec, v >> guard)
        guard *= 2
    return memo[1] >> (memo[0] - prec)


def exp_neg(x, prec):
    """e^(-x 2^-prec) 2^prec for an integer x >= 0, under 1/4 unit above or
    5/4 below: y = x 2^-h < 1/2 is exact at wp = prec + h + g bits, e^(-y) its
    Taylor series by rectangular splitting over u (even) powers Y_j of y,
    term k = u i + j being (-1)^j Y_j a_k, a_k = y^(ui)/k!, then squared h
    times.  In units of 2^-wp, Y_j is off by under j, each a_k (floored, so
    never above its value, and 0 by k = wp) by under u + 3, and the sum by
    under E = wp (u + 3) + 3u^2 + u.  Clamped to 1, it and its squares lie in
    [0, 1], so a squaring at most doubles an error and adds a unit, leaving
    under 2^h (E + 1) <= 2^(h+g)/4 units."""
    h = max(0, x.bit_length() - prec) + math.isqrt(prec) // 4 + 1
    g = 2 * (prec + h).bit_length() + 8
    wp, u = prec + h + g, max(2, math.isqrt(math.isqrt(prec)) & ~1)
    powers = [1 << wp, x << g]
    for _ in range(u - 1):
        powers.append(powers[-1] * powers[1] >> wp)
    sums, a, k = [0] * u, 1 << wp, 0
    while a:
        for j in range(u):
            sums[j] += a
            k += 1
            a //= k
        a = a * powers[u] >> wp
    v = min(1 << wp, sum((-1) ** j * (s * p >> wp) for j, (s, p) in enumerate(zip(sums, powers))))
    for _ in range(h):
        v = v * v >> wp
    return v >> (h + g)


def q_fixed(r, prec):
    """e^(-pi r) 2^prec for a rational r > 0, off by under 5/4 units: `exp_neg`
    of x = pi r at prec + 4 bits, where the exact `pi_fixed` leaves x off by
    under 2 units, which e^(-x) does not enlarge."""
    num, den = r.numerator, r.denominator
    bits = prec + 4 + (num // den).bit_length()  # so that r 2^(prec + 4 - bits) <= 1
    return exp_neg(pi_fixed(bits) * num // (den << (bits - prec - 4)), prec + 4) >> 4


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


def q_series(n, r, target_digits, plus_one=False, extra_terms=0, weights=((1, 1),)):
    """sum_s w_s S_n(s r) (T_n with plus_one) for a rational r > 0, nonzero
    rational w_s and integers s >= 1, as (m, prec): the value is m 2^-prec,
    with absolute error below 10**-target_digits.

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
    and so is the rounding.  Q_1, from `q_fixed`, is off by under 5/4 units,
    and Q_j, a floored product of Q_(j-1) and Q_1, by under 3j.  |a_m| <= W =
    w (1 + ln N) with w = ceil(sum |w_s|), so term m is off by under
    3k W + 1 units of its block's scale, the floor included.  A Horner step
    adds one unit plus |total| (3k + 1), where |total| <= (W + k + 1)/(1-q)
    bounds any partial Horner sum.  Each later step multiplies earlier errors
    by the cut q^k, which is below q^k, so an error of e units at block i's
    scale 2^(cut_i - prec) ends as under e q^(ik) 2^cut_i <= e units.  Summed
    over N terms and N/k steps, the rounding stays under 17 N k W / (1-q)
    units.

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
    q = q_fixed(r, prec)
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
    return total, prec


def ratio(x):
    """x as an exact (numerator, denominator) pair: an mpf from its raw
    (sign, mantissa, exponent), anything else through `Fraction`."""
    if not hasattr(x, "_mpf_"):
        return Fraction(x).as_integer_ratio()
    sign, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's inf, -inf and nan
        raise ValueError(f"cannot render non-finite value {x!r}")
    return (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)


def decimal_string(x, sig_digits, exponent=0):
    """Render x 2**exponent, for an mpf or anything `Fraction` takes, with
    exactly ``sig_digits`` significant digits.

    The value is one exact ratio of integers, and one half-even decimal
    division at ``sig_digits`` rounds it, so the digit string is a
    deterministic function of the value.  Trailing zeros are kept: the
    digit count is part of the contract.  No int passes through str(), so
    Python's int/str digit limit never applies.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    num, den = ratio(x)
    num, den = num << max(exponent, 0), den << max(-exponent, 0)
    if num == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = ROUND_HALF_EVEN
        # the one rounding; a carry (9.99... -> 10.0...) moves the exponent
        rounded = Decimal(num) / Decimal(den)
        target = rounded.adjusted() - sig_digits + 1
        r = rounded.quantize(Decimal(1).scaleb(target))  # pads trailing zeros, exactly
    if target > 0:
        # fewer requested digits than integer places: keep the count visible
        return format(r, "e")
    return format(r, "f")
