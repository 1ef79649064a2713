"""Integer fixed point on the standard library alone, on which the CLI and
the Python API run: pi, e^(-x), the weighted q-series kernel behind every
S/T value, and exact rendering (`decimal_string` and `nstr`, each rounding
an exact ratio once).  A value is m 2^-prec for an integer m, its error
stated in units of 2^-prec.  pi is Chudnovsky's series by binary splitting,
and e^(-x) Taylor with argument halving and squaring (Brent & Zimmermann,
Modern Computer Arithmetic, 4.4)."""

import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_FLOOR, ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal,
                     localcontext)
from fractions import Fraction

GUARD = 20  # decimal places computed beyond the requested digits
MAX_TERMS = 10 ** 6  # the most terms one q-series may take; `truncation_index` refuses more


def _chudnovsky(a, b):
    """(P, Q, T) of Chudnovsky's terms a..b-1, by binary splitting."""
    if b - a > 1:
        p1, q1, t1 = _chudnovsky(a, (a + b) // 2)
        p2, q2, t2 = _chudnovsky((a + b) // 2, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1) if a else 1
    return p, max(1, a ** 3 * 10939058860032000), (-1) ** a * p * (13591409 + 545140134 * a)


def pi_fixed(prec):
    """floor(pi 2^prec) exactly: pi = 426880 sqrt(10005) Q / T over terms of
    47 bits each gives v within 2 units of pi 2^wp, whose floor at prec is
    certain once v is 4 units clear of a multiple of 2^guard."""
    guard = 32
    while True:
        wp = prec + guard
        _, q, t = _chudnovsky(0, wp // 47 + 2)
        v = 426880 * math.isqrt(10005 << 2 * wp) * q // t
        if 4 <= v % (1 << guard) < (1 << guard) - 4:
            return v >> guard
        guard *= 2


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


def places(target, size=1):
    """The precision rule: decimal places that keep a quantity of magnitude
    up to |size| (an int, Fraction or mpf), or an error magnified by |size|,
    within 10**-target."""
    return target + max(0, math.ceil(int(abs(size)).bit_length() * math.log10(2)))


def truncation_index(n, rate, target_digits, weight=1):
    """Smallest term count N whose proven q-series tail bound is below
    10**-target_digits, for weights w_s with sum |w_s| = weight, at a rate
    anything `ratio` takes, checked exactly.

    The coefficient of q^M is sum_{s|M} w_s sigma_{-n}(M/s), and for every
    n >= 1, sigma_{-n}(m) <= sum_{d<=m} 1/d <= 1 + ln m.  With ln M <= ln(N+1)
    + (M-N-1)/(N+1) for M > N and sum_i i q^i = q/(1-q)^2, the tail is at most

        weight q^(N+1)/(1-q) (1 + ln(N+1) + q/((1-q)(N+1))).

    That bound grows with q, so a rate past 2^64 is taken as 2^64.  N + 2 is
    at least D ln 10 / (pi r) for D = target_digits and any weight >= 1, so a
    rate at which that passes MAX_TERMS is refused with a ValueError before
    any float is taken of it, as is any N past MAX_TERMS.
    """
    rate = Fraction(*ratio(rate))
    if rate <= 0:
        raise ValueError("rate must be positive")
    if weight <= 0:
        raise ValueError(f"weight {weight} must be positive")
    terms = Fraction(target_digits * math.log(10) / math.pi) / rate  # at most N + 2
    if terms <= MAX_TERMS:
        rate = float(min(rate, 2 ** 64))
        log10_q = -math.pi * rate / math.log(10)  # not log10(exp(...)), which underflows at large rates
        one_minus_q = -math.expm1(-math.pi * rate)
        budget = -target_digits - math.log10(weight) + math.log10(one_minus_q)
        terms = max(1, math.floor(budget / log10_q) - 1)  # the log factor is >= 1
        while (terms + 1) * log10_q + math.log10(
                1 + math.log(terms + 1) + (1 - one_minus_q) / (one_minus_q * (terms + 1))) >= budget:
            terms += 1
        if terms <= MAX_TERMS:
            return terms
    raise ValueError(f"a q-series at rate {nstr(rate, 5)} needs about {nstr(terms, 3)} terms, "
                     f"past the limit of MAX_TERMS = {MAX_TERMS}")


def q_sums(n, r, target_digits, outputs, plus_one=False):
    """sum_s w_s S_n(s r) (T_n with plus_one) for each weights ((s, w_s), ...)
    of `outputs`, in one pass, for a rational r > 0, nonzero rational w_s and
    integers s >= 1, as ([m, ...], prec): each value is m 2^-prec, with
    absolute error below 10**-target_digits.

    An output is the polynomial sum_{m<=N} a_m q^m with a_m = c_m / (L m^n),
    c_m = sum_s L w_s s^n sigma_n(m/s), L the common denominator of its w_s,
    and N its own truncation index for its weight w = ceil(sum |w_s|).  For
    T_n, 1/(e^x + 1) = sum_j (-1)^(j-1) e^(-jx) turns sigma_n(m) =
    sum_{jk=m} j^n into sum_{jk=m} (-1)^(j-1) j^n.  The outputs share q, the
    sieve of sigma_n, the powers Q_j and each term's Q_j >> cut_i.

    Rectangular splitting (Paterson & Stockmeyer 1973; Brent & Zimmermann,
    Modern Computer Arithmetic, 4.4.3), in integers scaled by 2^prec: with
    k = isqrt of the largest N, Q_j = q^j 2^prec for j = 0..k, and block i
    holding the terms m = i k + j, 0 <= j < k, an output's block sum is
    sum_j c_m Q_j // (L m^n), and its blocks are combined by Horner in q^k
    from the last one down.  Block i is later multiplied by q^(ik) =
    2^(-ik log2(1/q)), so it is summed with the Q_j cut by cut_i <=
    ik log2(1/q) bits, as is the q^k of its Horner step.  That costs about
    2k full multiplies (the Q_j, and the Horner steps of each output) and
    one scalar multiply and division per nonzero c_m, each linear in prec.

    Error of each output, in units of 2^-prec: its tail is below
    10**-(target_digits+1), and so is its rounding.  Q_1, from `q_fixed`, is
    off by under 5/4 units, and Q_j, a floored product of Q_(j-1) and Q_1,
    by under 3j.  |a_m| <= W = w (1 + ln N), so term m is off by under
    3k W + 1 units of its block's scale, the floor included.  A Horner step
    adds one unit plus |total| (3k + 1), where |total| <= (W + k + 1)/(1-q)
    bounds any partial Horner sum; an output's total is exactly 0 above its
    own N, so only N/k of its steps round.  Each later step multiplies
    earlier errors by the cut q^k, which is below q^k, so an error of e units
    at block i's scale 2^(cut_i - prec) ends as under e q^(ik) 2^cut_i <= e
    units.  Summed over N terms and N/k steps, the rounding stays under
    17 N k W / (1-q) units, for any k; prec is the largest that any output
    needs to keep its own bound below 10**-(target_digits+1).

    Memory: the k + 1 powers Q_j of up to prec bits each (about 1 MB for pi
    at 20000 digits), and a sieve table of N + 1 divisor sums of about
    n log2(N) bits each (3.6 MB for S_5(1/100) at 1000 digits), and as much
    again per output, less where it shares the sieve's ints.
    """
    plans = []  # per output: N, weight, L and the (s, L w_s s^n)
    for weights in outputs:
        weights = [(s, Fraction(w)) for s, w in weights]
        scale = math.lcm(*(w.denominator for _, w in weights))
        weight = math.ceil(sum(abs(w) for _, w in weights))  # an int: past the float range for pi^n, n >= 619
        plans.append((truncation_index(n, r, target_digits + 1, weight), weight, scale,
                      [(s, int(w * scale) * s ** n) for s, w in weights]))
    terms = max(plan[0] for plan in plans)
    k, rate = math.isqrt(terms), float(min(r, 2 ** 64))  # a smaller rate only makes prec and cuts safer
    prec = max(math.ceil((target_digits + 1) * math.log2(10) + math.log2(
        17 * last * k * weight * math.ceil((1 + math.log(last)) / -math.expm1(-math.pi * rate))))
        for last, weight, _, _ in plans)
    q = q_fixed(r, prec)
    sigma = [0] * (terms + 1)  # sigma[m]: sum of the (signed) d^n over divisors d of m
    for d in range(1, terms + 1):
        power = -(d ** n) if plus_one and d % 2 == 0 else d ** n
        for m in range(d, terms + 1, d):
            sigma[m] += power
    sums = [(scale, [0] * (last + 1)) for last, _, scale, _ in plans]  # per output: L, c_0..c_N
    for (_, c), (_, _, _, numerators) in zip(sums, plans):
        for s, v in numerators:  # where c_m is sigma_n(m/s) itself, it keeps the sieve's int
            c[s::s] = [x + v * y if x or v != 1 else y for x, y in zip(c[s::s], sigma[1:])]
    powers = [1 << prec, q]  # powers[j] = Q_j
    for _ in range(k - 1):
        powers.append(powers[-1] * q >> prec)
    block_bits = k * math.pi * rate / math.log(2)  # log2(1/q^k)
    totals, cut_prev = [0] * len(sums), prec
    for i in range(terms // k, -1, -1):
        cut = min(prec, max(0, math.floor(i * block_bits) - 1))  # -1: float error in i * block_bits
        blocks, step = [0] * len(sums), powers[k] >> cut
        for m in range(max(1, i * k), min(terms + 1, i * k + k)):
            power, den = powers[m - i * k] >> cut, m ** n
            for o, (scale, c) in enumerate(sums):
                if m < len(c) and c[m]:
                    blocks[o] += c[m] * power // (scale * den)
        totals = [(t * step >> (prec - cut_prev)) + b for t, b in zip(totals, blocks)]
        cut_prev = cut
    return totals, prec


def ratio(x):
    """x as an exact (numerator, denominator) pair: an mpf from its raw (sign,
    mantissa, exponent), with no mpmath import, an int, float, Fraction,
    Decimal or PrecisionReal by `as_integer_ratio`, else through `Fraction`.
    An infinity or a NaN of mpmath, float or Decimal is a ValueError."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        if man or not exp:  # else mpmath's inf, -inf or nan
            return (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)
    elif x.is_finite() if isinstance(x, Decimal) else not isinstance(x, float) or math.isfinite(x):
        return (x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()
    raise ValueError(f"cannot render non-finite value {x!r}")


def _round(x, count, rounding):
    """x, for anything `ratio` takes, rounded once to a `Decimal` of `count`
    significant digits, or Decimal 0.  |x| 10**k is split exactly into an
    integer q of more than `count` digits and a remainder, so every
    rounding boundary is an integer in q's units, and one `Decimal` rounding
    of 10 q, plus 1 for a nonzero remainder, rounds as the exact value does.
    A carry (9.99... -> 10.0...) moves the exponent.  No int passes through
    str(), so Python's int/str digit limit never applies."""
    num, den = ratio(x)
    if not num:
        return Decimal(0)
    k = count + 2 - math.floor((num.bit_length() - den.bit_length() - 1) * math.log10(2))
    q, rest = divmod(abs(num) * 10 ** max(k, 0), den * 10 ** max(-k, 0))
    with localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax = count, rounding, MIN_EMIN, MAX_EMAX
        return ((1 if num > 0 else -1) * Decimal(10 * q + (rest > 0))).scaleb(-k - 1)


def decimal_string(x, sig_digits):
    """Render x, for anything `ratio` takes, with exactly ``sig_digits``
    significant digits, rounded half to even once, so the digit string is a
    deterministic function of the value.  Trailing zeros are kept: the digit
    count is part of the contract."""
    if isinstance(sig_digits, bool) or not hasattr(type(sig_digits), "__index__"):
        raise ValueError("sig_digits must be an integer")  # as bernoulli._index reads one
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    value = _round(x, sig_digits, ROUND_HALF_EVEN)
    # fewer requested digits than integer places: the exponent keeps the count visible
    return format(value, "e" if value.adjusted() >= sig_digits else "f") if value else "0"


def nstr(x, dps):
    """x, for anything `ratio` takes, rounded half up once to dps significant
    digits, in mpmath's `nstr` notation: trailing zeros stripped, fixed
    notation when the decimal exponent lies strictly between
    min(-(dps // 3), -5) and dps, else a mantissa and a signed exponent."""
    value = _round(x, dps, ROUND_HALF_UP)
    if not value:
        return "0.0"
    digits, power, split = "".join(map(str, value.as_tuple().digits)), value.adjusted(), 1
    if min(-(dps // 3), -5) < power < dps:  # fixed notation
        digits, split = ("0" * -power + digits, 1) if power < 0 else (digits, power + 1)
        power = 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return "-" * value.is_signed() + text + "0" * text.endswith(".") + (f"e{power:+d}" if power else "")


def agreement_digits(a, b):
    """Decimal digits of absolute agreement of two exact values (each
    anything `ratio` takes): floor(-log10 |a - b|), or the sentinel 10**6
    when they are equal."""
    diff = abs(Fraction(*ratio(a)) - Fraction(*ratio(b)))
    if not diff:
        return 10 ** 6
    lead = _round(diff, 20, ROUND_FLOOR).adjusted()  # floor(log10 |a - b|), exactly
    num, den = diff.as_integer_ratio()
    return -lead - (num * 10 ** max(-lead, 0) != den * 10 ** max(lead, 0))
