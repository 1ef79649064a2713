"""Integer relation detection via PSLQ, and rediscovery of the coefficient
triples from raw high-precision values, those of `series.term_values`.

The implementation follows the standard PSLQ formulation (lower-trapezoidal
H matrix, gamma = sqrt(4/3) row selection, Hermite reduction) as exact
integer state plus one `decimal` H.  `pslq`'s docstring states the whole
search: how the inputs are rounded, when a candidate is a relation, how H
is kept and why the norm bound it reports is a lower bound.
"""

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .bernoulli import Target, _index, triple_for
from .fixed import GUARD, places, ratio
from .precision import PrecisionReal
from .series import _exact, series_term

MAX_COEFF = 10 ** 9  # the largest relation coefficient searched for
MAX_ITERATIONS = 10 ** 4


class RelationNotFoundError(ArithmeticError):
    """No integer relation was detected within the configured bounds."""


class RelationResult(namedtuple("RelationResult", "vector residual iterations found norm_bound stop")):
    """`stop` is "found", "insufficient precision", "norm bound" or "iteration cap"."""

    __slots__ = ()


def _canonical(vector):
    """gcd 1 and first nonzero entry positive (PSLQ's sign is arbitrary)."""
    g = math.gcd(*vector) * (1 if next(v for v in vector if v) > 0 else -1)
    return tuple(v // g for v in vector)


def min_digits_for(n_values, max_coeff_bound):
    """pslq's acceptance rule: a relation among n values with coefficients up
    to the bound needs D >= n * log10(bound) + 15 (Ferguson, Bailey & Arno 1999),
    ceil(n log10 bound) counted exactly as the digits of bound^n - 1 (none for 0)."""
    n_values = _index(n_values, "n_values", 1)
    max_coeff_bound = _index(max_coeff_bound, "max_coeff_bound", 1)
    below = max_coeff_bound ** n_values - 1
    return (Decimal(below).adjusted() + 1 if below else 0) + 15


def _rotate(H, r, c):
    """Rotate columns r and c of H so that H[r][c] becomes 0 (rows above r
    are 0 in both), in the current decimal context; False when both entries
    are 0 and no rotation exists."""
    t0 = (H[r][r] * H[r][r] + H[r][c] * H[r][c]).sqrt()
    if not t0:
        return False
    t1, t2 = H[r][r] / t0, H[r][c] / t0
    for i in range(r, len(H)):
        h1, h2 = H[i][r], H[i][c]
        H[i][r] = t1 * h1 + t2 * h2
        H[i][c] = -t2 * h1 + t1 * h2
    return True


def _working_bits(digits, bound):
    """mpmath's dps_to_prec(digits + max(GUARD, floor(log10 bound))), the
    bound's digits counted exactly by `Decimal`, with no str (see `pslq`)."""
    return round((digits + max(GUARD, Decimal(bound).adjusted()) + 1) * 3.3219280948873626)


def _rounded(ratios, work):
    """Exact (numerator, denominator) pairs rounded half to even to `work`
    significant bits, as mpmath rounds them, and held as integers X over one
    power of two: x_i = X_i 2**e.  Returns (X, e)."""
    parts = []
    for num, den in ratios:
        if not num:
            parts.append((0, 0))
            continue
        k = work - abs(num).bit_length() + den.bit_length()  # |x| 2^k in (2^(work-1), 2^(work+1))
        x = Fraction(abs(num), den) * Fraction(2) ** k
        if x >= 1 << work:
            x, k = x / 2, k - 1
        q = round(x)  # exact, half to even
        zeros = (q & -q).bit_length() - 1
        parts.append(((q if num > 0 else -q) >> zeros, zeros - k))
    e = min((exp for m, exp in parts if m), default=0)
    return [m << (exp - e) if m else 0 for m, exp in parts], e


def _decimal(m, bits, exp):
    """m 2**exp in the current decimal context, m first cut to its leading `bits` bits."""
    cut = max(0, abs(m).bit_length() - bits)
    return Decimal(m >> cut) * Decimal(2) ** (exp + cut)


def pslq(values, digits, max_coeff_bound=MAX_COEFF):
    """Search for a nonzero integer vector v with sum v_i x_i = 0.

    Returns a RelationResult: a canonical-form relation when one is found
    within the coefficient bound, otherwise found = False together with a
    lower bound on the norm of any relation that could still exist; its
    residual is exact, a PrecisionReal of `digits`.  The values (mpf, int,
    float, Fraction or PrecisionReal) are taken exactly and rounded once by
    `_rounded` to integers X over one power of two, x_i = X_i 2**e, at the
    w bits of P = digits + max(GUARD, floor(log10 max_coeff_bound)) places
    (`_working_bits`).  A relation v of the values within the bound leaves
    |sum v_i X_i 2**e| <= n max|v| max|x_i| 2**-w < 2n 10**-digits max|x_i|,
    below the termination test for every n < 10**9, so the rounding hides
    none, at any bound.  The norm bound is about the values as given,
    rounded at P places, so inputs must be accurate to P places.

    Termination, named by the result's `stop`: once min |y_i| <
    10**-(digits-10) (tested before every iteration, since the initial
    reduction can already expose a relation), the candidate v is "found" if
    max|v| is within the bound and `min_digits_for(n, max|v|) <= digits`;
    otherwise, as on a vanishing rotation, "insufficient precision".  The
    test bounds the exact residual it reports, so nothing else checks it:
    |sum v_i x_i| <= min |y_i| |x| < 10**-(digits-10) sqrt(n) max|x_i|,
    below 10**-(digits-15) max|x_i| for every n < 10**10.
    The search also ends at the "iteration cap", MAX_ITERATIONS, or with
    "norm bound" once the norm bound, a `Decimal` from H, passes sqrt(n)
    times the coefficient bound (an int >= 1), tested exactly in its square;
    `norm_bound` reports it as a float, which reads inf past 10**308.

    Exact integer state plus one H.  B and its exact inverse A are integers,
    and y = X B / |X| is not carried: the termination test and a
    candidate's residual |sum v_i X_i| are exact integer sums, so the test
    is exact whatever the size of v.  H is the only floating-point quantity.
    It and every decision read from it (the row m, the multipliers t, the
    rotation and the norm bound) run in `decimal` at
    ceil(p log10 2) + 1 digits, at least p bits, for
    p = min(128 + 2 * bitlen(max(|A|, |B|)), working precision) bits, since
    those decisions read only H's leading digits: about 40 digits, plus 0.6
    per bit of A and B, at most the P places the inputs were rounded to.
    H = A H_x Q throughout, for the H_x of X and an orthogonal Q, so H is
    the L factor of A H_x up to column signs, which change neither |H_jj|
    nor H_ij / H_jj.  Only `rebuild` makes H, from that exact product by a
    Givens LQ at the current p: at the start from A = I, where H_x is already
    lower trapezoidal, and whenever bitlen(max(|A|, |B|)) has grown by 8
    since the last rebuild.  H_x is held in integers over 2**-F, each entry
    to more bits than the inputs carry, and each entry of A H_x is cut to
    p + 16 bits before it becomes a Decimal.

    Why the reported norm bound is still a lower bound: 1/max|H_jj| bounds
    the norm of every relation for the exact H of the current integer state
    (Ferguson, Bailey & Arno 1999), and the carried H differs from that H
    only by rounding.  A rebuild starts from the exact product A H_x, so no
    error survives it.  Until the next one A and B grow by fewer than 8
    bits, about 2.4 digits, and the steps in between, which magnify an error
    about as much as A and B grow, use up little of the 38 digits H holds
    beyond 0.6 digits per bit of max(|A|, |B|): just before a rebuild the
    carried |H_jj| were correct to at least 40 digits in `discover` at 300 to
    2005 digits, and to 32 on the inputs of the PSLQ test corpus, far more
    than the 16 the bound is reported in.  Where the working precision caps
    p, H runs at the precision the inputs were rounded to, and the rebuilds
    still clear its error every 8 bits of growth.
    """
    if len(values) < 2:
        raise ValueError("pslq needs at least 2 values")
    digits = _index(digits, "digits", 1)
    max_coeff_bound = _index(max_coeff_bound, "max_coeff_bound", 1)
    work = _working_bits(digits, max_coeff_bound)
    X, e = _rounded([ratio(v) for v in values], work)
    n = len(X)
    if not any(X):
        raise ValueError("pslq input is the zero vector")
    if 0 in X:
        # a zero entry makes the unit relation trivially exact
        return RelationResult(_canonical([int(i == X.index(0)) for i in range(n)]),
                              PrecisionReal(0, digits), 0, True, 1.0, "found")
    # the test |y_j| < 10**-(digits-10), y = X B / |X|, in integers:
    # |(X B)_j|**2 * 10**(2 digits) < |X|**2 * 10**20, i.e. |(X B)_j| <= y_max
    y_max = math.isqrt((sum(v * v for v in X) * 10 ** 20 - 1) // 10 ** (2 * digits))

    # H_x in integers over 2**-F from u = X / |X| and t_k = |u_k..u_(n-1)|:
    # h_jj = t_(j+1) / t_j, h_ij = -u_i u_j / (t_j t_(j+1)) for i > j.  Each is
    # at least 2**-(2 spread + 2 + log2 n), so F holds it past the inputs' bits.
    sizes = [abs(v).bit_length() for v in X]
    F = work + 2 * (max(sizes) - min(sizes)) + 32
    norm = math.isqrt(sum(v * v for v in X) << 2 * F)
    u = [(v << 2 * F) // norm for v in X]
    t = [math.isqrt(sum(v * v for v in u[k:])) for k in range(n)]
    hx_cols = []
    for j in range(n - 1):
        c = (1 << 3 * F) // (t[j] * t[j + 1])
        hx_cols.append([0] * j + [(t[j + 1] << F) // t[j]]
                       + [-(u[i] * u[j] * c >> 2 * F) for i in range(j + 1, n)])

    def rebuild(size):
        """H for A and B of `size` bits: the L factor of the exact A H_x at p bits."""
        nonlocal built, gammas
        built, p = size, min(128 + 2 * size, work)
        ctx.prec = math.ceil(p * math.log10(2)) + 1
        gamma = Decimal(math.isqrt(4 * 100 ** ctx.prec // 3)).scaleb(-ctx.prec)  # sqrt(4/3)
        gammas = [gamma ** (i + 1) for i in range(n - 1)]
        H = [[_decimal(sum(a * h for a, h in zip(row, col)), p + 16, -F) for col in hx_cols]
             for row in A]
        for r in range(n - 1):
            for c in range(r + 1, n - 1):
                if H[r][c]:
                    _rotate(H, r, c)
        return H

    def reduce_row(i, j_top):
        for j in range(j_top, -1, -1):
            if not H[j][j]:
                continue
            t = int((H[i][j] / H[j][j]).to_integral_value(ROUND_HALF_EVEN))
            if t == 0:
                continue
            for k in range(j + 1):
                H[i][k] -= t * H[j][k]
            for k in range(n):
                B[k][j] += t * B[k][i]
            A[i] = [a - t * b for a, b in zip(A[i], A[j])]

    B = [[int(i == j) for j in range(n)] for i in range(n)]
    A, built, gammas = [row[:] for row in B], None, None  # B = I; rebuild sets the rest
    with localcontext() as ctx:
        ctx.rounding, ctx.Emin, ctx.Emax = ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX
        H = rebuild(1)
        for i in range(1, n):
            reduce_row(i, i - 1)

        best_bound = Decimal(0)
        iterations = 0
        stop = "insufficient precision"  # unless a break below says otherwise
        while True:
            size = max(abs(v) for row in A + B for v in row).bit_length()
            if size >= built + 8:
                H = rebuild(size)
            y_min, idx = min((abs(sum(x * b for x, b in zip(X, col))), j)
                             for j, col in enumerate(zip(*B)))
            if y_min <= y_max:
                vector = _canonical([B[j][idx] for j in range(n)])
                largest = max(abs(v) for v in vector)
                if largest <= max_coeff_bound and min_digits_for(n, largest) <= digits:
                    residual = abs(sum(v * x for v, x in zip(vector, X))) * Fraction(2) ** e
                    return RelationResult(vector, PrecisionReal(residual, digits), iterations,
                                          True, float(best_bound), "found")
                break  # numerically spent: v is too large for the bound or the digits
            if best_bound * best_bound > n * max_coeff_bound ** 2:
                stop = "norm bound"  # no relation within the coefficient bound exists
                break
            if iterations == MAX_ITERATIONS:
                stop = "iteration cap"
                break
            iterations += 1
            m = max(range(n - 1), key=lambda i: gammas[i] * abs(H[i][i]))
            H[m], H[m + 1] = H[m + 1], H[m]
            for row in B:
                row[m], row[m + 1] = row[m + 1], row[m]
            A[m], A[m + 1] = A[m + 1], A[m]
            if m < n - 2 and not _rotate(H, m, m + 1):
                break  # precision exhausted
            for i in range(m + 1, n):
                reduce_row(i, min(i - 1, m + 1))

            h_max = max(abs(H[i][i]) for i in range(n - 1))
            if h_max > 0:
                best_bound = max(best_bound, 1 / h_max)

    return RelationResult((), PrecisionReal(1, digits), iterations, False, float(best_bound), stop)


def rediscover_triple(target, exponent, digits):
    """Recover (a, b, c) for the given target from raw numeric values.

    Runs `pslq` on [target value, S(1), S(2), S(4)] and compares the relation
    it finds with the exact triple's, (-L, a L, b L, c L) in canonical form for
    L the lcm of the triple's denominators.  Returns (RelationResult, triple).
    All four values are exact, read by `series._exact`: the S values from one
    kernel pass, and the target from its independent oracle.
    """
    digits = _index(digits, "digits", 1)
    target = Target(target)
    expected = triple_for(target, exponent)  # validates target/exponent

    # a relation with coefficients up to the bound must vanish to digits + GUARD places
    terms = [(target.value, exponent)] + [series_term(exponent, s) for s, _ in expected.weights()]
    result = pslq(_exact(terms, places(digits + GUARD, 4 * MAX_COEFF)), digits)
    if not result.found:
        why = result.stop
        if why == "norm bound":
            why = (f"any relation has norm above {result.norm_bound:.3g}, so a coefficient "
                   f"above the {MAX_COEFF:.0e} coefficient bound")
        raise RelationNotFoundError(
            f"no relation found for {target.value} exponent {exponent} at {digits} digits "
            f"after {result.iterations} iterations ({why})")
    scale = math.lcm(*(q.denominator for q in expected.coefficients()))
    relation = _canonical([-scale] + [int(q * scale) for q in expected.coefficients()])
    if result.vector != relation:
        need = min_digits_for(4, max(map(abs, result.vector + relation)))
        cause = ("insufficient precision" if need > digits else
                 "two relations at detectable precision contradict the exact triple")
        raise RelationNotFoundError(
            f"found relation {result.vector} for {target.value} exponent {exponent} is not the "
            f"exact triple's {relation} ({cause}: {digits} digits, {need} tell them apart)")
    return result, expected
