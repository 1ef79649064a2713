"""Integer relation detection via PSLQ, and rediscovery of the coefficient
triples from raw high-precision values.

The implementation follows the standard PSLQ formulation (lower-trapezoidal
H matrix, gamma = sqrt(4/3) row selection, Hermite reduction) as exact
integer state plus one H.  The inputs are rounded once to the working
precision and held as integers over one power of two.  The B matrix, whose
columns are the candidate relations, its inverse, y = x B and each
candidate's residual are then exact Python integers, so a detected relation
and its residual are exact.  H is the one floating-point matrix: it runs at
the precision its decisions need and is rebuilt exactly from the integer
state as that grows (see `pslq`).  While running, 1/max|H_jj| is a lower
bound on the Euclidean norm of any relation, which is what a found = False
result reports as the exclusion bound.  A candidate is a relation only at
the precision its size needs (`min_digits_for`); each result says why it
stopped.
"""

import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, triple_for
from .identities import places, series_term, target_term, term_values
from .precision import GUARD, PrecisionReal, to_mpf

MAX_COEFF = 10 ** 9  # the largest relation coefficient searched for
MAX_ITERATIONS = 10 ** 4


class RelationNotFoundError(RuntimeError):
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
    to the bound needs D >= n * log10(bound) + 15 (Ferguson, Bailey & Arno 1999)."""
    return math.ceil(n_values * math.log10(max_coeff_bound)) + 15


def _rotate(H, r, c):
    """Rotate columns r and c of H so that H[r][c] becomes 0 (rows above r
    are 0 in both); False when both entries are 0 and no rotation exists."""
    t0 = mp.sqrt(H[r][r] ** 2 + H[r][c] ** 2)
    if t0 == 0:
        return False
    t1, t2 = H[r][r] / t0, H[r][c] / t0
    for i in range(r, len(H)):
        h1, h2 = H[i][r], H[i][c]
        H[i][r] = t1 * h1 + t2 * h2
        H[i][c] = -t2 * h1 + t1 * h2
    return True


def pslq(values, digits, max_coeff_bound=MAX_COEFF):
    """Search for a nonzero integer vector v with sum v_i x_i = 0.

    Returns a RelationResult: a canonical-form relation when one is found
    within the coefficient bound, otherwise found = False together with a
    lower bound on the norm of any relation that could still exist.
    Termination, named by the result's `stop`: once min |y_i| <
    10**-(digits-10) (tested before every iteration, since the initial
    reduction can already expose a relation), the candidate v is "found" if
    max|v| is within the bound and `min_digits_for(n, max|v|) <= digits`;
    otherwise, as on a vanishing rotation, "insufficient precision".  The
    test bounds the exact residual it reports, so nothing else checks it:
    |sum v_i x_i| <= min |y_i| |x| < 10**-(digits-10) sqrt(n) max|x_i|,
    below 10**-(digits-15) max|x_i| for every n < 10**10.
    The search also ends when the norm bound passes the coefficient bound
    (any int), "norm bound", or at the "iteration cap", MAX_ITERATIONS.

    Exact integer state plus one H.  The inputs are rounded once to the
    working precision (digits + GUARD places) and held as integers X over
    one power of two.  B and its exact inverse A are integers, and
    y = X B / |X| is not carried: the termination test and a candidate's
    residual |sum v_i X_i| are exact integer sums, so the test is exact
    whatever the size of v.  H is the only floating-point quantity.  It and
    every decision read from it (the row m, the multipliers t, the rotation
    and the norm bound) run at
    p = min(128 + 2 * bitlen(max(|A|, |B|)), working precision) bits, since
    those decisions read only H's leading bits.  H = A H_x Q throughout, for
    the H_x of X and an orthogonal Q, so H is the L factor of A H_x up to
    column signs, which change neither |H_jj| nor H_ij / H_jj.  Only
    `rebuild` makes H, from that exact product by a Givens LQ at the current
    p: at the start from A = I, where H_x is already lower trapezoidal, and
    whenever bitlen(max(|A|, |B|)) has grown by 8 since the last rebuild.

    Why the reported norm bound is still a lower bound: 1/max|H_jj| bounds
    the norm of every relation for the exact H of the current integer state
    (Ferguson, Bailey & Arno 1999), and the carried H differs from that H
    only by rounding.  A rebuild starts from the exact product A H_x, so no
    error survives it.  Until the next one A and B grow by fewer than 8
    bits, and the p-bit steps in between, which magnify an error about as
    much as A and B grow, use up little of the 128 bits p holds beyond
    2 * bitlen(max(|A|, |B|)): just before a rebuild the carried |H_jj|
    were correct to at least 112 bits on inputs of 300 to 2005 digits, far
    more than the 53 bits the bound is reported in.  Where the working
    precision caps p, H runs at the precision the inputs were rounded to,
    and the rebuilds still clear its error every 8 bits of growth.
    """
    n = len(values)
    if n < 2:
        raise ValueError("pslq needs at least 2 values")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + GUARD):
        work = mp.mp.prec
        xs = [to_mpf(v) for v in values]
        if all(x == 0 for x in xs):
            raise ValueError("pslq input is the zero vector")
        for idx, x in enumerate(xs):
            if x == 0:
                # a zero entry makes the unit relation trivially exact
                unit = [0] * n
                unit[idx] = 1
                return RelationResult(_canonical(unit), PrecisionReal(mp.mpf(0), digits),
                                      0, True, 1.0, "found")

        e = min(x.exp for x in xs)
        X = [int(mp.ldexp(x, -e)) for x in xs]  # x_i = X_i 2**e, exactly
        # the test |y_j| < 10**-(digits-10), y = X B / |X|, in integers:
        # |(X B)_j|**2 * 10**(2 digits) < |X|**2 * 10**20, i.e. |(X B)_j| <= y_max
        y_max = math.isqrt((sum(v * v for v in X) * 10 ** 20 - 1) // 10 ** (2 * digits))
        gamma = mp.sqrt(mp.mpf(4) / 3)
        gammas = [gamma ** (i + 1) for i in range(n - 1)]

        s = [mp.sqrt(sum(v * v for v in X[k:])) for k in range(n)]
        hx = [[mp.mpf(0)] * (n - 1) for _ in range(n)]
        for i in range(n):
            if i < n - 1:
                hx[i][i] = s[i + 1] / s[i]
            for j in range(i):
                hx[i][j] = -X[i] * X[j] / (s[j] * s[j + 1])
        # H_x's columns as integers over one power of two: A H_x is exact
        e0 = min(h.exp for row in hx for h in row if h)
        hx_cols = [[int(mp.ldexp(row[j], -e0)) for row in hx] for j in range(n - 1)]

        def rebuild(size):
            """H for A and B of `size` bits: the L factor of the exact A H_x at p bits."""
            nonlocal built, prec
            built, prec = size, min(128 + 2 * size, work)
            with mp.workprec(prec):
                H = [[mp.ldexp(mp.mpf(sum(a * h for a, h in zip(row, col))), e0)
                      for col in hx_cols] for row in A]
                for r in range(n - 1):
                    for c in range(r + 1, n - 1):
                        if H[r][c]:
                            _rotate(H, r, c)
            return H

        def reduce_row(i, j_top):
            for j in range(j_top, -1, -1):
                if H[j][j] == 0:
                    continue
                t = int(mp.nint(H[i][j] / H[j][j]))
                if t == 0:
                    continue
                for k in range(j + 1):
                    H[i][k] -= t * H[j][k]
                for k in range(n):
                    B[k][j] += t * B[k][i]
                A[i] = [a - t * b for a, b in zip(A[i], A[j])]

        B = [[int(i == j) for j in range(n)] for i in range(n)]
        A, built, prec = [row[:] for row in B], None, None  # B = I; rebuild sets the rest
        H = rebuild(1)
        with mp.workprec(prec):
            for i in range(1, n):
                reduce_row(i, i - 1)

        best_bound = 0.0
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
                residual = abs(sum(v * x for v, x in zip(vector, X)))  # in units of 2**e
                largest = max(abs(v) for v in vector)
                if largest <= max_coeff_bound and min_digits_for(n, largest) <= digits:
                    with mp.workprec(residual.bit_length() + 1):  # exact
                        residual = mp.ldexp(residual, e)
                    return RelationResult(vector, PrecisionReal(residual, digits),
                                          iterations, True, best_bound, "found")
                break  # numerically spent: v is too large for the bound or the digits
            # float against int, so the bound may lie past the float range
            if best_bound / math.sqrt(n) > max_coeff_bound:
                stop = "norm bound"  # no relation within the coefficient bound exists
                break
            if iterations == MAX_ITERATIONS:
                stop = "iteration cap"
                break
            iterations += 1
            with mp.workprec(prec):
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
                    best_bound = max(best_bound, float(1 / h_max))

        return RelationResult((), PrecisionReal(mp.mpf(1), digits),
                              iterations, False, best_bound, stop)


def rediscover_triple(target, exponent, digits):
    """Recover (a, b, c) for the given target from raw numeric values.

    Runs pslq on [target value, S(1), S(2), S(4)], normalizes the relation
    so the target's coefficient is -1, and checks the recovered rationals
    against the exact closed-form triple.  Returns (RelationResult, triple).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    target = Target(target)
    expected = triple_for(target, exponent)  # validates target/exponent

    terms = [target_term(target, exponent)] + [series_term(exponent, r) for r, _ in expected.weights()]
    # a relation with coefficients up to the bound must vanish to digits + GUARD places
    accuracy = places(digits + GUARD, len(terms) * MAX_COEFF)
    values = list(term_values(terms, accuracy).values())

    result = pslq(values, digits)
    if not result.found:
        why = result.stop
        if why == "norm bound":
            why = (f"any relation has norm above {result.norm_bound:.3g}, so a coefficient "
                   f"above the {MAX_COEFF:.0e} coefficient bound")
        raise RelationNotFoundError(
            f"no relation found for {target.value} exponent {exponent} at {digits} digits "
            f"after {result.iterations} iterations ({why})")
    v0 = result.vector[0]
    if v0 == 0:
        raise RelationNotFoundError(
            "detected relation does not involve the target value; increase precision")
    a, b, c = (Fraction(-v, v0) for v in result.vector[1:])
    if (a, b, c) != expected.coefficients():
        # a numerically plausible but wrong vector: the precision was too low
        raise RelationNotFoundError(
            f"recovered coefficients ({a}, {b}, {c}) disagree with the exact triple "
            f"{expected.coefficients()}; the relation is spurious (insufficient precision)")
    return result, expected
