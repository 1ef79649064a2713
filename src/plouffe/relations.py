"""Integer relation detection via PSLQ, and rediscovery of the coefficient
triples from raw high-precision values.

The implementation follows the standard one-level PSLQ formulation
(lower-trapezoidal H matrix, gamma = sqrt(4/3) row selection, Hermite
reduction) with mpf arithmetic for y/H and exact Python integers for the
B matrix, whose columns are the candidate relations, so a detected relation
vector is exact.  While running, 1/max|H_jj| is a lower bound on the
Euclidean norm of any relation, which is what a found = False result
reports as the exclusion bound.  A candidate is a relation only at the
precision its size needs (`min_digits_for`); each result says why it stopped.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, triple_for
from .identities import places, series_term, target_term, term_values
from .precision import GUARD, PrecisionReal, to_mpf

MAX_COEFF = 10 ** 9  # the largest relation coefficient searched for
MAX_ITERATIONS = 10 ** 4


class RelationNotFoundError(RuntimeError):
    """No integer relation was detected within the configured bounds."""


@dataclass(frozen=True)
class RelationResult:
    vector: tuple
    residual: PrecisionReal
    iterations: int
    found: bool
    norm_bound: float
    stop: str  # "found", "insufficient precision", "norm bound" or "iteration cap"


def _canonical(vector):
    """gcd 1 and first nonzero entry positive (PSLQ's sign is arbitrary)."""
    g = math.gcd(*vector) * (1 if next(v for v in vector if v) > 0 else -1)
    return tuple(v // g for v in vector)


def min_digits_for(n_values, max_coeff_bound):
    """pslq's acceptance rule: a relation among n values with coefficients up
    to the bound needs D >= n * log10(bound) + 15 (Ferguson, Bailey & Arno 1999)."""
    return math.ceil(n_values * math.log10(max_coeff_bound)) + 15


def pslq(values, digits, max_coeff_bound=MAX_COEFF):
    """Search for a nonzero integer vector v with sum v_i x_i = 0.

    Returns a RelationResult: a canonical-form relation when one is found
    within the coefficient bound, otherwise found = False together with a
    lower bound on the norm of any relation that could still exist.
    Termination, named by the result's `stop`: once min |y_i| <
    10**-(digits-10) (tested before every iteration, since the initial
    reduction can already expose a relation), the candidate v is "found" if
    max|v| is within the bound, `min_digits_for(n, max|v|) <= digits` and v
    verifies; otherwise, as on a vanishing rotation, "insufficient precision".
    The search also ends when the norm bound passes the coefficient bound
    (any int), "norm bound", or at the "iteration cap", MAX_ITERATIONS.
    """
    n = len(values)
    if n < 2:
        raise ValueError("pslq needs at least 2 values")
    with mp.workdps(digits + GUARD):
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

        tol = mp.mpf(10) ** (-(digits - 10))
        gamma = mp.sqrt(mp.mpf(4) / 3)

        norm = mp.sqrt(mp.fsum(x * x for x in xs))
        x = [v / norm for v in xs]
        s = [mp.sqrt(mp.fsum(x[j] * x[j] for j in range(k, n))) for k in range(n)]
        y = [v / s[0] for v in x]
        s = [v / s[0] for v in s]
        B = [[int(i == j) for j in range(n)] for i in range(n)]
        H = [[mp.mpf(0)] * (n - 1) for _ in range(n)]
        for i in range(n):
            if i < n - 1:
                H[i][i] = s[i + 1] / s[i]
            for j in range(i):
                H[i][j] = -y[i] * y[j] / (s[j] * s[j + 1])

        def reduce_row(i, j_top):
            for j in range(j_top, -1, -1):
                if H[j][j] == 0:
                    continue
                t = int(mp.nint(H[i][j] / H[j][j]))
                if t == 0:
                    continue
                y[j] += t * y[i]
                for k in range(j + 1):
                    H[i][k] -= t * H[j][k]
                for k in range(n):
                    B[k][j] += t * B[k][i]

        for i in range(1, n):
            reduce_row(i, i - 1)

        best_bound = 0.0
        iterations = 0
        stop = "insufficient precision"  # unless a break below says otherwise
        while True:
            y_min, idx = min((abs(v), i) for i, v in enumerate(y))
            if y_min < tol:
                vector = _canonical([B[j][idx] for j in range(n)])
                with mp.workdps(digits + GUARD + 30):  # re-evaluated 30 places finer
                    residual = abs(mp.fsum(v * x for v, x in zip(vector, xs)))
                scale = max(abs(v) for v in xs)
                largest = max(abs(v) for v in vector)
                ok = (largest <= max_coeff_bound and min_digits_for(n, largest) <= digits
                      and residual < mp.mpf(10) ** (-(digits - 15)) * scale)
                if ok:
                    return RelationResult(vector, PrecisionReal(residual, digits),
                                          iterations, True, best_bound, "found")
                break  # numerically spent: the candidate does not verify
            # float against int, so the bound may lie past the float range
            if best_bound / math.sqrt(n) > max_coeff_bound:
                stop = "norm bound"  # no relation within the coefficient bound exists
                break
            if iterations == MAX_ITERATIONS:
                stop = "iteration cap"
                break
            iterations += 1
            m, best = 0, mp.mpf(-1)
            for i in range(n - 1):
                weighted = gamma ** (i + 1) * abs(H[i][i])
                if weighted > best:
                    best, m = weighted, i
            y[m], y[m + 1] = y[m + 1], y[m]
            H[m], H[m + 1] = H[m + 1], H[m]
            for k in range(n):
                B[k][m], B[k][m + 1] = B[k][m + 1], B[k][m]
            if m < n - 2:
                t0 = mp.sqrt(H[m][m] ** 2 + H[m][m + 1] ** 2)
                if t0 == 0:
                    break  # precision exhausted
                t1, t2 = H[m][m] / t0, H[m][m + 1] / t0
                for i in range(m, n):
                    h1, h2 = H[i][m], H[i][m + 1]
                    H[i][m] = t1 * h1 + t2 * h2
                    H[i][m + 1] = -t2 * h1 + t1 * h2
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
