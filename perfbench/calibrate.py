"""Fixed CPU work that measures how fast the shared machine runs right now.

    python3 perfbench/calibrate.py

It imports nothing from the program.  Its mix resembles the ops': Fraction
sums, gcd-bound like the Bernoulli recurrence, and big-integer
multiply/divide, which is what mpmath's pure-Python backend does.  The
benchmark runs it between passes and scales its timings by the ratio of
REFERENCE_S to its median time (see run.py).  On a busy shared host the
ops slow down somewhat more than this mix does (a Fraction-heavier mix
slowed down more than the eval ops), so the scaling removes most, not all,
of the host's drift.
"""

from fractions import Fraction


def main():
    h = Fraction(0)
    for k in range(1, 1800):
        h += Fraction(1, k)
    modulus = 10 ** 15000 + 3
    x = 7 ** 30000
    for _ in range(40):
        q, r = divmod(x * x, modulus)
        x = r + q % 1000 + 1
    print(h.numerator % 997, x % 997)


if __name__ == "__main__":
    main()
