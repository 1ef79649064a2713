"""Reference answers from mpmath, computed in a process of their own.

    python3 perfbench/reference.py '{"values": [["pi", 1, 1000]], "bernoulli": [800]}'

Prints one JSON object: each value as a decimal string with 30 digits
beyond the requested count, each Bernoulli number as "p/q" from
``mpmath.bernfrac``, and the mpmath version and backend.  mpmath shares no
code with the program.  The benchmark asks for these here rather than in
its own process so that its own memory stays below that of the ops it
measures: a child's max RSS counts the parent's pages from before exec.
"""

import json
import sys

import mpmath
import mpmath.libmp


def value(target, exponent, digits):
    with mpmath.workdps(digits + 40):
        x = mpmath.pi ** exponent if target == "pi" else mpmath.zeta(exponent)
        return mpmath.nstr(x, digits + 30, strip_zeros=False, min_fixed=-mpmath.inf,
                           max_fixed=mpmath.inf)


def main():
    request = json.loads(sys.argv[1])
    answer = {
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "values": {f"{t} {e} {d}": value(t, e, d) for t, e, d in request.get("values", [])},
        "bernoulli": {str(k): "{}/{}".format(*mpmath.bernfrac(k))
                      for k in request.get("bernoulli", [])},
    }
    print(json.dumps(answer))


if __name__ == "__main__":
    main()
