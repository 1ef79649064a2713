"""PSLQ outcomes replayed against a recorded corpus.

`pslq_corpus.json` holds, for seeded inputs (planted relations within and
past the coefficient bound, and random reals; n = 2..7, at most 300
digits), what `pslq` returned when the file was written: the relation
vector, the iteration count, the stop reason, the norm bound to 3
significant digits and the residual as `discover` prints it.  It also
holds the same for the PSLQ runs behind four `discover` commands at 2005
digits, two of which stop at the norm bound.
A change to how PSLQ computes must replay all of them.  Regenerate the
file (only for a deliberate change of outcomes) with
`PYTHONPATH=src python tests/test_pslq_corpus.py`.
"""

import json
import pathlib
import random

import mpmath as mp
import pytest

from plouffe import relations
from plouffe.relations import RelationNotFoundError, rediscover_triple

CORPUS = pathlib.Path(__file__).with_name("pslq_corpus.json")
DISCOVERS = [("pi", 9), ("zeta", 11), ("pi", 13), ("zeta", 17)]
DISCOVER_DIGITS = 2005


def corpus_inputs():
    """The seeded inputs.  Every third one of the first 98 is random reals,
    the others a planted relation within or (entries up to 1000x) past the
    bound; the costly sizes n = 6, 7 are rarer, and the bound and the
    digits shrink as n grows, so that a replay takes about 1 s.  The last
    two plant a relation near 10^8 among 5 or 6 values, where an H whose
    precision does not grow with B stops on "norm bound" past it."""
    rng = random.Random(2026)
    cases = []
    for seed in range(100):
        if seed < 98:
            n = rng.choice((2, 2, 3, 3, 4, 4, 5, 5, 6, 7))
            bound = 10 ** rng.randint(1, 9 - n)
            size = (0, bound, bound * 1000)[seed % 3]
            digits = rng.randint(10, 300 if n <= 4 else 120)
        else:
            n, bound = rng.choice((5, 6)), 10 ** 8
            size, digits = bound, rng.randint(70, 100)
        planted = None
        if size:
            planted = [rng.randint(-size, size) for _ in range(n)]
            planted[-1] = planted[-1] or 1
        cases.append({"n": n, "digits": digits, "bound": bound, "seed": seed,
                      "planted": planted})
    return cases


def values(case):
    """The case's n values, 40 places past its digits."""
    rng = random.Random(case["seed"])
    bits = 4 * case["digits"] + 100
    with mp.workdps(case["digits"] + 40):
        xs = [mp.mpf(rng.getrandbits(bits)) / 2 ** bits for _ in range(case["n"])]
        planted = case["planted"]
        if planted:
            xs[-1] = -mp.fsum(v * x for v, x in zip(planted[:-1], xs)) / planted[-1]
    return xs


def outcome(result):
    return {"vector": list(result.vector), "iterations": result.iterations,
            "stop": result.stop, "norm_bound": f"{result.norm_bound:.3g}",
            "residual": mp.nstr(result.residual.mpf, 5)}


def run_case(case):
    return outcome(relations.pslq(values(case), case["digits"], case["bound"]))


def run_discover(target, exponent):
    """Outcome of the `pslq` search inside `rediscover_triple`."""
    results = []
    real = relations.pslq

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    relations.pslq = recording
    try:
        rediscover_triple(target, exponent, DISCOVER_DIGITS)
    except RelationNotFoundError:
        pass
    finally:
        relations.pslq = real
    return outcome(results[0])


def test_corpus_replays():
    corpus = json.loads(CORPUS.read_text())["cases"]
    mismatches = [(entry["inputs"], entry["outcome"], got) for entry in corpus
                  if (got := run_case(entry["inputs"])) != entry["outcome"]]
    assert not mismatches


@pytest.mark.parametrize("target, exponent", DISCOVERS)
def test_discover_pslq_replays(target, exponent):
    expected = json.loads(CORPUS.read_text())["discover"][f"{target} {exponent}"]
    assert run_discover(target, exponent) == expected


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({
        "cases": [{"inputs": case, "outcome": run_case(case)} for case in corpus_inputs()],
        "discover": {f"{t} {e}": run_discover(t, e) for t, e in DISCOVERS},
    }, indent=1) + "\n")
