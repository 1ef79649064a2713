"""Regenerate perfbench/triples.json, the exact-triple fixture.

    PYTHONPATH=src python3 perfbench/make_fixture.py

The fixture holds each exact triple as "a b c" (reduced p/q strings) for
every (target, exponent) any seed of any workload can ask for.  It was
captured once from ``triple_for``; regenerate it only when a workload's
exponent ranges change, never to make a failing check pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from plouffe import triple_for  # noqa: E402
from run import FIXTURE, FULL, KNOWN_DEFECT, TINY, canonical  # noqa: E402


def needed():
    pairs = set(KNOWN_DEFECT)
    for sizes in (FULL, TINY):
        for exponent in range(1, 4 * max(sizes.table_m) + 2, 2):
            pairs.add(("pi", exponent))
            if exponent >= 3:
                pairs.add(("zeta", exponent))
        pairs.update(("pi", e) for e in sizes.coeffs_pi + sizes.discover_pi)
        pairs.update(("zeta", e) for e in sizes.coeffs_zeta + sizes.discover_zeta)
    return sorted(pairs, key=lambda p: (p[0], p[1]))


def main():
    triples = {f"{t} {e}": " ".join(canonical(q) for q in triple_for(t, e).coefficients())
               for t, e in needed()}
    with open(FIXTURE, "w", encoding="ascii") as handle:
        json.dump({"triples": triples}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(triples)} exact triples to {FIXTURE}")


if __name__ == "__main__":
    main()
