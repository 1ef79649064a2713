"""Run one plouffe CLI invocation with outside-in layer spans.

    python perfbench/tracer.py OUT.json <plouffe arguments...>

The library source is left untouched: after importing ``plouffe.cli`` this
script replaces the functions each module calls across a module boundary
with timing wrappers, in every ``plouffe`` namespace that holds them (the
package re-exports ``bernoulli``, and ``identities``/``relations`` import
``_s_raw``/``_zeta_ref_raw`` by name).  It then calls ``plouffe.cli.main``
with the given arguments, so stdout and the exit code are those of
``python -m plouffe``.  Spans stay in memory; per-layer sums are written
to OUT.json once the command has finished.

A function that no longer exists is skipped and its layer is listed as
absent from ``installed``; the benchmark then omits the metrics built on it.
"""

import importlib
import inspect
import json
import sys
import time

# layer key -> (module, function) pairs wrapped under that key
SPANS = {
    "cli.cache_load": [("plouffe.cli", "_load_cache")],
    "cli.cache_save": [("plouffe.cli", "_save_cache")],
    "bernoulli.recurrence": [("plouffe.bernoulli", "bernoulli")],
    "bernoulli.triple": [("plouffe.bernoulli", "triple_for")],
    "series.s": [("plouffe.series", "_s_raw")],
    "series.oracle": [("plouffe.series", "_zeta_ref_raw")],
    "identities.residual": [("plouffe.identities", name) for name in (
        "ramanujan_residual", "symmetric_point_residual", "zeta_4m1_residual",
        "vepstas_residual", "ts_identity_residual", "triple_residual")],
    "identities.verify_all": [("plouffe.identities", "verify_all")],
    "relations.pslq": [("plouffe.relations", "pslq")],
    "precision.render": [("plouffe.precision", "decimal_string")],
}


class Recorder:
    """Per-key call count, total and self time, plus the facts read from
    call arguments and results.  Self time is a span's duration minus the
    time of the wrapped spans it encloses."""

    def __init__(self):
        self.stack = []           # child time accumulated by each open span
        self.spans = {}           # key -> [calls, total_s, self_s]
        self.covered_s = 0.0      # time under outermost spans
        self.facts = {}           # key -> list of per-call facts, or None if unreadable

    def wrap(self, fn, key, fact=None):
        signature = inspect.signature(fn)
        stack, spans, facts = self.stack, self.spans, self.facts
        spans.setdefault(key, [0, 0.0, 0.0])
        if fact is not None:
            facts.setdefault(key, [])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
                entry = spans[key]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
            if fact is not None and facts[key] is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    facts[key].append(fact(bound.arguments, result))
                except (TypeError, KeyError, AttributeError):
                    facts[key] = None  # the signature or result changed shape
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _s_fact(a, _):
    return (a["n"], float(a["r"]), bool(a.get("plus_one", False)),
            a["target_digits"], a.get("extra_terms", 0))


FACTS = {
    "cli.cache_load": lambda a, result: int(result),
    "series.s": _s_fact,
    "series.oracle": lambda a, _: a["s"],
    "relations.pslq": lambda a, result: (result.iterations, bool(result.found)),
    "precision.render": lambda a, _: a["sig_digits"],
}


def install(recorder):
    """Wrap every reachable function in SPANS; returns the installed keys."""
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "plouffe" or name.startswith("plouffe."))]
    installed = []
    for key, targets in SPANS.items():
        for module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = vars(module).get(attr)
            if not callable(fn):
                continue
            wrapper = recorder.wrap(fn, key, FACTS.get(key))
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, name, wrapper)
            if key not in installed:
                installed.append(key)
    return installed


def summarize(recorder, installed, import_s):
    """Per-op sums the benchmark adds up across a workload pass."""
    out = {"installed": installed, "import_s": import_s,
           "covered_s": recorder.covered_s + import_s, "spans": recorder.spans}
    facts = recorder.facts
    if facts.get("series.s") is not None:
        calls = facts["series.s"]
        out["s_distinct"] = len({c[:3] for c in calls})
        truncation_index = getattr(sys.modules.get("plouffe.series"), "truncation_index", None)
        if callable(truncation_index):
            out["s_terms"] = sum(truncation_index(n, r, d) + extra
                                 for n, r, _, d, extra in calls)
    if facts.get("series.oracle") is not None:
        out["oracle_distinct"] = len(set(facts["series.oracle"]))
    if facts.get("relations.pslq") is not None:
        out["pslq_iterations"] = sum(i for i, _ in facts["relations.pslq"])
        out["pslq_found"] = sum(f for _, f in facts["relations.pslq"])
    if facts.get("precision.render") is not None:
        out["render_digits"] = sum(facts["precision.render"])
    if facts.get("cli.cache_load") is not None:
        out["cache_entries_loaded"] = sum(facts["cli.cache_load"])
    memo_snapshot = getattr(sys.modules.get("plouffe.bernoulli"), "memo_snapshot", None)
    if callable(memo_snapshot):
        out["memo_len"] = len(memo_snapshot())
    return out


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("plouffe.cli")
    import_s = time.perf_counter() - start
    recorder = Recorder()
    installed = install(recorder)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summarize(recorder, installed, import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
