"""The benchmark's own tests: smoke runs of every workload at tiny sizes,
the output checks against corrupted expectations, and the tracer's
handling of missing functions.

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's default test run does not
collect it; do not run it while a benchmark run is using perfbench/.work.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, cwd=run.ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_workload(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    environment = json.loads(lines[-2])["environment"]
    assert {"python", "mpmath", "mpmath_backend", "nproc", "seed", "git_commit"} <= set(environment)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert declared.get(name) == metric["unit"], name
    assert set(result["metrics"]) == set(declared)
    if trace:
        assert "trace.overhead_ratio" in result["metrics"]
    elif workload == "check":
        # the two known-defect discover ops are refused, the three others pass
        assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(3 / 5)
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_ops():
    for workload in run.WORKLOADS:
        assert run.build_ops(workload, 3) == run.build_ops(workload, 3)


@pytest.fixture(scope="module")
def tiny_results():
    os.makedirs(run.WORK, exist_ok=True)
    ops = [run.Op(("coeffs", "zeta", "3"), "coeffs", ("zeta", 3)),
           run.Op(("eval", "pi", "1", "--digits", "50"), "eval", ("pi", 1, 50)),
           run.Op(("bernoulli", "12"), "bernoulli", (12,)),
           run.Op(("table", "--max-m", "1"), "table", (1,)),
           run.Op(("discover", "zeta", "3", "--digits", "120"), "discover", ("zeta", 3)),
           run.Op(("verify", "--max-m", "1", "--digits", "40"), "verify", (1,))]
    expected = run.Expected.load(ops)
    return expected, [run.run_op(op) for op in ops]


def test_correct_outputs_pass(tiny_results):
    expected, results = tiny_results
    assert [run.check(r, expected) for r in results] == ["ok"] * len(results)


def test_corrupted_expected_values_fail(tiny_results):
    expected, results = tiny_results
    triples = dict(expected.triples, **{"zeta 3": "28 -37 8", "pi 3": "720 -900 181"})
    references = json.loads(json.dumps(expected.references))
    value = references["values"]["pi 1 50"]
    references["values"]["pi 1 50"] = value[:40] + ("1" if value[40] != "1" else "2") + value[41:]
    references["bernoulli"]["12"] = "-691/2731"
    corrupted = run.Expected(triples, references)
    outcomes = [run.check(r, corrupted) for r in results]
    # every op whose expectation was corrupted fails; verify checks no stored value
    assert all(o.startswith("wrong") for o in outcomes[:5]), outcomes
    assert outcomes[5] == "ok"


def test_wrong_record_count_and_exit_code_fail(tiny_results):
    expected, results = tiny_results
    verify = results[5]
    short = run.Result(verify.op, 0, 0, 0, 0, json.dumps(json.loads(verify.out)[:-1]), "",
                       False, None)
    assert run.check(short, expected).startswith("wrong")
    crashed = run.Result(verify.op, 0, 0, 0, 2, "", "error", False, None)
    assert run.check(crashed, expected).startswith("wrong")
    timed_out = run.Result(verify.op, 0, 0, 0, -9, "", "", True, None)
    assert run.check(timed_out, expected).startswith("wrong")


def test_refused_discover_is_not_ok():
    op = run.Op(("discover", "pi", "13"), "discover", ("pi", 13), known_defect=True)
    refused = run.Result(op, 0, 0, 0, 1, "", "error: no relation found", False, None)
    assert run.check(refused, run.Expected({})) == "refused"
    unexpected = run.Result(op._replace(known_defect=False), 0, 0, 0, 1, "", "error", False,
                            None)
    assert run.check(unexpected, run.Expected({})).startswith("wrong")


def test_missing_function_is_absent_not_a_crash(monkeypatch):
    import plouffe.cli  # noqa: F401  (loads every plouffe module)
    monkeypatch.setattr(tracer, "SPANS", {"series.s": [("plouffe.series", "no_such_fn")],
                                          "relations.pslq": [("plouffe.relations", "pslq")]})
    recorder = tracer.Recorder()
    installed = tracer.install(recorder)
    try:
        assert installed == ["relations.pslq"]
    finally:
        for name in ("plouffe.relations", "plouffe"):
            module = sys.modules[name]
            if hasattr(module.pslq, "__wrapped__"):
                setattr(module, "pslq", module.pslq.__wrapped__)
    trace = tracer.summarize(recorder, installed, 0.1)
    result = run.Result(None, 1.0, 1.0, 1.0, 0, "", "", False, json.loads(json.dumps(trace)))
    metrics = run.layer_metrics([result])
    assert "series.s_calls" not in metrics and "series.s_terms" not in metrics
    assert metrics["relations.pslq_calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("eval-hp", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
