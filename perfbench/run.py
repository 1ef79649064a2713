"""Benchmark of the plouffe command line, end to end and layer by layer.

    python3 perfbench/run.py --workload eval-hp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every operation is one fresh
``python -m plouffe ...`` process, started one at a time, the way a CLI
user pays for it; its output is checked for correctness.  The workload's
operation list (a "pass") is repeated until the next pass would end after
``--seconds``, and timings are medians over passes.  End-to-end timings
are scaled to a reference machine speed measured by ``calibrate.py``
during the run; the raw values are printed on the environment line.

``--trace 0`` reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_ratio).  ``--trace 1`` alternates untraced passes with
passes whose operations run under ``tracer.py`` and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  ``perfbench/README.md`` defines every metric.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import time
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction

# This process keeps its imports few (no hashlib, dataclasses or statistics):
# a child's max RSS counts its parent's pages from before exec, so this
# process must stay smaller than the ops it measures.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACER = os.path.join(HERE, "tracer.py")
REFERENCE = os.path.join(HERE, "reference.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
FIXTURE = os.path.join(HERE, "triples.json")

WORKLOADS = ("eval-hp", "check", "coeffs-cold")
OP_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # ops still running then are killed, so a run ends within 180 s
SETUP_REPEATS = 11  # trivial ops per run; setup_s is their median
SETUP_CALIBRATIONS = 3  # calibrate.py runs in set-up; one more before each pass
# calibrate.py's wall and CPU time on a quiet 2.1 GHz Xeon vCPU (CPython
# 3.11): the machine speed that end-to-end timings are scaled to.  On a
# shared 2-vCPU host the speed drifts by +-20 % over tens of seconds; the
# scaling removes about half of that drift from run-to-run comparisons.
REFERENCE_S = 0.28
TRIVIAL = ("coeffs", "pi", "1")

# Rediscovery of these exponents is refused today: the CLI hard-codes a
# 10**9 coefficient bound, below the triples' coefficients (ROADMAP item 5).
# A refusal lowers ok_ratio; a wrong answer is a failure.
KNOWN_DEFECT = (("pi", 13), ("zeta", 17))

# Workload sizes.  ladder_base is the first rung of the eval pi 1 ladder,
# each rung doubling; the seed picks one entry of each tuple and adds 0..10
# digits, so a pass costs nearly the same on every seed.
Sizes = namedtuple("Sizes", "ladder_base rungs high_exponents verify_m verify_digits "
                            "discover_digits discover_pi discover_zeta coeffs_zeta coeffs_pi "
                            "table_m bernoulli_k")
FULL = Sizes(1000, 3, (("pi", 9), ("zeta", 9)), 3, 300, 2000, (5, 7, 9), (7, 9, 11),
             (399, 401, 403), (499, 501, 503), (30,), (598, 600, 602))
TINY = Sizes(60, 3, (("pi", 9), ("zeta", 9)), 1, 60, 200, (5, 7, 9), (7, 9, 11),
             (21, 25), (23, 27), (2, 3), (40, 42))
DIGIT_OFFSET = 10

# ladder_digits is nonzero for the eval pi 1 ladder
Op = namedtuple("Op", "argv kind params known_defect ladder_digits", defaults=(False, 0))


class Result:
    """One op process: timings, rusage, output, and the checked outcome
    ("ok", "refused" or "wrong: <reason>")."""

    def __init__(self, op, wall, cpu, rss_mb, code, out, err, timed_out, trace):
        self.op, self.wall, self.cpu, self.rss_mb = op, wall, cpu, rss_mb
        self.code, self.out, self.err, self.timed_out, self.trace = code, out, err, timed_out, trace
        self.outcome = ""


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def build_ops(workload, seed, sizes=FULL):
    """The workload's pass: the ops it repeats."""
    rng = random.Random(f"{workload}:{seed}")
    offset = rng.randint(0, DIGIT_OFFSET)
    ops = []
    if workload == "eval-hp":
        ladder = [(sizes.ladder_base + offset) * 2 ** k for k in range(sizes.rungs)]
        middle = ladder[len(ladder) // 2]
        high_target, high_exp = rng.choice(sizes.high_exponents)
        for digits in ladder:
            ops.append(Op(("eval", "pi", "1", "--digits", str(digits)), "eval",
                          ("pi", 1, digits), ladder_digits=digits))
        for target, exponent in (("zeta", 3), (high_target, high_exp)):
            ops.append(Op(("eval", target, str(exponent), "--digits", str(middle)), "eval",
                          (target, exponent, middle)))
        return ops
    if workload == "check":
        m = sizes.verify_m
        verify_digits = str(sizes.verify_digits + offset)
        ops.append(Op(("verify", "--max-m", str(m), "--digits", verify_digits), "verify", (m,)))
        targets = [("pi", rng.choice(sizes.discover_pi)),
                   ("zeta", rng.choice(sizes.discover_zeta))]
        digits = str(sizes.discover_digits + offset)
        for target, exponent in targets + list(KNOWN_DEFECT):
            ops.append(Op(("discover", target, str(exponent), "--digits", digits), "discover",
                          (target, exponent), known_defect=(target, exponent) in KNOWN_DEFECT))
        return ops
    if workload == "coeffs-cold":
        zeta_e, pi_e = rng.choice(sizes.coeffs_zeta), rng.choice(sizes.coeffs_pi)
        m, k = rng.choice(sizes.table_m), rng.choice(sizes.bernoulli_k)
        return [Op(("coeffs", "zeta", str(zeta_e)), "coeffs", ("zeta", zeta_e)),
                Op(("coeffs", "pi", str(pi_e)), "coeffs", ("pi", pi_e)),
                Op(("table", "--max-m", str(m)), "table", (m,)),
                Op(("bernoulli", str(k)), "bernoulli", (k,))]
    raise ValueError(f"unknown workload {workload!r}")


def canonical(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Expected:
    """Reference answers: exact triples from the fixture, and values and
    Bernoulli numbers from mpmath (via reference.py)."""

    def __init__(self, triples, references=None):
        self.triples = triples
        self.references = references or {"values": {}, "bernoulli": {}}

    @classmethod
    def load(cls, ops):
        with open(FIXTURE, encoding="ascii") as handle:
            triples = json.load(handle)["triples"]
        request = {"values": [op.params for op in ops if op.kind == "eval"],
                   "bernoulli": [op.params[0] for op in ops if op.kind == "bernoulli"]}
        answer = subprocess.run([sys.executable, REFERENCE, json.dumps(request)], cwd=ROOT,
                                env=child_env(), capture_output=True, text=True,
                                timeout=OP_TIMEOUT_S, check=True)
        return cls(triples, json.loads(answer.stdout))

    def triple_matches(self, target, exponent, coefficients):
        text = " ".join(canonical(q) for q in coefficients)
        return self.triples.get(f"{target} {exponent}") == text

    def bernoulli(self, k):
        return Fraction(self.references["bernoulli"][str(k)])

    def value(self, target, exponent, digits):
        """pi**exponent or zeta(exponent) to digits + 30 significant digits."""
        return Decimal(self.references["values"][f"{target} {exponent} {digits}"])


def _parse_fractions(tokens):
    return [Fraction(t) for t in tokens]


def _check_eval(op, out, expected):
    target, exponent, digits = op.params
    text = out.splitlines()[0].strip()
    significant = text.lstrip("-").replace(".", "").lstrip("0")
    if len(significant) != digits:
        return f"{len(significant)} significant digits, expected {digits}"
    ref = expected.value(target, exponent, digits)
    # one unit in the last printed place: the 10**-D contract for D
    # significant digits, met by any correctly rounded rendering
    with localcontext() as ctx:
        ctx.prec = digits + 40
        if abs(Decimal(text) - ref) > Decimal(1).scaleb(ref.adjusted() - digits + 1):
            return "value differs from mpmath by more than one unit in the last place"
    return None


def _check_verify(op, out, _):
    (m,) = op.params
    records = json.loads(out)
    if len(records) != 17 * m + 3:
        return f"{len(records)} records, expected {17 * m + 3}"
    if not all(r.get("pass") is True for r in records):
        return "a residual check failed"
    return None


def _check_discover(op, out, expected):
    target, exponent = op.params
    vector = _parse_fractions(out.splitlines()[0].strip().strip("[]").split(","))
    if vector[0] != -1 or not expected.triple_matches(target, exponent, vector[1:]):
        return "rediscovered vector differs from the exact triple"
    return None


def _check_coeffs(op, out, expected):
    target, exponent = op.params
    if not expected.triple_matches(target, exponent, _parse_fractions(out.split())):
        return "triple differs from the fixture"
    return None


def _check_table(op, out, expected):
    (m,) = op.params
    rows = [line.split() for line in out.splitlines() if line.strip()]
    want = [(t, e) for e in range(1, 4 * m + 2, 2) for t in ("pi", "zeta") if t == "pi" or e >= 3]
    if [(r[0], int(r[1])) for r in rows] != want:
        return "table rows differ from the expected targets"
    for row in rows:
        if not expected.triple_matches(row[0], int(row[1]), _parse_fractions(row[2:])):
            return f"table row {row[0]} {row[1]} differs from the fixture"
    return None


def _check_bernoulli(op, out, expected):
    (k,) = op.params
    if Fraction(out.strip()) != expected.bernoulli(k):
        return f"B_{k} differs from mpmath.bernfrac"
    return None


CHECKS = {"eval": _check_eval, "verify": _check_verify, "discover": _check_discover,
          "coeffs": _check_coeffs, "table": _check_table, "bernoulli": _check_bernoulli}


def check(result, expected):
    """Outcome of one op: "ok", "refused" (a known-defect discover that
    exits 1 with no output), or "wrong: <reason>"."""
    op = result.op
    if result.timed_out:
        return "wrong: timed out"
    if op.kind == "discover" and result.code == 1 and not result.out.strip():
        return "refused" if op.known_defect else "wrong: refused a relation that exists"
    if result.code != 0:
        return f"wrong: exit code {result.code}: {result.err.strip()[:200]}"
    try:
        reason = CHECKS[op.kind](op, result.out, expected)
    except (ValueError, IndexError, ArithmeticError, KeyError, TypeError) as exc:
        reason = f"unparsable output ({exc.__class__.__name__}: {exc})"
    return "ok" if reason is None else f"wrong: {reason}"


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PLOUFFE_CACHE"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, timeout=OP_TIMEOUT_S):
    """Run one process to its end: (wall, cpu, max RSS in MB, exit code,
    stdout, stderr, timed out).  CPU and max RSS come from os.wait4 on
    that process alone."""
    out_path, err_path = os.path.join(WORK, "stdout.txt"), os.path.join(WORK, "stderr.txt")
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
            stdout, stderr, killed.is_set())


def run_op(op, traced=False, timeout=OP_TIMEOUT_S):
    """Run one op as a fresh process, under tracer.py when traced."""
    trace_path = os.path.join(WORK, "trace.json")
    if traced:
        argv = [sys.executable, TRACER, trace_path, *op.argv]
        if os.path.exists(trace_path):
            os.remove(trace_path)
    else:
        argv = [sys.executable, "-m", "plouffe", *op.argv]
    result = Result(op, *spawn(argv, timeout), None)
    if traced and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as handle:
            result.trace = json.load(handle)
    return result


def growth_exponent(results, setup_s):
    """Least-squares slope of log(wall - setup_s) against log(digits) over
    the eval pi 1 ladder; None when it cannot be fitted."""
    points = [(math.log(r.op.ladder_digits), math.log(r.wall - setup_s))
              for r in results if r.op.ladder_digits and r.wall > setup_s]
    if len(points) < 2:
        return None
    mx = fmean(x for x, _ in points)
    my = fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def fmean(values):
    values = list(values)
    return sum(values) / len(values)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(results):
    """Per-layer metrics of one traced pass; a metric whose span or fact
    is missing from any op's trace is left out (absent)."""
    traces = [r.trace for r in results]
    if any(t is None for t in traces):
        return {}

    def span(key, field):
        if not all(key in t["installed"] for t in traces):
            return None
        return sum(t["spans"][key][field] for t in traces)

    def fact(name, combine=sum):
        if not all(name in t for t in traces):
            return None
        return combine(t[name] for t in traces)

    def ratio(num, den):
        return None if num is None or den is None else _ratio(num, den)

    def add(a, b):
        return None if a is None or b is None else a + b

    calls, total, self_s = 0, 1, 2
    s_calls, oracle_calls = span("series.s", calls), span("series.oracle", calls)
    pslq_calls = span("relations.pslq", calls)
    metrics = {
        "cli.import_s": fact("import_s"),
        "cli.cache_load_s": span("cli.cache_load", total),
        "cli.cache_save_s": span("cli.cache_save", total),
        "cli.cache_entries_loaded": fact("cache_entries_loaded"),
        "bernoulli.recurrence_s": span("bernoulli.recurrence", self_s),
        "bernoulli.triple_self_s": span("bernoulli.triple", self_s),
        "bernoulli.triple_calls": span("bernoulli.triple", calls),
        "bernoulli.memo_len": fact("memo_len", max),
        "series.s_calls": s_calls,
        "series.s_self_s": span("series.s", self_s),
        "series.s_terms": fact("s_terms"),
        "series.s_unique_ratio": ratio(fact("s_distinct"), s_calls),
        "series.oracle_calls": oracle_calls,
        "series.oracle_self_s": span("series.oracle", self_s),
        "series.oracle_unique_ratio": ratio(fact("oracle_distinct"), oracle_calls),
        "identities.reports": span("identities.residual", calls),
        "identities.self_s": add(span("identities.residual", self_s),
                                 span("identities.verify_all", self_s)),
        "relations.pslq_calls": pslq_calls,
        "relations.pslq_self_s": span("relations.pslq", self_s),
        "relations.pslq_iterations": fact("pslq_iterations"),
        "relations.found_ratio": ratio(fact("pslq_found"), pslq_calls),
        "precision.render_s": span("precision.render", total),
        "precision.render_digits": fact("render_digits"),
        "trace.coverage": _ratio(sum(t["covered_s"] for t in traces),
                                 sum(r.wall for r in results)),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


class Bench:
    def __init__(self, workload, seed, seconds, trace, sizes=FULL):
        self.seconds, self.trace = seconds, trace
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.ops = build_ops(workload, seed, sizes)
        self.expected = Expected.load(self.ops)
        self.attempted = 0
        self.failures = []
        self.calibrations = []  # (wall, cpu) of calibrate.py runs
        self.raw = {}

    def calibrate(self):
        wall, cpu, _, code, _, err, _ = spawn([sys.executable, CALIBRATE])
        if code != 0:
            raise RuntimeError(f"calibrate.py failed: {err.strip()}")
        self.calibrations.append((wall, cpu))

    def run(self, op, traced=False):
        timeout = min(OP_TIMEOUT_S, max(1.0, self.deadline - time.perf_counter()))
        result = run_op(op, traced, timeout)
        result.outcome = check(result, self.expected)
        if traced and result.trace is None and not result.timed_out:
            result.outcome = "wrong: the tracer wrote no spans"
        self.attempted += 1
        if result.outcome.startswith("wrong"):
            self.failures.append(result)
            print(f"FAILED {' '.join(op.argv)}: {result.outcome}", file=sys.stderr)
        return result

    def setup(self):
        """Median wall time of the trivial op: interpreter start, import and
        argument parsing, the fixed cost every op pays."""
        for _ in range(SETUP_CALIBRATIONS):
            self.calibrate()
        return median(
            self.run(Op(TRIVIAL, "coeffs", ("pi", 1))).wall for _ in range(SETUP_REPEATS))

    def measure(self):
        """Repeat passes (alternating traced and untraced ones with
        --trace 1) until the next pass would end after --seconds."""
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            use_trace = self.trace and len(traced) < len(plain)
            pass_start = time.perf_counter()
            self.calibrate()
            results = [self.run(op, use_trace) for op in self.ops]
            (traced if use_trace else plain).append(results)
            now = time.perf_counter()
            if self.trace and not traced:
                continue
            if now - start + (now - pass_start) > self.seconds or now > self.deadline:
                return plain, traced

    def result(self):
        units = declared_units()
        setup_s = self.setup()
        plain, traced = self.measure()
        measured = [r for p in plain + traced for r in p]
        self.raw = {"wall_s": median(sum(r.wall for r in p) for p in plain),
                    "cpu_s": median(sum(r.cpu for r in p) for p in plain),
                    "setup_s": setup_s,
                    "calibration_wall_s": median(w for w, _ in self.calibrations),
                    "calibration_cpu_s": median(c for _, c in self.calibrations)}
        if self.trace:
            metrics = self.per_layer(plain, traced, setup_s)
        else:
            # timings in reference-machine seconds: scaled by how much slower
            # than REFERENCE_S calibrate.py ran during this run
            wall_scale = REFERENCE_S / self.raw["calibration_wall_s"]
            metrics = {
                "wall_s": self.raw["wall_s"] * wall_scale,
                "cpu_s": self.raw["cpu_s"] * REFERENCE_S / self.raw["calibration_cpu_s"],
                "setup_s": setup_s * wall_scale,
                "peak_rss_mb": max(r.rss_mb for r in measured),
                "ok_ratio": _ratio(sum(r.outcome == "ok" for r in measured), len(measured)),
            }
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }

    def per_layer(self, plain, traced, setup_s):
        per_pass = [layer_metrics(p) for p in traced]
        names = set.intersection(*(set(m) for m in per_pass))
        metrics = {k: median(m[k] for m in per_pass) for k in sorted(names)}
        wall = [median(sum(r.wall for r in p) for p in runs) for runs in (traced, plain)]
        metrics["trace.overhead_ratio"] = wall[0] / wall[1] - 1
        exponents = [g for g in (growth_exponent(p, setup_s) for p in plain) if g is not None]
        metrics["eval_growth_exp"] = median(exponents) if exponents else 0.0
        return metrics


def environment(args, expected):
    commit = "unknown"  # a checkout without .git has no commit to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "mpmath": expected.references.get("mpmath"),
            "mpmath_backend": expected.references.get("mpmath_backend"),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "git_commit": commit,
            "parent_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def program_source():
    """Path of the plouffe package the op processes import."""
    probe = subprocess.run([sys.executable, "-c", "import plouffe; print(plouffe.__file__)"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    return probe.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (used by perfbench/selftest.py)")
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "plouffe", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no plouffe source at {package}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if os.path.realpath(program_source()) != os.path.realpath(package):
        print("error: the op processes do not import plouffe from this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  TINY if args.tiny else FULL)
    result = bench.result()
    print(json.dumps({"environment": environment(args, bench.expected), "raw": bench.raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
