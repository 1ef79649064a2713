"""Command-line interface: exact coefficients, high-precision evaluation,
identity verification, PSLQ rediscovery, batch tables, and Bernoulli
numbers, with machine-readable output.

Exit codes: 0 success, 1 verification/discovery failure, 2 usage error.
Identical invocations produce byte-identical standard output; wall-clock
timing is only emitted on request (--timing), as a JSON field or on the
error stream, so it never perturbs that guarantee.

The Bernoulli memo can persist across runs in a text cache (--cache or
$PLOUFFE_CACHE), one record per line, "index numerator/denominator",
written atomically.  A missing or unreadable cache is never an error; the
numbers are recomputed.
"""

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .bernoulli import Target, bernoulli, memo_preload, memo_snapshot, triple_for
from .identities import target_term, term_values, verify_all
from .precision import GUARD, PrecisionReal, agreement_digits, format_rational
from .relations import MAX_COEFF, RelationNotFoundError, min_digits_for, rediscover_triple
from .series import eval_pi_power, eval_zeta_odd

DEFAULT_DIGITS = 100  # the customary working precision for these searches


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    result: object
    digits: int = None
    wall_time_ms: int = None

    def to_json_dict(self):
        record = {"command": self.command, "inputs": self.inputs, "result": self.result}
        if self.digits is not None:
            record["digits"] = self.digits
        if self.wall_time_ms is not None:
            record["wall_time_ms"] = self.wall_time_ms
        return record


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _target_head(target, exponent, latex=False):
    if target is Target.PI_POWER:
        if latex:
            return r"\pi" if exponent == 1 else rf"\pi^{{{exponent}}}"
        return "pi" if exponent == 1 else f"pi^{exponent}"
    return rf"\zeta({exponent})" if latex else f"zeta({exponent})"


def _coeff_text(q, latex=False):
    q = abs(Fraction(q))
    if latex and q.denominator != 1:
        return rf"\frac{{{q.numerator}}}{{{q.denominator}}}"
    return format_rational(q)


def _formula(triple, latex=False):
    e = triple.exponent
    pieces = []
    for coeff, rate in zip(triple.coefficients(), (1, 2, 4)):
        term = f"{_coeff_text(coeff, latex)} S_{{{e}}}({rate})" if latex \
            else f"{_coeff_text(coeff)} S_{e}({rate})"
        if not pieces:
            pieces.append(term if coeff >= 0 else f"-{term}")
        else:
            pieces.append(("+ " if coeff >= 0 else "- ") + term)
    return f"{_target_head(triple.target, e, latex)} = " + " ".join(pieces)


def _triple_json(triple):
    return {
        "target": triple.target.value,
        "exponent": triple.exponent,
        "a": format_rational(triple.a),
        "b": format_rational(triple.b),
        "c": format_rational(triple.c),
    }


def _triple_row(triple, sep):
    return sep.join([triple.target.value, str(triple.exponent)]
                    + [format_rational(q) for q in triple.coefficients()])


def _emit(args, record, rendered_lines):
    """Print either the JSON record or the format-specific lines."""
    wall_ms = int((time.monotonic() - args._t0) * 1000)
    fmt = getattr(args, "format", "plain")
    if fmt == "json":
        if args.timing:
            record.wall_time_ms = wall_ms
        print(json.dumps(record.to_json_dict(), indent=2))
    else:
        for line in rendered_lines[fmt]:
            print(line)
        if args.timing:
            print(f"wall_time_ms={wall_ms}", file=sys.stderr)


def _cmd_coeffs(args):
    triple = triple_for(Target(args.target), args.exponent)
    record = OutputRecord("coeffs", {"target": args.target, "exponent": args.exponent},
                          _triple_json(triple))
    rendered = {
        "plain": [" ".join(format_rational(q) for q in triple.coefficients())],
        "csv": [_triple_row(triple, ",")],
        "latex": [_formula(triple, latex=True)],
    }
    _emit(args, record, rendered)
    return 0


def _cmd_eval(args):
    target = Target(args.target)
    if target is Target.PI_POWER:
        value = eval_pi_power(args.exponent, args.digits)
    else:
        value = eval_zeta_odd(args.exponent, args.digits)
    text = value.to_decimal_string()
    result = {"value": text}
    lines = [text]
    if args.check:
        term = target_term(target, args.exponent)
        oracle = PrecisionReal(term_values([term], args.digits + GUARD)[term], args.digits)
        agree = min(agreement_digits(value, oracle), args.digits)
        result["oracle_agreement_digits"] = agree
        lines.append(f"agrees with oracle to >={agree} digits")
    record = OutputRecord("eval", {"target": args.target, "exponent": args.exponent},
                          result, digits=args.digits)
    _emit(args, record, {"plain": lines, "csv": [f"{args.target},{args.exponent},{args.digits},{text}"]})
    return 0


def _cmd_verify(args):
    reports = verify_all(args.max_m, args.digits)
    wall_ms = int((time.monotonic() - args._t0) * 1000)
    payload = [r.to_json_dict() for r in reports]
    print(json.dumps(payload, indent=2))
    if args.timing:
        print(f"wall_time_ms={wall_ms}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_discover(args):
    minimum = min_digits_for(4, MAX_COEFF)
    if args.digits < minimum:
        print(f"insufficient precision: {args.digits} digits is below the detectability "
              f"threshold of {minimum} for coefficients up to {MAX_COEFF:.0e}",
              file=sys.stderr)
        return 1
    result, triple = rediscover_triple(Target(args.target), args.exponent, args.digits)
    vector_text = "[" + ", ".join(format_rational(q) for q in (-1, *triple.coefficients())) + "]"
    formula = _formula(triple)
    record = OutputRecord(
        "discover", {"target": args.target, "exponent": args.exponent},
        {
            "vector": vector_text,
            "canonical_vector": list(result.vector),
            "formula": formula,
            "iterations": result.iterations,
            "residual": mp.nstr(result.residual.mpf, 5),
        },
        digits=args.digits)
    _emit(args, record, {"plain": [vector_text, formula]})
    return 0


def _cmd_table(args):
    triples = []
    for exponent in range(1, 4 * args.max_m + 2, 2):
        triples.append(triple_for(Target.PI_POWER, exponent))
        if exponent >= 3:
            triples.append(triple_for(Target.ZETA_VALUE, exponent))
    record = OutputRecord("table", {"max_m": args.max_m}, [_triple_json(t) for t in triples])
    rendered = {
        "plain": [_triple_row(t, " ") for t in triples],
        "csv": [_triple_row(t, ",") for t in triples],
        "latex": [_formula(t, latex=True) for t in triples],
    }
    _emit(args, record, rendered)
    return 0


def _cmd_bernoulli(args):
    text = format_rational(bernoulli(args.index))
    record = OutputRecord("bernoulli", {"index": args.index}, text)
    _emit(args, record, {"plain": [text]})
    return 0


def _load_cache(path):
    """Seed the Bernoulli memo from a cache file; returns the entry count
    the file contributed (0 for a missing, unreadable, or rejected file)."""
    if path and os.path.exists(path):
        try:
            entries = {}
            with open(path, "r", encoding="ascii") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    index_text, value_text = line.split()
                    entries[int(index_text)] = Fraction(value_text)
            if entries and sorted(entries) == list(range(len(entries))):
                if memo_preload([entries[i] for i in range(len(entries))]):
                    return len(entries)
        except (OSError, ValueError):
            pass  # unreadable caches are ignored, never fatal
    return 0


def _save_cache(path, entries_in_file):
    if not path:
        return
    snapshot = memo_snapshot()
    if len(snapshot) <= entries_in_file:
        return
    temp_path = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".plouffe-cache-")
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            for index, value in enumerate(snapshot):
                handle.write(f"{index} {value.numerator}/{value.denominator}\n")
        os.replace(temp_path, path)
        temp_path = None
    except (OSError, ValueError) as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)
    finally:
        if temp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plouffe",
        description="Exact coefficients, arbitrary-precision evaluation, identity "
                    "verification, and PSLQ rediscovery of the three-series formulas "
                    "for odd powers of pi and odd zeta values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=None, digits=False, max_m=False, check=False):
        p.add_argument("--cache", default=None, metavar="PATH",
                       help="Bernoulli cache file (default: $PLOUFFE_CACHE)")
        p.add_argument("--timing", action="store_true",
                       help="report wall time (JSON field, or a note on stderr)")
        if formats:
            p.add_argument("--format", choices=formats, default="plain")
        if digits:
            p.add_argument("--digits", type=_positive_int, default=DEFAULT_DIGITS,
                           help=f"requested decimal precision (default {DEFAULT_DIGITS}); "
                                f"discovery needs at least {min_digits_for(4, MAX_COEFF)}")
        if max_m:
            p.add_argument("--max-m", dest="max_m", type=_positive_int, default=1)
        if check:
            p.add_argument("--check", action="store_true",
                           help="cross-check the value against an independent oracle")

    p = sub.add_parser("coeffs", help="exact coefficient triple for one target")
    p.add_argument("target", choices=["pi", "zeta"])
    p.add_argument("exponent", type=int)
    add_common(p, formats=("json", "csv", "latex", "plain"))
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate pi**n or zeta(n) to a digit count")
    p.add_argument("target", choices=["pi", "zeta"])
    p.add_argument("exponent", type=int)
    add_common(p, formats=("json", "csv", "plain"), digits=True, check=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="run all identity residual checks (JSON report)")
    add_common(p, digits=True, max_m=True)
    p.set_defaults(handler=_cmd_verify, format="json")

    p = sub.add_parser("discover", help="rediscover a coefficient triple with PSLQ")
    p.add_argument("target", choices=["pi", "zeta"])
    p.add_argument("exponent", type=int)
    add_common(p, formats=("json", "plain"), digits=True)
    p.set_defaults(handler=_cmd_discover)

    p = sub.add_parser("table", help="all triples for exponents up to 4*max_m + 1")
    add_common(p, formats=("json", "csv", "latex", "plain"), max_m=True)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("bernoulli", help="print the k-th Bernoulli number as p/q")
    p.add_argument("index", type=int)
    add_common(p, formats=("json", "plain"))
    p.set_defaults(handler=_cmd_bernoulli)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    # Exact numerators outgrow Python's default 4300-digit int<->str limit
    # (B_k from k = 2064 on); lift it for this command only, so in-process
    # callers keep their own setting.  Python < 3.10.7 has no such limit.
    saved_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


def _run(args):
    args._t0 = time.monotonic()
    cache_path = args.cache or os.environ.get("PLOUFFE_CACHE")
    loaded = _load_cache(cache_path)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelationNotFoundError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _save_cache(cache_path, loaded)


if __name__ == "__main__":
    sys.exit(main())
