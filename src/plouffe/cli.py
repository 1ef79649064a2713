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
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

# The other layers, json and tempfile are imported where they are used, so
# that coeffs, table and bernoulli start without them, and eval without mpmath
# unless it checks.
from .bernoulli import Target, bernoulli, format_rational, memo_preload, memo_snapshot, triple_for

DEFAULT_DIGITS = 100  # the customary working precision for these searches


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
    text = format_rational(abs(Fraction(q)))
    if latex and "/" in text:
        numerator, denominator = text.split("/")
        return rf"\frac{{{numerator}}}{{{denominator}}}"
    return text


def _formula(triple, latex=False):
    e = triple.exponent
    index = f"{{{e}}}" if latex else e
    pieces = []
    for rate, coeff in triple.weights():
        term = f"{_coeff_text(coeff, latex)} S_{index}({rate})"
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
    """Print the JSON record, or the lines for the format ("plain" for verify, which has none)."""
    wall_ms = int((time.monotonic() - args._t0) * 1000)
    fmt = getattr(args, "format", "plain")
    if fmt == "json":
        import json

        if args.timing:
            record["wall_time_ms"] = wall_ms
        print(json.dumps(record, indent=2))
    else:
        for line in rendered_lines[fmt]:
            print(line)
        if args.timing:
            print(f"wall_time_ms={wall_ms}", file=sys.stderr)


def _cmd_coeffs(args):
    triple = triple_for(Target(args.target), args.exponent)
    record = {"command": "coeffs", "inputs": {"target": args.target, "exponent": args.exponent},
              "result": _triple_json(triple)}
    rendered = {
        "plain": [" ".join(format_rational(q) for q in triple.coefficients())],
        "csv": [_triple_row(triple, ",")],
        "latex": [_formula(triple, latex=True)],
    }
    _emit(args, record, rendered)
    return 0


def _cmd_eval(args):
    from .fixed import GUARD, decimal_string, q_series

    triple = triple_for(Target(args.target), args.exponent)
    mantissa, prec = q_series(args.exponent, 1, args.digits + GUARD, weights=triple.weights())
    text = decimal_string(mantissa, args.digits, -prec)
    result = {"value": text}
    lines = [text]
    row = [args.target, str(args.exponent), str(args.digits), text]
    if args.check:
        from .identities import target_term, term_values
        from .precision import PrecisionReal, agreement_digits, from_fixed

        term = target_term(triple.target, args.exponent)
        oracle = PrecisionReal(term_values([term], args.digits + GUARD)[term], args.digits)
        value = PrecisionReal(from_fixed(mantissa, prec), args.digits)
        agree = min(agreement_digits(value, oracle), args.digits)
        result["oracle_agreement_digits"] = agree
        lines.append(f"agrees with oracle to >={agree} digits")
        row.append(str(agree))
    record = {"command": "eval", "inputs": {"target": args.target, "exponent": args.exponent},
              "result": result, "digits": args.digits}
    _emit(args, record, {"plain": lines, "csv": [",".join(row)]})
    return 0


def _cmd_verify(args):
    import json

    from .identities import verify_all

    reports = verify_all(args.max_m, args.digits)
    _emit(args, None, {"plain": [json.dumps([r.to_json_dict() for r in reports], indent=2)]})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_discover(args):
    import mpmath as mp

    from .relations import RelationNotFoundError, rediscover_triple

    try:
        result, triple = rediscover_triple(Target(args.target), args.exponent, args.digits)
    except RelationNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    vector_text = "[" + ", ".join(format_rational(q) for q in (-1, *triple.coefficients())) + "]"
    formula = _formula(triple)
    record = {
        "command": "discover", "inputs": {"target": args.target, "exponent": args.exponent},
        "result": {
            "vector": vector_text,
            "canonical_vector": list(result.vector),
            "formula": formula,
            "iterations": result.iterations,
            "residual": mp.nstr(result.residual.mpf, 5),
        },
        "digits": args.digits}
    _emit(args, record, {"plain": [vector_text, formula]})
    return 0


def _cmd_table(args):
    triples = [triple_for(target, e) for e in range(1, 4 * args.max_m + 2, 2) for target in Target
               if target is Target.PI_POWER or e >= 3]
    record = {"command": "table", "inputs": {"max_m": args.max_m},
              "result": [_triple_json(t) for t in triples]}
    rendered = {
        "plain": [_triple_row(t, " ") for t in triples],
        "csv": [_triple_row(t, ",") for t in triples],
        "latex": [_formula(t, latex=True) for t in triples],
    }
    _emit(args, record, rendered)
    return 0


def _cmd_bernoulli(args):
    text = format_rational(bernoulli(args.index))
    record = {"command": "bernoulli", "inputs": {"index": args.index}, "result": text}
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
                    # "p" or "p/q" through Decimal, since int(str) stops at Python's digit limit
                    parts = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value_text)
                    if parts is None:
                        raise ValueError(f"not an exact rational: {value_text!r}")
                    numerator, denominator = (int(Decimal(part)) for part in parts.groups("1"))
                    entries[int(index_text)] = Fraction(numerator, denominator)
            if entries and sorted(entries) == list(range(len(entries))):
                if memo_preload([entries[i] for i in range(len(entries))]):
                    return len(entries)
        except (OSError, ValueError, ZeroDivisionError):
            pass  # unreadable caches are ignored, never fatal
    return 0


def _save_cache(path, entries_in_file):
    if not path:
        return
    snapshot = memo_snapshot()
    if len(snapshot) <= entries_in_file:
        return
    import tempfile

    temp_path = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".plouffe-cache-")
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            for index, value in enumerate(snapshot):
                handle.write(f"{index} {Decimal(value.numerator)}/{Decimal(value.denominator)}\n")
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
                           help=f"requested decimal precision (default {DEFAULT_DIGITS})")
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
    p.set_defaults(handler=_cmd_verify)

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

    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's documented recipe: stdout goes to devnull, so the flush at
        # exit cannot raise again, and the exit code is 1, as on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(args):
    args._t0 = time.monotonic()
    cache_path = args.cache or os.environ.get("PLOUFFE_CACHE")
    loaded = _load_cache(cache_path)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _save_cache(cache_path, loaded)


if __name__ == "__main__":
    sys.exit(main())
