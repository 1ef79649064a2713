"""Command-line interface: exact coefficients, high-precision evaluation,
identity verification, PSLQ rediscovery, batch tables, and Bernoulli
numbers, with machine-readable output.

Exit codes: 0 success, 1 verification/discovery failure (including an
eval --check agreement below --digits), 2 usage error.  `_run` alone maps a
refused computation to its code: a ValueError 2 (a --digits or --max-m
below 1 among them, which the library refuses), an ArithmeticError (such
as `RelationNotFoundError`) 1, its reason printed.  eval, verify and
discover print what the API's `eval_pi_power` or `eval_zeta_odd`,
`verify_all` and `rediscover_triple` return.
A command's output and side effects depend on its arguments alone: it
reads no clock and no environment variable of its own, so identical
invocations produce byte-identical standard output.

The Bernoulli memo can persist across runs in a text cache (--cache PATH),
one record per line, the index and what `plouffe bernoulli <index>` prints
("numerator/denominator", or an integer), written atomically.  A missing or
unreadable cache is never an error; the numbers are recomputed.
"""

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction

# The other layers, json and tempfile are imported where they are used, so
# that coeffs, table and bernoulli start without them.  No command imports
# mpmath: every value and residual is an exact integer or rational.
from .bernoulli import (Target, _triples, bernoulli, format_rational, memo_preload, memo_snapshot,
                        triple_for)

DEFAULT_DIGITS = 100  # the customary working precision for these searches


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


def _emit(args, inputs, renderings):
    """Print the rendering for the requested format ("plain" for verify, which
    has no --format).  Each rendering is a zero-argument callable, so only the
    printed one is built: the lines of a text format, or for "json" the
    result, printed in a record with the command, its inputs and any --digits."""
    fmt = getattr(args, "format", "plain")
    output = renderings[fmt]()
    if fmt == "json":
        import json

        record = {"command": args.command, "inputs": inputs, "result": output}
        if hasattr(args, "digits"):
            record["digits"] = args.digits
        print(json.dumps(record, indent=2))
    else:
        for line in output:
            print(line)


def _cmd_coeffs(args):
    triple = triple_for(Target(args.target), args.exponent)
    _emit(args, {"target": args.target, "exponent": args.exponent}, {
        "json": lambda: _triple_json(triple),
        "plain": lambda: [" ".join(format_rational(q) for q in triple.coefficients())],
        "csv": lambda: [_triple_row(triple, ",")],
        "latex": lambda: [_formula(triple, latex=True)],
    })
    return 0


def _cmd_eval(args):
    """Exit 1 when --check finds the value and its oracle agreeing to fewer than --digits."""
    from .fixed import agreement_digits
    from .series import _value, eval_pi_power, eval_zeta_odd

    evaluate = eval_pi_power if args.target == "pi" else eval_zeta_odd
    value = evaluate(args.exponent, args.digits)  # first: a sum past MAX_TERMS is refused here
    result = {"value": value.to_decimal_string()}
    if args.check:
        oracle = _value((args.target, args.exponent), args.digits)
        result["oracle_agreement_digits"] = min(agreement_digits(value, oracle), args.digits)
    agree = result.get("oracle_agreement_digits")
    _emit(args, {"target": args.target, "exponent": args.exponent}, {
        "json": lambda: result,
        "plain": lambda: ([result["value"]]
                          + ([f"agrees with oracle to >={agree} digits"] if args.check else [])),
        "csv": lambda: [",".join(map(str, [args.target, args.exponent, args.digits,
                                           *result.values()]))],
    })
    return 1 if args.check and agree < args.digits else 0


def _cmd_verify(args):
    import json

    from .identities import verify_all

    reports = verify_all(args.max_m, args.digits)
    _emit(args, None,
          {"plain": lambda: [json.dumps([r.to_json_dict() for r in reports], indent=2)]})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_discover(args):
    from .fixed import nstr
    from .relations import rediscover_triple

    result, triple = rediscover_triple(args.target, args.exponent, args.digits)
    vector_text = "[" + ", ".join(format_rational(q) for q in (-1, *triple.coefficients())) + "]"
    formula = _formula(triple)
    _emit(args, {"target": args.target, "exponent": args.exponent}, {
        "json": lambda: {
            "vector": vector_text,
            "canonical_vector": list(result.vector),
            "formula": formula,
            "iterations": result.iterations,
            "residual": nstr(result.residual, 5),
        },
        "plain": lambda: [vector_text, formula],
    })
    return 0


def _cmd_table(args):
    triples = _triples(args.max_m)
    _emit(args, {"max_m": args.max_m}, {
        "json": lambda: [_triple_json(t) for t in triples],
        "plain": lambda: [_triple_row(t, " ") for t in triples],
        "csv": lambda: [_triple_row(t, ",") for t in triples],
        "latex": lambda: [_formula(t, latex=True) for t in triples],
    })
    return 0


def _cmd_bernoulli(args):
    text = format_rational(bernoulli(args.index))
    _emit(args, {"index": args.index}, {"json": lambda: text, "plain": lambda: [text]})
    return 0


def _parse_int(text):
    """int(text) for decimal digits with an optional "-", parsed by halves
    of at most 600 digits, so that Python's int/str digit limit never applies."""
    if text.startswith("-"):
        return -_parse_int(text[1:])
    if len(text) <= 600:
        return int(text)
    half = len(text) // 2
    return _parse_int(text[:-half]) * 10 ** half + _parse_int(text[-half:])


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
                    parts = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value_text)
                    if parts is None:
                        raise ValueError(f"not an exact rational: {value_text!r}")
                    numerator, denominator = (_parse_int(part) for part in parts.groups("1"))
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
                handle.write(f"{index} {format_rational(value)}\n")
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
                       help="Bernoulli cache file (default: none)")
        if formats:
            p.add_argument("--format", choices=formats, default="plain")
        if digits:
            p.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                           help=f"requested decimal precision (default {DEFAULT_DIGITS})")
        if max_m:
            p.add_argument("--max-m", dest="max_m", type=int, default=1)
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
    loaded = _load_cache(args.cache)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    finally:
        _save_cache(args.cache, loaded)


if __name__ == "__main__":
    sys.exit(main())
