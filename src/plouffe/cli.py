"""Command-line interface: exact coefficients, high-precision evaluation,
identity verification, PSLQ rediscovery, batch tables, and Bernoulli
numbers, with machine-readable output.

Exit codes: 0 success, 1 verification/discovery failure (including an
eval --check agreement below --digits), 2 usage error.  `_run` alone maps a
refused computation to its code: a ValueError 2 (a --digits or --max-m
below 1 among them, which the library refuses), an ArithmeticError (such
as `RelationNotFoundError`) 1, its reason printed.  eval, verify and
discover print what the API's `eval_pi_power` or `eval_zeta_odd`,
`verify_all` and `rediscover_triple` return.  `main` reads a plain command
line itself and leaves any other, --help among them, to argparse.
A command's output and side effects depend on its arguments alone: it
reads no clock and no environment variable of its own, so identical
invocations produce byte-identical standard output.

The Bernoulli memo can persist across runs in a text cache (--cache PATH),
one record per line, the index and what `plouffe bernoulli <index>` prints
("numerator/denominator", or an integer), written atomically.  A missing or
unreadable cache is never an error; the numbers are recomputed.
"""

import contextlib
import os
import re
import sys
import types
from decimal import Decimal
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
                handle.write(f"{index} {format_rational(value)}\n")
        os.replace(temp_path, path)
        temp_path = None
    except (OSError, ValueError) as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)
    finally:
        if temp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)


# The CLI grammar, which build_parser and _read_argv both read: each command's
# help, positionals, and options past --cache, which every command takes,
# each with the argparse keywords of its type or its choices.  The handler of
# a command is _cmd_<command>, looked up when the command line is read.
_INT, _FLAG = {"type": int}, {"action": "store_true"}
_TARGET = (("target", {"choices": ("pi", "zeta")}), ("exponent", _INT))
_COMMANDS = {
    "coeffs": ("exact coefficient triple for one target", _TARGET,
               {"--format": {"choices": ("json", "csv", "latex", "plain")}}),
    "eval": ("evaluate pi**n or zeta(n) to a digit count", _TARGET,
             {"--format": {"choices": ("json", "csv", "plain")}, "--digits": _INT, "--check": _FLAG}),
    "verify": ("run all identity residual checks (JSON report)", (),
               {"--digits": _INT, "--max-m": _INT}),
    "discover": ("rediscover a coefficient triple with PSLQ", _TARGET,
                 {"--format": {"choices": ("json", "plain")}, "--digits": _INT}),
    "table": ("all triples for exponents up to 4*max_m + 1", (),
              {"--format": {"choices": ("json", "csv", "latex", "plain")}, "--max-m": _INT}),
    "bernoulli": ("print the k-th Bernoulli number as p/q", (("index", _INT),),
                  {"--format": {"choices": ("json", "plain")}}),
}
# Each option's dest, default and other argparse keywords, in --help order.
_OPTIONS = {
    "--cache": ("cache", None, {"metavar": "PATH", "help": "Bernoulli cache file (default: none)"}),
    "--format": ("format", "plain", {}),
    "--digits": ("digits", DEFAULT_DIGITS,
                 {"help": f"requested decimal precision (default {DEFAULT_DIGITS})"}),
    "--max-m": ("max_m", 1, {}),
    "--check": ("check", False, {"help": "cross-check the value against an independent oracle"}),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="plouffe",
        description="Exact coefficients, arbitrary-precision evaluation, identity "
                    "verification, and PSLQ rediscovery of the three-series formulas "
                    "for odd powers of pi and odd zeta values.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, kind in positionals:
            p.add_argument(name, **kind)
        options = {"--cache": {}, **options}
        for name, (dest, default, keywords) in _OPTIONS.items():
            if name in options:
                p.add_argument(name, dest=dest, default=default, **options[name], **keywords)
        p.set_defaults(handler=globals()[f"_cmd_{command}"])
    return parser


def _read_argv(argv):
    """What build_parser().parse_args(argv) returns, for a plain argv: a
    command, then its positionals and options in any order, each option by
    its full name and at most once, each value a token that does not start
    with "-".  None for any other argv, which argparse reads instead."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options = _COMMANDS[argv[0]]
    options = {"--cache": {}, **options}
    values = {_OPTIONS[name][0]: _OPTIONS[name][1] for name in options}
    tokens, free = iter(argv[1:]), []
    try:
        for token in tokens:
            if not token.startswith("-"):
                free.append(token)
            elif token in options:  # popped, so that a second one is refused
                kind = options.pop(token)
                values[_OPTIONS[token][0]] = kind is _FLAG or _value(kind, next(tokens, "-"))
            else:
                return None
        if len(free) != len(positionals):
            return None
        values.update((name, _value(kind, text)) for (name, kind), text in zip(positionals, free))
    except ValueError:
        return None
    return types.SimpleNamespace(command=argv[0], handler=globals()[f"_cmd_{argv[0]}"], **values)


def _value(kind, text):
    """text read as argparse reads a value of this kind, or ValueError."""
    value = kind.get("type", str)(text)
    if text.startswith("-") or value not in kind.get("choices", [value]):
        raise ValueError(text)
    return value


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
