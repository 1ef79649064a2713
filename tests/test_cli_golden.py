"""Golden CLI outputs: exit code and standard output, byte for byte.

Each command runs in-process at no more than 300 digits, with `import
mpmath` blocked, as no command needs it; `cli_golden.json` holds what it
printed when the file was written, and a command that exits 0 prints
nothing on stderr.  The one field allowed to move is JSON `residual`, a
noise-level number whose digits depend on the working precision; it is
masked, and the `pass` flags next to it are asserted instead.  Regenerate the file (only for a deliberate output change)
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

from plouffe.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
COMMANDS = [
    "coeffs zeta 3 --format plain",
    "coeffs pi 7 --format latex",
    "coeffs zeta 9 --format csv",
    "coeffs pi 5 --format json",
    "table --max-m 2",
    "table --max-m 1 --format csv",
    "bernoulli 12",
    "bernoulli 30 --format json",
    "eval pi 1 --digits 100",
    "eval pi 3 --digits 40 --format json",
    "eval zeta 7 --digits 60 --format csv",
    "eval zeta 3 --digits 50 --check",
    "eval zeta 9 --digits 200 --check --format json",
    "eval pi 7 --digits 300 --check --format csv",
    "eval pi 621 --digits 20 --check",
    "discover pi 7 --digits 200",
    "discover zeta 5 --digits 120 --format json",
    "verify --max-m 1 --digits 60",
    "eval zeta 1",
    "discover pi 3 --digits 50",
    "table --max-m 2 --format latex",
    "table --max-m 1 --format json",
    "verify --max-m 2 --digits 100",
    "discover pi 9 --digits 300 --format json",
    "discover zeta 11 --digits 300 --format json",
]
_RESIDUAL = re.compile(r'("residual": )"[^"]*"')


def run(command):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue(), err.getvalue()


def masked(stdout):
    return _RESIDUAL.sub(r'\1"*"', stdout)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_byte_identical(monkeypatch, command):
    # no command imports mpmath: every value and residual is exact
    monkeypatch.setitem(sys.modules, "mpmath", None)
    expected_code, expected = json.loads(GOLDEN.read_text())[command]
    code, stdout, stderr = run(command)
    assert code == expected_code
    if code == 0:
        assert stderr == ""
    assert masked(stdout) == masked(expected)
    if command.startswith("verify"):
        assert [r["pass"] for r in json.loads(stdout)] == [r["pass"] for r in json.loads(expected)]
        assert all(r["pass"] for r in json.loads(stdout))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c)[:2] for c in COMMANDS}, indent=1) + "\n")
