"""Record the CLI invocations that `tests/test_golden_cli.py` replays.

Run from the repository root, against the tree whose output is the
reference:

    PYTHONPATH=src python tests/golden/record_cli_stdout.py > tests/golden/cli_stdout.json

Each entry holds an argv, the exit status of `lcmsum.cli.main` and what it
wrote to stdout.  Regenerate only when a change to the output is intended.
"""

import contextlib
import io
import json
import sys

from lcmsum.cli import main
from lcmsum.polytope import KINDS


def invocations():
    for k in ("2", "3", "4"):
        for cmd in ("graph", "qpoly", "ism", "theta", "identity"):
            yield [cmd, "--k", k]
    # k + 1 = 9 folds to a rational and 27 to 3 * sqrt(3): both go through
    # SurdRatio's square folding and so through SieveTables.factor
    for k in ("8", "26"):
        yield ["theta", "--k", k]
    yield ["identity", "--k", "2", "--x", "12"]
    # 15 difference passes over 601 count-series terms, past Q of degree 15
    yield ["identity", "--k", "4", "--x", "600"]
    for k in ("2", "3"):
        for kind in KINDS:
            yield ["volume", "--k", k, "--kind", kind]
            yield ["export-ieqs", "--k", k, "--kind", kind]
        for cmd in ("rho", "constants"):
            for digits in ("10", "14"):
                yield [cmd, "--k", k, "--digits", digits]
    # brute: x**k tuples, so budgets 35/36 and 124/125 sit on the edge
    for k, x in (("2", "1"), ("2", "6"), ("2", "30"), ("3", "1"), ("3", "5"),
                 ("3", "12")):
        yield ["brute", "--k", k, "--x", x]
    yield ["brute", "--k", "2", "--x", "6", "--budget", "35"]
    yield ["brute", "--k", "2", "--x", "6", "--budget", "36"]
    yield ["brute", "--k", "3", "--x", "5", "--budget", "124"]
    yield ["brute", "--k", "3", "--x", "5", "--budget", "125"]
    yield ["brute", "--k", "2", "--x", "6", "--budget", "0"]
    yield ["brute", "--k", "2", "--x", "0"]
    # x = 1 is the one all-ones tuple at any k, past the recursion limit
    yield ["brute", "--k", "1100", "--x", "1"]
    # gwise: the plain search visits 57 nodes (k=2, x=6) and 281 (k=3, x=5)
    for k, x in (("2", "1"), ("2", "6"), ("2", "30"), ("3", "1"), ("3", "5"),
                 ("3", "10")):
        yield ["gwise", "--k", k, "--x", x]
    # the size of the benchmark's k=3 point queries
    yield ["gwise", "--k", "3", "--x", "90"]
    yield ["gwise", "--k", "2", "--x", "6", "--budget", "56"]
    yield ["gwise", "--k", "2", "--x", "6", "--budget", "57"]
    yield ["gwise", "--k", "3", "--x", "5", "--budget", "280"]
    yield ["gwise", "--k", "3", "--x", "5", "--budget", "281"]
    yield ["gwise", "--k", "4", "--x", "5"]
    for k in ("1", "2", "3"):
        for x in ("1", "12", "60"):
            yield ["alpha", "--k", k, "--x", x]
    yield ["alpha", "--k", "2", "--x", "0"]
    # the alpha sum over two whole 256-term sub-gaps and part of a third
    yield ["alpha", "--k", "3", "--x", "600"]
    for fmt in ("text", "csv"):
        yield ["report", "--k", "2", "--x", "1,10,100", "--format", fmt]
        yield ["report", "--k", "3", "--x", "1,5,20", "--format", fmt]


def record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    json.dump([record(argv) for argv in invocations()], sys.stdout, indent=1)
    sys.stdout.write("\n")
