"""The README's library tour runs as printed, and each value its comments
state holds; the decisions ledger's route table covers every check and
command, and every test it cites exists; every line the coverage
allowlist of `tests/linecov.py` exempts still exists."""

import math
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import linecov
import lcmsum as L
from lcmsum.checks import CHECKS
from lcmsum.cli import COMMANDS
from lcmsum.exactmath import BoundedReal

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
LEDGER = ROOT / "notes" / "decisions.md"


def tour_lines():
    text = README.read_text().split("## Library tour", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def run_tour():
    # the namespace the tour leaves, and the value of each expression line,
    # keyed by its code
    ns, values = {}, {}
    for line in tour_lines():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        try:
            expression = compile(code, str(README), "eval")
        except SyntaxError:
            exec(code, ns)
        else:
            values[code] = eval(expression, ns)
    return ns, values


def test_library_tour_comments_hold():
    ns, values = run_tour()
    assert values.pop("L.local_factor_poly(g)") == (1, 0, -9, 16, -9, 0, 1, 0)
    parts = values.pop("L.decompose_tuple(3, (12, 18, 30))")
    assert len(parts) == 7
    # entry i is the product of the parts whose label j has bit i set
    for i, n in enumerate((12, 18, 30)):
        assert math.prod(p for j, p in enumerate(parts, start=1) if j >> i & 1) == n
    rho, vol, c = ns["rho"], ns["vol"], ns["c"]
    assert isinstance(rho, BoundedReal) and rho.abs_error > 0
    assert vol == Fraction(11, 3360)
    assert isinstance(c, BoundedReal) and c.contains(rho.value * vol)
    theta1 = values.pop("L.leading_constants(3).theta1")
    assert theta1 == Fraction(1, 14) and repr(theta1) == "1/14"
    assert values.pop("L.brute_sums(2, 30).tuples") == 900
    b = L.brute_sums(2, 30)
    assert values.pop("L.gwise_sum_with_count(2, 30)") == (b.recip, 900)
    alphas, weighted = values.pop("L.lcm_multiplicity_table(2, 12)")
    pairs = list(product(range(1, 13), repeat=2))
    assert alphas == [sum(math.lcm(a, b) == n for a, b in pairs) for n in range(1, 13)]
    assert weighted == sum(Fraction(a, n) for n, a in enumerate(alphas, start=1))
    # every expression line of the tour is checked above
    assert values == {}


def test_route_table_names_every_check_command_and_test():
    table = LEDGER.read_text().split("\n## Route table\n", 1)[1].split("\n## ", 1)[0]
    # the checks table has one row per check, its name in the first cell
    assert re.findall(r"^\| `([a-z0-9-]+)` \|", table, re.M) == [n for n, _ in CHECKS]
    assert set(re.findall(r"`lcmsum ([a-z-]+)`", table)) == set(COMMANDS)
    cited = re.findall(r"`tests/(\w+\.py)::(\w+)", table)
    sources = {name: (ROOT / "tests" / name).read_text() for name, _ in cited}
    missing = [f"tests/{name}::{test}" for name, test in cited
               if not re.search(rf"^def {test}\(", sources[name], re.M)]
    assert cited
    assert missing == []


def test_linecov_allowlist_names_lines_that_exist():
    for name, text, reason in linecov.ALLOWLIST:
        lines = (linecov.PACKAGE / name).read_text().splitlines()
        assert text in (line.strip() for line in lines), (name, text)
        assert reason.strip(), (name, text)


def test_flag_table_matches_the_parser():
    # each row of the README's flag table names subcommands and the flags
    # they take besides --out; together the rows are exactly `cli.COMMANDS`
    table = README.read_text().split(
        "| subcommand | flags (besides `--out`) |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        commands, flags = row.strip("|").split("|")
        for name in re.findall(r"`([a-z-]+)`", commands):
            assert name not in documented, name
            documented[name] = set(re.findall(r"`(--[a-z]+)", flags))
    assert documented == {name: set(flags) for name, (_, flags) in COMMANDS.items()}
