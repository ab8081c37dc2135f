"""Every `verify` check fails on a planted fault in one of its routes, and a
check that raises gives a fail row, or a skip row and exit 3 when it runs
out of a resource.

Each fault wraps one function a route calls, under the name the comparing
module looks it up by, so no package cache keeps a perturbed value.  The
battery is cut to the check under test, so each case costs that check's
run alone.  The route table's checks table names, per check, the cases
here that fail it, or says "one route" where no single-route fault can.

The route audit runs the sides each record of `checks.CHECKS` declares,
from cold package caches, and counts the package code each calls beyond
its own; two sides of one comparison may share only the trusted
primitives listed here, or the route table marks the check "one route".
"""

import dataclasses
import itertools
import os
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import lcmsum
from lcmsum import (checks, coprimality, eulerprod, exactmath, oracle,
                    polytope)
from lcmsum.cli import main
from lcmsum.errors import ResourceLimitError

LEDGER = Path(__file__).resolve().parents[1] / "notes" / "decisions.md"

TINY = Fraction(1, 10**6)


def bump_first(seq):
    return (seq[0] + 1, *seq[1:])


def drop_an_edge(g):
    return dataclasses.replace(g, edges=g.edges - {min(g.edges)})


def skew_d_star(vol, kind, k):
    return vol + TINY if kind == "D_star" else vol


#: (case id, check, module, function, change): the function returns
#: change(its true result, *its arguments)
FAULTS = [
    ("edge-count-formula", "edge-count-formula", checks, "edge_count_formula",
     lambda n, k: n + 1),
    ("edge-set-k3", "edge-set-k3", checks, "build_coprimality_graph",
     lambda g, k: drop_an_edge(g)),
    ("ism-vs-stirling", "ism-vs-stirling", checks, "stirling_ism_counts",
     lambda counts, k: bump_first(counts)),
    ("ism-k3-values", "ism-k3-values", checks, "independent_set_counts",
     lambda counts, g: bump_first(counts)),
    ("local-poly-triple-route", "local-poly-triple-route", checks,
     "local_factor_poly_by_edge_subsets", lambda q, g: bump_first(q)),
    ("series-identities", "series-identities", eulerprod, "stirling_ism_counts",
     lambda counts, k: bump_first(counts)),
    ("volumes-k-le-3", "volumes-k-le-3", checks, "volume_of",
     lambda vol, kind, k: vol + TINY),
    ("volume-relations", "volume-relations", polytope, "volume_of", skew_d_star),
    ("worksheet-ieqs", "worksheet-ieqs", checks, "ieqs_rows",
     lambda rows, p: [bump_first(rows[0]), *rows[1:]]),
    ("density-k2", "density-k2", checks, "coprime_density",
     lambda rho, g: rho + TINY),
    ("density-k3", "density-k3", checks, "coprime_density",
     lambda rho, g: rho + TINY),
    ("density-two-routes", "density-two-routes", checks, "lcm_count_density",
     lambda rho, k: rho + TINY),
    ("decomposition-identity", "decomposition-identity", checks,
     "gwise_constrained_sum", lambda s, k, x, pinned: s + 1),
    ("lcm-multiplicity", "lcm-multiplicity", checks, "lcm_multiplicity",
     lambda a, k, n: a + 1),
    ("lcm-multiplicity-sum", "lcm-multiplicity", checks, "lcm_multiplicity_table",
     lambda table, k, x: (table[0], table[1] + 100)),
    ("fast-k2-route", "fast-k2-route", checks, "fast_recip_lcm_sum2",
     lambda s, x: s + TINY),
    ("volumes-k4", "volumes-k4", checks, "volume_of",
     lambda vol, kind, k: vol + TINY),
    ("leading-constants", "leading-constants", checks, "leading_constants",
     lambda lc, k: dataclasses.replace(lc, c2=2 * lc.c2)),
]


@pytest.mark.parametrize("case, check, module, function, change", FAULTS,
                         ids=[f[0] for f in FAULTS])
def test_a_planted_fault_fails_its_check(case, check, module, function, change,
                                         monkeypatch, capsys):
    real = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *a: change(real(*a), *a))
    monkeypatch.setattr(checks, "CHECKS", tuple(c for c in checks.CHECKS if c.name == check))
    rows, exceeded = checks.run_checks()
    (row,) = rows
    assert row[:2] == (check, "fail") and not exceeded, row
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] {check} (" in out
    assert f"    expected: {row[2]}\n    actual:   {row[3]}\n" in out
    assert out.endswith("0 passed, 1 failed, 0 skipped\n")
    if check == "density-two-routes":
        assert "k=2: BoundedReal(" in row[3]


def test_the_route_table_names_the_faults_that_fail_each_check():
    table = LEDGER.read_text().split("\n## Route table\n", 1)[1].split("\n## ", 1)[0]
    last_cells = dict(re.findall(r"^\| `([a-z0-9-]+)` \|.*\| ([^|]*) \|$", table, re.M))
    assert list(last_cells) == [c.name for c in checks.CHECKS]
    for name, cell in last_cells.items():
        cited = re.findall(r"test_a_planted_fault_fails_its_check\[([a-z0-9-]+)\]", cell)
        planted = [f[0] for f in FAULTS if f[1] == name]
        assert cited == planted, name
        assert ("one route" in cell) == (not planted), name


@pytest.mark.parametrize("error, status, code, actual", [
    (RuntimeError("planted"), "fail", 1, "RuntimeError: planted"),
    (ResourceLimitError("planted"), "skip", 3, "resource limit: planted"),
], ids=["exception", "resource-limit"])
def test_a_check_that_raises_gets_a_row_and_the_run_goes_on(
        error, status, code, actual, monkeypatch, capsys):
    def broken(k):
        raise error

    monkeypatch.setattr(checks, "edge_count_formula", broken)
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:2])
    rows, exceeded = checks.run_checks()
    assert rows[0][:4] == ("edge-count-formula", status, "", actual)
    assert rows[1][:2] == ("edge-set-k3", "pass")
    assert exceeded == (status == "skip")
    assert main(["verify"]) == code
    out = capsys.readouterr().out
    assert f"[{status.upper()}] edge-count-formula" in out
    assert out.endswith(f"1 passed, {int(status == 'fail')} failed, "
                        f"{int(status == 'skip')} skipped\n")


_GUARD = "a guard: it raises or returns None, so it changes no value"
_GRAPH = ("edge-set-k3 compares the k = 3 graph with the hand-derived EDGES_K3, "
          "and edge-count-formula every edge count with the closed form")
_PLAIN_LOOPS = ("tests/test_oracle.py::test_brute_range_equals_the_tuple_loop and "
                "::test_gwise_range_equals_the_search_loop compare both range "
                "builds with plain-Python loops that do not call it")
_TALLY = ("fast-k2-route compares the brute build, which tallies in it, with "
          "the totient route, which does not; " + _PLAIN_LOOPS)

#: package functions that two compared sides may share, each with why a
#: fault in it still fails a comparison: it computes no value, or a route
#: that does not call it is compared with one that does
TRUSTED = {
    "coprimality.Graph.__post_init__": _GUARD,
    "coprimality.CoprimalityGraph.__post_init__": _GUARD,
    "coprimality._check_local_poly": _GUARD,
    "oracle._check_int64": _GUARD,
    "oracle._check_tally": _GUARD,
    "coprimality.build_coprimality_graph": _GRAPH,
    "coprimality.expand_one_minus_x": (
        "local-poly-triple-route's edge-subset route and series-identities' "
        "tuple-count series expand nothing"),
    "exactmath.sieve": ("tests/test_exactmath.py::test_sieve_equals_the_per_n_reference "
                        "checks it against a per-n primality loop"),
    "oracle._lcm_steps": ("tests/test_oracle.py::test_lcm_steps_are_the_ratios_of_lcms "
                          "checks it against math.lcm"),
    "oracle._lcm_upto": ("tests/test_oracle.py::test_lcm_upto_is_the_lcm_and_builds_no_"
                         "shared_sieve checks it against math.lcm"),
    "oracle._Tally.__init__": _TALLY,
    "oracle._Tally.add": _TALLY,
    "oracle._Tally.columns": _TALLY,
    "oracle._bucket_adder": _TALLY,
    "oracle._pieces": _TALLY,
    "oracle._prefix_rows": _TALLY,
    "oracle._range_for": (
        "tests/test_oracle.py::test_sweeps_match_the_pinned_digest pins every "
        "sum of both sweeps, recorded from per-x passes that kept no range"),
}

PACKAGE = os.path.dirname(lcmsum.__file__) + os.sep

#: the point lists both sides of a comparison iterate; they compute no value
POINT_LISTS = (checks._sum_points, checks._multiplicity_points, checks._fast_points)


def own_code(code):
    """`code` and the code objects nested in it, such as comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from own_code(const)


def package_calls(side, monkeypatch) -> set[str]:
    """The package functions `side` calls from cold caches, as
    "module.qualname", with nested code counted as its enclosing function;
    the side's own code and the point lists are not counted."""
    for module in (coprimality, eulerprod, exactmath, oracle, polytope):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(oracle, "_RANGES", {})
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    uncounted = {code for fn in (side, *POINT_LISTS) for code in own_code(fn.__code__)}
    return {f"{os.path.basename(code.co_filename)[:-3]}."
            f"{code.co_qualname.split('.<locals>')[0]}"
            for code in codes - uncounted if code.co_filename.startswith(PACKAGE)}


def audited_calls(name, monkeypatch) -> list[list[set[str]]]:
    """Per comparison of check `name` in `checks.CHECKS`, each side's calls."""
    (check,) = [c for c in checks.CHECKS if c.name == name]
    return [[package_calls(side, monkeypatch) for side in group] for group in check.sides]


def test_compared_routes_share_only_trusted_primitives(monkeypatch):
    table = LEDGER.read_text().split("\n## Route table\n", 1)[1].split("\n## ", 1)[0]
    routes = dict(re.findall(r"^\| `([a-z0-9-]+)` \|[^|]*\| ([^|]*) \|[^|]*\|$",
                             table, re.M))
    assert list(routes) == [c.name for c in checks.CHECKS]
    # a check has sides exactly when its table row names two or more routes
    audited = [c.name for c in checks.CHECKS if c.sides]
    assert audited == [name for name, cell in routes.items()
                       if cell.startswith(("two", "three", "one route"))]
    shared_trusted = set()
    for name in audited:
        untrusted = set()
        for calls in audited_calls(name, monkeypatch):
            for a, b in itertools.combinations(calls, 2):
                shared_trusted |= a & b & TRUSTED.keys()
                untrusted |= (a & b) - TRUSTED.keys()
        assert bool(untrusted) == routes[name].startswith("one route"), \
            (name, sorted(untrusted))
    # no entry outlives the sharing it excuses
    assert shared_trusted == TRUSTED.keys()


def test_the_audit_runs_the_sides_the_check_runs(monkeypatch):
    (check,) = [c for c in checks.CHECKS if c.name == "fast-k2-route"]
    ((fast, _),) = check.sides
    (before,) = audited_calls("fast-k2-route", monkeypatch)
    # the new side also calls code of `checks` that is not its own
    swapped = dataclasses.replace(check, sides=((fast, lambda: {
        200: oracle.gwise_constrained_sum(2, 200, False), 0: checks.ism_stirling({}, {})}),))
    monkeypatch.setattr(checks, "CHECKS", (swapped,))
    (after,) = audited_calls("fast-k2-route", monkeypatch)
    assert after[0] == before[0]
    assert {"oracle.gwise_constrained_sum", "checks.ism_stirling"} <= after[1] - before[1]
    assert "oracle.brute_recip_lcm_sum" in before[1] - after[1]
