"""Every `verify` check fails on a planted fault in one of its routes, and a
check that raises gives a fail row, or a skip row and exit 3 when it runs
out of a resource.

Each fault wraps one function a route calls, under the name the comparing
module looks it up by, so no package cache keeps a perturbed value.  The
battery is cut to the check under test, so each case costs that check's
run alone.  The route table's checks table names, per check, the cases
here that fail it, or says "one route" where no single-route fault can.

The route audit runs each side of every check that compares routes, from
cold package caches, and collects the package functions it calls; two
sides may share only the trusted primitives listed here, or the route
table marks the check "one route".
"""

import dataclasses
import itertools
import os
import re
import sys
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
    monkeypatch.setattr(checks, "CHECKS", tuple(c for c in checks.CHECKS if c[0] == check))
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
    assert list(last_cells) == [name for name, _ in checks.CHECKS]
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


def graph_q(ks):
    return [coprimality.local_factor_poly(coprimality.build_coprimality_graph(k))
            for k in ks]


#: per check that compares routes, the groups of sides it compares: each
#: side makes the package calls of one route as the check makes them, and
#: None stands for the check's own loop, which calls nothing in the
#: package.  density-two-routes runs k = 3 only: each k calls the same
#: functions, and k = 4 would double the audit's time.
ROUTE_SIDES = {
    "edge-count-formula": [(
        lambda: [len(coprimality.build_coprimality_graph(k).edges) for k in (2, 3, 4)],
        lambda: [coprimality.edge_count_formula(k) for k in (2, 3, 4)])],
    "ism-vs-stirling": [(
        lambda: [coprimality.independent_set_counts(coprimality.build_coprimality_graph(k))
                 for k in (2, 3, 4)],
        lambda: [coprimality.stirling_ism_counts(k) for k in (2, 3, 4)])],
    "local-poly-triple-route": [(
        lambda: graph_q((2, 3, 4)),
        lambda: [coprimality.local_factor_poly_by_edge_subsets(
            coprimality.build_coprimality_graph(k)) for k in (2, 3)],
        lambda: [eulerprod.count_density_poly(k) for k in (2, 3, 4)])],
    # the graph's Q against the tuple-count series (a loop of the check's
    # own) and against the Stirling form
    "series-identities": [(
        lambda: graph_q((2, 3, 4)),
        None,
        lambda: [coprimality.expand_one_minus_x(coprimality.stirling_ism_counts(k),
                                                2**k - 1) for k in (2, 3, 4)])],
    "density-two-routes": [(
        lambda: eulerprod.coprime_density(coprimality.build_coprimality_graph(3)),
        lambda: eulerprod.lcm_count_density(3))],
    # each range answers every x below its top
    "decomposition-identity": [(
        lambda: [oracle.gwise_constrained_sum(k, x, pinned)
                 for k, x in ((2, 200), (3, 30)) for pinned in (False, True)],
        lambda: [sum_(k, x) for k, x in ((2, 200), (3, 30))
                 for sum_ in (oracle.brute_recip_lcm_sum,
                              oracle.brute_recip_lcm_sum_coprime)])],
    # the formula against a divisor-tuple count, and the alpha sum against S
    "lcm-multiplicity": [
        (lambda: [oracle.lcm_multiplicity(k, n) for k in (2, 3) for n in range(1, 201)],
         None),
        (lambda: [oracle.lcm_multiplicity_table(k, 60) for k in (2, 3)],
         lambda: [oracle.brute_recip_lcm_sum(k, 60) for k in (2, 3)])],
    "fast-k2-route": [(lambda: oracle.fast_recip_lcm_sum2(1000),
                       lambda: oracle.brute_recip_lcm_sum(2, 1000))],
}

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


def package_calls(side, monkeypatch) -> set[str]:
    """The package functions `side` calls from cold caches, as
    "module.qualname", with nested code counted as its enclosing function."""
    if side is None:
        return set()
    for module in (coprimality, eulerprod, exactmath, oracle, polytope):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(oracle, "_RANGES", {})
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            module = os.path.basename(code.co_filename)[:-3]
            seen.add(f"{module}.{code.co_qualname.split('.<locals>')[0]}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    return seen


def test_compared_routes_share_only_trusted_primitives(monkeypatch):
    table = LEDGER.read_text().split("\n## Route table\n", 1)[1].split("\n## ", 1)[0]
    routes = dict(re.findall(r"^\| `([a-z0-9-]+)` \|[^|]*\| ([^|]*) \|[^|]*\|$",
                             table, re.M))
    assert list(routes) == [name for name, _ in checks.CHECKS]
    # every check whose table row names two or more routes is audited
    assert set(ROUTE_SIDES) == {name for name, cell in routes.items()
                                if cell.startswith(("two", "three", "one route"))}
    shared_trusted = set()
    for name, groups in ROUTE_SIDES.items():
        untrusted = set()
        for sides in groups:
            calls = [package_calls(side, monkeypatch) for side in sides]
            for a, b in itertools.combinations(calls, 2):
                shared_trusted |= a & b & TRUSTED.keys()
                untrusted |= (a & b) - TRUSTED.keys()
        assert bool(untrusted) == routes[name].startswith("one route"), \
            (name, sorted(untrusted))
    # no entry outlives the sharing it excuses
    assert shared_trusted == TRUSTED.keys()
