"""Every `verify` check fails on a planted fault in one of its routes, and a
check that raises gives a fail row, or a skip row and exit 3 when it runs
out of a resource.

Each fault wraps one function a route calls, under the name the comparing
module looks it up by, so no package cache keeps a perturbed value.  The
battery is cut to the check under test, so each case costs that check's
run alone.  The route table's checks table names, per check, the cases
here that fail it, or says "one route" where no single-route fault can.
"""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from lcmsum import checks, eulerprod, polytope
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
