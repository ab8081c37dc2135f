"""The `verify` battery: one ordered table of check records.

Each check compares routes to one object (graph against closed form,
gwise against brute) or a value against its published one in
`reference`.  The count polynomial equals the graph's: one Euler product.
A `Check`'s sides take no arguments and each run one route, returning its
values keyed by point; its comparator takes their results in order and
returns (ok, expected, actual, tolerance), the last three as display
strings, and fails a point that one side has and another lacks.  A check
against a published value has no sides.  The route audit of
`tests/test_checks.py` runs these sides.  `CHECKS` fixes the order in which
`run_checks` runs them and `lcmsum verify` reports them.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from . import reference
from .coprimality import (build_coprimality_graph, edge_count_formula,
                          independent_set_counts, local_factor_poly,
                          local_factor_poly_by_edge_subsets, stirling_ism_counts)
from .errors import ResourceLimitError
from .eulerprod import (coprime_density, count_density_poly, lcm_count_density,
                        q_by_counts, q_by_graph, q_by_stirling)
from .oracle import (brute_recip_lcm_sum, brute_recip_lcm_sum_coprime,
                     fast_recip_lcm_sum2, gwise_constrained_sum, lcm_multiplicity,
                     lcm_multiplicity_table, leading_constants)
from .polytope import build_polytope, ieqs_rows, volume_of, volume_relations_check

CheckOutcome = tuple[bool, str, str, str]


@dataclass(frozen=True)
class Check:
    """A check: its sides, one tuple per comparison, and its comparator."""
    name: str
    sides: tuple[tuple[Callable[[], object], ...], ...]
    compare: Callable[..., CheckOutcome]


def _first_difference(a: dict, b: dict, agree: Callable[[object, object], bool]):
    """The first point, in order, at which routes `a` and `b` disagree or
    only one of them has a value; None if they agree at every point."""
    return next((p for p in sorted(a.keys() | b.keys())
                 if p not in a or p not in b or not agree(a[p], b[p])), None)


def edge_counts(built, formula) -> CheckOutcome:
    published = reference.EDGE_COUNTS
    return (built == formula == published, str(list(published.values())),
            str(list(built.values())), "exact")


def edge_set_k3() -> CheckOutcome:
    got = frozenset(build_coprimality_graph(3).edges)
    return (got == reference.EDGES_K3, str(sorted(reference.EDGES_K3)),
            str(sorted(got)), "exact")


def ism_stirling(enumerated, stirling) -> CheckOutcome:
    ok = enumerated == stirling
    return ok, "enumerated == stirling for k=2,3,4", str(ok), "exact"


def ism_k3() -> CheckOutcome:
    got = independent_set_counts(build_coprimality_graph(3))
    return got == reference.ISM_K3, str(reference.ISM_K3), str(got), "exact"


def qpoly_triple(by_sets, by_edges, by_count) -> CheckOutcome:
    want = reference.LOCAL_POLY
    # the edge-subset route runs at k = 2, 3 only
    if by_sets == by_count == want and by_edges == {k: want[k] for k in (2, 3)}:
        return True, str(want[4]), str(by_sets[4]), "exact"
    return False, str(want), f"{by_sets} / {by_edges} / {by_count}", "exact"


def series_identities(by_graph, by_counts, by_stirling) -> CheckOutcome:
    ok = by_graph == by_counts == by_stirling
    return ok, "identities hold to degree 30 for k=2,3,4", str(ok), "exact"


def _published_volumes(ks: tuple[int, ...], label: str) -> CheckOutcome:
    bad = [(kind, k, str(got))
           for (kind, k), want in sorted(reference.VOLUMES.items())
           if k in ks and (got := volume_of(kind, k)) != want]
    return not bad, f"published volumes, {label}", str(bad or "all match"), "exact"


def volume_relations() -> CheckOutcome:
    failed = {k: [f"{name} fails: {lhs} != {rhs}"
                  for name, lhs, rhs in volume_relations_check(k) if lhs != rhs]
              for k in (2, 3, 4)}
    detail = "; ".join(f"k={k}:" + (", ".join(bad) or "ok")
                       for k, bad in failed.items())
    return not any(failed.values()), "cone relations for k=2,3,4", detail, "exact"


def ieqs_goldens() -> CheckOutcome:
    bad = [(kind, k) for (kind, k), want in sorted(reference.IEQS.items())
           if ieqs_rows(build_polytope(kind, k)) != want]
    return not bad, "worksheet matrices row-for-row", str(bad or "all match"), "exact"


def rho_g2() -> CheckOutcome:
    val = coprime_density(build_coprimality_graph(2))
    diff = abs(float(val.value) - 6 / math.pi**2)
    return diff <= 1e-10, "6/pi^2", f"{float(val.value)!r} (diff {diff:.2e})", "1e-10"


def rho_g3() -> CheckOutcome:
    val = coprime_density(build_coprimality_graph(3))
    diff = abs(float(val.value) - reference.RHO_K3)
    ok = diff <= 5e-8 and val.abs_error <= Fraction(5, 10**9)
    return ok, f"{reference.RHO_K3} within 5e-8, certified 5e-9", \
        f"{float(val.value)!r} +- {float(val.abs_error):.1e}", "5e-8 / 5e-9"


def rho_vs_count_route(by_graph, by_count) -> CheckOutcome:
    k = _first_difference(by_graph, by_count, lambda a, b: a.intersects(b))
    if k is not None:
        return (False, "two routes intersect",
                f"k={k}: {by_graph.get(k)!r} vs {by_count.get(k)!r}", "combined bounds")
    return True, "two routes intersect for k=2,3,4", "all intersect", "combined bounds"


def _sum_points() -> list[tuple[int, int, bool]]:
    return [(k, x, pinned) for k, top in ((2, 200), (3, 30))
            for x in range(1, top + 1) for pinned in (False, True)]


def decomposition_battery(gwise, brute) -> CheckOutcome:
    point = _first_difference(gwise, brute, operator.eq)
    if point is not None:
        k, x, pinned = point
        label = "gcd1" if pinned else "plain"
        return False, "equal sums", f"k={k} x={x} {label}", "exact"
    return True, "constrained == brute (k=2 x<=200, k=3 x<=30)", "all equal", "exact"


def _multiplicity_points() -> list[tuple[int, int]]:
    return [(k, n) for k in (2, 3) for n in range(1, 201)]


def _tuple_multiplicities() -> dict[tuple[int, int], int]:
    """alpha(k, n) as the count of k-tuples of divisors of n with lcm n."""
    counts = {}
    for k, n in _multiplicity_points():
        divs = [d for d in range(1, n + 1) if n % d == 0]
        counts[k, n] = sum(math.lcm(*t) == n for t in product(divs, repeat=k))
    return counts


def alpha_battery(formula, brute, alpha_sums, recip_sums) -> CheckOutcome:
    point = _first_difference(formula, brute, operator.eq)
    if point is not None:
        k, n = point
        return False, "formula == brute count", f"k={k} n={n}", "exact"
    k = _first_difference(alpha_sums, recip_sums, operator.le)
    if k is not None:
        return False, "alpha_sum <= recip sum", f"k={k}", "exact"
    return True, "multiplicity formula vs brute, n<=200", "all equal", "exact"


def _fast_points() -> list[int]:
    # x = 1000 first: its brute range then answers every smaller x
    return [1000, *range(1, 101), 250, 500]


def fast_route_k2(fast, brute) -> CheckOutcome:
    x = _first_difference(fast, brute, operator.eq)
    if x is not None:
        return False, "fast == brute", f"x={x}", "exact"
    return True, "totient route == brute (x<=100 dense, spot to 1000)", "all equal", "exact"


def constants_battery() -> CheckOutcome:
    lc2, lc3, lc4 = (leading_constants(k) for k in (2, 3, 4))
    checks = [
        abs(float(lc3.c.value) - reference.C_K3) <= 5e-8,
        abs(float(lc2.c.value) - 2 / math.pi**2) <= 1e-10,
        lc3.c2.value / lc3.c.value == 7,
        lc2.c.strictly_greater(lc3.c) and lc3.c.strictly_greater(lc4.c),
        lc3.theta1 == Fraction(1, 14) and lc3.theta2 == Fraction(3, 40),
    ]
    return all(checks), "constants: values, ratios, ordering, exponents", \
        str(checks), "see docs"


# Sides name the package functions through this module's globals, so a
# fault planted there reaches both the run and the audit.
CHECKS: tuple[Check, ...] = (
    Check("edge-count-formula", ((
        lambda: {k: len(build_coprimality_graph(k).edges) for k in (2, 3, 4)},
        lambda: {k: edge_count_formula(k) for k in (2, 3, 4)}),), edge_counts),
    Check("edge-set-k3", (), edge_set_k3),
    Check("ism-vs-stirling", ((
        lambda: {k: independent_set_counts(build_coprimality_graph(k)) for k in (2, 3, 4)},
        lambda: {k: stirling_ism_counts(k) for k in (2, 3, 4)}),), ism_stirling),
    Check("ism-k3-values", (), ism_k3),
    Check("local-poly-triple-route", ((
        lambda: {k: local_factor_poly(build_coprimality_graph(k)) for k in (2, 3, 4)},
        lambda: {k: local_factor_poly_by_edge_subsets(build_coprimality_graph(k))
                 for k in (2, 3)},
        lambda: {k: count_density_poly(k) for k in (2, 3, 4)}),), qpoly_triple),
    Check("series-identities", ((
        lambda: {k: q_by_graph(k, 30) for k in (2, 3, 4)},
        lambda: {k: q_by_counts(k, 30) for k in (2, 3, 4)},
        lambda: {k: q_by_stirling(k, 30) for k in (2, 3, 4)}),), series_identities),
    Check("volumes-k-le-3", (), lambda: _published_volumes((2, 3), "k<=3")),
    Check("volume-relations", (), volume_relations),
    Check("worksheet-ieqs", (), ieqs_goldens),
    Check("density-k2", (), rho_g2),
    Check("density-k3", (), rho_g3),
    Check("density-two-routes", ((
        lambda: {k: coprime_density(build_coprimality_graph(k)) for k in (2, 3, 4)},
        lambda: {k: lcm_count_density(k) for k in (2, 3, 4)}),), rho_vs_count_route),
    Check("decomposition-identity", ((
        lambda: {p: gwise_constrained_sum(*p) for p in _sum_points()},
        lambda: {(k, x, pinned): (brute_recip_lcm_sum_coprime if pinned
                                  else brute_recip_lcm_sum)(k, x)
                 for k, x, pinned in _sum_points()}),), decomposition_battery),
    # the formula against a divisor-tuple count, and the alpha sum against S
    Check("lcm-multiplicity", (
        (lambda: {p: lcm_multiplicity(*p) for p in _multiplicity_points()},
         _tuple_multiplicities),
        (lambda: {k: lcm_multiplicity_table(k, 60)[1] for k in (2, 3)},
         lambda: {k: brute_recip_lcm_sum(k, 60) for k in (2, 3)})), alpha_battery),
    Check("fast-k2-route", ((
        lambda: {x: fast_recip_lcm_sum2(x) for x in _fast_points()},
        lambda: {x: brute_recip_lcm_sum(2, x) for x in _fast_points()}),), fast_route_k2),
    Check("volumes-k4", (), lambda: _published_volumes((4,), "k=4")),
    Check("leading-constants", (), constants_battery),
)

#: the fields of one report row, in order
FIELDS = ("check_name", "status", "expected", "actual", "tolerance", "runtime_ms")


def run_checks(budget: int | None = None) -> tuple[list[tuple], bool]:
    """Run `CHECKS` in order, each its sides then its comparator; return the
    report rows (see `FIELDS`) and whether a budget ran out.

    Once `budget` wall seconds have passed, the remaining checks are
    skipped.  A check that raises ResourceLimitError is skipped; any other
    exception fails that check without stopping the run.
    """
    started = time.monotonic()
    rows = []
    exceeded = False
    for check in CHECKS:
        if budget is not None and time.monotonic() - started > budget:
            rows.append((check.name, "skip", "", "wall budget exceeded", "", 0))
            exceeded = True
            continue
        t0 = time.monotonic()
        try:
            values = [side() for group in check.sides for side in group]
            ok, expected, actual, tol = check.compare(*values)
            status = "pass" if ok else "fail"
        except ResourceLimitError as exc:
            status, expected, actual, tol = "skip", "", f"resource limit: {exc}", ""
            exceeded = True
        except Exception as exc:  # a failing check must not kill the report
            status, expected, actual, tol = "fail", "", f"{type(exc).__name__}: {exc}", ""
        rows.append((check.name, status, expected, actual, tol,
                     int((time.monotonic() - t0) * 1000)))
    return rows, exceeded
