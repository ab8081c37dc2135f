"""The `verify` battery: one ordered table of checks.

Each check compares routes to one object (graph against closed form,
gwise against brute) or a value against its published one in
`reference`.  The count polynomial equals the graph's: one Euler product.
A check takes no arguments and returns (ok, expected, actual, tolerance),
the last three as display strings.  `CHECKS` fixes the order in which
`run_checks` runs them and `lcmsum verify` reports them.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import product
from typing import Callable

from . import reference
from .coprimality import (build_coprimality_graph, edge_count_formula,
                          independent_set_counts, local_factor_poly,
                          local_factor_poly_by_edge_subsets, stirling_ism_counts)
from .errors import ResourceLimitError
from .eulerprod import (coprime_density, count_density_poly, lcm_count_density,
                        series_identity_mismatch)
from .oracle import (brute_recip_lcm_sum, brute_recip_lcm_sum_coprime,
                     fast_recip_lcm_sum2, gwise_constrained_sum, lcm_multiplicity,
                     lcm_multiplicity_table, leading_constants)
from .polytope import build_polytope, ieqs_rows, volume_of, volume_relations_check

CheckOutcome = tuple[bool, str, str, str]


def edge_counts() -> CheckOutcome:
    ks = sorted(reference.EDGE_COUNTS)
    published = [reference.EDGE_COUNTS[k] for k in ks]
    built = [len(build_coprimality_graph(k).edges) for k in ks]
    formula = [edge_count_formula(k) for k in ks]
    return built == formula == published, str(published), str(built), "exact"


def edge_set_k3() -> CheckOutcome:
    got = frozenset(build_coprimality_graph(3).edges)
    return (got == reference.EDGES_K3, str(sorted(reference.EDGES_K3)),
            str(sorted(got)), "exact")


def ism_stirling() -> CheckOutcome:
    ok = all(
        independent_set_counts(build_coprimality_graph(k)) == stirling_ism_counts(k)
        for k in (2, 3, 4)
    )
    return ok, "enumerated == stirling for k=2,3,4", str(ok), "exact"


def ism_k3() -> CheckOutcome:
    got = independent_set_counts(build_coprimality_graph(3))
    return got == reference.ISM_K3, str(reference.ISM_K3), str(got), "exact"


def qpoly_triple() -> CheckOutcome:
    for k in (2, 3):
        g = build_coprimality_graph(k)
        a = local_factor_poly(g)
        b = local_factor_poly_by_edge_subsets(g)
        c = count_density_poly(k)
        if not (a == b == c == reference.LOCAL_POLY[k]):
            return False, str(reference.LOCAL_POLY[k]), f"{a} / {b} / {c}", "exact"
    g4 = local_factor_poly(build_coprimality_graph(4))
    ok = g4 == count_density_poly(4) == reference.LOCAL_POLY[4]
    return ok, str(reference.LOCAL_POLY[4]), str(g4), "exact"


def series_identities() -> CheckOutcome:
    ok = all(series_identity_mismatch(k, 30) is None for k in (2, 3, 4))
    return ok, "identities hold to degree 30 for k=2,3,4", str(ok), "exact"


def _published_volumes(ks: tuple[int, ...], label: str) -> CheckOutcome:
    bad = [(kind, k, str(got))
           for (kind, k), want in sorted(reference.VOLUMES.items())
           if k in ks and (got := volume_of(kind, k)) != want]
    return not bad, f"published volumes, {label}", str(bad or "all match"), "exact"


def volumes_k_le_3() -> CheckOutcome:
    return _published_volumes((2, 3), "k<=3")


def volumes_k4() -> CheckOutcome:
    return _published_volumes((4,), "k=4")


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


def rho_vs_count_route() -> CheckOutcome:
    for k in (2, 3, 4):
        a = coprime_density(build_coprimality_graph(k))
        b = lcm_count_density(k)
        if not a.intersects(b):
            return False, "two routes intersect", f"k={k}: {a!r} vs {b!r}", "combined bounds"
    return True, "two routes intersect for k=2,3,4", "all intersect", "combined bounds"


def decomposition_battery() -> CheckOutcome:
    routes = ((False, brute_recip_lcm_sum, "plain"),
              (True, brute_recip_lcm_sum_coprime, "gcd1"))
    for k, top in ((2, 200), (3, 30)):
        for x in range(1, top + 1):
            for pinned, brute, label in routes:
                if gwise_constrained_sum(k, x, pinned) != brute(k, x):
                    return False, "equal sums", f"k={k} x={x} {label}", "exact"
    return True, "constrained == brute (k=2 x<=200, k=3 x<=30)", "all equal", "exact"


def alpha_battery() -> CheckOutcome:
    for k in (2, 3):
        for n in range(1, 201):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            count = sum(math.lcm(*t) == n for t in product(divs, repeat=k))
            if count != lcm_multiplicity(k, n):
                return False, "formula == brute count", f"k={k} n={n}", "exact"
        if lcm_multiplicity_table(k, 60)[1] > brute_recip_lcm_sum(k, 60):
            return False, "alpha_sum <= recip sum", f"k={k}", "exact"
    return True, "multiplicity formula vs brute, n<=200", "all equal", "exact"


def fast_route_k2() -> CheckOutcome:
    # x = 1000 first: its brute range then answers every smaller x
    for x in [1000] + list(range(1, 101)) + [250, 500]:
        if fast_recip_lcm_sum2(x) != brute_recip_lcm_sum(2, x):
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


CHECKS: tuple[tuple[str, Callable[[], CheckOutcome]], ...] = (
    ("edge-count-formula", edge_counts),
    ("edge-set-k3", edge_set_k3),
    ("ism-vs-stirling", ism_stirling),
    ("ism-k3-values", ism_k3),
    ("local-poly-triple-route", qpoly_triple),
    ("series-identities", series_identities),
    ("volumes-k-le-3", volumes_k_le_3),
    ("volume-relations", volume_relations),
    ("worksheet-ieqs", ieqs_goldens),
    ("density-k2", rho_g2),
    ("density-k3", rho_g3),
    ("density-two-routes", rho_vs_count_route),
    ("decomposition-identity", decomposition_battery),
    ("lcm-multiplicity", alpha_battery),
    ("fast-k2-route", fast_route_k2),
    ("volumes-k4", volumes_k4),
    ("leading-constants", constants_battery),
)

#: the fields of one report row, in order
FIELDS = ("check_name", "status", "expected", "actual", "tolerance", "runtime_ms")


def run_checks(budget: int | None = None) -> tuple[list[tuple], bool]:
    """Run `CHECKS` in order; return the report rows (see `FIELDS`) and
    whether a budget ran out.

    Once `budget` wall seconds have passed, the remaining checks are
    skipped.  A check that raises ResourceLimitError is skipped; any other
    exception fails that check without stopping the run.
    """
    started = time.monotonic()
    rows = []
    exceeded = False
    for name, check in CHECKS:
        if budget is not None and time.monotonic() - started > budget:
            rows.append((name, "skip", "", "wall budget exceeded", "", 0))
            exceeded = True
            continue
        t0 = time.monotonic()
        try:
            ok, expected, actual, tol = check()
            status = "pass" if ok else "fail"
        except ResourceLimitError as exc:
            status, expected, actual, tol = "skip", "", f"resource limit: {exc}", ""
            exceeded = True
        except Exception as exc:  # a failing check must not kill the report
            status, expected, actual, tol = "fail", "", f"{type(exc).__name__}: {exc}", ""
        rows.append((name, status, expected, actual, tol,
                     int((time.monotonic() - t0) * 1000)))
    return rows, exceeded
