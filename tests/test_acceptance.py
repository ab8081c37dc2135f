"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line on success (run with -s or check the
captured output); any failure is an assertion with the offending values.
The k = 4 volumes take a few seconds on first computation and are cached
for the whole session.
"""

import math
import random

import pytest
from fractions import Fraction
from itertools import product

from lcmsum import reference
from lcmsum.coprimality import (
    Graph,
    build_coprimality_graph,
    edge_count_formula,
    independent_set_counts,
    local_factor_poly,
    local_factor_poly_by_edge_subsets,
    stirling_ism_counts,
)
from lcmsum.eulerprod import (
    coprime_density,
    lcm_count_density,
    series_identity_mismatch,
)
from lcmsum.oracle import (
    brute_recip_lcm_sum,
    brute_recip_lcm_sum_coprime,
    fast_recip_lcm_sum2,
    gwise_constrained_sum,
    lcm_multiplicity,
    leading_constants,
)
from lcmsum.polytope import build_polytope, ieqs_rows, volume_of


def report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS ({detail})")


def test_criterion_1_polytope_volumes_exact():
    # the eleven published volumes, read from the one copy in `reference`
    assert len(reference.VOLUMES) == 11
    for (kind, k), want in reference.VOLUMES.items():
        got = volume_of(kind, k)
        assert got == want, (kind, k, str(got), str(want))
    report(1, f"{len(reference.VOLUMES)} exact volumes, k=2..4")


def test_criterion_2_euler_products():
    r3 = coprime_density(build_coprimality_graph(3))
    assert abs(float(r3.value) - reference.RHO_K3) <= 5e-8, float(r3.value)
    assert r3.abs_error <= Fraction(5, 10**9), float(r3.abs_error)

    r2 = coprime_density(build_coprimality_graph(2))
    assert abs(float(r2.value) - 6 / math.pi**2) <= 1e-10

    alt3 = lcm_count_density(3)
    assert abs(r3.value - alt3.value) <= r3.abs_error + alt3.abs_error
    report(2, f"density(k=3) = {float(r3.value):.10f} "
              f"+- {float(r3.abs_error):.1e}")


def test_criterion_3_leading_constants():
    lc2 = leading_constants(2)
    lc3 = leading_constants(3)
    lc4 = leading_constants(4)

    assert abs(float(lc3.c.value) - reference.C_K3) <= 5e-8, float(lc3.c.value)
    assert abs(float(lc2.c.value) - 2 / math.pi**2) <= 1e-10
    for lc, k in ((lc2, 2), (lc3, 3), (lc4, 4)):
        assert lc.c2.value / lc.c.value == 2**k - 1, k
        assert lc.c2.abs_error / lc.c.abs_error == 2**k - 1, k
    assert lc2.c.strictly_greater(lc3.c)
    assert lc3.c.strictly_greater(lc4.c)
    assert lc3.theta1 == Fraction(1, 14)
    assert lc3.theta2 == Fraction(3, 40)
    report(3, f"c(k=3) = {float(lc3.c.value):.10f}; ordering certified")


def test_criterion_4_graph_structure():
    for k in (2, 3, 4):
        g = build_coprimality_graph(k)
        assert len(g.edges) == edge_count_formula(k) \
            == 2 ** (k - 1) * (2**k + 1) - 3**k
        assert independent_set_counts(g) == stirling_ism_counts(k)
        assert local_factor_poly(g) == reference.LOCAL_POLY[k], k
    assert independent_set_counts(build_coprimality_graph(3)) == \
        (1, 7, 12, 6, 0, 0, 0, 0)
    report(4, "edge counts, independent-set counts, polynomial coefficients")


def test_criterion_5_identity_suites():
    # two polynomial routes on the named graphs and 200 random graphs
    for k in (2, 3):
        g = build_coprimality_graph(k)
        assert local_factor_poly(g) == local_factor_poly_by_edge_subsets(g)
    rng = random.Random(20260810)
    for trial in range(200):
        v = rng.randint(2, 8)
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
        rng.shuffle(pairs)
        g = Graph(v, frozenset(pairs[: rng.randint(0, min(18, len(pairs)))]))
        assert local_factor_poly(g) == local_factor_poly_by_edge_subsets(g), trial

    for k in (2, 3, 4):
        assert series_identity_mismatch(k, 30) is None, k

    for x in range(1, 201):
        assert gwise_constrained_sum(2, x) == brute_recip_lcm_sum(2, x), x
        assert gwise_constrained_sum(2, x, True) == \
            brute_recip_lcm_sum_coprime(2, x), x
    for x in range(1, 31):
        assert gwise_constrained_sum(3, x) == brute_recip_lcm_sum(3, x), x
        assert gwise_constrained_sum(3, x, True) == \
            brute_recip_lcm_sum_coprime(3, x), x

    for k in (2, 3):
        for n in range(1, 201):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            brute = sum(1 for t in product(divs, repeat=k)
                        if math.lcm(*t) == n)
            assert lcm_multiplicity(k, n) == brute, (k, n)

    # totient-formula route vs brute: dense to 100, spot checks to the
    # contract's upper end
    for x in list(range(1, 101)) + [250, 500, 1000]:
        assert fast_recip_lcm_sum2(x) == brute_recip_lcm_sum(2, x), x
    report(5, "polynomial routes, series identities, decomposition, "
              "multiplicities, fast-route equality")


def _growth_ratio(x):
    s = fast_recip_lcm_sum2(x)
    val = float(s.value) if hasattr(s, "value") else float(s)
    return val / math.log(x) ** 3


def test_criterion_6_growth_trend_monotone():
    target = 2 / math.pi**2
    r_small, r_big = _growth_ratio(10**3), _growth_ratio(10**6)
    assert abs(r_big - target) < abs(r_small - target)
    report(6, f"|r(1e6) - c| = {abs(r_big - target):.4f} < "
              f"|r(1e3) - c| = {abs(r_small - target):.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="the stated window r(1e6) in [0.7, 1.3]*(2/pi^2) is unreachable:"
           " the sum's secondary term is ~5.4/ln(x) relative, so"
           " r(1e6)/c = 1.405 (cross-checked by an independent Mobius-route"
           " evaluation agreeing to 3e-14).  Entering the window needs"
           " x >~ 1e8, past the fast route's own 1e7 domain."
           "  See notes/decisions ledger.",
)
def test_criterion_6_growth_window_as_stated():
    target = 2 / math.pi**2
    r_big = _growth_ratio(10**6)
    print(f"ACCEPTANCE 6 (window clause): r(1e6) = {r_big:.6f} = "
          f"{r_big / target:.4f} * (2/pi^2)")
    assert 0.7 * target <= r_big <= 1.3 * target


def test_criterion_7_worksheet_interop():
    for (kind, k), want in reference.IEQS.items():
        got = ieqs_rows(build_polytope(kind, k))
        assert got == want, (kind, k)
    report(7, "inequality matrices row-for-row for "
              "D_star/D_star3 at k=3 and k=4")
