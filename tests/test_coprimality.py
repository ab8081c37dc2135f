import math
import random
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from lcmsum import reference
from lcmsum.coprimality import (
    CoprimalityGraph,
    Graph,
    _check_local_poly,
    build_coprimality_graph,
    constraint_family,
    decompose_tuple,
    edge_count_formula,
    graph_dump,
    independent_set_counts,
    is_gwise_coprime,
    local_factor_poly,
    local_factor_poly_by_edge_subsets,
    stirling_ism_counts,
)
from lcmsum.errors import InvariantViolation, ResourceLimitError


def triangle():
    return Graph(3, frozenset({(1, 2), (1, 3), (2, 3)}))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_base_graph():
    g = build_coprimality_graph(2)
    assert g.v == 3
    assert g.edges == frozenset({(1, 2)})
    assert g.constraints == (frozenset({1, 3}), frozenset({2, 3}))


def test_k3_edge_set_matches_hand_derivation():
    g = build_coprimality_graph(3)
    assert frozenset(g.edges) == reference.EDGES_K3


def test_edge_counts_vs_formula():
    for k in (2, 3, 4, 5):
        g = build_coprimality_graph(k)
        assert len(g.edges) == edge_count_formula(k)
    assert edge_count_formula(2) == 1
    assert edge_count_formula(3) == 9
    assert edge_count_formula(4) == 55
    assert edge_count_formula(5) == 16 * 33 - 243 == 285


def test_k_range_guard():
    for bad in (1, 6, 0, -3):
        with pytest.raises(ValueError):
            build_coprimality_graph(bad)
    for closed_form in (edge_count_formula, stirling_ism_counts):
        with pytest.raises(ValueError, match="at least 2"):
            closed_form(1)


def test_graph_records_refuse_bad_edges_and_vertex_counts():
    with pytest.raises(ValueError, match="bad edge"):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError, match="bad edge"):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError, match="vertex count"):
        CoprimalityGraph(v=4, edges=frozenset(), k=2)
    # a negative vertex count is refused when built, not by a later IndexError
    with pytest.raises(ValueError, match="v must be non-negative"):
        Graph(-1, frozenset())


def test_constraints_follow_from_k():
    g = build_coprimality_graph(3)
    assert CoprimalityGraph(v=7, edges=g.edges, k=3).constraints == constraint_family(3)
    with pytest.raises(TypeError, match="k"):
        CoprimalityGraph(v=7, edges=g.edges)


def test_constraint_family_shape():
    for k in (2, 3, 4):
        fam = constraint_family(k)
        assert len(fam) == k
        for a in fam:
            assert len(a) == 2 ** (k - 1)
        assert set().union(*fam) == set(range(1, 2**k))


def test_top_vertex_is_isolated():
    for k in (2, 3, 4, 5):
        g = build_coprimality_graph(k)
        assert all(g.v not in e for e in g.edges)
        star = Graph(g.v - 1, g.edges)
        assert star.v == g.v - 1 and star.edges == g.edges


def test_graph_dump_golden():
    assert graph_dump(build_coprimality_graph(2)) == (
        "k=2\nv=3\nedges=1-2\nA_1=1,3\nA_2=2,3\n"
    )
    dump3 = graph_dump(build_coprimality_graph(3))
    assert dump3.splitlines()[2] == (
        "edges=1-2,1-4,1-6,2-4,2-5,3-4,3-5,3-6,5-6"
    )
    assert dump3.splitlines()[3:] == ["A_1=1,3,5,7", "A_2=2,3,6,7", "A_3=4,5,6,7"]


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

def brute_ism(g: Graph):
    counts = [0] * (g.v + 1)
    verts = range(1, g.v + 1)
    for m in range(g.v + 1):
        for sub in combinations(verts, m):
            if all((a, b) not in g.edges for a in sub for b in sub if a < b):
                counts[m] += 1
    return tuple(counts)


def test_ism_k3_published_values():
    assert independent_set_counts(build_coprimality_graph(3)) == reference.ISM_K3


def test_ism_k2_by_enumeration():
    assert independent_set_counts(build_coprimality_graph(2)) == (1, 3, 2, 0)


def test_ism_edgeless_is_binomial():
    g = Graph(6, frozenset())
    assert independent_set_counts(g) == tuple(math.comb(6, m) for m in range(7))


def test_ism_matches_brute_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        v = rng.randint(1, 8)
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
        edges = frozenset(p for p in pairs if rng.random() < 0.4)
        g = Graph(v, edges)
        assert independent_set_counts(g) == brute_ism(g)


def test_ism_stirling_closed_form():
    assert stirling_ism_counts(2) == (1, 3, 2, 0)
    assert stirling_ism_counts(3) == (1, 7, 12, 6, 0, 0, 0, 0)
    assert stirling_ism_counts(4)[4] == 24  # S(4,4)*4!
    for k in (2, 3, 4):
        assert independent_set_counts(build_coprimality_graph(k)) == \
            stirling_ism_counts(k)


def test_ism_resource_guard():
    with pytest.raises(ResourceLimitError):
        independent_set_counts(Graph(25, frozenset()))


# ---------------------------------------------------------------------------
# local-factor polynomials
# ---------------------------------------------------------------------------

def test_local_poly_published_coefficients():
    for k in (2, 3, 4):
        g = build_coprimality_graph(k)
        assert local_factor_poly(g) == reference.LOCAL_POLY[k]


def test_local_poly_triangle_by_edge_subsets():
    assert local_factor_poly_by_edge_subsets(triangle()) == (1, 0, -3, 2)


def test_local_poly_two_routes_agree_on_small_graphs():
    for k in (2, 3):
        g = build_coprimality_graph(k)
        assert local_factor_poly(g) == local_factor_poly_by_edge_subsets(g)


def test_local_poly_two_routes_agree_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(60):
        v = rng.randint(2, 9)
        pairs = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
        rng.shuffle(pairs)
        edges = frozenset(pairs[: rng.randint(0, min(16, len(pairs)))])
        g = Graph(v, edges)
        assert local_factor_poly(g) == local_factor_poly_by_edge_subsets(g)


def test_edge_subset_budget_guard():
    g = build_coprimality_graph(4)  # 55 edges
    with pytest.raises(ResourceLimitError):
        local_factor_poly_by_edge_subsets(g)


@pytest.mark.parametrize("coeffs", [(1, 0, -2, 2), (2, 0, -3, 2), (1, 1, -3, 2)])
def test_local_poly_check_refuses_a_wrong_head(coeffs):
    # the triangle's polynomial is (1, 0, -3, 2): three edges give c_2 = -3
    _check_local_poly((1, 0, -3, 2), 3)
    with pytest.raises(InvariantViolation, match=r"expected \(1, 0, -3\)"):
        _check_local_poly(coeffs, 3)


def test_local_poly_check_survives_optimized_mode():
    # `python -O` strips assert statements, not this check
    code = ("from lcmsum.coprimality import _check_local_poly\n"
            "_check_local_poly((1, 0, -2, 2), 3)")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode != 0
    assert "InvariantViolation" in out.stderr


# ---------------------------------------------------------------------------
# tuple decomposition
# ---------------------------------------------------------------------------

def test_decompose_examples():
    assert decompose_tuple(2, (4, 6)) == (2, 3, 2)
    assert decompose_tuple(2, (9, 9)) == (1, 1, 9)
    assert decompose_tuple(3, (2, 3, 5)) == (2, 3, 1, 5, 1, 1, 1)


def check_roundtrip(k, n, g=None):
    g = g or build_coprimality_graph(k)
    parts = decompose_tuple(k, n)
    assert len(parts) == 2**k - 1
    for i, a_set in enumerate(g.constraints):
        assert math.prod(parts[j - 1] for j in a_set) == n[i]
    assert math.prod(parts) == math.lcm(*n)
    assert parts[-1] == math.gcd(*n)
    assert is_gwise_coprime(g, parts)


def test_decompose_roundtrip_exhaustive_k2():
    g = build_coprimality_graph(2)
    for a in range(1, 51):
        for b in range(1, 51):
            check_roundtrip(2, (a, b), g)


def test_decompose_roundtrip_sampled_k3():
    rng = random.Random(11)
    g = build_coprimality_graph(3)
    for _ in range(300):
        n = tuple(rng.randint(1, 50) for _ in range(3))
        check_roundtrip(3, n, g)


@given(st.tuples(st.integers(1, 400), st.integers(1, 400), st.integers(1, 400)))
def test_decompose_roundtrip_hypothesis_k3(n):
    check_roundtrip(3, n)


def test_is_gwise_coprime_examples():
    g2 = build_coprimality_graph(2)
    assert is_gwise_coprime(g2, (2, 3, 6))
    assert not is_gwise_coprime(g2, (2, 4, 1))
    g3 = build_coprimality_graph(3)
    assert is_gwise_coprime(g3, decompose_tuple(3, (12, 18, 30)))
    with pytest.raises(ValueError):
        is_gwise_coprime(g2, (1, 2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_nested_pair_can_share_a_prime(k):
    # over the tuples 2**v, v in {0, 1, 2}**k, parts J and K share the prime
    # 2 for every nested pair J < K (v = 2 on J, 1 on K \ J, 0 elsewhere), so
    # no edge can be dropped; no other pair ever shares it, as the edges require
    labels = range(1, 2**k)
    sharing = set()
    for v in product(range(3), repeat=k):
        parts = decompose_tuple(k, [2**e for e in v])
        even = [j for j in labels if parts[j - 1] % 2 == 0]
        sharing.update(combinations(even, 2))
    nested = {(j, l) for j, l in combinations(labels, 2) if j & l in (j, l)}
    assert sharing == nested
    assert build_coprimality_graph(k).edges == (
        frozenset(combinations(labels, 2)) - nested)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_tuple(2, (1, 2, 3))
    with pytest.raises(ValueError):
        decompose_tuple(2, (0, 1))
