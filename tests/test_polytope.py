import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lcmsum import polytope, reference
from lcmsum.errors import PeriodDetectionError, ResourceLimitError
from lcmsum.polytope import (
    BYTES_PER_STATE,
    STATE_BUDGET,
    EhrhartSamples,
    HyperbolicPolytope,
    build_polytope,
    ehrhart_data,
    ehrhart_volume,
    export_ieqs,
    ieqs_rows,
    lattice_counts,
    volume_of,
    volume_relations_check,
)


def brute_lattice_count(p: HyperbolicPolytope, n: int, interior: bool = False) -> int:
    """Points t >= 0 with every constraint sum <= n; with `interior`, points
    strictly inside the n-dilate: t >= 1 and every constraint sum <= n - 1."""
    lo, hi = (1, n - 1) if interior else (0, n)
    count = 0
    for t in product(range(lo, hi + 1), repeat=p.dim):
        if all(sum(t[j] for j in a) <= hi for a in p.constraints):
            count += 1
    return count


ALL_KINDS_K = [(kind, k) for kind in ("D", "D_star", "D_star2", "D_star3", "T")
               for k in (2, 3)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_dimensions():
    for k in (2, 3, 4):
        v = 2**k - 1
        assert build_polytope("D", k).dim == v
        assert build_polytope("D_star", k).dim == v - 1
        assert build_polytope("D_star2", k).dim == v - k
        assert build_polytope("D_star3", k).dim == v - k - 1
        assert build_polytope("T", k).dim == v


def test_build_d3_constraints():
    p = build_polytope("D", 3)
    assert p.dim == 7
    assert len(p.constraints) == 3
    assert all(len(a) == 4 for a in p.constraints)


def test_build_t3_single_constraint():
    p = build_polytope("T", 3)
    assert p.dim == 7
    assert p.constraints == (frozenset(range(7)),)


def test_build_d_star3_k3_pairwise_sums():
    p = build_polytope("D_star3", 3)
    assert p.dim == 3
    assert set(p.constraints) == {
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})
    }


def test_build_guards():
    with pytest.raises(ValueError):
        build_polytope("D", 5)
    with pytest.raises(ValueError):
        build_polytope("Z", 3)
    with pytest.raises(ValueError):
        HyperbolicPolytope(dim=2, constraints=(frozenset({0}),))  # coord 1 unbounded


# ---------------------------------------------------------------------------
# lattice counts
# ---------------------------------------------------------------------------

def test_lattice_count_examples():
    d2 = build_polytope("D", 2)
    assert lattice_counts(d2, [1])[0] == 5
    t2 = build_polytope("T", 2)
    for n in range(6):
        assert lattice_counts(t2, [n])[0] == math.comb(n + 3, 3)
    for kind, k in ALL_KINDS_K:
        assert lattice_counts(build_polytope(kind, k), [0])[0] == 1


def test_lattice_count_against_enumeration():
    for kind, k in ALL_KINDS_K:
        p = build_polytope(kind, k)
        if p.dim > 7:
            continue
        for n in range(5):
            assert lattice_counts(p, [n])[0] == brute_lattice_count(p, n), \
                (kind, k, n)


def test_interior_counts_against_enumeration():
    ns = list(range(6))
    for kind, k in ALL_KINDS_K:
        p = build_polytope(kind, k)
        if p.dim > 7:
            continue
        closed = [brute_lattice_count(p, n) for n in ns]
        inner = [brute_lattice_count(p, n, interior=True) for n in ns]
        assert lattice_counts(p, [], interior=ns) == inner, (kind, k)
        assert lattice_counts(p, ns, interior=ns) == closed + inner, (kind, k)


@pytest.mark.parametrize("constraints", [
    ({0, 1, 2}, {2}),
    ({0, 1}, {0}, {1}, {0, 1, 2}),
    ({0, 1, 2, 3}, {1, 3}, {3}),
])
def test_counts_on_constraints_of_unequal_size(constraints):
    # the DP finishes axis 0 first, though a later, smaller constraint has
    # fewer coordinates; in the second family no coordinate has axis 1 or 2
    # as its lowest constraint, so those axes finish with no step of their own
    dim = max(max(a) for a in constraints) + 1
    p = HyperbolicPolytope(dim, tuple(frozenset(a) for a in constraints))
    ns = list(range(6))
    closed = [brute_lattice_count(p, n) for n in ns]
    inner = [brute_lattice_count(p, n, interior=True) for n in ns]
    assert lattice_counts(p, ns, interior=ns) == closed + inner


def test_reciprocity_matches_closed_fit():
    # the polynomial through the closed samples at 0, P, ..., dim*P, taken at
    # -jP, is (-1)**dim times the interior count of the jP-dilate
    p = build_polytope("D", 3)
    period, d = ehrhart_data(p)[1].period, p.dim
    ys = lattice_counts(p, [i * period for i in range(d + 1)])

    def fit(x):
        total = Fraction(0)
        for i, y in enumerate(ys):
            term = Fraction(y)
            for j in range(d + 1):
                if j != i:
                    term *= Fraction(x - j, i - j)
            total += term
        return total

    js = range(1, 7)
    inner = lattice_counts(p, [], interior=[j * period for j in js])
    assert inner[-1] > 0
    assert [(-1) ** d * c for c in inner] == [fit(-j) for j in js]


def test_accepted_periods_k3():
    # D and D_star have period-2 counts, so the period-1 candidate must fail
    got = {kind: ehrhart_data(build_polytope(kind, 3))[1].period
           for kind in ("D", "D_star", "T")}
    assert got == {"D": 2, "D_star": 2, "T": 1}


def test_period_detection_error_carries_both_halves(monkeypatch):
    monkeypatch.setattr(polytope, "PERIOD_CANDIDATES", (1,))
    with pytest.raises(PeriodDetectionError) as info:
        ehrhart_data(build_polytope("D", 3))
    samples = info.value.samples
    assert samples.period == 1 and not samples.stabilized
    assert len(samples.counts) + len(samples.interior_counts) == 7 + 3
    assert samples.interior_dilates == tuple(range(1, len(samples.interior_counts) + 1))


def test_k4_sample_plan_halves_the_largest_budget():
    # plan only, no DP: D_4 at period 6 needed dilate 102 with closed samples
    p = build_polytope("D", 4)
    ns, inner = polytope._sample_window(p, 6)
    assert len(ns) + len(inner) == p.dim + 3
    assert max(ns) <= 48
    budgets = polytope._budgets(p, ns, inner)
    assert max(max(b) for b in budgets) <= 48
    assert 49 ** len(p.constraints) * BYTES_PER_STATE <= STATE_BUDGET


def test_lattice_counts_empty():
    assert lattice_counts(build_polytope("D", 3), []) == []


@pytest.mark.parametrize("cap, bound, primes", [
    # (cap, bound) pairs the k = 2..4 volumes ask for, and two wider ones
    (1073741822, 8, [1073741789]),
    (715827881, 2187, [715827881]),
    (214748363, 10**10, [214748357, 214748353]),
    (59652322, 3656158440062976, [59652319, 59652301, 59652289]),
    (58040097, 177917621779460413, [58040093, 58040089, 58040083]),
    (10**9, 10**30, [999999937, 999999929, 999999893, 999999883]),
    (44000000, 10**40, [43999999, 43999981, 43999957, 43999913, 43999903,
                        43999889]),
])
def test_crt_primes_are_the_largest_primes_below_the_cap(cap, bound, primes):
    assert polytope._crt_primes(cap, bound) == primes


# sha256 of every (ns, interior, counts) that `ehrhart_data` asks
# `lattice_counts` for, kind by kind in KINDS order, over every period it
# tries; recorded from the int32 DP with a full `%` pass per coordinate
EHRHART_COUNT_DIGESTS = {
    2: "ffd35c8b6a2315b5c93d6f4e22ce7abc38ba7f56939d6e4b86d1fd4ea4b45b9f",
    3: "f8552b65f3504655b2dbb8f24ac6e025f9a82d1fb2cf766d7547f6053d5250e2",
    4: "05d1ff2e5d48cd87c463d612672107eed13aacd6655738958d7c67a18113f9f3",
}


@pytest.mark.parametrize("k", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_ehrhart_counts_pinned(monkeypatch, k):
    calls = []

    def recording(p, ns, interior=()):
        out = lattice_counts(p, ns, interior)
        calls.append((tuple(ns), tuple(interior), tuple(out)))
        return out

    monkeypatch.setattr(polytope, "lattice_counts", recording)
    for kind in polytope.KINDS:
        calls.append(kind)
        ehrhart_data(build_polytope(kind, k))
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == EHRHART_COUNT_DIGESTS[k]


@pytest.mark.parametrize("kind", ["D", "D_star", "D_star2"])
def test_counts_mod_wraps_at_tiny_primes_and_the_cap(kind):
    # residues reduced by a conditional subtraction must equal the exact
    # counts mod m both when nearly every step reduces (m = 2..7) and at
    # the largest prime the uint32 lanes allow
    p = build_polytope(kind, 3)
    ns = range(5)
    budgets = polytope._budgets(p, ns, range(1, 7))
    live = [b for b in budgets if min(b) >= 0]
    exact = ([brute_lattice_count(p, n) for n in ns]
             + [brute_lattice_count(p, n, interior=True)
                for n, b in zip(range(1, 7), budgets[len(ns):]) if min(b) >= 0])
    memberships = [tuple(c for c, a in enumerate(p.constraints) if j in a)
                   for j in range(p.dim)]
    for m in (2, 3, 5, 7, polytope.PRIME_CAP):
        got = polytope._counts_mod(memberships, live, m)
        assert got == [c % m for c in exact], (kind, m)


def _prefix_reference(table, axes, m):
    # the same hyperplane recurrence on a dict of Python ints
    a0, rest = axes[0], axes[1:]
    out = dict(table)
    for idx in range(1, max(i[a0] for i in out) + 1):
        for i in sorted(out):
            if i[a0] != idx or any(i[ax] == 0 for ax in rest):
                continue
            j = list(i)
            j[a0] -= 1
            for ax in rest:
                j[ax] -= 1
            out[i] = (out[i] + out[tuple(j)]) % m
    return out


@pytest.mark.parametrize("shape, axes", [
    ((6,), (0,)), ((5, 4), (0,)), ((5, 4), (1,)), ((5, 4), (0, 1)),
    ((4, 3, 5), (2, 0)), ((4, 3, 5), (1, 0, 2)),
])
def test_prefix_at_the_cap_matches_python_ints(shape, axes):
    m = polytope.PRIME_CAP
    arr = np.full(shape, m - 1, dtype=np.uint32)
    arr.flat[::3] = m - 2
    want = _prefix_reference(
        {i: int(v) for i, v in np.ndenumerate(arr)}, axes, m)
    polytope._prefix(arr, axes, m)
    assert arr.dtype == np.uint32
    assert {i: int(v) for i, v in np.ndenumerate(arr)} == want


def test_k4_period6_dp_crt_prime_counts(monkeypatch):
    # primes up to 2**31 - 1: three cover the D and D_star bounds, two D_star2
    calls = []

    def counting(memberships, budgets, m):
        calls.append(m)
        return [0] * len(budgets)

    monkeypatch.setattr(polytope, "_counts_mod", counting)
    got = {}
    for kind in ("D", "D_star", "D_star2"):
        p = build_polytope(kind, 4)
        calls.clear()
        lattice_counts(p, *polytope._sample_window(p, 6))
        got[kind] = len(calls)
    assert got == {"D": 3, "D_star": 3, "D_star2": 2}


def test_lattice_counts_batch_consistency():
    p = build_polytope("D", 3)
    ns = [0, 3, 1, 3, 7]
    batch = lattice_counts(p, ns)
    assert batch == [lattice_counts(p, [n])[0] for n in ns]


def test_lattice_count_zero_dim():
    p = build_polytope("D_star3", 2)
    assert p.dim == 0
    assert lattice_counts(p, [10])[0] == 1
    assert ehrhart_volume(p) == 1


def test_lattice_count_state_budget():
    p = build_polytope("D", 4)
    with pytest.raises(ResourceLimitError):
        lattice_counts(p, [10**6])


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def test_volumes_k_le_3_published():
    for (kind, k), want in reference.VOLUMES.items():
        if k <= 3:
            assert volume_of(kind, k) == want, (kind, k)


def test_simplex_volumes():
    for k in (2, 3):
        assert volume_of("T", k) == Fraction(1, math.factorial(2**k - 1))


def test_volume_relations_k_le_3():
    for k in (2, 3):
        rep = volume_relations_check(k)
        assert rep.ok, rep.failures()
    rep3 = volume_relations_check(3)
    got = {r.name: (r.lhs, r.rhs) for r in rep3.relations}
    assert got["vol(D) == vol(D_star)/(2**k-1)"] == (
        Fraction(11, 3360), Fraction(11, 480) / 7)
    assert got["vol(D_star2) == vol(D_star3)/(2**k-k-1)"] == (
        Fraction(1, 16), Fraction(1, 4) / 4)


def test_volume_monotonic_in_k():
    # vol(D_{k+1}) <= vol(D_k) / (2**k)!
    assert volume_of("D", 3) <= volume_of("D", 2) / math.factorial(4)


def test_volume_containment():
    for k in (2, 3):
        assert volume_of("T", k) <= volume_of("D", k) <= 1


def test_ehrhart_samples_invariants():
    vol, samples = ehrhart_data(build_polytope("D", 2))
    assert vol == Fraction(1, 3)
    assert samples.stabilized
    assert samples.counts[0] == 1
    assert list(samples.counts) == sorted(samples.counts)
    with pytest.raises(ValueError):
        EhrhartSamples(1, (2, 3), True)
    with pytest.raises(ValueError):
        EhrhartSamples(1, (1, 0), True)


def test_ehrhart_samples_interior_invariants():
    _, samples = ehrhart_data(build_polytope("D", 3))
    m = len(samples.interior_counts)
    assert m > 0
    assert samples.interior_dilates == tuple(samples.period * j for j in range(1, m + 1))
    assert len(samples.counts) + m == 7 + 3
    assert list(samples.interior_counts) == sorted(samples.interior_counts)
    with pytest.raises(ValueError):
        EhrhartSamples(1, (1, 2), True, (1, 2), (1, 0))
    with pytest.raises(ValueError):
        EhrhartSamples(1, (1, 2), True, (1,), (-1,))
    with pytest.raises(ValueError):
        EhrhartSamples(1, (1, 2), True, (1,), ())
    with pytest.raises(ValueError):
        EhrhartSamples(1, (1, 2), True, (2, 1), (0, 0))


def test_volume_invariant_under_coordinate_permutation():
    base = build_polytope("D", 3)
    perm = [3, 0, 6, 1, 5, 2, 4]
    cons = tuple(frozenset(perm[j] for j in a) for a in base.constraints)
    shuffled = HyperbolicPolytope(dim=base.dim, constraints=cons)
    assert ehrhart_volume(shuffled) == volume_of("D", 3)
    reordered = HyperbolicPolytope(dim=base.dim,
                                   constraints=tuple(reversed(base.constraints)))
    assert ehrhart_volume(reordered) == volume_of("D", 3)


def test_volume_of_product_factorizes():
    # D_2 x T_2: disjoint constraint blocks multiply volumes
    d2 = build_polytope("D", 2)
    cons = tuple(d2.constraints) + (frozenset({3, 4, 5}),)
    combined = HyperbolicPolytope(dim=6, constraints=cons)
    assert ehrhart_volume(combined) == volume_of("D", 2) * Fraction(1, 6)


# ---------------------------------------------------------------------------
# k = 4 (the heavy family; values cached for the acceptance run)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_volumes_k4_published():
    assert volume_of("D_star3", 4) == Fraction(299 * 11, 479001600)
    assert volume_of("D_star2", 4) == Fraction(299, 479001600)
    assert volume_of("D_star", 4) == Fraction(739, 25830604800)
    assert volume_of("D", 4) == Fraction(739, 387459072000)
    assert volume_of("T", 4) == Fraction(1, math.factorial(15))
    assert volume_relations_check(4).ok
    assert volume_of("D", 4) <= volume_of("D", 3) / math.factorial(8)


# ---------------------------------------------------------------------------
# inequality-matrix export
# ---------------------------------------------------------------------------

def test_ieqs_rows_golden():
    for (kind, k), want in reference.IEQS.items():
        assert ieqs_rows(build_polytope(kind, k)) == want, (kind, k)


def test_ieqs_t2():
    rows = ieqs_rows(build_polytope("T", 2))
    assert rows[0] == [1, -1, -1, -1]
    assert rows[1:] == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_export_text_format():
    text = export_ieqs(build_polytope("D_star", 3))
    lines = text.splitlines()
    assert lines[0] == "P=Polyhedron(ieqs=["
    assert lines[1] == "[1, -1, 0, -1, 0, -1, 0],"
    assert lines[-1] == "P.volume()"
    assert lines[-2].endswith("]])")
