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
    export_ieqs,
    ieqs_rows,
    lattice_counts,
    period_bounds,
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

UNEQUAL_FAMILIES = [
    ({0, 1, 2}, {2}),
    ({0, 1}, {0}, {1}, {0, 1, 2}),
    ({0, 1, 2, 3}, {1, 3}, {3}),
]


def family_polytope(constraints) -> HyperbolicPolytope:
    dim = max(max(a) for a in constraints) + 1
    return HyperbolicPolytope(dim, tuple(frozenset(a) for a in constraints))


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
    with pytest.raises(ValueError, match="exceeds"):
        HyperbolicPolytope(polytope.MAX_DIM + 1, (frozenset(range(polytope.MAX_DIM + 1)),))
    with pytest.raises(ValueError, match="empty constraint set"):
        HyperbolicPolytope(2, (frozenset({0, 1}), frozenset()))
    with pytest.raises(ValueError, match="out of range"):
        HyperbolicPolytope(2, (frozenset({0, 2}),))
    with pytest.raises(ValueError, match="between 2 and 4"):
        volume_relations_check(5)


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


@pytest.mark.parametrize("constraints", UNEQUAL_FAMILIES)
def test_counts_on_constraints_of_unequal_size(constraints):
    # the DP finishes axis 0 first, though a later, smaller constraint has
    # fewer coordinates; in the second family no coordinate has axis 1 or 2
    # as its lowest constraint, so those axes finish with no step of their own
    p = family_polytope(constraints)
    ns = list(range(6))
    closed = [brute_lattice_count(p, n) for n in ns]
    inner = [brute_lattice_count(p, n, interior=True) for n in ns]
    assert lattice_counts(p, ns, interior=ns) == closed + inner


def test_reciprocity_matches_closed_fit():
    # the polynomial through the closed samples at 0, P, ..., dim*P, taken at
    # -jP, is (-1)**dim times the interior count of the jP-dilate; every
    # coefficient's period divides P = D_0
    p = build_polytope("D", 3)
    period, d = ehrhart_data(p)[1].bounds[0], p.dim
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
    # D and D_star have a period-2 constant term (vertices with coordinate
    # 1/2), every other coefficient and all of T has period 1
    got = {kind: ehrhart_data(build_polytope(kind, 3))[1].bounds
           for kind in ("D", "D_star", "T")}
    assert got == {"D": (2,) + (1,) * 6, "D_star": (2,) + (1,) * 5, "T": (1,) * 7}


def test_period_detection_error_carries_both_halves(monkeypatch):
    # the true period of c_0 for D_3 is 2, so all-ones bounds are too small
    monkeypatch.setattr(polytope, "period_bounds", lambda p: (1,) * p.dim)
    with pytest.raises(PeriodDetectionError, match=r"\(1, 1, 1, 1, 1, 1, 1\)") as info:
        ehrhart_data(build_polytope("D", 3))
    samples = info.value.samples
    assert samples.bounds == (1,) * 7
    m = len(samples.interior_counts)
    assert len(samples.counts) + m == 7 + 3
    assert samples.interior_counts == tuple(
        lattice_counts(build_polytope("D", 3), [], interior=range(1, m + 1)))


def test_a_volume_that_is_not_positive_is_refused(monkeypatch):
    # a bounded full-dimensional polytope has a positive volume, so only a
    # faulty extraction reaches this
    monkeypatch.setattr(polytope, "leading_coeff_by_differences",
                        lambda points, degree, steps: Fraction(0))
    with pytest.raises(PeriodDetectionError, match="degenerate leading coefficient 0"):
        ehrhart_data(build_polytope("D", 2))


@pytest.mark.parametrize("kind, k, bounds", [
    ("D_star", 3, (1,) * 6),          # c_0 has period 2
    ("D", 4, (2,) * 15),              # c_0 has period 6
    ("D", 4, (6,) + (1,) * 14),       # c_1 has period 2, one even step
    ("D_star2", 4, (6, 2, 2) + (1,) * 8),  # c_3 has period 2
])
def test_too_small_bounds_never_return_a_volume(monkeypatch, kind, k, bounds):
    p = build_polytope(kind, k)
    assert len(bounds) == p.dim
    # somewhere below the certified bound
    assert any(b % a for a, b in zip(period_bounds(p), bounds))
    monkeypatch.setattr(polytope, "period_bounds", lambda _: bounds)
    with pytest.raises(PeriodDetectionError) as info:
        ehrhart_data(p)
    assert info.value.samples.bounds == bounds
    assert str(bounds) in str(info.value)


def test_k4_sample_plan_halves_the_largest_budget():
    # plan only, no DP: D_4 at period 6 needed dilate 102 with closed samples
    # and 48 split across both sides; the certified bounds need 9
    p = build_polytope("D", 4)
    bounds = period_bounds(p)
    assert bounds == (6, 2, 2, 2, 2) + (1,) * 10
    ns, inner = polytope._sample_window(p, bounds)
    assert len(ns) + len(inner) == sum(bounds) + 3 == 27
    assert ns == list(range(len(ns))) and inner == list(range(1, len(inner) + 1))
    budgets = polytope._budgets(p, ns, inner)
    assert max(max(b) for b in budgets) <= 9
    assert 10 ** len(p.constraints) * BYTES_PER_STATE <= STATE_BUDGET


def rref(rows):
    """Reduced row echelon form over Q and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(len(a[0])):
        i = len(pivots)
        piv = next((r for r in range(i, len(a)) if a[r][j]), None)
        if piv is None:
            continue
        a[i], a[piv] = a[piv], a[i]
        a[i] = [x / a[i][j] for x in a[i]]
        for r in range(len(a)):
            if r != i and a[r][j]:
                f = a[r][j]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
        pivots.append(j)
    return a, pivots


def least_multiple_by_fractions(types):
    """Least D with D * 1 in the integer span of `types`, by one rational
    elimination of [types | 1]: its pivot columns are a rational basis B,
    and every other column holds its coordinates in B.  In those
    coordinates the lattice is Z^r plus the types' coordinates, so D * 1 is
    in it exactly when D * c mod 1 lies in the group they generate mod 1."""
    m = len(types[0])
    a, pivots = rref([[t[i] for t in types] + [1] for i in range(m)])
    if pivots and pivots[-1] == len(types):
        return None  # 1 is not in the rational span
    coords = [tuple(a[i][j] % 1 for i in range(len(pivots)))
              for j in range(len(types) + 1)]
    c, gens = coords[-1], coords[:-1]
    zero = (Fraction(0),) * len(pivots)
    group, frontier = {zero}, [zero]
    while frontier:
        g = frontier.pop()
        for h in gens:
            s = tuple((x + y) % 1 for x, y in zip(g, h))
            if s not in group:
                group.add(s)
                frontier.append(s)
    d = 1
    while tuple(d * x % 1 for x in c) not in group:
        d += 1
    return d


def test_least_multiple_agrees_with_fraction_solve():
    # every (I, type set) the bound search visits on the k = 4 families;
    # the least D depends on the type set alone
    seen = {}
    for kind in polytope.KINDS:
        for types, d, _ in polytope._subspace_classes(build_polytope(kind, 4)):
            assert seen.setdefault(types, d) == d
    assert len(seen) > 1000
    assert {d for d in seen.values()} == {None, 1, 2, 3}
    for types, d in seen.items():
        assert least_multiple_by_fractions(types) == d, types


def fitted_periods(p, modulus=6):
    """Periods of c_0..c_dim fitted from exact counts at every dilate up to
    modulus * (dim + 2) - 1: one polynomial in n per residue class, checked
    on one more sample of its class, so modulus is a period of the counts."""
    d = p.dim
    counts = lattice_counts(p, range(modulus * (d + 2)))
    coeffs = []
    for r in range(modulus):
        ns = [r + modulus * j for j in range(d + 2)]
        a, _ = rref([[n ** i for i in range(d + 1)] + [counts[n]] for n in ns[:-1]])
        cs = [row[-1] for row in a]
        assert sum(c * ns[-1] ** i for i, c in enumerate(cs)) == counts[ns[-1]]
        coeffs.append(cs)
    return [min(q for q in range(1, modulus + 1) if modulus % q == 0
                and all(coeffs[r][i] == coeffs[(r + q) % modulus][i]
                        for r in range(modulus)))
            for i in range(d + 1)]


@pytest.mark.parametrize("p", [build_polytope(kind, k) for kind, k in ALL_KINDS_K]
                         + [family_polytope(c) for c in UNEQUAL_FAMILIES])
def test_period_bounds_are_multiples_of_fitted_periods(p):
    bounds = period_bounds(p)
    assert len(bounds) == p.dim
    periods = fitted_periods(p)
    assert periods[p.dim] == 1
    assert all(b % q == 0 for b, q in zip(bounds, periods)), (bounds, periods)
    assert all(a % b == 0 for a, b in zip(bounds, bounds[1:]))


def test_lattice_counts_empty():
    assert lattice_counts(build_polytope("D", 3), []) == []


def test_lattice_counts_guards():
    with pytest.raises(ValueError, match="non-negative"):
        lattice_counts(build_polytope("D", 2), [1], interior=[-1])
    cube = HyperbolicPolytope(5, tuple(frozenset({i}) for i in range(5)))
    with pytest.raises(ValueError, match="at most 4 constraints"):
        lattice_counts(cube, [1])


def period_trial_window(p, period):
    # the sample plan of the period-trial extraction: closed dilates
    # 0, P, ..., bP and interior dilates P, ..., aP with a + b = dim + 2, a
    # minimising the largest budget and preferring fewer interior samples
    last = p.dim + 2
    smallest = min(len(a) for a in p.constraints)
    a = min(range(last + 1), key=lambda a: (
        max((last - a) * period, a * period - 1 - smallest), a))
    return ([j * period for j in range(last - a + 1)],
            [j * period for j in range(1, a + 1)])


#: the period the trial extraction accepted, after trying every smaller one
#: of 1, 2, 6; D_star3 at k = 2 has dimension 0 and was never counted
TRIAL_PERIODS = {
    2: {"D": 1, "D_star": 1, "D_star2": 1, "T": 1},
    3: {"D": 2, "D_star": 2, "D_star2": 2, "D_star3": 2, "T": 1},
    4: {"D": 6, "D_star": 6, "D_star2": 6, "D_star3": 6, "T": 1},
}

# sha256 of every (ns, interior, counts) the period-trial extraction asked
# `lattice_counts` for, kind by kind in KINDS order, over every period it
# tried; recorded from the int32 DP with a full `%` pass per coordinate.
# The calls are made directly at those dilates, so the DP at the large
# budgets of period 6 stays pinned.
EHRHART_COUNT_DIGESTS = {
    2: "ffd35c8b6a2315b5c93d6f4e22ce7abc38ba7f56939d6e4b86d1fd4ea4b45b9f",
    3: "f8552b65f3504655b2dbb8f24ac6e025f9a82d1fb2cf766d7547f6053d5250e2",
    4: "05d1ff2e5d48cd87c463d612672107eed13aacd6655738958d7c67a18113f9f3",
}


@pytest.mark.parametrize("k", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_ehrhart_counts_pinned(k):
    calls = []
    for kind in polytope.KINDS:
        calls.append(kind)
        p = build_polytope(kind, k)
        if kind not in TRIAL_PERIODS[k]:
            continue
        for period in (1, 2, 6):
            if period > TRIAL_PERIODS[k][kind]:
                break
            ns, inner = period_trial_window(p, period)
            out = lattice_counts(p, ns, inner)
            calls.append((tuple(ns), tuple(inner), tuple(out)))
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == EHRHART_COUNT_DIGESTS[k]


# sha256 of the bounds and every (ns, interior, counts) that `ehrhart_data`
# asks `lattice_counts` for, kind by kind in KINDS order
CERTIFIED_COUNT_DIGESTS = {
    2: "dcff1216bdb6402c8205e6575a1c9225fc9a1c00d1be0a878b8d9259ff5a84d0",
    3: "20e470ac22fa88641d43e62fc693919518a09a3d9d8cbe7c3072b79dbda88ce9",
    4: "b12a478179203bad3b954e0c7c6e4bdb133ab1990f6a7d03ed90335ccf27614c",
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_certified_plan_counts_pinned(monkeypatch, k):
    calls = []

    def recording(p, ns, interior=()):
        out = lattice_counts(p, ns, interior)
        calls.append((tuple(ns), tuple(interior), tuple(out)))
        return out

    monkeypatch.setattr(polytope, "lattice_counts", recording)
    for kind in polytope.KINDS:
        calls.append(kind)
        calls.append(ehrhart_data(build_polytope(kind, k))[1].bounds)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == CERTIFIED_COUNT_DIGESTS[k]


def _prefix_reference(table, axes):
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
            out[i] += out[tuple(j)]
    return out


@pytest.mark.parametrize("shape, axes", [
    ((6,), (0,)), ((5, 4), (0,)), ((5, 4), (1,)), ((5, 4), (0, 1)),
    ((4, 3, 5), (2, 0)), ((4, 3, 5), (1, 0, 2)),
])
def test_prefix_at_the_cap_matches_python_ints(shape, axes):
    # entries just under the guard: the largest times the axis length is
    # below 2**63, and the sums reach past 2**62 without wrapping
    top = (2**63 - 1) // shape[axes[0]]
    arr = np.full(shape, top, dtype=np.int64)
    arr.flat[::3] = top - 1
    want = _prefix_reference({i: int(v) for i, v in np.ndenumerate(arr)}, axes)
    polytope._prefix(arr, axes)
    assert arr.dtype == np.int64
    assert {i: int(v) for i, v in np.ndenumerate(arr)} == want
    assert 2**62 < max(want.values()) < 2**63
    # one more on a single entry and the step is refused, the table untouched
    over = np.full(shape, top, dtype=np.int64)
    over.flat[-1] = top + 1
    with pytest.raises(ResourceLimitError, match="int64"):
        polytope._prefix(over, axes)
    assert (over == top).sum() == over.size - 1


def test_counts_past_int64_raise_and_are_never_wrapped():
    # T_4 counts C(n + 15, 15) in 16 prefix steps along one axis; the last
    # sums entries up to C(n + 14, 14), n + 1 of them
    p = build_polytope("T", 4)
    inside = max(n for n in range(200)
                 if math.comb(n + 14, 14) * (n + 1) < 2**63)
    assert math.comb(inside + 15, 15) > 2**58
    assert lattice_counts(p, [inside, 3]) == [math.comb(inside + 15, 15),
                                              math.comb(18, 15)]
    assert math.comb(200 + 15, 15) > 2**74
    for n in (inside + 1, 200):
        with pytest.raises(ResourceLimitError, match="int64"):
            lattice_counts(p, [3, n])


def test_one_dp_pass_per_lattice_counts_call(monkeypatch):
    # one table serves every sample of a call: each coordinate takes one
    # prefix step and each axis one more, once
    steps = []
    prefix = polytope._prefix

    def recording(arr, axes):
        steps.append(tuple(axes))
        prefix(arr, axes)

    monkeypatch.setattr(polytope, "_prefix", recording)
    for kind in polytope.KINDS:
        p = build_polytope(kind, 4)
        ns, inner = polytope._sample_window(p, period_bounds(p))
        steps.clear()
        lattice_counts(p, ns, inner)
        memberships = [tuple(c for c, a in enumerate(p.constraints) if j in a)
                       for j in range(p.dim)]
        assert sorted(steps) == sorted(
            memberships + [(c,) for c in range(len(p.constraints))]), kind


def test_lattice_counts_batch_consistency():
    p = build_polytope("D", 3)
    ns = [0, 3, 1, 3, 7]
    batch = lattice_counts(p, ns)
    assert batch == [lattice_counts(p, [n])[0] for n in ns]


def test_lattice_count_zero_dim():
    p = build_polytope("D_star3", 2)
    assert p.dim == 0
    assert lattice_counts(p, [10])[0] == 1
    assert ehrhart_data(p)[0] == 1


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
        for name, lhs, rhs in volume_relations_check(k):
            assert lhs == rhs, name
    got = {name: (lhs, rhs) for name, lhs, rhs in volume_relations_check(3)}
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
    assert samples.counts[0] == 1
    assert list(samples.counts) == sorted(samples.counts)
    with pytest.raises(ValueError):
        EhrhartSamples((1,), (2, 3))
    with pytest.raises(ValueError):
        EhrhartSamples((1,), (1, 0))
    with pytest.raises(ValueError):
        EhrhartSamples((0,), (1, 2))
    with pytest.raises(ValueError):
        EhrhartSamples((2, 3), (1, 2))  # 3 does not divide 2


def test_ehrhart_samples_interior_invariants():
    p = build_polytope("D", 3)
    _, samples = ehrhart_data(p)
    m = len(samples.interior_counts)
    assert m > 0
    assert samples.interior_counts == tuple(
        lattice_counts(p, [], interior=range(1, m + 1)))
    assert len(samples.counts) + m == sum(samples.bounds) + 3 == 8 + 3
    assert list(samples.interior_counts) == sorted(samples.interior_counts)
    with pytest.raises(ValueError):
        EhrhartSamples((1,), (1, 2), (1, 0))
    with pytest.raises(ValueError):
        EhrhartSamples((1,), (1, 2), (-1,))


def test_volume_invariant_under_coordinate_permutation():
    base = build_polytope("D", 3)
    perm = [3, 0, 6, 1, 5, 2, 4]
    cons = tuple(frozenset(perm[j] for j in a) for a in base.constraints)
    shuffled = HyperbolicPolytope(dim=base.dim, constraints=cons)
    assert ehrhart_data(shuffled)[0] == volume_of("D", 3)
    reordered = HyperbolicPolytope(dim=base.dim,
                                   constraints=tuple(reversed(base.constraints)))
    assert ehrhart_data(reordered)[0] == volume_of("D", 3)


def test_volume_of_product_factorizes():
    # D_2 x T_2: disjoint constraint blocks multiply volumes
    d2 = build_polytope("D", 2)
    cons = tuple(d2.constraints) + (frozenset({3, 4, 5}),)
    combined = HyperbolicPolytope(dim=6, constraints=cons)
    assert ehrhart_data(combined)[0] == volume_of("D", 2) * Fraction(1, 6)


# ---------------------------------------------------------------------------
# k = 4 (the heavy family; values cached for the acceptance run)
# ---------------------------------------------------------------------------

def test_volumes_k4_published():
    assert volume_of("D_star3", 4) == Fraction(299 * 11, 479001600)
    assert volume_of("D_star2", 4) == Fraction(299, 479001600)
    assert volume_of("D_star", 4) == Fraction(739, 25830604800)
    assert volume_of("D", 4) == Fraction(739, 387459072000)
    assert volume_of("T", 4) == Fraction(1, math.factorial(15))
    assert all(lhs == rhs for _, lhs, rhs in volume_relations_check(4))
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
