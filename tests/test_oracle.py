import dataclasses
import functools
import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lcmsum import eulerprod, exactmath, oracle
from lcmsum.errors import InvariantViolation, ResourceLimitError
from lcmsum.exactmath import BoundedReal
from lcmsum.oracle import (
    brute_prod_over_lcm_sum,
    brute_recip_lcm_sum,
    brute_recip_lcm_sum_coprime,
    brute_sums,
    convergence_report,
    fast_recip_lcm_sum2,
    gwise_constrained_sum,
    gwise_sum_with_count,
    lcm_multiplicity,
    lcm_multiplicity_table,
    leading_constants,
    theta_exponents,
)


def raw_sum(k, x, weight):
    total = Fraction(0)
    for t in product(range(1, x + 1), repeat=k):
        total += weight(t)
    return total


# ---------------------------------------------------------------------------
# brute sums
# ---------------------------------------------------------------------------

def test_brute_recip_examples():
    assert brute_recip_lcm_sum(2, 1) == 1
    assert brute_recip_lcm_sum(2, 2) == Fraction(5, 2)
    assert brute_recip_lcm_sum(3, 2) == Fraction(9, 2)


def test_brute_coprime_examples():
    assert brute_recip_lcm_sum_coprime(2, 2) == 2
    assert brute_recip_lcm_sum_coprime(3, 1) == 1
    assert brute_recip_lcm_sum_coprime(2, 3) == 3


def test_brute_prod_examples():
    assert brute_prod_over_lcm_sum(2, 2) == 5
    assert brute_prod_over_lcm_sum(2, 1) == 1
    # sum of gcd(a, b) over a, b <= 3
    assert brute_prod_over_lcm_sum(2, 3) == 12


def test_brute_sums_against_raw_enumeration():
    # the symmetry-reduced implementations vs plain full enumeration
    for k, x in ((2, 9), (3, 5)):
        assert brute_recip_lcm_sum(k, x) == raw_sum(
            k, x, lambda t: Fraction(1, math.lcm(*t)))
        assert brute_recip_lcm_sum_coprime(k, x) == raw_sum(
            k, x, lambda t: Fraction(1, math.lcm(*t)) if math.gcd(*t) == 1 else 0)
        assert brute_prod_over_lcm_sum(k, x) == raw_sum(
            k, x, lambda t: Fraction(math.prod(t), math.lcm(*t)))
        # the pass's counts: every raw tuple once, then the gcd-1 ones
        brute = brute_sums(k, x)
        assert brute.tuples == x**k == raw_sum(k, x, lambda t: 1)
        assert brute.coprime_tuples == raw_sum(
            k, x, lambda t: 1 if math.gcd(*t) == 1 else 0)


def test_brute_order_relations():
    for k, x in ((2, 20), (3, 8)):
        s = brute_recip_lcm_sum(k, x)
        u = brute_recip_lcm_sum_coprime(k, x)
        a = lcm_multiplicity_table(k, x)[1]
        assert u <= s
        assert a <= s


def test_brute_budget_guard():
    with pytest.raises(ResourceLimitError):
        brute_recip_lcm_sum(3, 10**4)
    # 3**(10**9) has 1.6 * 10**9 bits; 2**k alone passes the budget, so the
    # refusal comes before x**k is formed
    with pytest.raises(ResourceLimitError):
        brute_sums(10**9, 3)
    # the edge where k is one below the budget's bits: 2**6 tuples, budget 64
    assert brute_sums(6, 2, budget=64).tuples == 64
    with pytest.raises(ResourceLimitError):
        brute_sums(6, 2, budget=63)


def test_brute_budget_guard_holds_for_a_cached_pass():
    # the budget is checked before the cache, so a pass computed under the
    # default budget is still refused under a smaller one
    brute_sums(3, 10)
    with pytest.raises(ResourceLimitError):
        brute_sums(3, 10, budget=999)
    assert brute_sums(3, 10, budget=1000) == brute_sums(3, 10)


def test_brute_rebuild_at_twice_the_range_only_within_the_budget(monkeypatch):
    # an x past the kept range rebuilds it at 2X when (2X)**k fits the
    # caller's budget, else at x itself
    monkeypatch.setattr(oracle, "_RANGES", {})
    brute_sums(2, 10)
    brute_sums(2, 11, budget=121)
    assert oracle._RANGES[("brute", 2)].top == 11
    brute_sums(2, 12)
    assert oracle._RANGES[("brute", 2)].top == 22


def test_brute_sums_at_x1_answer_any_k():
    # one all-ones tuple; the range build would recurse k deep
    ones = oracle.BruteSums(Fraction(1), Fraction(1), Fraction(1), 1, 1)
    assert brute_sums(10**4, 1) == ones


@pytest.mark.parametrize("k", [0, -1])
def test_brute_sums_reject_nonpositive_k(k):
    # k = 0 would otherwise sum over the empty tuple and report 1
    with pytest.raises(ValueError):
        brute_sums(k, 5)


# ---------------------------------------------------------------------------
# fast k = 2 route
# ---------------------------------------------------------------------------

def test_fast_route_trivia():
    assert fast_recip_lcm_sum2(1) == 1
    assert fast_recip_lcm_sum2(2) == Fraction(5, 2)


def test_fast_route_equals_brute_exactly():
    # 143..145 and 168..170 straddle perfect squares, where the floor-quotient
    # blocks change from length one to longer runs of d
    for x in list(range(1, 60)) + [100, 143, 144, 145, 168, 169, 170, 1000]:
        assert fast_recip_lcm_sum2(x) == brute_recip_lcm_sum(2, x), x


def reference_exact_s2(x):
    # the per-term Python-int route that binary splitting replaced: h at
    # scale s = lcm(1..x), the block weights at scale t = s^2, so the loop
    # sums at s^4
    phi = reference_phi_sieve(x)
    qs, ends = [], [x]
    while ends[-1]:
        qs.append(x // ends[-1])
        ends.append(x // (qs[-1] + 1))
    s = math.lcm(*range(1, x + 1))
    t = s * s
    harmonic = [0, *itertools.accumulate(s // m for m in range(1, x + 1))]
    hs = [harmonic[q] for q in qs]
    weights = list(itertools.accumulate(
        (int(p) * t // (d * d) for d, p in enumerate(phi[1:], 1)), initial=0))
    lo = sum(h * h * (weights[d_hi] - weights[d_lo])
             for h, d_hi, d_lo in zip(hs, ends, ends[1:]))
    return Fraction(lo, s * s * t)


def test_fast_route_exact_equals_the_per_term_route():
    # every x up to 600, and x on either side of perfect squares r^2, where
    # the split between blocks with q <= r and q > r moves; then x where a
    # block end or q = x//d lands on a prime power (2^11, 3^7, 2^12), where
    # the running lcm scales step
    xs = [*range(1, 601), 10**4]
    xs += [x for r in (2, 3, 10, 31, 99)
           for x in (r * r - 1, r * r, r * r + r, (r + 1) ** 2 - 1)]
    xs += [2048, 2187, 4096]
    for x in xs:
        assert fast_recip_lcm_sum2(x) == reference_exact_s2(x), x


def test_lcm_steps_are_the_ratios_of_lcms():
    # step(a, b) = lcm(1..b) // lcm(1..a), the factor by which the exact
    # branch's running scales grow
    x = 200
    step = oracle._lcm_steps(x)
    lcm = list(itertools.accumulate(range(1, x + 1), math.lcm, initial=1))
    for a in range(x + 1):
        for b in range(a, x + 1):
            assert step(a, b) * lcm[a] == lcm[b], (a, b)
    assert oracle._lcm_steps(1)(0, 1) == 1
    # `_lcm_upto` reads the same prime-power list: the steps of the list up
    # to each b, b = 0 and 1 included, carry lcm(1..a) to lcm(1..b)
    upto = [oracle._lcm_upto.__wrapped__(b) for b in range(x + 1)]
    for b in range(x + 1):
        step = oracle._lcm_steps(b)
        for a in range(b + 1):
            assert upto[a] * step(a, b) == upto[b], (a, b)


def test_lcm_upto_is_the_lcm_and_builds_no_shared_sieve():
    from lcmsum.exactmath import shared_sieve

    info = shared_sieve.cache_info()
    lcm = 1
    for x in range(2001):
        lcm = math.lcm(lcm, max(x, 1))  # lcm(1..x); 1 for x = 0
        assert oracle._lcm_upto.__wrapped__(x) == lcm, x
    oracle._lcm_upto.cache_clear()
    oracle._lcm_upto(2000)
    assert shared_sieve.cache_info() == info


def test_fast_route_enclosure_branch(monkeypatch):
    # above the exact threshold the result is an enclosure of the true sum
    import lcmsum.oracle as oracle

    x = 10**4 + 37
    enc = fast_recip_lcm_sum2(x)
    assert isinstance(enc, BoundedReal)
    monkeypatch.setattr(oracle, "FAST_S2_EXACT_LIMIT", x)
    exact = oracle.fast_recip_lcm_sum2(x)
    assert isinstance(exact, Fraction)
    assert enc.contains(exact)
    assert enc.abs_error < Fraction(1, 10**15)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_fast_route_enclosure_holds_at_few_bits(bits, monkeypatch):
    # at few bits the floor deficit of each h (under q per block) is far
    # above the rounding, so the enclosure holds only with its (h + q) term
    x = 10**4 + 37
    monkeypatch.setattr(oracle, "FAST_S2_BITS", bits)
    enc = fast_recip_lcm_sum2(x)
    assert enc.bits == bits
    monkeypatch.setattr(oracle, "FAST_S2_EXACT_LIMIT", x)
    exact = fast_recip_lcm_sum2(x)
    assert isinstance(exact, Fraction)
    assert enc.contains(exact)


# Enclosure endpoints at FAST_S2_BITS from the per-d route that the
# floor-quotient block loop replaced; the block loop must not widen them.
PINNED_S2_ENCLOSURES = {
    20_000: (24677627740072893405649063545110,
             24677627740072893405649064096601),
    10**5: (36592992221359893805842277323044,
            36592992221359893805842280521043),
}


@pytest.mark.parametrize("x", sorted(PINNED_S2_ENCLOSURES))
def test_fast_route_enclosure_nests_in_the_pinned_one(x):
    pinned = BoundedReal(*PINNED_S2_ENCLOSURES[x], oracle.FAST_S2_BITS)
    enc = fast_recip_lcm_sum2(x)
    assert enc.bits == oracle.FAST_S2_BITS
    assert pinned.encloses(enc)


# Endpoints at FAST_S2_BITS from the block loop over Python-int block
# weights that the vectorised prefix sums replaced; they must not move.
EXACT_S2_ENDPOINTS = {
    123_457: (38389034812557465017715004932602,
              38389034812557465017715008951956),
    10**6: (59483780432444141665156637781867,
            59483780432444141665156676063976),
}


@pytest.mark.parametrize("x", sorted(EXACT_S2_ENDPOINTS))
def test_fast_route_enclosure_endpoints_pinned(x):
    pinned = BoundedReal(*EXACT_S2_ENDPOINTS[x], oracle.FAST_S2_BITS)
    enc = fast_recip_lcm_sum2(x)
    assert (enc.lo, enc.hi, enc.bits) == (pinned.lo, pinned.hi, pinned.bits)


def reference_phi_sieve(x):
    # the per-p loop over every n <= x that the primes-only sieve replaced
    phi = np.arange(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def test_phi_sieve_equals_the_per_p_loop():
    seg = oracle._PHI_SEG
    # segment edges; then x = q*q - 1 for primes q, so the smallest prime
    # above isqrt(x) = q - 1 is q and takes every m <= q - 1: q = 181 lies
    # in x's one segment, and q = 401 gives q*(q - 1) in the fifth and last
    xs = [*range(1, 400), 10**4, 123_457, seg - 1, seg, seg + 1, 2 * seg + 1,
          181**2 - 1, 401**2 - 1]
    # the x // 2 cut of the kept primes: for a prime p in the second segment,
    # x = 2p - 1 keeps the primes below p and 2p, 2p + 1 keep p too, whose
    # multiple 2p lies in a later segment than p's own p -> p - 1 step
    p = next(n for n in range(seg + seg // 2, 2 * seg)
             if all(n % d for d in range(2, math.isqrt(n) + 1)))
    xs += [2 * p - 1, 2 * p, 2 * p + 1]
    for x in xs:
        segments = list(oracle._phi_segments(x))
        assert [lo for lo, _ in segments] == list(range(0, x + 1, seg)), x
        assert all(len(phi) == seg for _, phi in segments[:-1]), x
        phi = np.concatenate([phi for _, phi in segments])
        assert np.array_equal(phi, reference_phi_sieve(x)), x


def test_phi_segments_stay_exact_in_int32_at_the_ceiling():
    # every value the sieve holds is at most x <= FAST_S2_MAX < 2**31; the
    # last segment at the ceiling holds the largest n, products and p*m
    x = oracle.FAST_S2_MAX
    assert x < 2**31
    for lo, phi in oracle._phi_segments(x):
        pass
    assert phi.dtype == np.int32 and lo + len(phi) == x + 1
    tables = exactmath.shared_sieve(exactmath.factoring_limit(x))
    assert phi.tolist() == [math.prod((p - 1) * p ** (e - 1) for p, e in tables.factor(n))
                            for n in range(lo, x + 1)]


def warm_traced_peak(f, *args):
    f(*args)  # warm-up: caches and first-call allocations
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fast_route_memory_stays_bounded():
    # phi(0..10**6) as one int64 array alone takes 7.6 MiB; the segmented
    # sieve holds a segment and the primes from 1000 to 5 * 10**5
    peak = warm_traced_peak(fast_recip_lcm_sum2, 10**6)
    assert peak <= 2.5 * 2**20, peak


def test_fast_route_exact_branch_memory():
    # the exact branch makes the terms of one sub-gap at a time: no x-long
    # Python list, and no denominator product of a whole gap of up to x/2
    # terms (about 130k bits at 10**4)
    peak = warm_traced_peak(fast_recip_lcm_sum2, 10**4)
    assert peak <= 2**20, peak


def test_fast_route_resource_guard():
    with pytest.raises(ResourceLimitError):
        fast_recip_lcm_sum2(10**7 + 1)


@pytest.mark.parametrize("call", [
    lambda: fast_recip_lcm_sum2(0),
    lambda: gwise_sum_with_count(2, 0),
    lambda: lcm_multiplicity(0, 5),
    lambda: lcm_multiplicity(2, 0),
    lambda: leading_constants(5),
], ids=["fast-x0", "gwise-x0", "alpha-k0", "alpha-n0", "constants-k5"])
def test_oracle_entries_reject_arguments_outside_their_domain(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# constrained coprime-tuple sums
# ---------------------------------------------------------------------------

def test_gwise_trivial():
    assert gwise_constrained_sum(2, 1) == 1
    assert gwise_constrained_sum(3, 1, True) == 1


def test_gwise_equals_brute_k2():
    for x in range(1, 61):
        assert gwise_constrained_sum(2, x) == brute_recip_lcm_sum(2, x), x
        assert gwise_constrained_sum(2, x, True) == \
            brute_recip_lcm_sum_coprime(2, x), x


def test_gwise_equals_brute_k3():
    for x in (1, 2, 3, 5, 8, 13, 21, 30):
        assert gwise_constrained_sum(3, x) == brute_recip_lcm_sum(3, x), x
        assert gwise_constrained_sum(3, x, True) == \
            brute_recip_lcm_sum_coprime(3, x), x


def test_gwise_guards():
    with pytest.raises(ValueError):
        gwise_sum_with_count(4, 10)
    with pytest.raises(ResourceLimitError):
        gwise_sum_with_count(3, 40, node_budget=50)


def test_search_plan_checks_the_label_order(monkeypatch):
    # the k = 3 graph's order ends with the singletons 2 and 4, not 1 and 2
    real = oracle.build_coprimality_graph
    monkeypatch.setattr(oracle, "build_coprimality_graph", lambda k: real(k + 1))
    with pytest.raises(InvariantViolation, match="singletons in order"):
        oracle._search_plan(2)


def test_gwise_range_sieves_once(monkeypatch):
    # the range build at x = 500 makes one prime table, for lcm(1..500),
    # and its sum is the totient route's, an independent route to S_2(500)
    limits = []

    def counted(limit):
        limits.append(limit)
        return exactmath.sieve(limit)

    monkeypatch.setattr(oracle, "sieve", counted)
    monkeypatch.setattr(oracle, "_RANGES", {})
    oracle._lcm_upto.cache_clear()
    total, leaves = gwise_sum_with_count(2, 500)
    assert limits == [500]
    assert leaves == 500**2
    monkeypatch.undo()
    assert total == fast_recip_lcm_sum2(500)


def test_gwise_budget_trips_before_any_large_table():
    # the range build at 10**5 would need a 7.42 GiB tally: it is refused
    # before lcm(1..x), a sieve or any array is made
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            gwise_sum_with_count(2, 10**5, node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


@pytest.mark.parametrize("call", [
    lambda: gwise_constrained_sum(2, 10**5),
    lambda: gwise_sum_with_count(2, 10**6, node_budget=10),
    lambda: brute_sums(1, 10**6),
], ids=["gwise-1e5", "gwise-1e6-budget-10", "brute-k1-1e6"])
def test_range_builds_refuse_a_tally_past_its_byte_budget(call, monkeypatch):
    # each tally would take from 7.42 GiB to 934 GiB; the refusal comes
    # before lcm(1..x) or any array is made, at once and in little memory
    def no_work(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(oracle, "_lcm_upto", no_work)
    monkeypatch.setattr(oracle, "_RANGES", {})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="tally"):
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, elapsed
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tally_guard_never_undercounts_the_tally(k, monkeypatch):
    # with the byte budget one below what `_Tally` allocates the guard
    # refuses; its limbs, from log2 lcm(1..n) < 1.4988 n, are never fewer
    # than the tally's, and it passes with a tenth and one limb column more
    for top in (1, 2, 3, 10, 90, 256, 1000):
        t = oracle._Tally(2, top, top**k, oracle._lcm_upto(top))
        size = t.cols.nbytes + t.tallied.nbytes
        monkeypatch.setattr(oracle, "TALLY_BYTES", size - 1)
        with pytest.raises(ResourceLimitError, match="tally"):
            oracle._check_tally(2, top, top**k)
        monkeypatch.setattr(oracle, "TALLY_BYTES", size + size // 10 + 16 * top)
        oracle._check_tally(2, top, top**k)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("k, top", [(2, 256), (3, 64)])
def test_range_answers_equal_the_direct_search(k, top, pinned):
    # every x of one range against the plain-Python search at top, value,
    # leaves and nodes; the values and leaves also equal the brute range's
    r = oracle._gwise_range(k, top, oracle.GWISE_NODE_BUDGET)
    rows = part(r.rows, pinned)
    assert rows == part(reference_gwise_rows(k, top), pinned)
    for x in range(1, top + 1):
        total, leaves, _ = rows[x]
        b = brute_sums(k, x)
        assert leaves == (b.coprime_tuples if pinned else b.tuples), x
        assert Fraction(total, r.big) == (b.recip_coprime if pinned else b.recip), x


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("k, top", [(2, 64), (3, 20)])
def test_search_at_x_is_the_range_up_to_x(k, top, pinned):
    # the search at x visits exactly the nodes of bucket <= x of the search
    # at top: the plain-Python search run at each x gives the range's row x
    r = oracle._gwise_range(k, top, oracle.GWISE_NODE_BUDGET)
    rows = part(r.rows, pinned)
    for x in range(1, top + 1):
        total, leaves, nodes = part(reference_gwise_rows(k, x), pinned)[x]
        value = Fraction(total, math.lcm(*range(1, x + 1)))
        assert (Fraction(rows[x][0], r.big), *rows[x][1:]) == (value, leaves, nodes), x


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("k, top", [(2, 30), (3, 10)])
def test_range_node_counts_are_the_direct_search_budget(k, top, pinned,
                                                        monkeypatch):
    # the plain-Python search at x visits exactly the range's nodes up to
    # x, and the range answers pass with that many as their budget and fail
    # with one fewer
    built = oracle._gwise_range(k, top, oracle.GWISE_NODE_BUDGET)
    rows = part(built.rows, pinned)
    for x in range(1, top + 1):
        n = rows[x][2]
        assert part(reference_gwise_rows(k, x), pinned)[x][2] == n, x
        gwise_sum_with_count(k, x, pinned, node_budget=n)
        with pytest.raises(ResourceLimitError):
            gwise_sum_with_count(k, x, pinned, node_budget=n - 1)
    if not pinned:
        return
    # the same budgets hold for gcd-1 answers from the range a plain
    # request built
    monkeypatch.setattr(oracle, "_RANGES", {})
    gwise_constrained_sum(k, top)
    kept = oracle._RANGES[("gwise", k)]
    assert kept.rows == built.rows
    for x in range(1, top + 1):
        n = rows[x][2]
        gwise_sum_with_count(k, x, True, node_budget=n)
        with pytest.raises(ResourceLimitError):
            gwise_sum_with_count(k, x, True, node_budget=n - 1)
    assert oracle._RANGES[("gwise", k)] is kept


@pytest.mark.parametrize("k, top", [(2, 30), (3, 10)])
def test_gcd1_first_build_aborts_on_the_gcd1_nodes(k, top, monkeypatch):
    # a gcd-1 request with no kept range builds the whole search at x, and
    # its abort counts the gcd-1 part's nodes only: budget n, the gcd-1
    # nodes at x, is admitted and n - 1 refused, though the whole search
    # has more nodes once x >= 2.  The range it leaves answers the plain x
    # with no further build
    builds = []
    build = oracle._gwise_range
    monkeypatch.setattr(oracle, "_gwise_range", lambda *a: builds.append(a) or build(*a))
    for x in range(1, top + 1):
        n = reference_gwise_rows(k, x)[x][5]
        monkeypatch.setattr(oracle, "_RANGES", {})
        with pytest.raises(ResourceLimitError):
            gwise_sum_with_count(k, x, True, node_budget=n - 1)
        assert oracle._RANGES == {}
        assert gwise_sum_with_count(k, x, True, node_budget=n)[0] == \
            brute_recip_lcm_sum_coprime(k, x), x
        builds.clear()
        assert gwise_constrained_sum(k, x) == brute_recip_lcm_sum(k, x), x
        assert builds == [], x


def test_gwise_rebuild_falls_back_to_x_within_the_budget(monkeypatch):
    # a doubled rebuild past the node budget is redone at x itself
    n11 = oracle._gwise_range(2, 11, oracle.GWISE_NODE_BUDGET).rows[11][2]
    monkeypatch.setattr(oracle, "_RANGES", {})
    gwise_constrained_sum(2, 10)
    assert gwise_sum_with_count(2, 11, node_budget=n11)[0] == brute_recip_lcm_sum(2, 11)
    assert oracle._RANGES[("gwise", 2)].top == 11
    with pytest.raises(ResourceLimitError):
        gwise_sum_with_count(2, 12, node_budget=n11)
    assert oracle._RANGES[("gwise", 2)].top == 11


def test_bench_call_order_builds_plain_ranges_only(monkeypatch):
    # plain sweep, gcd-1 sweep, plain point, gcd-1 point: plain requests
    # build every range, at doubling tops, and the gcd-1 answers read them
    monkeypatch.setattr(oracle, "_RANGES", {})
    calls = []
    build = oracle._gwise_range

    def counted(k, top, node_budget, pinned=False):
        calls.append((k, top, pinned))
        return build(k, top, node_budget, pinned)

    monkeypatch.setattr(oracle, "_gwise_range", counted)
    brute = {False: brute_recip_lcm_sum, True: brute_recip_lcm_sum_coprime}
    for pinned in (False, True):
        for k, xmax in ((2, 20), (3, 8)):
            for x in range(1, xmax + 1):
                assert gwise_constrained_sum(k, x, pinned) == \
                    brute[pinned](k, x), (k, x, pinned)
    for pinned in (False, True):
        assert gwise_constrained_sum(3, 12, pinned) == brute[pinned](3, 12), pinned
    assert calls == ([(2, top, False) for top in (1, 2, 4, 8, 16, 32)]
                     + [(3, top, False) for top in (1, 2, 4, 8, 16)])


# ---------------------------------------------------------------------------
# int64 range builds against the per-tuple loops they replaced
# ---------------------------------------------------------------------------

def perm_count(t):
    # orderings of the sorted multiset t
    out = math.factorial(len(t))
    for run in (len(list(g)) for _, g in itertools.groupby(t)):
        out //= math.factorial(run)
    return out


@functools.cache
def reference_brute_rows(k, top):
    # one visit per sorted tuple, one big-int add per tuple
    big = math.lcm(*range(1, top + 1))
    recip = coprime = prod = tuples = coprime_tuples = 0
    rows = [(0, 0, 0, 0, 0)]
    for m in range(1, top + 1):
        for head in itertools.combinations_with_replacement(range(1, m + 1), k - 1):
            t = head + (m,)
            w = perm_count(t)
            lcm = math.lcm(*t)
            recip += w * (big // lcm)
            tuples += w
            if math.gcd(*t) == 1:
                coprime += w * (big // lcm)
                coprime_tuples += w
            prod += w * (math.prod(t) // lcm)
        rows.append((recip, coprime, prod, tuples, coprime_tuples))
    return rows


@functools.cache
def reference_gwise_rows(k, top):
    # the depth-first search, one big-int add per leaf; as in the range
    # build, each row holds the whole search's sum, leaves and nodes, then
    # those of its gcd-1 part (a = 1 at position 0)
    order, touching, earlier = oracle._search_plan(k)
    v = len(order)
    big = math.lcm(*range(1, top + 1))
    ones, rest = ([[0] * (top + 1) for _ in range(3)] for _ in range(2))
    values = [1] * (v + 1)
    prods = [1] * k
    ones[2][1] = 1  # the root

    def dfs(pos, denom, m, cols):
        j = order[pos]
        hi = min(top // prods[i] for i in touching[pos])
        fixed = math.prod(values[l] for l in earlier[pos])
        for a in range(1, hi + 1):
            if math.gcd(a, fixed) != 1:
                continue
            sub = rest if pos == 0 and a > 1 else cols
            values[j] = a
            for i in touching[pos]:
                prods[i] *= a
            mm = max([m] + prods)
            sub[2][mm] += 1
            if pos == v - 1:
                sub[1][mm] += 1
                sub[0][mm] += big // (denom * a)
            else:
                dfs(pos + 1, denom * a, mm, sub)
            for i in touching[pos]:
                prods[i] //= a
            values[j] = 1

    dfs(0, 1, 1, ones)

    whole = [[p + q for p, q in zip(a, b)] for a, b in zip(ones, rest)]
    return list(zip(*(itertools.accumulate(col) for col in whole + ones)))


def part(rows, pinned):
    # the columns of the gcd-1 part, or of the whole search
    return [row[3:] if pinned else row[:3] for row in rows]


BRUTE_GRID = [(1, 1), (1, 256), (2, 1), (2, 2), (2, 256), (3, 1), (3, 2),
              (3, 90), (4, 1), (4, 30), (5, 1), (5, 12)]
GWISE_GRID = [(k, pinned, top) for k in (2, 3) for pinned in (False, True)
              for top in (1, 2, 64, 90)]


@pytest.fixture(params=[None, 64], ids=["chunk-default", "chunk-64"])
def chunk(request, monkeypatch):
    # 64-child chunks split frontier rows, and the entries of one bucket,
    # across many chunks, so the tallies add into each column many times
    if request.param:
        monkeypatch.setattr(oracle, "_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("k, top", BRUTE_GRID)
def test_brute_range_equals_the_tuple_loop(k, top, chunk):
    r = oracle._brute_range(k, top)
    assert r.big == math.lcm(*range(1, top + 1))
    assert r.rows == reference_brute_rows(k, top)
    assert all(type(n) is int for row in r.rows for n in row)


@pytest.mark.parametrize("k, pinned, top", GWISE_GRID)
def test_gwise_range_equals_the_search_loop(k, pinned, top, chunk):
    rows = oracle._gwise_range(k, top, oracle.GWISE_NODE_BUDGET).rows
    assert part(rows, pinned) == part(reference_gwise_rows(k, top), pinned)
    assert all(type(n) is int for row in rows for n in row)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("k, top", [(2, 90), (3, 30)])
def test_gwise_range_refuses_iff_its_nodes_pass_the_budget(k, pinned, top, chunk):
    # with `pinned` the build's abort counts the gcd-1 part's nodes only
    nodes = part(reference_gwise_rows(k, top), pinned)[-1][2]
    built = oracle._gwise_range(k, top, nodes, pinned)
    assert part(built.rows, pinned)[-1][2] == nodes
    with pytest.raises(ResourceLimitError):
        oracle._gwise_range(k, top, nodes - 1, pinned)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_search_plan_ends_with_the_singletons_in_order(k, pinned):
    # the range build's leaf position relies on it: there n_0..n_{k-2} are
    # final and the last label enters constraint k - 1 alone.  Its gcd-1
    # columns rely on the all-ones label coming first, in every constraint,
    # so that the gcd-1 part is the subtree of a = 1 at position 0
    order, touching, _ = oracle._search_plan(k)
    assert order[-k:] == [1 << i for i in range(k)]
    assert touching[-k:] == [[i] for i in range(k)]
    if pinned:
        assert order[0] == 2**k - 1
        assert touching[0] == list(range(k))


def test_range_build_tallies_one_leaf_per_orbit(monkeypatch):
    # the k = 3 build at 30 tallies one leaf per sorted (n_0, n_1, n_2),
    # C(32, 3) of them, and its rows still count all 30**3 leaves
    tallied = []
    add = oracle._Tally.add

    def counted(self, bucket, n, counts):
        tallied.append(len(n))
        add(self, bucket, n, counts)

    monkeypatch.setattr(oracle._Tally, "add", counted)
    built = oracle._gwise_range(3, 30, oracle.GWISE_NODE_BUDGET)
    assert sum(tallied) == math.comb(32, 3) == 4960
    assert built.rows[30][1] == 30**3


def test_range_builds_refuse_what_int64_cannot_hold(monkeypatch):
    # top**max(k+1, 2k-1) >= 2**63 is refused before lcm(1..top) or any
    # array is made
    def no_work(*args):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(oracle, "_lcm_upto", no_work)
    monkeypatch.setattr(oracle, "_pieces", no_work)
    monkeypatch.setattr(oracle, "_RANGES", {})
    with pytest.raises(ResourceLimitError):
        brute_sums(2, 2**32, budget=2**70)
    with pytest.raises(ResourceLimitError):
        oracle._brute_range(2, 2**21)
    with pytest.raises(ResourceLimitError):
        oracle._gwise_range(2, 2**21, 2**70)
    # brute's product sum reaches top**(2k-1), past top**(k+1) for k >= 3
    with pytest.raises(ResourceLimitError):
        oracle._brute_range(3, 6209)
    oracle._check_int64(2, 2**21 - 1)  # (2**21 - 1)**3 < 2**63
    oracle._check_int64(3, 6208)  # 6208**5 < 2**63
    oracle._check_int64(40, 1)
    oracle._check_int64(31, 2)  # 2**61 < 2**63
    # 2**(2 * 10**9 - 1) alone reaches 2**63, so it is refused unformed
    with pytest.raises(ResourceLimitError):
        oracle._check_int64(10**9, 2)


@pytest.mark.parametrize("build", [
    lambda: oracle._gwise_range(3, 90, oracle.GWISE_NODE_BUDGET),
    lambda: oracle._brute_range(3, 90),
], ids=["gwise", "brute"])
def test_range_build_memory_stays_chunked(build):
    # unchunked, the 125,580 tallied leaves of the gwise build alone take
    # several 1 MB columns at once
    oracle._lcm_upto(90)
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_tallies_hold_no_per_key_state(monkeypatch):
    # a tally holds kinds x limbs x top int64 sums and kinds x top counts,
    # set when it is made, whatever the number of distinct (bucket, lcm)
    # keys it is fed (23,052 for the brute build here), and its rows stay
    # exact
    keys, states = set(), set()
    add = oracle._Tally.add

    def tracked_add(self, bucket, n, counts):
        keys.update(zip(bucket.tolist(), n.tolist()))
        add(self, bucket, n, counts)
        states.add(tuple(sorted((name, np.shape(v)) for name, v in vars(self).items())))

    monkeypatch.setattr(oracle._Tally, "add", tracked_add)
    assert oracle._brute_range(2, 256).rows == reference_brute_rows(2, 256)
    h = len(oracle._Tally(2, 256, 256**2, math.lcm(*range(1, 257))).limbs)
    assert states == {(("bits", ()), ("cols", (2, h, 256)), ("limbs", (h,)),
                       ("tallied", (2, 256)))}
    assert len(keys) == 23052 > 2 * (h + 1) * 256
    for top in (90, 256):
        states.clear()
        built = oracle._gwise_range(2, top, oracle.GWISE_NODE_BUDGET)
        assert built.rows == reference_gwise_rows(2, top)
        assert len(states) == 1


def test_bucket_adder_equals_add_at_in_any_order(monkeypatch):
    # sorted chunks add run by run, others entry by entry: the same columns
    rng = np.random.default_rng(27)
    bucket = np.sort(rng.integers(1, 40, 500))
    v = rng.integers(0, 2**40, 500)
    for b in (bucket, rng.permutation(bucket), bucket[:1], bucket[:0]):
        col, want = np.zeros(40, np.int64), np.zeros(40, np.int64)
        oracle._bucket_adder(b)(col, v[:len(b)])
        np.add.at(want, b - 1, v[:len(b)])
        assert np.array_equal(col, want)
    # the brute build's chunks come sorted, so each one takes the runs
    ordered = []
    adder = oracle._bucket_adder

    def tracked(b):
        ordered.append(bool(np.all(b[1:] >= b[:-1])))
        return adder(b)

    monkeypatch.setattr(oracle, "_bucket_adder", tracked)
    assert oracle._brute_range(2, 256).rows == reference_brute_rows(2, 256)
    assert len(ordered) > 2 and all(ordered)


@pytest.mark.parametrize("k, top", [(2, 2**21 - 1), (3, 6208)])
def test_tally_columns_stay_in_int64_at_the_largest_scale(k, top):
    # the worst case of the limb bound: every lcm equals scale = top**k,
    # every bucket's count reaches scale, and big // scale has every limb
    # 2**L - 1 with every partial remainder scale - 1, so each dividend is
    # scale * 2**L - 1 and each column sum scale * (2**L - 1); the tops are
    # the largest `_check_int64` admits, as
    # test_range_builds_refuse_what_int64_cannot_hold pins
    scale = top**k
    bits = 63 - scale.bit_length()
    big = scale * (1 << 5 * bits) - 1
    t = oracle._Tally(2, 3, scale, big)
    bucket = np.array([1, 1, 2, 3, 3, 3], np.int64)
    counts = np.array([[scale - 7, 7, scale, 1, 2, scale - 3],
                       [scale, 0, scale, scale - 1, 0, 1]], np.int64)
    truth = [[0] * 3 for _ in range(2)]
    for b, c in zip(bucket.tolist(), counts.T.tolist()):
        for kind in range(2):
            truth[kind][b - 1] += c[kind] * (big // scale)
    # the entries in two chunks, so each column adds twice
    for part in (slice(0, 4), slice(4, 6)):
        t.add(bucket[part], np.full(len(bucket[part]), scale, np.int64), counts[:, part])
    assert t.columns() == (truth, [[scale] * 3, [scale] * 3])


def range_values(xs):
    out = {}
    for k, x in xs:
        b = brute_sums(k, x)
        out[k, x] = (b, gwise_constrained_sum(k, x), gwise_constrained_sum(k, x, True))
    return out


def test_range_results_do_not_depend_on_call_order(monkeypatch):
    xs = [(2, x) for x in range(1, 61)] + [(3, x) for x in range(1, 17)]
    scattered = xs[:]
    random.Random(7).shuffle(scattered)
    runs = []
    for order in (xs, xs[::-1], scattered):
        monkeypatch.setattr(oracle, "_RANGES", {})
        runs.append(range_values(order))
    assert runs[0] == runs[1] == runs[2]


#: sha256 of the sweep lines below, recorded from the per-x brute pass and
#: per-x direct search that the range results replaced
SWEEP_DIGEST = "26bd45dad179f599fe8294fc018535e76074b0834ad47f0e41711a22918a5071"


def test_sweeps_match_the_pinned_digest():
    lines = []
    for k, top in ((2, 200), (3, 30)):
        for x in range(1, top + 1):
            b = brute_sums(k, x)
            g = gwise_constrained_sum(k, x)
            gp = gwise_constrained_sum(k, x, True)
            lines.append(f"{k} {x} {b.recip} {b.recip_coprime} {b.prod_over_lcm} "
                         f"{b.tuples} {b.coprime_tuples} {g} {gp}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_DIGEST


# ---------------------------------------------------------------------------
# lcm multiplicities
# ---------------------------------------------------------------------------

def brute_lcm_count(k, n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return sum(1 for t in product(divs, repeat=k) if math.lcm(*t) == n)


def test_multiplicity_examples():
    for p in (2, 3, 5, 97):
        assert lcm_multiplicity(3, p) == 7
    assert lcm_multiplicity(2, 1) == 1
    assert lcm_multiplicity(2, 4) == 5
    assert brute_lcm_count(2, 4) == 5


def test_multiplicity_formula_vs_brute():
    for k in (2, 3):
        for n in range(1, 201):
            assert lcm_multiplicity(k, n) == brute_lcm_count(k, n), (k, n)


def test_multiplicity_table_sum_across_sub_gaps():
    # x past one, two and more 256-term sub-gaps of `_gap_sum`, against one
    # division of lcm(1..x) per n
    for k in (1, 2, 3):
        for x in (1, 255, 256, 257, 512, 513, 600):
            big = math.lcm(*range(1, x + 1))
            alphas, total = lcm_multiplicity_table(k, x)
            num = sum(a * (big // n) for n, a in enumerate(alphas, start=1))
            assert total == Fraction(num, big), (k, x)


def test_multiplicity_sum_examples():
    assert lcm_multiplicity_table(2, 2)[1] == Fraction(5, 2)
    assert lcm_multiplicity_table(3, 1)[1] == 1
    assert lcm_multiplicity_table(3, 4)[1] == 1 + Fraction(7, 2) + Fraction(7, 3) \
        + Fraction(19, 4)


def test_multiplicity_table_refuses_past_its_caps_at_once():
    # an x one past its cap, and a k whose k * x is one step past the
    # other, are refused before lcm(1..x) or any alpha is formed
    for k, x in ((2, oracle.ALPHA_MAX_X + 1), (oracle.ALPHA_MAX_KX // 2 + 1, 2)):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeds the caps"):
            lcm_multiplicity_table(k, x)
        assert time.perf_counter() - start < 0.1, (k, x)


def test_multiplicity_table_admits_its_caps(monkeypatch):
    monkeypatch.setattr(oracle, "ALPHA_MAX_X", 12)
    monkeypatch.setattr(oracle, "ALPHA_MAX_KX", 36)
    alphas, _ = lcm_multiplicity_table(3, 12)  # both caps exactly
    assert alphas == [brute_lcm_count(3, n) for n in range(1, 13)]
    assert lcm_multiplicity_table(4, 9)[0][-1] == lcm_multiplicity(4, 9)
    for k, x in ((1, 13), (4, 10)):
        with pytest.raises(ResourceLimitError):
            lcm_multiplicity_table(k, x)


# ---------------------------------------------------------------------------
# sums reported with their tuple counts
# ---------------------------------------------------------------------------

def test_sum_report_values_match_ops():
    b = brute_sums(2, 12)
    assert b.recip == brute_recip_lcm_sum(2, 12) and b.tuples == 144
    assert b.prod_over_lcm == brute_prod_over_lcm_sum(2, 12)
    assert b.recip_coprime == brute_recip_lcm_sum_coprime(2, 12)
    # coprime pair count up to 12, by enumeration
    assert b.coprime_tuples == sum(
        1 for a in range(1, 13) for b in range(1, 13) if math.gcd(a, b) == 1)


def test_sum_report_gwise_counts_certify_the_bijection():
    # the decomposition is a bijection, so the constrained search must hit
    # exactly x**k leaves, and exactly the gcd-1 count when pinned
    for k, x in ((2, 17), (3, 6)):
        value, leaves = gwise_sum_with_count(k, x)
        assert value == gwise_constrained_sum(k, x)
        assert leaves == x**k, (k, x, leaves)
        _, pinned = gwise_sum_with_count(k, x, fix_last_to_one=True)
        assert pinned == brute_sums(k, x).coprime_tuples


def test_sum_report_alpha_count():
    alphas, value = lcm_multiplicity_table(2, 4)
    assert alphas == [lcm_multiplicity(2, n) for n in range(1, 5)]
    assert value == Fraction(19, 4)
    assert sum(alphas) == 1 + 3 + 3 + 5
    # tuples with lcm <= x is the same count the S-sum ranges over only
    # when every pair's lcm stays <= x; here lcm(3,4)=12 > 4, so strictly less
    assert sum(alphas) < 16


# ---------------------------------------------------------------------------
# leading constants
# ---------------------------------------------------------------------------

def test_constants_k2():
    lc = leading_constants(2)
    assert abs(float(lc.c.value) - 2 / math.pi**2) <= 1e-10
    assert lc.c2.value / lc.c.value == 3
    assert lc.theta1 is None and lc.theta2 is None


def test_constants_k3():
    lc = leading_constants(3)
    assert abs(float(lc.c.value) - 0.00016147) <= 5e-8
    assert lc.c2.value / lc.c.value == 7
    # the true ratio c3/c is the exact volume ratio; the certified interval
    # of the quotient must trap it
    assert (lc.c3 / lc.c).contains(lc.vol_d_star2 / lc.vol_d)
    assert lc.theta1 == Fraction(1, 14)
    assert lc.theta2 == Fraction(3, 40)
    assert lc.theta3 == lc.theta1


def test_theta_values():
    t1, t2, t3 = theta_exponents(3)
    assert t1.as_fraction() == Fraction(1, 14)
    assert t2.as_fraction() == Fraction(3, 40)
    assert t3 == t1
    t1, t2, t3 = theta_exponents(4)
    # (16/25sqrt5) * 3/35 and * 3/34
    assert not t1.is_rational and t1.root == 5
    assert float(t1) == pytest.approx(16 / (25 * math.sqrt(5)) * 3 / 35)
    assert float(t2) == pytest.approx(16 / (25 * math.sqrt(5)) * 3 / 34)
    with pytest.raises(ValueError):
        theta_exponents(2)


def test_theta_refuses_k_past_the_cap():
    # refused before (k+1)**((k+1)//2) is formed: at once and in little memory
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="theta cap"):
            theta_exponents(oracle.THETA_MAX_K + 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, elapsed
    assert peak < 2**20, peak


def test_theta_admits_the_cap_itself(monkeypatch):
    monkeypatch.setattr(oracle, "THETA_MAX_K", 9)
    t1, t2, _ = theta_exponents(9)
    assert t1.as_fraction() == Fraction(3 * 2**9, 10**5 * (2**9 + 6 * 9 - 5))
    assert t2.as_fraction() == Fraction(3 * 2**9, 10**5 * (2**9 + 6 * 9 - 6))
    with pytest.raises(ResourceLimitError):
        theta_exponents(10)


def test_constants_record_checks_positivity_and_theta():
    lc = leading_constants(3)
    with pytest.raises(ValueError, match="certified positive"):
        dataclasses.replace(lc, c3=BoundedReal.from_bracket(-1, 1))
    with pytest.raises(ValueError, match="must coincide"):
        dataclasses.replace(lc, theta3=lc.theta2)


def test_constants_ordering_k2_k3():
    assert leading_constants(2).c.strictly_greater(leading_constants(3).c)


def test_constants_take_one_euler_product_per_k():
    eulerprod._euler_product_cached.cache_clear()
    for k in (2, 3, 4):
        misses = eulerprod._euler_product_cached.cache_info().misses
        leading_constants(k)
        assert eulerprod._euler_product_cached.cache_info().misses == misses + 1, k


def test_constants_check_the_cone_relation_exactly(monkeypatch):
    # vol(D_star) off by a relative 1e-30 is far inside the density's
    # enclosure, so only an exact comparison of the two volumes sees it
    exact = oracle.volume_of

    def skewed(kind, k):
        vol = exact(kind, k)
        return vol * (1 + Fraction(1, 10**30)) if kind == "D_star" else vol

    monkeypatch.setattr(oracle, "volume_of", skewed)
    for k in (2, 3, 4):
        with pytest.raises(InvariantViolation, match="cone relation"):
            leading_constants(k)


@pytest.mark.slow
def test_constants_ordering_through_k4():
    lc3, lc4 = leading_constants(3), leading_constants(4)
    assert lc3.c.strictly_greater(lc4.c)
    assert lc4.c2.value / lc4.c.value == 15
    assert (lc4.c3 / lc4.c).contains(lc4.vol_d_star2 / lc4.vol_d)


# ---------------------------------------------------------------------------
# convergence report
# ---------------------------------------------------------------------------

def test_report_flags_degenerate_row():
    rows = convergence_report(2, [1, 10])
    assert rows[0].flagged and rows[0].ratio_to_c is None
    assert not rows[1].flagged and rows[1].ratio_to_c > 0


def test_report_k3_small():
    rows = convergence_report(3, [10, 20, 30])
    assert all(r.log_power_ratio > 0 for r in rows)
    assert [r.x for r in rows] == [10, 20, 30]
