import hashlib
import itertools
import math
import operator
import random
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lcmsum import exactmath
from lcmsum.errors import PrecisionError, ResourceLimitError
from lcmsum.exactmath import (
    CERTIFIED_BITS,
    ZETA_CHUNK,
    ZETA_MAX_TERMS,
    ZETA_ODD_CHUNK,
    BoundedReal,
    SurdRatio,
    factoring_limit,
    floor_prefix_sums,
    sieve,
    stirling2,
    zeta_value,
)


# ---------------------------------------------------------------------------
# sieve tables
# ---------------------------------------------------------------------------

def test_sieve_first_primes():
    assert list(sieve(10).primes) == [2, 3, 5, 7]


def test_smallest_prime_factor_full_factorization():
    t = sieve(10**4)
    for n in (2, 60, 97, 9973, 9998, 10000):
        fac = t.factor(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(t.factor(p) == [(p, 1)] for p, _ in fac)


def test_factor_beyond_limit_uses_trial_division():
    t = sieve(100)
    assert t.factor(101 * 97) == [(97, 1), (101, 1)]
    assert t.factor(9999) == [(3, 2), (11, 1), (101, 1)]
    with pytest.raises(ResourceLimitError):
        t.factor(100**2 + 1_000_000)


@pytest.mark.parametrize("top", [44_000_000, 1_073_741_822])
def test_is_prime_and_factor_agree_with_sympy_past_the_limit(top):
    # windows past the limit of a small and a large table: a number factors
    # as itself exactly when sympy calls it prime, and every factorisation
    # matches sympy's
    sympy = pytest.importorskip("sympy")
    t = sieve(factoring_limit(top))
    assert t.limit < top - 3000
    for n in range(top - 3000, top + 1):
        assert (t.factor(n) == [(n, 1)]) == sympy.isprime(n), n
    for n in range(top - 300, top + 1):
        assert t.factor(n) == sorted(sympy.factorint(n).items()), n
    q = int(t.primes[-1])
    for n in (q * q, q * int(t.primes[-2]), 2 * q):
        assert t.factor(n) == sorted(sympy.factorint(n).items()), n
    with pytest.raises(ResourceLimitError):
        t.factor(t.limit**2 + 1)


def test_factor_agrees_with_sympy_at_the_largest_table():
    # the walk past every prime of the table factoring_limit caps at, on
    # the largest n it admits, and its refusal just past them
    sympy = pytest.importorskip("sympy")
    t = sieve(exactmath.MAX_FACTORING_LIMIT)
    q, q2 = int(t.primes[-1]), int(t.primes[-2])
    for n in (q * q, q * q2, 2 * q):
        assert t.factor(n) == sorted(sympy.factorint(n).items()), n
    with pytest.raises(ResourceLimitError):
        t.factor(t.limit**2 + 1)


def test_sieve_equals_the_per_n_reference():
    # a prime is an n >= 2 with no divisor in 2..n-1, tried per n
    spf = [0, 1] + [next(d for d in range(2, n + 1) if n % d == 0)
                    for n in range(2, 2001)]
    for limit in range(2, 2001):
        t = sieve(limit)
        assert t.primes.tolist() == [n for n in range(2, limit + 1) if spf[n] == n], limit


def test_sieve_memory_is_the_table_and_its_primes():
    # the bool composite table is 0.95 MiB at 10**6 and its 78,498 primes
    # 0.6 MiB; an int64 table of limit + 1 entries alone is 7.6 MiB
    tracemalloc.start()
    try:
        sieve(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_sieve_limit_budget():
    with pytest.raises(ResourceLimitError):
        sieve(10**9)


def test_sieve_and_factor_refuse_what_has_no_primes():
    # a table up to 1 would hold no prime, and 0 has no factorization
    with pytest.raises(ValueError, match="at least 2"):
        sieve(1)
    with pytest.raises(ValueError, match="n must be positive"):
        sieve(10).factor(0)


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------

def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    for k in range(8):
        assert stirling2(k, k) == 1
    assert stirling2(4, 2) == 7  # partitions of {1,2,3,4} into 2 blocks
    assert stirling2(5, 7) == 0 and stirling2(3, -1) == 0


def test_stirling_against_partition_enumeration():
    for k in range(1, 8):
        counts = {}
        for part in set_partitions(list(range(k))):
            counts[len(part)] = counts.get(len(part), 0) + 1
        for m in range(k + 1):
            assert stirling2(k, m) == counts.get(m, 0), (k, m)


def test_stirling_row_sums_are_bell_numbers():
    # Bell numbers by direct partition enumeration
    for k in range(1, 9):
        bell = sum(1 for _ in set_partitions(list(range(k))))
        assert sum(stirling2(k, m) for m in range(k + 1)) == bell


def test_stirling_recurrence():
    for k in range(1, 12):
        for m in range(1, k + 1):
            assert stirling2(k, m) == m * stirling2(k - 1, m) + stirling2(k - 1, m - 1)


# ---------------------------------------------------------------------------
# zeta values
# ---------------------------------------------------------------------------

def test_zeta_2_and_4_against_closed_forms():
    z2 = zeta_value(2, 1e-12)
    assert z2.abs_error <= Fraction(1, 10**12)
    assert abs(float(z2.value) - math.pi**2 / 6) <= 1e-12 + 1e-14
    z4 = zeta_value(4, 1e-12)
    assert z4.abs_error <= Fraction(1, 10**12)
    assert abs(float(z4.value) - math.pi**4 / 90) <= 1e-12 + 1e-14


def test_zeta_large_j_dominant_term():
    z = zeta_value(40, 1e-18)
    assert abs(float(z.value - 1) - 2.0**-40) < 1e-13


def test_zeta_enclosure_nested_when_tightened():
    loose = zeta_value(3, 1e-6)
    tight = zeta_value(3, 1e-14)
    assert loose.encloses(tight)


def test_zeta_unreachable_precision():
    with pytest.raises(PrecisionError):
        zeta_value(2, Fraction(1, 10**40))
    # 32 terms meet a 2**-165 target for j = 40, but their 32 floored terms
    # and the tail bracket at CERTIFIED_BITS leave a radius near 2**-156
    with pytest.raises(PrecisionError, match="achieved") as info:
        zeta_value(40, Fraction(1, 2**165))
    assert info.value.achieved > Fraction(1, 2**165)


def test_zeta_rejects_bad_args():
    with pytest.raises(ValueError):
        zeta_value(1, 1e-6)
    with pytest.raises(ValueError):
        zeta_value(3, 0)
    for j in (3.0, np.float64(3), True, np.True_):
        with pytest.raises(TypeError, match="j must be an integer"):
            zeta_value(j, 1e-6)
    z3 = zeta_value(3, 1e-6)
    for j in (np.int64(3), np.uint8(3)):
        z = zeta_value(j, 1e-6)
        assert (z.lo, z.hi) == (z3.lo, z3.hi)


def _floor_sum_per_term(j, a, b):
    # reference: one Python big int per term
    one = 1 << CERTIFIED_BITS
    return sum(one // n**j for n in range(a, b + 1))


@pytest.mark.parametrize("j", [*range(2, 14), 40])
def test_floor_sum_equals_per_term_loop(j):
    # the zeta sums at every N = 2**B <= 2**16: blocks of one odd lane
    # (b = 0, 2), of none (b = 1), of part of an odd chunk (b = 3..15) and
    # of one whole one (b = 16); blocks of several chunks are the odd-level
    # tests' windows
    total = 0
    for B in range(17):
        total += _floor_sum_per_term(j, 2**B // 2 + 1, 2**B)
        assert exactmath._floor_sum(j, 2**B) == total, B
    # the kernel on every lane: on and past the chunk edges, a block that
    # starts mid-chunk, and the n = 1 term alone
    for N in (ZETA_CHUNK - 1, ZETA_CHUNK, ZETA_CHUNK + 1, 2 * ZETA_CHUNK + 1):
        assert floor_prefix_sums(j, CERTIFIED_BITS, 1, [N]) == \
            [_floor_sum_per_term(j, 1, N)]
    a, b = ZETA_CHUNK // 2, 3 * ZETA_CHUNK
    assert floor_prefix_sums(j, CERTIFIED_BITS, a, [b]) == \
        [_floor_sum_per_term(j, a, b)]
    assert floor_prefix_sums(j, CERTIFIED_BITS, 1, [1]) == [1 << CERTIFIED_BITS]


def _prefix_per_term(j, bits, a, marks, w):
    # reference: one Python big int per term, read off at each mark
    terms = (((1 if w is None else int(w[n - a])) << bits) // n**j
             for n in range(a, max(marks) + 1))
    prefix = [0, *itertools.accumulate(terms)]
    return [prefix[max(m - a + 1, 0)] for m in marks]


@pytest.mark.parametrize("bits", [96, 128, 160])
@pytest.mark.parametrize("j", [1, 2])
def test_floor_prefix_sums_equal_per_term_loop(j, bits):
    c = ZETA_CHUNK
    last = 3 * c + 5
    w = np.random.default_rng(bits + j).integers(0, 2**24, last + 1)
    w[::5] = 0
    w[1::5] = 1
    w[2::5] = 2**24 - 1
    for a in (1, c // 2 + 3):
        # on and on either side of the chunk edges (chunks start at a + i*c),
        # a mark before a (the empty sum), a repeated mark and the last n
        edges = [a + i * c + d for i in (1, 2) for d in (-2, -1, 0, 1)]
        for marks in (sorted([a - 1, a, *edges, edges[2], last]), [a + c],
                      [last, last]):
            for weights in (None, w[a:]):
                assert floor_prefix_sums(j, bits, a, marks, weights) == \
                    _prefix_per_term(j, bits, a, marks, weights), (a, marks)


@pytest.mark.parametrize("bits", [96, 128, 136, 160])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_floor_prefix_sums_where_the_limb_width_changes(j, bits):
    # the limbs are 64 - max(bitlen(stop), bitlen(ZETA_CHUNK)) bits wide, so
    # the width drops by one in the chunk whose stop reaches 2**e; each
    # window holds a chunk on either side of such a step (the last one ends
    # at ZETA_MAX_TERMS = 2**26, a chunk of its own)
    c = ZETA_CHUNK
    windows = [(2**e - c - 3, 2**e + c) for e in (13, 17, 20, 24)]
    windows.append((ZETA_MAX_TERMS - 8999, ZETA_MAX_TERMS))
    bounds = {2**24 - 1, 2**(32 - bits % 32) - 1}
    for a, last in windows:
        rng = np.random.default_rng(a + j + bits)
        marks = sorted({a, a + c - 2, a + c - 1, a + c, 2**(a.bit_length()),
                        last - c, last - 1, last})
        for wmax in bounds:
            values = rng.integers(0, wmax + 1, last + 1 - a, dtype=np.int64)
            values[::7] = wmax
            values[1::7] = 0
            for w in (None, values):
                assert floor_prefix_sums(j, bits, a, marks, w) == \
                    _prefix_per_term(j, bits, a, marks, w), (a, wmax, w is None)


@pytest.mark.parametrize("j", [2, 3, 13])
def test_odd_level_sums_where_the_limb_width_changes(j):
    # an odd chunk is ZETA_ODD_CHUNK odd lanes from lo, c n wide; its limbs
    # are 64 - max(bitlen(stop), bitlen(ZETA_ODD_CHUNK)) bits wide, so the
    # width drops by one where a stop first passes 2**e, e >= 15.  In each
    # window the second chunk's stop is that one, a third, short chunk
    # follows, and the last window ends the last block at ZETA_MAX_TERMS
    # after a full chunk.  Level e divides each m once and shifts; the
    # kernel divides 2**(bits - j*e) by every odd m itself (odd weights 1,
    # even 0)
    c = 2 * ZETA_ODD_CHUNK
    top = ZETA_MAX_TERMS.bit_length() - 1
    first = ZETA_ODD_CHUNK.bit_length() + 1
    windows = [(2**e - c - 3, 2**e + c + 1, top - e)
               for e in (first, first + 1, 20, 24)]
    windows.append((ZETA_MAX_TERMS - c - 17999, ZETA_MAX_TERMS - 1, 0))
    for lo, hi, levels in windows:
        odd = np.arange(lo, hi + 1) & 1
        expect = [floor_prefix_sums(j, CERTIFIED_BITS - j * e, lo, [hi], odd)[0]
                  if j * e <= CERTIFIED_BITS else 0 for e in range(levels + 1)]
        assert exactmath._odd_level_sums(j, lo, hi, levels) == expect, lo


@pytest.mark.parametrize("j", [2, 13])
def test_odd_level_sums_after_a_full_chunk_read_a_short_one(j):
    # a full odd chunk, then a short one divided in the same rows: the
    # short chunk reads its lanes through views, never the lanes the full
    # one left behind, and the first window's short chunk has narrower
    # limbs (48 bits after 49).  At j = 13 every quotient of the short
    # chunk is zero, so there the walk stops after the full one
    c = 2 * ZETA_ODD_CHUNK
    one = 1 << CERTIFIED_BITS
    for lo, short in ((1, 7), (2**20 - c + 1, 2501)):
        hi = lo + c + 2 * (short - 1)
        expect = [sum(one // (2**e * m)**j for m in range(lo, hi + 1, 2))
                  for e in range(5)]
        assert exactmath._odd_level_sums(j, lo, hi, 4) == expect, lo


def test_floor_prefix_sums_stop_where_every_quotient_is_zero():
    # floor((2**24 - 1) / n**2) is zero from n = 4096 on, so the walk stops
    # in the second chunk and the later marks read the total; zero weights
    # stop it at once
    w = np.full(3 * ZETA_CHUNK, 2**24 - 1)
    marks = [1, ZETA_CHUNK, ZETA_CHUNK + 1, 3 * ZETA_CHUNK - 1]
    assert floor_prefix_sums(2, 0, 1, marks, w) == _prefix_per_term(2, 0, 1, marks, w)
    assert floor_prefix_sums(2, 128, 1, marks, 0 * w) == [0] * len(marks)
    # a chunk whose weights are all zero is skipped, and the walk goes on
    w[ZETA_CHUNK:2 * ZETA_CHUNK] = 0
    marks = [ZETA_CHUNK + 7, 2 * ZETA_CHUNK, 2 * ZETA_CHUNK + 1, 3 * ZETA_CHUNK]
    assert floor_prefix_sums(2, 128, 1, marks, w) == _prefix_per_term(2, 128, 1, marks, w)


def test_floor_prefix_sums_refuse_lanes_past_their_bounds():
    top = ZETA_MAX_TERMS
    assert floor_prefix_sums(2, CERTIFIED_BITS, top, [top]) == \
        [(1 << CERTIFIED_BITS) // top**2]
    with pytest.raises(ValueError, match="lane bound"):
        floor_prefix_sums(2, CERTIFIED_BITS, top, [top + 1])
    # a weight must lie below 2**L for the limb width L of its chunk: 51
    # bits up to n = 2**13, 37 at n = 2**26; weights in [2**32, 2**L) are
    # exact, and 2**L is refused
    for a, last, L in ((1, 10, 51), (top - 9, top, 37)):
        for bits, j in ((128, 1), (136, 2), (CERTIFIED_BITS, 2)):
            w = np.arange(1, last - a + 2)  # w[i] weighs n = a + i
            w[3] = 2**32
            w[-1] = 2**L - 1
            marks = [a + 3, last]
            assert floor_prefix_sums(j, bits, a, marks, w) == \
                _prefix_per_term(j, bits, a, marks, w), (a, bits)
            w[-1] = 2**L
            with pytest.raises(ValueError, match=re.escape(f"[0, 2**{L})")):
                floor_prefix_sums(j, bits, a, marks, w)
    # the bound is the chunk's: 2**50 - 1 below n = 2**14, then 2**49 - 1
    a, last = 2**14 - ZETA_CHUNK, 2**14 + 9
    w = np.full(last - a + 1, 2**49 - 1)
    w[:ZETA_CHUNK] = 2**50 - 1
    assert floor_prefix_sums(2, 128, a, [2**14 - 1, last], w) == \
        _prefix_per_term(2, 128, a, [2**14 - 1, last], w)
    w[-1] = 2**49
    with pytest.raises(ValueError, match="weights"):
        floor_prefix_sums(2, 128, a, [last], w)
    w[-1] = -1
    with pytest.raises(ValueError, match="weights"):
        floor_prefix_sums(1, 128, a, [last], w)
    # rows too few for the quotient's limbs and the remainder are refused
    # before any is written: 2**160 / 1 needs three 62-bit limbs
    n = np.arange(1, 3, dtype=np.uint64)
    with pytest.raises(ValueError, match="2 rows hold no 3 limbs"):
        exactmath._quotient_limbs(n, 1, 160, exactmath._limb_width(2, 2),
                                  np.empty((2, 2), np.uint64))


#: every zeta(j, 2**-e) one `density` and one `constants` benchmark pass ask
#: for, the two k=3/k=4 1e-12 refusals included
BENCH_ZETA_CALLS = {
    2: (36, 42, 43, 46, 52, 55), 3: (44, 47, 48), 4: (45, 49, 51),
    5: (47, 50, 54), 6: (49, 52, 57), 7: (50, 54, 60), 8: (52, 55, 63),
    9: (54, 57, 66), 10: (56, 59, 70), 11: (57, 61, 73), 12: (59, 62, 76),
}

#: sha256 of those enclosures and refusals as the per-term loop computed them
BENCH_ZETA_SHA256 = "36fbd0c9b951e39428206d48969c4da9ee8ec2594de3b579e20786ed9a3e1fdf"


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_zeta_enclosures_pinned_in_any_call_order(order):
    calls = sorted((e, j) for j, es in BENCH_ZETA_CALLS.items() for e in es)
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(8).shuffle(calls)
    exactmath._zeta_block.cache_clear()
    lines = {}
    for e, j in calls:
        try:
            z = zeta_value(j, Fraction(1, 1 << e))
            lines[j, e] = f"{j} {e} {z.lo} {z.hi} {z.bits}"
        except PrecisionError as exc:
            lines[j, e] = f"{j} {e} refused {exc}"
    digest = hashlib.sha256("\n".join(v for _, v in sorted(lines.items())).encode())
    assert digest.hexdigest() == BENCH_ZETA_SHA256


# ---------------------------------------------------------------------------
# a second zeta: the alternating series of Cohen, Rodriguez Villegas and
# Zagier, with its error bound, tested beside `zeta_value`
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _crvz_weights(n: int) -> tuple[int, ...]:
    """d_0..d_n of order n: d_k = sum_{i<=k} t_i, t_0 = 1,
    t_{i+1} = t_i * 4(n+i)(n-i) / ((2i+1)(2i+2)), in exact integers."""
    t, d = 1, [1]
    for i in range(n):
        t = t * 4 * (n + i) * (n - i) // ((2 * i + 1) * (2 * i + 2))
        d.append(d[-1] + t)
    return tuple(d)


def _crvz_zeta(s: int, n: int) -> tuple[Fraction, Fraction]:
    """(zeta_n(s), bound) with |zeta(s) - zeta_n(s)| <= bound, exactly:

        zeta_n(s) = sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s / (d_n (1 - 2^(1-s))),
        bound = 1 / (d_n (1 - 2^(1-s))).

    (k+1)^-s is the k-th moment of the positive measure
    (-log x)^(s-1) / Gamma(s) dx on [0, 1], of total mass 1, so the
    alternating sum eta(s) = sum (-1)^k (k+1)^-s is at most 1.  By
    Proposition 1 of Cohen, Rodriguez Villegas and Zagier, "Convergence
    acceleration of alternating series", Experiment. Math. 9 (2000), with
    the shifted Chebyshev polynomial P_n(x) = T_n(1 - 2x) (|P_n| <= 1 on
    [0, 1], P_n(-1) = d_n), the d_n-weighted partial sum misses eta(s) by
    at most eta(s) / d_n <= 1 / d_n; zeta(s) = eta(s) / (1 - 2^(1-s)).
    The sum is taken over the common denominator lcm(1..n)^s.
    """
    d = _crvz_weights(n)
    m = math.lcm(*range(1, n + 1))
    num = sum((-1) ** k * (d[n] - d[k]) * (m // (k + 1)) ** s for k in range(n))
    scale = 1 - Fraction(2, 2**s)
    return Fraction(num, m**s * d[n]) / scale, 1 / (d[n] * scale)


def test_alternating_series_bound_holds_and_is_nearly_attained():
    worst = Fraction(0)
    with mpmath.workdps(120):
        for s in range(2, 41):
            man, exp = mpmath.zeta(s).man_exp
            truth = man * Fraction(2) ** exp
            for n in range(1, 61):
                value, bound = _crvz_zeta(s, n)
                assert abs(truth - value) <= bound, (s, n)
                worst = max(worst, abs(truth - value) / bound)
    # the bound is not loose: scaled by 0.99 it fails somewhere in the grid
    assert worst > Fraction(99, 100)


def test_alternating_series_weights_follow_the_chebyshev_recurrence():
    # d_n = T_n(3), so d_n = 6 d_{n-1} - d_{n-2}
    d = [_crvz_weights(n)[n] for n in range(80)]
    assert d[:3] == [1, 3, 17]
    for n in range(2, 80):
        assert d[n] == 6 * d[n - 1] - d[n - 2], n


def test_alternating_series_meets_zeta_value_at_the_density_targets(monkeypatch):
    # every (j, target) one k = 3 leading-constants call asks of zeta_value,
    # read from the call itself: at the least n whose bound meets the
    # target, the series enclosure intersects zeta_value's
    from lcmsum import eulerprod
    from lcmsum.oracle import leading_constants

    calls = []
    original = eulerprod.zeta_value

    def recording(j, target_error):
        calls.append((j, Fraction(target_error)))
        return original(j, target_error)

    monkeypatch.setattr(eulerprod, "zeta_value", recording)
    eulerprod._euler_product_cached.cache_clear()
    leading_constants(3)
    assert calls and {j for j, _ in calls} >= {2, 3}
    for j, target in calls:
        n = 1
        while _crvz_zeta(j, n)[1] > target:
            n += 1
        value, bound = _crvz_zeta(j, n)
        z = original(j, target)
        assert value - bound <= z.hi and z.lo <= value + bound, (j, target, n)


# ---------------------------------------------------------------------------
# BoundedReal
# ---------------------------------------------------------------------------

fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997)


#: dyadic inputs are exact at enough bits, so no input slack hides a
#: rounding step of the operation itself
dyadics_st = st.builds(lambda n, e: Fraction(n, 1 << e),
                       st.integers(-2**20, 2**20), st.integers(0, 24))


# at 8 bits, each of these rounds outward past the truth: the hi of
# 1/3 * 1/3 (28.9 up, truth 28.4) and the lo of 1 / 3 (85.3 down)
@example(a=Fraction(1, 3), b=Fraction(1, 3), bits=8)
@example(a=Fraction(1), b=Fraction(3), bits=8)
@given(a=st.one_of(fractions_st, dyadics_st), b=st.one_of(fractions_st, dyadics_st),
       bits=st.sampled_from([8, 16, 64]))
def test_bounded_real_ops_contain_truth(a, b, bits):
    x = BoundedReal.exact(a, bits)
    y = BoundedReal.exact(b, bits)
    assert (x + y).contains(a + b)
    assert (x - y).contains(a - b)
    assert (x * y).contains(a * b)
    assert (x**3).contains(a**3)
    if abs(b) > Fraction(1, 100):
        assert (x / y).contains(a / b)


@given(a=fractions_st, b=fractions_st, c=fractions_st)
def test_bounded_real_double_precision_nests(a, b, c):
    # recomputing any composed expression at twice the working precision
    # must land inside the coarse run's interval
    def compute(bits):
        x = BoundedReal.exact(a, bits)
        y = BoundedReal.exact(b, bits)
        z = BoundedReal.exact(c, bits)
        expr = (x * y + z) * (x - y) + z**2
        if abs(c) > Fraction(1, 10):
            expr = expr / BoundedReal.exact(c, bits)
        return expr

    coarse = compute(48)
    fine = compute(96)
    assert coarse.lo <= fine.value <= coarse.hi


def test_bounded_real_comparisons():
    a = BoundedReal.from_bracket(Fraction(1, 3), Fraction(1, 2), 128)
    b = BoundedReal.from_bracket(Fraction(2, 3), Fraction(3, 4), 128)
    assert b.strictly_greater(a)
    assert not a.strictly_greater(b)
    assert not a.intersects(b)
    c = BoundedReal.from_bracket(Fraction(0.4), Fraction(0.7), 128)
    assert a.intersects(c) and b.intersects(c)


def test_bounded_real_exact_scaling():
    x = BoundedReal.from_bracket(Fraction(1, 7) - Fraction(1, 10**9),
                                 Fraction(1, 7) + Fraction(1, 10**9), 128)
    y = 7 * x
    assert y.contains(1)
    assert y.abs_error <= 8 * x.abs_error


def test_bounded_real_division_matches_the_fraction_formula():
    # the outward rounding of the least and greatest of the four endpoint
    # quotients, over operands of either sign, at one width per pair
    rng = random.Random(30)

    def draw(bits):
        lo = rng.randint(-(1 << (bits + 8)), 1 << (bits + 8))
        return BoundedReal(lo, lo + rng.randint(0, 1 << rng.randint(0, bits + 4)), bits)

    for _ in range(2000):
        bits = rng.choice((0, 8, 64, 100))
        x, y = draw(bits), draw(bits)
        if y.lo <= 0 <= y.hi:
            continue
        cands = [p / q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
        want = BoundedReal(math.floor(min(cands) * (1 << bits)),
                           math.ceil(max(cands) * (1 << bits)), bits)
        got = x / y
        assert (got.lo, got.hi, got.bits) == (want.lo, want.hi, want.bits)


def test_bounded_real_refuses_operands_of_unequal_widths():
    # a computation works at one width: numbers are taken at self's width,
    # and an enclosure of another width is refused, never rescaled
    x, y = BoundedReal.exact(1, 160), BoundedReal.exact(1, 96)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="160 and 96 bits"):
            op(x, y)
        with pytest.raises(ValueError, match="96 and 160 bits"):
            op(y, x)
    assert (x + Fraction(1, 3)).bits == (Fraction(1, 3) / x).bits == 160
    assert not hasattr(x, "rescale")


def test_bounded_real_division_by_zero_interval():
    x = BoundedReal.exact(1, 128)
    z = BoundedReal.from_bracket(-1, 1, 128)
    with pytest.raises(ZeroDivisionError):
        x / z


def test_bounded_real_refuses_an_empty_interval_and_a_non_integer_power():
    with pytest.raises(ValueError, match="empty interval"):
        BoundedReal(1, 0, 8)
    x = BoundedReal.exact(2, 128)
    for n in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x ** n


def test_bounded_real_constructors_take_no_default_width():
    # every caller states its width (zeta and Euler products at
    # CERTIFIED_BITS, the fast k=2 route at 96), so none is assumed
    with pytest.raises(TypeError, match="bits"):
        BoundedReal.exact(1)
    with pytest.raises(TypeError, match="bits"):
        BoundedReal.from_bracket(0, 1)
    assert BoundedReal.exact(Fraction(1, 4), 2).bits == 2


def test_bounded_real_repr_shows_midpoint_and_radius():
    # error messages print enclosures this way
    assert repr(BoundedReal(3, 5, 2)) == "BoundedReal(1.0 +- 2.500e-01)"


# ---------------------------------------------------------------------------
# exact rationals: order independence (documents the oracle contract)
# ---------------------------------------------------------------------------

@given(st.lists(fractions_st, min_size=2, max_size=12), st.randoms())
def test_fraction_summation_order_is_irrelevant(vals, rng):
    forward = sum(vals, Fraction(0))
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert sum(shuffled, Fraction(0)) == forward


# ---------------------------------------------------------------------------
# SurdRatio
# ---------------------------------------------------------------------------

def test_surd_canonicalization():
    s = SurdRatio(Fraction(3), 9)  # 3/sqrt(9) = 1
    assert s.is_rational and s.rational == 1
    t = SurdRatio(Fraction(1), 8)  # 1/sqrt(8) = (1/2)/sqrt(2)
    assert t.root == 2 and t.rational == Fraction(1, 2)
    assert SurdRatio(Fraction(1, 14)) == Fraction(1, 14)
    assert abs(float(SurdRatio(Fraction(1), 2)) - 1 / math.sqrt(2)) < 1e-15


def test_surd_with_an_int_rational_part_stays_exact():
    # an int rational part divided by the folded square root stays a Fraction
    s = SurdRatio(1, 4)  # 1/sqrt(4) = 1/2
    assert s.is_rational and type(s.rational) is Fraction
    assert s.rational == Fraction(1, 2)
    assert repr(SurdRatio(1, 5)) == "1/sqrt(5)"


def test_surd_guards_and_hash():
    with pytest.raises(ValueError, match="root must be positive"):
        SurdRatio(1, 0)
    # a float is neither a SurdRatio nor an exact rational: never equal
    assert SurdRatio(1) != 1.0 and SurdRatio(1) != "1"
    # the dataclass hash agrees with the canonical equality
    assert len({SurdRatio(3, 9), SurdRatio(1), SurdRatio(Fraction(1, 2), 2),
                SurdRatio(1, 8)}) == 2
