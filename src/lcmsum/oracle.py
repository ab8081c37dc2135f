"""Brute-force oracles and assembled leading constants.

The sums treated here, for tuples (n_1..n_k) of positive integers up to x:

    recip-lcm sum      sum 1/lcm(n_1..n_k)
    coprime variant    same, restricted to gcd(n_1..n_k) = 1
    product-over-lcm   sum (n_1*...*n_k)/lcm(n_1..n_k)

All oracle values are exact rationals.  One brute pass visits each sorted
tuple once (symmetry cuts the work by about k!) and accumulates all three
sums plus the raw and gcd-1 tuple counts; the reciprocal sums as integer
numerators over the fixed denominator lcm(1..X), which every tuple lcm
divides, so no rational is ever normalized.

The range builds behind the brute sums and the constrained search
enumerate in int64 numpy chunks of at most `_CHUNK` children: every
bucket, lcm and product of a build at X lies below X**(k+1), the brute
product sum below X**(2k-1), and a build with either at or past 2**63 is
refused.  They tally count * (lcm(1..X) // lcm) per bucket in exact
int64 limb columns (`_Tally`): each chunk long-divides lcm(1..X) by its
lcm column one limb at a time, so no tuple or leaf takes a big-integer
step, and a tally holds 2 * limbs * X int64 at any X; a build whose
tally would pass TALLY_BYTES is refused before lcm(1..X) is made.  Both
use the symmetry of the sums in the k entries: brute visits sorted
tuples, and the constrained search makes one leaf per S_k orbit,
weighted by the orbit's size; at X = 90 the k = 3 constrained search
tallies 125,580 such leaves (for its 729,000 tuples), four limbs each.
The brute product sum is summed per bucket in int64 too.  The tests check
both range builds against plain-Python loops; the constrained search's
loop shares only `_search_plan` with its build.

Both the brute sums and the constrained sums answer from a whole-range
result: one search at X buckets each brute tuple by its largest entry and
each constrained-search leaf by its largest constraint product, and prefix
sums over the buckets then give the exact value for every x <= X.  One
range is kept per search and k; an x past the kept X rebuilds it at
max(x, 2X), so an ascending sweep costs about two searches at its top x.
The coprime variant pins the all-ones part (the tuple gcd) to 1: its
search is the subtree of a = 1 at the first position of the plain one, so
every constrained range tallies it in columns of its own and answers both
variants.  The budgets keep their meaning for a search at x itself:
`brute_sums` checks x**k before any range, and the constrained range
counts the nodes of the whole search at x per bucket and checks that
count on every call, for either variant.

Each route has one entry that returns its count beside its value:
`brute_sums` (the three sums, the raw and gcd-1 tuple counts),
`gwise_sum_with_count` (the sum and the search leaves) and
`lcm_multiplicity_table` (alpha(k, n) for n <= x and their weighted
sum).  A budget is set on the first two only; the one-sum wrappers
`brute_recip_lcm_sum`, `brute_recip_lcm_sum_coprime`,
`brute_prod_over_lcm_sum` and `gwise_constrained_sum` call them with
the default budgets.

`leading_constants` assembles the top-coefficient data of the three sums
from one Euler product (the density) per k: c = density * vol(D), the
coprime constant (2**k - 1) c, the product-sum constant density *
vol(D_star2), and the exact power-saving exponents.  The coprime constant
rests on the cone relation vol(D_star) = (2**k - 1) vol(D), which is
checked exactly on the two extracted volumes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coprimality import build_coprimality_graph
from .errors import InvariantViolation, ResourceLimitError
from .eulerprod import DEFAULT_TARGET, coprime_density
from .exactmath import (BoundedReal, SurdRatio, factoring_limit,
                        floor_prefix_sums, shared_sieve, sieve)
from .polytope import volume_of

#: brute sums refuse more than this many raw tuple evaluations
TUPLE_BUDGET = 10**8

#: range builds refuse a tally of more than this many bytes
TALLY_BYTES = 1 << 30

#: constrained-tuple search refuses more than this many tree nodes
GWISE_NODE_BUDGET = 5 * 10**7

#: theta_exponents refuses a k past this: its cost grows about as k**2.1,
#: 17-20 s at the cap on a 2-core host (notes/decisions.md)
THETA_MAX_K = 2 * 10**5

#: lcm_multiplicity_table refuses x and k * x past these: 15-18 s at the
#: caps on a 2-core host (notes/decisions.md)
ALPHA_MAX_X = 4 * 10**5
ALPHA_MAX_KX = 4 * 10**6

#: totient-formula sum switches from exact rationals to enclosures here
FAST_S2_EXACT_LIMIT = 10**4
FAST_S2_MAX = 10**7

#: fractional bits of the totient-formula enclosures past the exact limit
FAST_S2_BITS = 96


def _lcm_steps(x: int) -> Callable[[int, int], int]:
    """step(a, b) = lcm(1..b) // lcm(1..a) for 0 <= a <= b <= x: the
    product, up a binary tree, of the primes p with a power p**e in
    (a, b], read from the module's one ascending list of the prime powers
    up to x.  The primes come from `sieve(x)`, not `shared_sieve`, whose
    entries serve factoring."""
    powers = []
    for p in sieve(x).primes.tolist() if x >= 2 else []:
        q = p
        while q <= x:
            powers.append((q, p))
            q *= p
    powers.sort()
    qs, ps = [q for q, _ in powers], [p for _, p in powers]

    def prod(i: int, j: int) -> int:  # of ps[i:j]; leaves of at most 8 primes
        if j - i <= 8:
            return math.prod(ps[i:j])
        return prod(i, (i + j) // 2) * prod((i + j) // 2, j)

    return lambda a, b: prod(bisect.bisect_right(qs, a), bisect.bisect_right(qs, b))


@lru_cache(maxsize=32)
def _lcm_upto(x: int) -> int:
    """lcm(1..x), the product tree over every prime of `_lcm_steps(x)`."""
    return _lcm_steps(x)(0, x)


def _check_budget(k: int, x: int, budget: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if x < 1:
        raise ValueError("x must be positive")
    # x**k >= 2**k > budget once x >= 2 and k > budget.bit_length(): such a
    # k is refused before x**k, itself unbounded work, is formed
    if x >= 2 and k > budget.bit_length():
        raise ResourceLimitError(f"x**k = {x}**{k} exceeds the tuple budget {budget}")
    if x**k > budget:
        raise ResourceLimitError(
            f"x**k = {x**k} exceeds the tuple budget {budget}")


class BruteSums(NamedTuple):
    recip: Fraction          # sum 1/lcm over all tuples
    recip_coprime: Fraction  # the same over the gcd-1 tuples
    prod_over_lcm: Fraction  # sum prod/lcm over all tuples
    tuples: int              # x**k, summed from the permutation weights
    coprime_tuples: int      # tuples with gcd 1


class _Range(NamedTuple):
    """The sums of one search at `top` for every x <= top: rows[x] sums the
    items whose bucket (largest entry or constraint product) is <= x, the
    rational sums as numerators over `big` = lcm(1..top)."""
    top: int
    big: int
    rows: list[tuple[int, ...]]


#: the latest range of each search: ("brute", k) or ("gwise", k)
_RANGES: dict[tuple, _Range] = {}


def _range_for(key: tuple, x: int, build: Callable[[int], _Range]) -> _Range:
    """The kept range of `key` if it reaches x, else a new one built at
    max(x, 2X), or at x when the doubled search exceeds its budget
    (`build` raises ResourceLimitError)."""
    r = _RANGES.get(key)
    if r is not None and r.top >= x:
        return r
    top = max(x, 2 * r.top) if r else x
    try:
        r = build(top)
    except ResourceLimitError:
        if top == x:
            raise
        r = build(x)
    _RANGES[key] = r
    return r


#: candidate children expanded at a time by the range builds.  A chunk's
#: int64 columns take 32 KB each; the depth-first search holds one chunk
#: per level, so a k = 3 build at top 90 peaks near 1.5 MiB of arrays
_CHUNK = 1 << 12


def _check_int64(k: int, top: int) -> None:
    # every bucket, lcm and product of a range build is below top**(k+1),
    # which leaves `_Tally` limbs of at least one bit, and brute's product
    # sum V(top) is at most top**(2k-1); top**e >= 2**e once top >= 2, so
    # an e of 63 or more is refused before top**e is formed
    e = max(k + 1, 2 * k - 1)
    if top >= 2 and e >= 63 or top**e >= 1 << 63:
        raise ResourceLimitError(
            f"{top}**{e} reaches 2**63, past the int64 range enumeration")


def _check_tally(top: int, scale: int) -> None:
    # the bytes of a `_Tally`, its limbs bounded before lcm(1..top) is made:
    # log2 lcm(1..n) = psi(n) / ln 2 < 1.4988 n (Rosser and Schoenfeld, 1962)
    limbs = -(-(14988 * top // 10000 + 1) // (63 - scale.bit_length()))
    size = 8 * 2 * (limbs + 1) * top
    if size > TALLY_BYTES:
        raise ResourceLimitError(
            f"a range build at {top} needs a {size}-byte tally, past {TALLY_BYTES}")


def _pieces(hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The children a = 1..hi[r] of each frontier row r, as (r, a) column
    pairs of at most _CHUNK children, in row order."""
    ends = np.cumsum(hi)
    starts = ends - hi
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _CHUNK):
        stop = min(lo + _CHUNK, total)
        # rows r0..r1-1 have children in [lo, stop); clip the two end rows
        r0 = int(np.searchsorted(ends, lo, side="right"))
        r1 = int(np.searchsorted(ends, stop - 1, side="right")) + 1
        count = hi[r0:r1].copy()
        count[0] -= lo - starts[r0]
        count[-1] -= ends[r1 - 1] - stop
        yield (np.repeat(np.arange(r0, r1), count),
               np.arange(lo + 1, stop + 1) - np.repeat(starts[r0:r1], count))


def _bucket_adder(bucket: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """add(col, v) adds each v[i] into col[bucket[i] - 1].  A chunk sorted by
    bucket (brute's, whose tuples come largest entry first, row by row) is
    added run by run: one np.add.reduceat sums each run of equal buckets,
    whose heads are then distinct.  Any other chunk (gwise's) takes
    np.add.at per entry; sorting it first cost more than it saved."""
    b = bucket - 1
    if len(b) < 2 or not (b[1:] >= b[:-1]).all():
        return lambda col, v: np.add.at(col, b, v)
    heads = np.flatnonzero(np.diff(b, prepend=-1))

    def add(col: np.ndarray, v: np.ndarray) -> None:
        col[b[heads]] += np.add.reduceat(v, heads)

    return add


class _Tally:
    """Exact per-bucket sums of two count kinds (the whole search or every
    tuple, and its gcd-1 part): per kind c and bucket b, the sum of
    count_c * (big // n) and the sum of count_c over the entries (b, n).

    `big` is split once into h limbs of L = 63 - bitlen(scale) bits, most
    significant first.  Each chunk long-divides big by its n column one
    limb at a time, q, r = divmod((r << L) | limb, n) (short division,
    Knuth, TAOCP vol. 2, 4.3.1), and adds each quotient limb times each
    count into an int64 column cols[c, limb, b]; `columns` recombines each
    bucket's limbs as Python ints.  So no entry takes a big-int step, and
    the tally holds 2 * h * top int64 at any number of distinct (b, n).

    It is exact when every n is at most `scale` and every bucket's total
    count of each kind is at most `scale`, which the builds' scale top**k
    gives (every lcm, and the tuples or leaves of one bucket, are at most
    top**k): a dividend is below n * 2**L < 2**63, a quotient limb below
    2**L, and so a column sum below scale * 2**L < 2**63.  `_check_int64`
    keeps top**(k+1) below 2**63, so top**k < 2**62 for top >= 2, and
    L >= 1."""

    def __init__(self, top: int, scale: int, big: int) -> None:
        self.bits = 63 - scale.bit_length()
        h = -(-big.bit_length() // self.bits)
        mask = (1 << self.bits) - 1
        self.limbs = [big >> (self.bits * i) & mask for i in reversed(range(h))]
        self.cols = np.zeros((2, h, top), np.int64)
        self.tallied = np.zeros((2, top), np.int64)

    def add(self, bucket: np.ndarray, n: np.ndarray, counts: np.ndarray) -> None:
        """Add counts[c, i] entries (bucket[i], n[i]) of kind c."""
        add, r = _bucket_adder(bucket), np.zeros_like(n)
        for c, col in zip(counts, self.tallied):
            add(col, c)
        for i, limb in enumerate(self.limbs):
            q, r = np.divmod(r << self.bits | limb, n)
            for c, col in zip(counts, self.cols[:, i]):
                add(col, c * q)

    def columns(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per kind, the per-bucket sums and counts of buckets 1..top."""
        sums = []
        for limbs in self.cols:
            acc = [0] * limbs.shape[1]
            for col in limbs.tolist():
                acc = [(a << self.bits) + v for a, v in zip(acc, col)]
            sums.append(acc)
        return sums, self.tallied.tolist()


def _prefix_rows(columns: list[list[int]]) -> list[tuple[int, ...]]:
    # row x sums buckets 1..x; made last, once the builds' ints are freed,
    # so the kept rows do not hold their memory
    return list(zip(*(itertools.accumulate(col, initial=0) for col in columns)))


def _sorted_tuples(k: int, i: int, m, last, run, w, lcm, gcd, prod
                   ) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks (m, w, lcm, gcd, prod) of int64 columns: the sorted k-tuples
    that extend the frontier rows of i entries, depth first.  Entries come
    largest first, so m is the largest; `last` is the smallest so far and
    ends a run of `run` equal entries, and w counts the orderings."""
    for row, a in _pieces(last):
        run_a = np.where(a == last[row], run[row] + 1, 1)
        # w * (i + 1) / run_a, divided first so that no step passes the
        # final w, which is at most top**k
        g = np.gcd(run_a, i + 1)
        cols = (np.maximum(m[row], a), w[row] // (run_a // g) * ((i + 1) // g),
                np.lcm(lcm[row], a), np.gcd(gcd[row], a), prod[row] * a)
        if i + 1 == k:
            yield cols
        else:
            yield from _sorted_tuples(k, i + 1, cols[0], a, run_a, *cols[1:])


def _brute_range(k: int, top: int) -> _Range:
    """All three brute sums and both tuple counts from one visit of each
    sorted tuple <= top, each weighted by its number of orderings.

    The tuples come from `_sorted_tuples` in chunks of int64 columns; entry
    i + 1 ranges over 1..(entry i).  Each tuple's bucket is its largest
    entry m.  The reciprocal sums add w * (big // lcm) per bucket in the
    limb columns of a `_Tally`; a bucket holds m**k - (m-1)**k <= top**k
    tuples.  The product sum adds w * (prod // lcm) into an int64 column
    per bucket: V(top) is at most top**(2k-1), which `_check_int64` keeps
    below 2**63."""
    _check_int64(k, top)
    scale = top**k  # at least every lcm and every bucket's count
    _check_tally(top, scale)
    big = _lcm_upto(top)
    every = _Tally(top, scale, big)  # (all, gcd 1)
    prod_lcm = np.zeros(top, np.int64)
    one, zero = np.ones(1, np.int64), np.zeros(1, np.int64)
    root = np.array([top], np.int64)  # the first entry ranges over 1..top
    for m, w, lcm, gcd, prod in _sorted_tuples(k, 0, zero, root, zero, one,
                                               one, zero, one):
        every.add(m, lcm, np.stack((w, np.where(gcd == 1, w, 0))))
        _bucket_adder(m)(prod_lcm, w * (prod // lcm))
    (recip, recip_coprime), (tuples, coprime_tuples) = every.columns()
    return _Range(top, big, _prefix_rows([recip, recip_coprime, prod_lcm.tolist(),
                                          tuples, coprime_tuples]))


def brute_sums(k: int, x: int, budget: int = TUPLE_BUDGET) -> BruteSums:
    """The three brute sums over k-tuples <= x and their two tuple counts,
    exact; refuses past `budget` raw tuples even when the range is kept."""
    _check_budget(k, x, budget)
    if x == 1:  # the one all-ones tuple, at any k (the build recurses k deep)
        return BruteSums(Fraction(1), Fraction(1), Fraction(1), 1, 1)

    def build(top: int) -> _Range:
        _check_budget(k, top, budget)
        return _brute_range(k, top)

    r = _range_for(("brute", k), x, build)
    recip, coprime, prod, tuples, coprime_tuples = r.rows[x]
    return BruteSums(Fraction(recip, r.big), Fraction(coprime, r.big),
                     Fraction(prod), tuples, coprime_tuples)


def brute_recip_lcm_sum(k: int, x: int) -> Fraction:
    """sum over all k-tuples <= x of 1/lcm, exact."""
    return brute_sums(k, x).recip


def brute_recip_lcm_sum_coprime(k: int, x: int) -> Fraction:
    """Same sum restricted to tuples with overall gcd 1, exact."""
    return brute_sums(k, x).recip_coprime


def brute_prod_over_lcm_sum(k: int, x: int) -> Fraction:
    """sum over all k-tuples <= x of (n_1*...*n_k)/lcm; integer-valued."""
    return brute_sums(k, x).prod_over_lcm


# ---------------------------------------------------------------------------
# Totient-formula fast route for k = 2
# ---------------------------------------------------------------------------

#: entries of phi per segment of the totient sieve, a measured trade (in
#: int64 columns: at 10**6 the traced peak was 1.8 MiB, 2.6 MiB at 2**15,
#: and the time the same within the host's drift, at the 10**7 ceiling
#: 2-4% slower than 2**15; see notes/decisions.md)
_PHI_SEG = 1 << 14

#: primes below this get one slice update per segment; the primes from
#: here to sqrt(x) have few multiples in a segment, so a slice per prime
#: would cost more in call overhead than its work
_PHI_SLICED = 1 << 7

#: terms per binary-split sub-gap of the exact branch: a gap of up to x/2
#: terms is cut into runs this long, so no denominator product grows past
#: the bits of this many terms and no term list past this length.  At
#: 10**4, 64..1024 take the same time within the host's drift and peak at
#: 0.29 MiB traced; whole gaps take 0.07 s and 0.63 MiB (notes/decisions.md)
_SUB_GAP = 1 << 8


def _in_runs(counts: np.ndarray) -> np.ndarray:
    """Each element's position in its run, for runs of the given lengths,
    in the dtype of counts."""
    starts = np.cumsum(counts, dtype=counts.dtype) - counts
    return np.arange(int(counts.sum()), dtype=counts.dtype) - np.repeat(starts, counts)


def _phi_segments(x: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, phi[lo:lo + _PHI_SEG]) for lo = 0, _PHI_SEG, ... up to x, the
    last segment cut at x: Euler's phi(n) for n = 0..x (phi[0] = 0), one
    segment in memory at a time (segmented as in Bays and Hudson, BIT 17,
    1977).

    Each segment starts as n and takes the factor 1 - 1/p of every prime
    p <= r = isqrt(x) dividing n: by phi[n] -= phi[n] // p over a slice for
    p < _PHI_SLICED, and for the larger p at once, as the products of the p
    and of the p - 1 dividing each n (phi stays divisible by the product of
    the primes it has not yet taken).  Every composite n <= x has a prime
    factor <= r, so the n > r that are then still n are the primes above r;
    each is set to p - 1 where it is found.  A prime p above x // 2 divides
    no other n <= x, so only the primes up to x // 2 are kept, ascending, in
    a buffer sized by pi(x/2) < 1.25506 (x/2) / log(x/2) (Rosser and
    Schoenfeld, 1962).  A kept prime divides n = p*m (m >= 2) only with
    m <= x // (r + 1) < p, and n has no other prime factor above r, so one
    searchsorted per segment finds, for every m, the kept primes with p*m
    in the segment, and each of their n is updated once.

    Every value held (n, phi, the two products, the primes, the m and the
    kept primes) is at most x <= FAST_S2_MAX < 2**31, so all of them are
    int32, and the segments are int32 too."""
    r = math.isqrt(x)
    half = x // 2
    primes = (sieve(r).primes if r >= 2 else np.zeros(0)).astype(np.int32)
    sliced = primes[primes < _PHI_SLICED].tolist()
    rest = primes[primes >= _PHI_SLICED]
    ms = np.arange(2, x // (r + 1) + 1, dtype=np.int32)
    large = np.empty(int(1.25506 * half / math.log(half)) + 16 if half > 1 else 0,
                     np.int32)
    kept = 0
    for lo in range(0, x + 1, _PHI_SEG):
        hi = min(lo + _PHI_SEG, x + 1)
        phi = np.arange(lo, hi, dtype=np.int32)
        for p in sliced:
            block = phi[-lo % p::p]
            block -= block // p
        # the multiples lo + n of each rest prime p, n = -lo % p + i*p
        off = -lo % rest
        counts = (hi - lo - 1 - off) // rest + 1
        ps = np.repeat(rest, counts)
        n = np.repeat(off, counts) + _in_runs(counts) * ps
        dp, dq = np.ones((2, hi - lo), np.int32)
        np.multiply.at(dp, n, ps)
        np.multiply.at(dq, n, ps - 1)
        phi //= dp
        phi *= dq
        first = max(lo, r + 1) - lo
        new = np.flatnonzero(phi[first:] == np.arange(lo + first, hi, dtype=np.int32))
        new += first
        phi[new] -= 1
        new = new[:np.searchsorted(new, half - lo, side="right")] + lo
        large[kept:kept + len(new)] = new
        kept += len(new)
        # for each m >= 2, the kept primes p with lo <= p*m < hi
        a = np.searchsorted(large[:kept], -(-lo // ms))
        counts = np.searchsorted(large[:kept], -(-hi // ms)) - a
        ps = large[np.repeat(a, counts) + _in_runs(counts)]
        n = ps * np.repeat(ms, counts) - lo
        phi[n] -= phi[n] // ps
        yield lo, phi


def _ratio_sum(num: list[int], den: list[int], lo: int, hi: int) -> tuple[int, int]:
    """(P, Q) with P/Q the sum of num[n]/den[n] over lo <= n < hi and Q the
    product of those den[n], by binary splitting."""
    if hi - lo == 1:
        return num[lo], den[lo]
    mid = (lo + hi) // 2
    p1, q1 = _ratio_sum(num, den, lo, mid)
    p2, q2 = _ratio_sum(num, den, mid, hi)
    return p1 * q2 + p2 * q1, q1 * q2


def _gap_sum(terms: Callable[[int, int], tuple[list[int], list[int]]],
             scale: int, a: int, b: int) -> int:
    """scale times the sum of num_n/den_n over a < n <= b; terms(lo, hi)
    gives the lists num_n and den_n for lo <= n < hi.  The gap is cut into
    sub-gaps of at most _SUB_GAP n, and each sub-gap is binary-split and
    divided once.  Every scale*num_n/den_n is an integer, so each division
    is exact and any partition of the gap sums to the same integer."""
    acc = 0
    for lo in range(a + 1, b + 1, _SUB_GAP):
        num, den = terms(lo, min(lo + _SUB_GAP, b + 1))
        p, q = _ratio_sum(num, den, 0, len(num))
        acc += scale * p // q
    return acc


def _exact_s2(x: int, phi: np.ndarray, qs: list[int], ends: list[int]) -> Fraction:
    """The block loop of `fast_recip_lcm_sum2` as an integer over
    (lcm(1..r) lcm(1..x))^2, exactly; see there for the argument.  The
    terms of each sub-gap are made from a range and a slice of phi when
    `_gap_sum` asks for them, so no list of x terms exists."""
    r = math.isqrt(x)
    step = _lcm_steps(x)
    lam = step(0, r)

    def harmonic(lo: int, hi: int) -> tuple[list[int], list[int]]:
        return [1] * (hi - lo), list(range(lo, hi))

    def weights(lo: int, hi: int) -> tuple[list[int], list[int]]:
        return phi[lo:hi].tolist(), [d * d for d in range(lo, hi)]

    # every q <= r is x//d for some d, so blocks 0..r-1 are q = 1..r, with
    # h = lam*H(q); they run in ascending d, the weights at lcm(1..D)^2
    hs = list(itertools.accumulate(lam // m for m in range(1, r + 1)))
    a = ends[r]
    square = step(0, a) ** 2  # lcm(1..a)^2, grown to lcm(1..D)^2 block by block
    total = 0
    for h, b in zip(reversed(hs), ends[r - 1::-1]):
        grow = step(a, b) ** 2
        square *= grow
        total = total * grow + h * h * _gap_sum(weights, square, a, b)
        a = b
    # blocks r.. have q > r and d <= x // (r + 1) <= r, so lam^2*W is
    # integral; they run in ascending q, h = H(q) at lcm(1..q), up to the
    # last block's q = x, so both totals end at (lam*lcm(1..x))^2
    h, a, scale, rest = hs[-1], r, lam, 0
    for q, d_hi, d_lo in zip(qs[r:], ends[r:], ends[r + 1:]):
        grow = step(a, q)
        scale *= grow
        h = h * grow + _gap_sum(harmonic, scale, a, q)
        rest = rest * grow * grow + h * h * _gap_sum(weights, lam * lam, d_lo, d_hi)
        a = q
    return Fraction(total + rest, lam * lam * square)


def fast_recip_lcm_sum2(x: int):
    """The k=2 reciprocal-lcm sum via sum_d phi(d)/d^2 * H(x//d)^2.

    Writing each pair through its gcd d turns the double sum into a single
    sum over d with squared harmonic numbers.  H(x//d) takes only about
    2*sqrt(x) values, so one loop walks the blocks of d sharing q = x//d in
    ascending q, each adding h^2*w: h is H(q) and w the block's weight
    W = sum phi(d)/d^2, each at a scale that makes it an integer.

    For x <= FAST_S2_EXACT_LIMIT the sum is the exact rational, equal to
    the brute route, summed as an integer over (lam*s)^2 with r = isqrt(x),
    lam = lcm(1..r) and s = lcm(1..x).  The blocks with q <= r (q = 1..r,
    d > x // (r+1)) have lam*H(q) integral and run in ascending d, each
    weight at lcm(1..D)^2 for the block's largest d = D.  The blocks with
    q > r hold only d <= x // (r+1) <= r, so lam^2*W is integral, and run
    in ascending q with H(q) at lcm(1..q).  Each running total (of h^2*w,
    and of H(q)) is multiplied at each block by the lcm step, squared where
    its scale is squared, so a number is only as wide as its block needs;
    the step lcm(1..b) / lcm(1..a) is the product of the primes with a
    power in (a, b] (`_lcm_steps`).  Both sums of h^2*w end at (lam*s)^2.
    Each weight and harmonic gap is taken by binary splitting (`_gap_sum`)
    over sub-gaps of at most _SUB_GAP terms, with one big division per
    sub-gap, not per term.

    Above the limit, h = sum_{m<=q} floor(s/m) and w is the difference of
    P(D) = sum_{d<=D} floor(phi(d)*t/d^2) over the block, with
    s = 2**FAST_S2_BITS and t = s * 2**32 (32 guard bits); both prefixes
    come from the vectorised floor sum `floor_prefix_sums`.  Each floored h
    is short by less than q and each w by less than the block length, so
    lo += h^2*w and hi += (h + q)^2 * (w + length) give a dyadic enclosure
    at FAST_S2_BITS.

    phi comes from the segmented sieve `_phi_segments`.  P is summed one
    segment at a time, read at the block ends inside the segment and
    carried across segments, so no array as long as x exists: the route
    holds an int32 segment, the int32 primes from sqrt(x) to x/2 and the
    block lists.
    The exact branch joins the segments and makes the terms of one sub-gap
    at a time.
    """
    if x < 1:
        raise ValueError("x must be positive")
    if x > FAST_S2_MAX:
        raise ResourceLimitError(f"x = {x} exceeds {FAST_S2_MAX}")
    # block i is ends[i + 1] < d <= ends[i], sharing q = qs[i]; ascending q
    qs, ends = [], [x]
    while ends[-1]:
        qs.append(x // ends[-1])
        ends.append(x // (qs[-1] + 1))
    if x <= FAST_S2_EXACT_LIMIT:
        phi = np.concatenate([seg for _, seg in _phi_segments(x)])
        return _exact_s2(x, phi, qs, ends)
    s = 1 << FAST_S2_BITS
    t = s << 32
    hs = floor_prefix_sums(1, FAST_S2_BITS, 1, qs)
    # P at the ascending block ends, one sieve segment at a time: P(0) = 0,
    # then each segment's prefixes from its first n, plus the P carried in
    marks = ends[-2::-1]
    ps, carry, i = [0], 0, 0
    for lo, phi in _phi_segments(x):
        a, last = max(lo, 1), lo + len(phi) - 1
        j = bisect.bisect_right(marks, last, i)
        *inside, total = floor_prefix_sums(2, FAST_S2_BITS + 32, a,
                                           marks[i:j] + [last], phi[a - lo:])
        ps += [carry + p for p in inside]
        carry += total
        i = j
    ps.reverse()  # ps[i] = P(ends[i])
    lo = hi = 0
    for q, h, d_hi, d_lo, p_hi, p_lo in zip(qs, hs, ends, ends[1:], ps, ps[1:]):
        w = p_hi - p_lo
        lo += h * h * w
        hi += (h + q) ** 2 * (w + d_hi - d_lo)
    # lo and hi are at scale s^2*t; dividing by s*t leaves s = 2**FAST_S2_BITS
    return BoundedReal(lo // (s * t), -(-hi // (s * t)), FAST_S2_BITS)


# ---------------------------------------------------------------------------
# Constrained coprime-tuple sums (the structural identity)
# ---------------------------------------------------------------------------

def _search_plan(k: int):
    """The label order of the constrained search (most-constrained first)
    and, per position, the constraints the label enters and its graph
    neighbours assigned earlier in the order.  The order starts with the
    all-ones label, whose part is the tuple gcd, so the gcd-1 part of the
    search is the subtree of a = 1 at position 0.  It ends with the k
    singletons 1, 2, 4, ... in coordinate order, so the last label enters
    constraint k - 1 alone."""
    g = build_coprimality_graph(k)
    order = sorted(range(1, g.v + 1), key=lambda j: (-j.bit_count(), j))
    if order[0] != g.v or order[-k:] != [1 << i for i in range(k)]:
        # the range build's gcd-1 columns and leaf position rely on it
        raise InvariantViolation("the search must start with all-ones and end "
                                 "with the singletons in order")
    touching = [[i for i in range(k) if j in g.constraints[i]] for j in order]
    earlier = [[l for l in order[:pos] if g.adjacency[j] >> l & 1]
               for pos, j in enumerate(order)]
    return order, touching, earlier


def _node_limit(node_budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"search exceeded {node_budget} nodes; shrink x")


def gwise_sum_with_count(
    k: int, x: int, fix_last_to_one: bool = False,
    node_budget: int = GWISE_NODE_BUDGET,
) -> tuple[Fraction, int]:
    """Exact sum of 1/(a_1*...*a_v) over graph-wise coprime tuples under
    the hyperbolic product constraints prod_{j in A_i} a_j <= x, and its
    tuple count (the search leaves; by the decomposition bijection the
    brute tuple count, or with fix_last_to_one the gcd-1 count).

    With fix_last_to_one the all-ones part (the tuple gcd) is pinned to 1,
    which flips the sum from the plain to the coprime variant.  Read from
    the kept range of k, columns 0-1 for the plain variant and 2-3 for the
    coprime one; raises ResourceLimitError when the whole search at x
    visits more than `node_budget` nodes, for either variant, or when the
    range build's tally would pass TALLY_BYTES.  The sum equals the brute
    k-fold sums bit-exactly: that equality is the decomposition identity
    the whole construction rests on.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if x < 1:
        raise ValueError("x must be positive")
    r = _range_for(("gwise", k), x, lambda top: _gwise_range(k, top, node_budget))
    row = r.rows[x]
    if row[4] > node_budget:
        raise _node_limit(node_budget)
    total, leaves = row[2:4] if fix_last_to_one else row[:2]
    return Fraction(total, r.big), leaves


def gwise_constrained_sum(k: int, x: int, fix_last_to_one: bool = False) -> Fraction:
    """The sum of `gwise_sum_with_count`, under the same refusals."""
    return gwise_sum_with_count(k, x, fix_last_to_one)[0]


def _gwise_range(k: int, top: int, node_budget: int) -> _Range:
    """The constrained search at `top`, each node bucketed by its largest
    partial constraint product: the search at any x <= top visits exactly
    the nodes of bucket <= x, since partial products only grow along a
    path.  Rows: the whole search's sum numerator and leaves, the same two
    for its gcd-1 part, the subtree of a = 1 at position 0 (see
    `_search_plan`), then the whole search's nodes.

    `_search_chunks` assigns the plan's labels one position at a time,
    depth first over chunks of int64 columns: a row's children a = 1..hi
    (hi keeps every partial product <= top) are kept when a is coprime to
    the product of the earlier neighbours' parts.  It makes one leaf per
    S_k orbit, weighted by the orbit's size (see there); each node adds its
    weight to the node count, and each leaf to the leaf count, of its
    bucket.  The build raises ResourceLimitError once the weighted node
    count passes `node_budget`, before the next position is expanded.  Each
    leaf adds weight * (big // product of its parts) to its bucket in the
    limb columns of a `_Tally`, and again in the gcd-1 columns when it lies
    in that part: the product is the tuple's lcm, which divides `big`, and
    a bucket's leaves stand for at most top**k tuples.
    """
    _check_int64(k, top)
    scale = top**k  # at least every lcm and every bucket's count
    _check_tally(top, scale)
    plan = _search_plan(k)
    big = _lcm_upto(top)
    nodes = np.zeros(top + 1, np.int64)
    nodes[1] = 1  # the root
    leaves = _Tally(top, scale, big)  # (whole search, gcd-1 part)
    visited = 1
    one = np.ones(1, np.int64)
    for bucket, rest, lcm, weight in _search_chunks(
            plan, top, 0, np.ones((k, 1), np.int64), one, {}, np.zeros(1, bool)):
        visited += int(weight.sum())
        if visited > node_budget:
            raise _node_limit(node_budget)
        np.add.at(nodes, bucket, weight)
        if lcm is not None:
            leaves.add(bucket, lcm, np.stack((weight, np.where(rest, 0, weight))))
    (total, gcd1), (tallied, gcd1_tallied) = leaves.columns()
    return _Range(top, big, _prefix_rows([total, tallied, gcd1, gcd1_tallied,
                                          nodes[1:].tolist()]))


def _orbit_sizes(n: np.ndarray) -> np.ndarray:
    """The size of the S_k orbit of each column of the k-row array n: k!
    over the number of coordinate permutations fixing the column, which is
    the product over i of #{j <= i : n_j = n_i} (m! for m equal entries)."""
    fixing = np.ones(n.shape[1], np.int64)
    for i in range(1, len(n)):
        fixing *= 1 + np.count_nonzero(n[:i] == n[i], axis=0)
    return math.factorial(len(n)) // fixing


def _search_chunks(plan, top: int, pos: int, prods: np.ndarray, denom: np.ndarray,
                   parts: dict[int, np.ndarray], rest: np.ndarray
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None,
                                   np.ndarray]]:
    """Chunks (bucket, rest, lcm, weight) of int64 columns: the nodes of the
    constrained search below the frontier rows at position `pos`, depth
    first, each chunk yielded before its subtree is expanded.  A frontier
    row has partial constraint products prods[i], the product `denom` of
    its parts, the parts that later labels must be coprime to, and `rest`
    set outside the gcd-1 part (a > 1 at position 0).  lcm is None above
    the leaves.  weight is the number of nodes of the search a node stands
    for: 1 above the leaves, and at the leaves the size of the leaf's S_k
    orbit.

    At the leaves only one member of each S_k orbit is made.  Permuting the
    k coordinates permutes the labels (subsets of {0..k-1}) and keeps their
    containment, so it maps the coprimality graph and the constraints onto
    themselves, and the bijection between tuples and coprime assignments
    commutes with it.  A leaf's bucket (max n_i), lcm (the product of its
    parts) and `rest` flag (the all-ones label is fixed) are invariant, so
    the orbit of the leaf whose constraint products are sorted,
    n_0 >= n_1 >= ... >= n_{k-1}, stands for the whole orbit with weight
    `_orbit_sizes`.  The last label of the plan is the singleton of
    coordinate k - 1, so at the leaf position n_0..n_{k-2} are final: rows
    that are not sorted get no child, and the others have their
    n_{k-1} = lim * a capped at n_{k-2}."""
    order, touching, earlier = plan
    j, cons = order[pos], touching[pos]
    leaf = pos == len(order) - 1
    if leaf:
        ranked = np.all(prods[:-2] >= prods[1:-1], axis=0)  # n_0 >= .. >= n_k-2
        hi = np.where(ranked, prods[-2] // prods[-1], 0)
    else:
        hi = np.min(top // prods[cons], axis=0)
    if earlier[pos]:
        # a part must be coprime to every neighbour's part, so to their product
        fixed = np.prod([parts[l] for l in earlier[pos]], axis=0)
    # a child's bucket is max(its row's, lim * a)
    bucket_of, lim = prods.max(axis=0), prods[cons].max(axis=0)
    needed = set().union(*earlier[pos + 1:])
    for row, a in _pieces(hi):
        if earlier[pos]:
            ok = np.gcd(a, fixed[row]) == 1
            row, a = row[ok], a[ok]
        bucket = np.maximum(bucket_of[row], lim[row] * a)
        rest_a = a > 1 if pos == 0 else rest[row]
        if leaf:
            n = np.vstack((prods[:-1, row], lim[row] * a))
            yield bucket, rest_a, denom[row] * a, _orbit_sizes(n)
            continue
        yield bucket, rest_a, None, np.ones_like(a)
        sub = prods[:, row]
        sub[cons] *= a
        kept = {l: parts[l][row] for l in needed if l in parts}
        if j in needed:
            kept[j] = a
        yield from _search_chunks(plan, top, pos + 1, sub, denom[row] * a, kept, rest_a)


# ---------------------------------------------------------------------------
# lcm multiplicities
# ---------------------------------------------------------------------------

def lcm_multiplicity(k: int, n: int) -> int:
    """Number of k-tuples with lcm exactly n: prod over p^e || n of ((e+1)^k - e^k)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    out = 1
    for _, e in shared_sieve(factoring_limit(n)).factor(n):
        out *= (e + 1) ** k - e**k
    return out


def lcm_multiplicity_table(k: int, x: int) -> tuple[list[int], Fraction]:
    """alpha(k, n) for n = 1..x and sum_{n<=x} alpha(k, n)/n, each alpha
    evaluated once.

    The sum is taken over lcm(1..x) by `_gap_sum`, exact since every n
    divides lcm(1..x).  The alphas sum to the number of k-tuples with
    lcm <= x.  Refuses x past ALPHA_MAX_X and k * x past ALPHA_MAX_KX.
    """
    if k < 1:
        raise ValueError("k and n must be positive")
    if x < 1:
        raise ValueError("x must be positive")
    if x > ALPHA_MAX_X or k * x > ALPHA_MAX_KX:
        raise ResourceLimitError(f"alpha at k = {k}, x = {x} exceeds the caps "
                                 f"x <= {ALPHA_MAX_X}, k * x <= {ALPHA_MAX_KX}")
    big = _lcm_upto(x)
    alphas = [lcm_multiplicity(k, n) for n in range(1, x + 1)]
    num = _gap_sum(lambda lo, hi: (alphas[lo - 1:hi - 1], list(range(lo, hi))),
                   big, 0, x)
    return alphas, Fraction(num, big)


# ---------------------------------------------------------------------------
# Leading constants and error exponents
# ---------------------------------------------------------------------------

def theta_exponents(k: int) -> tuple[SurdRatio, SurdRatio, SurdRatio]:
    """Exact power-saving exponents (theta1, theta2, theta3) for k >= 3.

    theta1 = theta3 = (2^k/(k+1)^((k+1)/2)) * 3/(2^k + 6k - 5)
    theta2 =          (2^k/(k+1)^((k+1)/2)) * 3/(2^k + 6k - 6)

    (k+1)^((k+1)/2) is kept exact: an integer power for odd k, an integer
    power times sqrt(k+1) for even k.  Refuses k past THETA_MAX_K before
    the power is formed.
    """
    if k < 3:
        raise ValueError("exponents are defined for k >= 3 only")
    if k > THETA_MAX_K:
        raise ResourceLimitError(f"k = {k} exceeds the theta cap {THETA_MAX_K}")
    root = 1 if k % 2 == 1 else k + 1
    denom_pow = (k + 1) ** ((k + 1) // 2)
    t1 = SurdRatio(Fraction(3 * 2**k, denom_pow * (2**k + 6 * k - 5)), root)
    t2 = SurdRatio(Fraction(3 * 2**k, denom_pow * (2**k + 6 * k - 6)), root)
    return (t1, t2, t1)


@dataclass(frozen=True)
class LeadingConstants:
    """Leading coefficients of the three sums' top log powers, certified."""

    k: int
    density: BoundedReal          # the Euler product over the graph
    vol_d: Fraction               # full polytope volume
    vol_d_star: Fraction
    vol_d_star2: Fraction
    c: BoundedReal                # density * vol_d
    c2: BoundedReal               # (2**k - 1) * c
    c3: BoundedReal               # density * vol_d_star2
    theta1: SurdRatio | None
    theta2: SurdRatio | None
    theta3: SurdRatio | None

    def __post_init__(self):
        for b in (self.c, self.c2, self.c3):
            if b.lo <= 0:
                raise ValueError("constants must be certified positive")
        if self.theta1 != self.theta3:
            raise ValueError("the first and third exponents must coincide")


def leading_constants(k: int, target_error=DEFAULT_TARGET) -> LeadingConstants:
    """Assemble the certified constants for k inputs from one Euler product.

    The coprime-variant constant is (2**k - 1) c because vol(D_star) =
    (2**k - 1) vol(D), the cone relation; the two volumes come from
    separate Ehrhart extractions and must satisfy it exactly, or
    InvariantViolation is raised.  `build_polytope` refuses k outside 2..4.
    """
    vol_d = volume_of("D", k)
    vol_ds = volume_of("D_star", k)
    vol_ds2 = volume_of("D_star2", k)
    if (2**k - 1) * vol_d != vol_ds:
        raise InvariantViolation(
            f"cone relation fails: (2**{k} - 1) * vol(D) = {(2**k - 1) * vol_d}"
            f" but vol(D_star) = {vol_ds}")
    rho = coprime_density(build_coprimality_graph(k), target_error)
    c = rho * vol_d
    c2 = (2**k - 1) * c
    c3 = rho * vol_ds2

    if k >= 3:
        t1, t2, t3 = theta_exponents(k)
    else:
        t1 = t2 = t3 = None
    return LeadingConstants(
        k=k, density=rho, vol_d=vol_d, vol_d_star=vol_ds, vol_d_star2=vol_ds2,
        c=c, c2=c2, c3=c3, theta1=t1, theta2=t2, theta3=t3)


# ---------------------------------------------------------------------------
# Convergence trend report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    x: int
    sum_value: Fraction          # midpoint when the sum is an enclosure
    log_power_ratio: float | None  # sum / log(x)**(2**k - 1); None at x = 1
    c_value: float
    ratio_to_c: float | None
    flagged: bool                # degenerate row (log x == 0)


def convergence_report(k: int, xs: Sequence[int]) -> list[ConvergenceRow]:
    """Desk-scale growth table of the reciprocal-lcm sum against c * log^v x,
    with c from `leading_constants(k)` and the sums from the fast route at
    k = 2 and the brute sums under their default budget otherwise.

    Rows carry no pass/fail: at reachable x the convergence is O(1/log x)
    and only the k = 2 trend is quantitatively meaningful.
    """
    constants = leading_constants(k)
    cval = float(constants.c.value)
    rows = []
    power = 2**k - 1
    for x in xs:
        if k == 2:
            s = fast_recip_lcm_sum2(x)
        else:
            s = brute_recip_lcm_sum(k, x)
        sv = s.value if isinstance(s, BoundedReal) else s
        if x == 1:
            rows.append(ConvergenceRow(x, sv, None, cval, None, True))
            continue
        ratio = float(sv) / math.log(x) ** power
        rows.append(ConvergenceRow(x, sv, ratio, cval, ratio / cval, False))
    return rows
