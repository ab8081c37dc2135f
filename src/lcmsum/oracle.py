"""Brute-force oracles and assembled leading constants.

The sums treated here, for tuples (n_1..n_k) of positive integers up to x:

    recip-lcm sum      sum 1/lcm(n_1..n_k)
    coprime variant    same, restricted to gcd(n_1..n_k) = 1
    product-over-lcm   sum (n_1*...*n_k)/lcm(n_1..n_k)

All oracle values are exact rationals.  One brute pass visits each sorted
tuple once (symmetry cuts the work by about k!) and accumulates all three
sums plus the raw and gcd-1 tuple counts; the reciprocal sums as integer
numerators over the fixed denominator lcm(1..X), which every tuple lcm
divides, so a single big integer add per tuple replaces rational
normalization.

Both the brute sums and `gwise_constrained_sum` answer from a whole-range
result: one search at X buckets each brute tuple by its largest entry and
each constrained-search leaf by its largest constraint product, and prefix
sums over the buckets then give the exact value for every x <= X.  One
range is kept per k for the brute sums and per (k, pinned) for the
constrained search; an x past the kept X rebuilds it at max(x, 2X), so an
ascending sweep costs about two searches at its top x.  The pinned search
is a subtree of the plain one, so one plain search fills both variants:
its pinned by-product is kept when it reaches further than the kept
pinned range, and a pinned request past both builds a pinned range alone.
The budgets keep their meaning for a search at x itself: `brute_sums`
checks x**k before any range, and the constrained search counts its nodes
per bucket, so the node count of the direct search at x is known from the
range and checked on every call.

Each route also has an entry that returns its count beside its value:
`brute_sums` (the three sums, the raw and gcd-1 tuple counts),
`gwise_sum_with_count` (the sum and the search leaves, by a direct search
at x, the route the CLI takes) and `lcm_multiplicity_table` (alpha(k, n)
for n <= x and their weighted sum).

`leading_constants` assembles the top-coefficient data of the three sums:
c = density * vol(D), the coprime constant (2**k - 1) c, the product-sum
constant density * vol(D_star2), and the exact power-saving exponents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coprimality import build_coprimality_graph
from .errors import InvariantViolation, ResourceLimitError
from .eulerprod import coprime_density
from .exactmath import (BoundedReal, SurdRatio, factoring_limit,
                        floor_prefix_sums, shared_sieve)
from .polytope import volume_of

#: brute sums refuse more than this many raw tuple evaluations
TUPLE_BUDGET = 10**8

#: constrained-tuple search refuses more than this many tree nodes
GWISE_NODE_BUDGET = 5 * 10**7

#: totient-formula sum switches from exact rationals to enclosures here
FAST_S2_EXACT_LIMIT = 10**4
FAST_S2_MAX = 10**7

#: fractional bits of the totient-formula enclosures past the exact limit
FAST_S2_BITS = 96


@lru_cache(maxsize=32)
def _lcm_upto(x: int) -> int:
    return math.lcm(*range(1, x + 1))


def _perm_count(t: Sequence[int]) -> int:
    # permutations of the sorted multiset t (multinomial coefficient)
    out = math.factorial(len(t))
    i = 0
    while i < len(t):
        j = i
        while j < len(t) and t[j] == t[i]:
            j += 1
        out //= math.factorial(j - i)
        i = j
    return out


def _check_budget(k: int, x: int, budget: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if x < 1:
        raise ValueError("x must be positive")
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


#: the latest range of each search: ("brute", k) or ("gwise", k, pinned)
_RANGES: dict[tuple, _Range] = {}


def _range_for(key: tuple, x: int,
               build: Callable[[int], dict[tuple, _Range]]) -> _Range:
    """The kept range of `key` if it reaches x, else a new one built at
    max(x, 2X), or at x when the doubled search exceeds its budget
    (`build` raises ResourceLimitError).  `build` returns the range of
    `key` and any by-product ranges of other keys; each is kept where it
    reaches further than the range it would replace."""
    r = _RANGES.get(key)
    if r is not None and r.top >= x:
        return r
    top = max(x, 2 * r.top) if r else x
    try:
        built = build(top)
    except ResourceLimitError:
        if top == x:
            raise
        built = build(x)
    for kk, rr in built.items():
        kept = _RANGES.get(kk)
        if kept is None or rr.top > kept.top:
            _RANGES[kk] = rr
    return built[key]


def _brute_range(k: int, top: int) -> _Range:
    """All three brute sums and both tuple counts from one visit of each
    sorted tuple <= top, each weighted by its number of orderings; tuples
    come in order of their largest entry m, so the running sums after m are
    row m."""
    big = _lcm_upto(top)
    recip = coprime = prod = tuples = coprime_tuples = 0
    rows = [(0, 0, 0, 0, 0)]
    for m in range(1, top + 1):
        for head in itertools.combinations_with_replacement(range(1, m + 1), k - 1):
            t = head + (m,)
            w = _perm_count(t)
            lcm = math.lcm(*t)
            term = w * (big // lcm)
            recip += term
            tuples += w
            if math.gcd(*t) == 1:
                coprime += term
                coprime_tuples += w
            prod += w * (math.prod(t) // lcm)
        rows.append((recip, coprime, prod, tuples, coprime_tuples))
    return _Range(top, big, rows)


def brute_sums(k: int, x: int, budget: int = TUPLE_BUDGET) -> BruteSums:
    """The three brute sums over k-tuples <= x and their two tuple counts,
    exact; refuses past `budget` raw tuples even when the range is kept."""
    _check_budget(k, x, budget)

    def build(top: int) -> dict[tuple, _Range]:
        _check_budget(k, top, budget)
        return {("brute", k): _brute_range(k, top)}

    r = _range_for(("brute", k), x, build)
    recip, coprime, prod, tuples, coprime_tuples = r.rows[x]
    return BruteSums(Fraction(recip, r.big), Fraction(coprime, r.big),
                     Fraction(prod), tuples, coprime_tuples)


def brute_recip_lcm_sum(k: int, x: int, budget: int = TUPLE_BUDGET) -> Fraction:
    """sum over all k-tuples <= x of 1/lcm, exact."""
    return brute_sums(k, x, budget).recip


def brute_recip_lcm_sum_coprime(k: int, x: int, budget: int = TUPLE_BUDGET) -> Fraction:
    """Same sum restricted to tuples with overall gcd 1, exact."""
    return brute_sums(k, x, budget).recip_coprime


def brute_prod_over_lcm_sum(k: int, x: int, budget: int = TUPLE_BUDGET) -> Fraction:
    """sum over all k-tuples <= x of (n_1*...*n_k)/lcm; integer-valued."""
    return brute_sums(k, x, budget).prod_over_lcm


# ---------------------------------------------------------------------------
# Totient-formula fast route for k = 2
# ---------------------------------------------------------------------------

#: entries of phi scanned at a time for the primes above sqrt(x)
_PHI_SCAN = 1 << 16


def _phi_sieve(x: int) -> np.ndarray:
    """Euler's phi(n) for n = 0..x (phi[0] = 0)."""
    phi = np.arange(x + 1, dtype=np.int64)
    r = math.isqrt(x)
    for p in range(2, r + 1):
        if phi[p] == p:  # p untouched so far means prime
            phi[p::p] -= phi[p::p] // p
    # every composite n <= x has a prime factor <= r, so the n > r still
    # equal to phi[n] are the primes above r; scanned by chunks
    large = np.concatenate([np.zeros(0, np.int64)] + [
        np.flatnonzero(phi[lo:lo + _PHI_SCAN] == np.arange(lo, min(lo + _PHI_SCAN, x + 1))) + lo
        for lo in range(r + 1, x + 1, _PHI_SCAN)])
    # such a prime divides n = p*m with m < p, and n has no other prime
    # factor above r, so each m updates distinct entries once
    for m in range(1, x // (r + 1) + 1):
        ps = large[:np.searchsorted(large, x // m, side="right")]
        n = ps * m
        phi[n] -= phi[n] // ps
    return phi


def _at_marks(terms: Iterator[int], marks: Sequence[int]) -> list[int]:
    """The running sum of `terms` (the terms of n = 1, 2, ...) at each n of
    the ascending `marks`."""
    out, n, total = [], 0, 0
    for m in marks:
        total += sum(itertools.islice(terms, m - n))
        n = m
        out.append(total)
    return out


def fast_recip_lcm_sum2(x: int):
    """The k=2 reciprocal-lcm sum via sum_d phi(d)/d^2 * H(x//d)^2.

    Writing each pair through its gcd d turns the double sum into a single
    sum over d with squared harmonic numbers.  H(x//d) takes only about
    2*sqrt(x) values, so one loop walks the blocks of d sharing q = x//d in
    ascending q, fed by two prefix sums at the block marks: h = sum_{m<=q}
    s//m, the harmonic number at scale s, and P(D) = sum_{d<=D}
    phi(d)*t//d^2, whose difference over a block is its weight w at scale
    t; lo += h^2*w sums at scale s^2*t.  The two precisions differ in
    (s, t) and in who sums the prefixes.  For x <= FAST_S2_EXACT_LIMIT,
    s = lcm(1..x) and t = s^2 make every division exact and lo is the
    exact rational, equal to the brute route; its prefixes are Python ints,
    since the numerators are far past any machine word.  Above it,
    s = 2**FAST_S2_BITS with 32 guard bits on t, and both prefixes come
    from the vectorised floor sum `floor_prefix_sums`; each floored h is
    short by less than q and each w by less than the block length n, so lo
    and hi += (h + q)^2 * (w + n) give a dyadic enclosure at FAST_S2_BITS.
    """
    if x < 1:
        raise ValueError("x must be positive")
    if x > FAST_S2_MAX:
        raise ResourceLimitError(f"x = {x} exceeds {FAST_S2_MAX}")
    exact = x <= FAST_S2_EXACT_LIMIT
    phi = _phi_sieve(x)
    # block i is ends[i + 1] < d <= ends[i], sharing q = qs[i]; ascending q
    qs, ends = [], [x]
    while ends[-1]:
        qs.append(x // ends[-1])
        ends.append(x // (qs[-1] + 1))
    if exact:
        s = _lcm_upto(x)
        t = s * s
        hs = _at_marks((s // m for m in itertools.count(1)), qs)
        # the memoryview yields Python ints without copying phi into a list
        ps = _at_marks((p * t // (d * d) for d, p in enumerate(phi.data[1:], 1)),
                       ends[::-1])
    else:
        s = 1 << FAST_S2_BITS
        t = s << 32
        hs = floor_prefix_sums(1, FAST_S2_BITS, 1, qs)
        ps = floor_prefix_sums(2, FAST_S2_BITS + 32, 1, ends[::-1], phi)
    ps.reverse()  # ps[i] = P(ends[i])
    lo = hi = 0
    for q, h, d_hi, d_lo, p_hi, p_lo in zip(qs, hs, ends, ends[1:], ps, ps[1:]):
        w = p_hi - p_lo
        lo += h * h * w
        if not exact:
            hi += (h + q) ** 2 * (w + d_hi - d_lo)
    if exact:
        return Fraction(lo, s * s * t)
    # lo and hi are at scale s^2*t; dividing by s*t leaves s = 2**FAST_S2_BITS
    return BoundedReal(lo // (s * t), -(-hi // (s * t)), FAST_S2_BITS)


# ---------------------------------------------------------------------------
# Constrained coprime-tuple sums (the structural identity)
# ---------------------------------------------------------------------------

def _check_gwise(k: int, x: int) -> None:
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if x < 1:
        raise ValueError("x must be positive")


def _search_plan(k: int, pinned: bool):
    """The label order of the constrained search (most-constrained first)
    and, per position, the constraints the label enters, its graph
    neighbours assigned earlier in the order, and whether it is the pinned
    top label."""
    g = build_coprimality_graph(k)
    order = sorted(range(1, g.v + 1), key=lambda j: (-j.bit_count(), j))
    touching = [[i for i in range(k) if j in g.constraints[i]] for j in order]
    earlier = [[l for l in order[:pos] if g.adjacency[j] >> l & 1]
               for pos, j in enumerate(order)]
    pins = [pinned and j == g.v for j in order]
    return order, touching, earlier, pins


def _node_limit(node_budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"search exceeded {node_budget} nodes; shrink x")


def gwise_constrained_sum(
    k: int, x: int, fix_last_to_one: bool = False,
    node_budget: int = GWISE_NODE_BUDGET,
) -> Fraction:
    """Exact sum of 1/(a_1*...*a_v) over graph-wise coprime tuples under
    the hyperbolic product constraints prod_{j in A_i} a_j <= x.

    With fix_last_to_one the all-ones part (the tuple gcd) is pinned to 1,
    which flips the sum from the plain to the coprime variant.  Read from
    the kept range of (k, fix_last_to_one); raises ResourceLimitError iff
    the direct search at x (`gwise_sum_with_count`) visits more than
    `node_budget` nodes.

    Equals the brute k-fold sums bit-exactly: that equality is the
    decomposition identity the whole construction rests on.
    """
    _check_gwise(k, x)
    pinned = bool(fix_last_to_one)

    def build(top: int) -> dict[tuple, _Range]:
        ranges = _gwise_range(k, pinned, top, node_budget)
        return {("gwise", k, p): r for p, r in ranges.items()}

    r = _range_for(("gwise", k, pinned), x, build)
    total, _leaves, nodes = r.rows[x]
    if nodes > node_budget:
        raise _node_limit(node_budget)
    return Fraction(total, r.big)


def _gwise_range(k: int, pinned: bool, top: int,
                 node_budget: int) -> dict[bool, _Range]:
    """The constrained search at `top`, each node bucketed by its largest
    partial constraint product: the search at any x <= top visits exactly
    the nodes of bucket <= x, since partial products only grow along a
    path.  Rows: sum numerator, leaves, nodes.

    The pinned top label comes first in the order, so the pinned search is
    the root and the subtree of a = 1 at position 0, node for node.  The
    root and that subtree are bucketed into their own columns, and the
    plain search returns them as the pinned range too: {False: plain,
    True: pinned}; the pinned search returns {True: pinned}.
    """
    order, touching, earlier, pins = _search_plan(k, pinned)
    v = len(order)
    big = _lcm_upto(top)
    # columns (total, leaves, nodes) of the pinned part and of the rest
    ones, rest = ([[0] * (top + 1) for _ in range(3)] for _ in range(2))
    values = [1] * (v + 1)  # 1-indexed by label
    prods = [1] * k
    visited = ones[2][1] = 1  # the root

    def dfs(pos: int, denom: int, m: int, cols: list[list[int]]) -> None:
        # m is the largest partial constraint product, the node's bucket
        nonlocal visited
        j = order[pos]
        cons = touching[pos]
        hi = 1 if pins[pos] else min(top // prods[i] for i in cons)
        fixed = math.prod(values[l] for l in earlier[pos])
        if pos == v - 1:  # the children are leaves: bucket them here
            total, leaves, nodes = cols
            lim = max(prods[i] for i in cons)  # a leaf's bucket is max(m, lim*a)
            share = big // denom  # share // a == big // (denom * a)
            count = 0
            for a in range(1, hi + 1):
                if fixed > 1 and math.gcd(a, fixed) != 1:
                    continue
                mm = lim * a if lim * a > m else m
                nodes[mm] += 1
                leaves[mm] += 1
                total[mm] += share // a
                count += 1
            visited += count
            if visited > node_budget:
                raise _node_limit(node_budget)
            return
        for a in range(1, hi + 1):
            if fixed > 1 and math.gcd(a, fixed) != 1:
                continue
            visited += 1
            if visited > node_budget:
                raise _node_limit(node_budget)
            sub = rest if pos == 0 and a > 1 else cols
            values[j] = a
            mm = m
            for i in cons:
                prods[i] *= a
                if prods[i] > mm:
                    mm = prods[i]
            sub[2][mm] += 1
            dfs(pos + 1, denom * a, mm, sub)
            for i in cons:
                prods[i] //= a
            values[j] = 1

    dfs(0, 1, 1, ones)

    def prefix_rows(cols: list[list[int]]) -> _Range:
        sums = (itertools.accumulate(col) for col in cols)
        return _Range(top, big, list(zip(*sums)))

    out = {True: prefix_rows(ones)}
    if not pinned:
        out[False] = prefix_rows([[p + q for p, q in zip(a, b)]
                                  for a, b in zip(ones, rest)])
    return out


def gwise_sum_with_count(
    k: int, x: int, fix_last_to_one: bool = False,
    node_budget: int = GWISE_NODE_BUDGET,
) -> tuple[Fraction, int]:
    """`gwise_constrained_sum` by a direct search at x, and the number of
    tuples it summed (the search leaves), which the decomposition bijection
    makes equal to the brute tuple count (with fix_last_to_one, the gcd-1
    count).

    Depth-first over the parts, assigning the most-constrained labels first
    and pruning as soon as any partial constraint product exceeds x.
    """
    _check_gwise(k, x)
    order, touching, earlier, pins = _search_plan(k, fix_last_to_one)
    v = len(order)
    big = _lcm_upto(x)
    values = [1] * (v + 1)  # 1-indexed by label
    prods = [1] * k
    nodes = 0
    total = 0
    leaves = 0

    def dfs(pos: int, denom: int) -> None:
        nonlocal nodes, total, leaves
        nodes += 1
        if nodes > node_budget:
            raise _node_limit(node_budget)
        if pos == v:
            total += big // denom
            leaves += 1
            return
        j = order[pos]
        cons = touching[pos]
        top = 1 if pins[pos] else min(x // prods[i] for i in cons)
        # a part must be coprime to every neighbour's part, so to their product
        fixed = math.prod(values[l] for l in earlier[pos])
        for a in range(1, top + 1):
            if fixed > 1 and math.gcd(a, fixed) != 1:
                continue
            values[j] = a
            for i in cons:
                prods[i] *= a
            dfs(pos + 1, denom * a)
            for i in cons:
                prods[i] //= a
            values[j] = 1

    dfs(0, 1)
    return Fraction(total, big), leaves


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

    The alphas sum to the number of k-tuples with lcm <= x.
    """
    if x < 1:
        raise ValueError("x must be positive")
    big = _lcm_upto(x)
    alphas = [lcm_multiplicity(k, n) for n in range(1, x + 1)]
    num = sum(a * (big // n) for n, a in enumerate(alphas, start=1))
    return alphas, Fraction(num, big)


def lcm_multiplicity_sum(k: int, x: int) -> Fraction:
    """sum_{n<=x} (tuples with lcm n)/n, exact; a lower bound for the full sum."""
    return lcm_multiplicity_table(k, x)[1]


# ---------------------------------------------------------------------------
# Leading constants and error exponents
# ---------------------------------------------------------------------------

def theta_exponents(k: int) -> tuple[SurdRatio, SurdRatio, SurdRatio]:
    """Exact power-saving exponents (theta1, theta2, theta3) for k >= 3.

    theta1 = theta3 = (2^k/(k+1)^((k+1)/2)) * 3/(2^k + 6k - 5)
    theta2 =          (2^k/(k+1)^((k+1)/2)) * 3/(2^k + 6k - 6)

    (k+1)^((k+1)/2) is kept exact: an integer power for odd k, an integer
    power times sqrt(k+1) for even k.
    """
    if k < 3:
        raise ValueError("exponents are defined for k >= 3 only")
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


def leading_constants(k: int, target_error=Fraction(1, 2 * 10**9)) -> LeadingConstants:
    """Assemble the certified constants for k inputs.

    Cross-checks on the way: the coprime-variant constant computed as
    (2**k - 1) c must agree with density(top-dropped graph) * vol(D_star)
    (the dropped vertex is isolated, so the density is unchanged); a
    disjoint enclosure raises InvariantViolation.
    """
    if not (2 <= k <= 4):
        raise ValueError("k must be between 2 and 4")
    g = build_coprimality_graph(k)
    rho = coprime_density(g, target_error)
    vol_d = volume_of("D", k)
    vol_ds = volume_of("D_star", k)
    vol_ds2 = volume_of("D_star2", k)
    c = rho * vol_d
    c2 = (2**k - 1) * c
    c3 = rho * vol_ds2

    rho_star = coprime_density(g.isolated_top_removed(), target_error)
    c2_alt = rho_star * vol_ds
    if not c2.intersects(c2_alt):
        raise InvariantViolation(
            f"coprime constant mismatch: {c2!r} vs {c2_alt!r}")

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


def convergence_report(k: int, xs: Sequence[int],
                       constants: LeadingConstants | None = None,
                       budget: int = TUPLE_BUDGET) -> list[ConvergenceRow]:
    """Desk-scale growth table of the reciprocal-lcm sum against c * log^v x.

    Rows carry no pass/fail: at reachable x the convergence is O(1/log x)
    and only the k = 2 trend is quantitatively meaningful.
    """
    if constants is None:
        constants = leading_constants(k)
    cval = float(constants.c.value)
    rows = []
    power = 2**k - 1
    for x in xs:
        if k == 2:
            s = fast_recip_lcm_sum2(x)
        else:
            s = brute_recip_lcm_sum(k, x, budget=budget)
        sv = s.value if isinstance(s, BoundedReal) else s
        if x == 1:
            rows.append(ConvergenceRow(x, sv, None, cval, None, True))
            continue
        ratio = float(sv) / math.log(x) ** power
        rows.append(ConvergenceRow(x, sv, ratio, cval, ratio / cval, False))
    return rows
