"""Coprimality graphs and their local-factor polynomials.

The graph for k inputs lives on 2**k - 1 vertices labeled by the nonzero
k-bit strings.  Vertex j stands for the part of an input tuple shared by
exactly the inputs whose bit is set in j, so constraint set i collects every
vertex whose i-th bit is 1, and two vertices must carry coprime values
whenever an edge joins them, which it does exactly when neither label
contains the other.  Everything here is exact integer
combinatorics: independent-set counts, the inclusion-exclusion polynomial
over edge subsets, and the valuation-interval decomposition of an input
tuple into its 2**k - 1 coprime parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvariantViolation, ResourceLimitError
from .exactmath import factoring_limit, shared_sieve, stirling2

#: subset enumeration of independent sets is refused above this many vertices
MAX_ISM_VERTICES = 24

#: direct 2**|E| edge-subset expansion is refused above this many edges
MAX_EDGE_SUBSET_EDGES = 22

#: graphs on 2**k - 1 vertices are built for 2 <= k <= MAX_GRAPH_K
MAX_GRAPH_K = 5


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..v with unordered edges."""

    v: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"v must be non-negative, got {self.v}")
        for i, j in self.edges:
            if not (1 <= i < j <= self.v):
                raise ValueError(f"bad edge ({i},{j}) for v={self.v}")

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Bitmask neighbors per vertex; bit j of adjacency[i] marks edge (i,j)."""
        adj = [0] * (self.v + 1)
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)


@dataclass(frozen=True)
class CoprimalityGraph(Graph):
    """Graph on the nonzero k-bit labels, plus its hyperbolic constraint family."""

    k: int

    def __post_init__(self):
        super().__post_init__()
        if self.v != 2**self.k - 1:
            raise ValueError("vertex count must be 2**k - 1")

    @cached_property
    def constraints(self) -> tuple[frozenset[int], ...]:
        """constraints[i] is the set of labels whose (i+1)-th bit from the
        right is set; the product of the parts over constraints[i]
        reconstructs input i."""
        return constraint_family(self.k)


def constraint_family(k: int) -> tuple[frozenset[int], ...]:
    return tuple(
        frozenset(j for j in range(1, 2**k) if j >> i & 1) for i in range(k)
    )


def build_coprimality_graph(k: int) -> CoprimalityGraph:
    """The coprimality graph for k inputs: J and K are joined iff neither
    label contains the other (J & K is neither J nor K).

    By `decompose_tuple`, a prime p divides part J exactly when the least
    p-valuation over the inputs in J exceeds 0 and every p-valuation over
    the inputs outside J.  If J and K each hold an input the other lacks,
    say i in J \\ K and l in K \\ J, then part J needs v_p(n_i) > v_p(n_l)
    and part K needs the reverse, so no prime divides both.  If J is inside
    K, valuations that are 2 on J, 1 on K \\ J and 0 elsewhere put p in
    both, so no edge can join a nested pair.  The all-ones label contains
    every other and is isolated.
    """
    if not (2 <= k <= MAX_GRAPH_K):
        raise ValueError(f"k must be between 2 and {MAX_GRAPH_K}")
    v = 2**k - 1
    edges = frozenset((j, l) for j in range(1, v + 1) for l in range(j + 1, v + 1)
                      if j & l not in (j, l))
    return CoprimalityGraph(v=v, edges=edges, k=k)


def edge_count_formula(k: int) -> int:
    """Closed form 2**(k-1) * (2**k + 1) - 3**k for the edge count."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return 2 ** (k - 1) * (2**k + 1) - 3**k


# ---------------------------------------------------------------------------
# Independent sets and local-factor polynomials
# ---------------------------------------------------------------------------

def independent_set_counts(g: Graph) -> tuple[int, ...]:
    """(i_0, ..., i_v) where i_m counts independent vertex sets of size m.

    Exhaustive over all 2**v subsets with bitmask adjacency pruning, so the
    counts are exact by construction.
    """
    if g.v > MAX_ISM_VERTICES:
        raise ResourceLimitError(
            f"{g.v} vertices exceed the 2**{MAX_ISM_VERTICES} subset budget")
    adj = g.adjacency
    counts = [0] * (g.v + 1)
    counts[0] = 1
    n = 1 << (g.v + 1)
    # ok[mask] == 1 iff mask (over bits 1..v; bit 0 unused) is independent
    ok = bytearray(n)
    ok[0] = 1
    for mask in range(2, n, 2):
        low = mask & -mask
        rest = mask ^ low
        if ok[rest] and not (adj[low.bit_length() - 1] & rest):
            ok[mask] = 1
            counts[mask.bit_count()] += 1
    return tuple(counts)


def stirling_ism_counts(k: int) -> tuple[int, ...]:
    """Independent-set counts of the k-input graph from the Stirling closed form.

    i_m = S(k,m) m! + S(k,m+1) (m+1)!, vanishing for m > k; an independent
    route around the subset enumeration.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    v = 2**k - 1
    out = []
    for m in range(v + 1):
        out.append(
            stirling2(k, m) * math.factorial(m)
            + stirling2(k, m + 1) * math.factorial(m + 1)
        )
    return tuple(out)


def expand_one_minus_x(weights: Sequence[int], n: int) -> list[int]:
    """Coefficients (c_0..c_n) of sum_m w_m x^m (1-x)^(n-m), in exact integers."""
    acc = [0] * (n + 1)
    for m, w in enumerate(weights):
        if w:
            for i in range(n - m + 1):
                acc[m + i] += (-1) ** i * math.comb(n - m, i) * w
    return acc


def local_factor_poly(g: Graph) -> tuple[int, ...]:
    """Coefficients (c_0..c_v) of the graph's local Euler-factor polynomial.

    Production route: expand sum_m i_m (1-x)^(v-m) x^m from the
    independent-set counts.  The value at 1/p is the density correction the
    graph imposes at the prime p; c_0 = 1, c_1 = 0, c_2 = -|E| always hold
    and are checked.
    """
    acc = expand_one_minus_x(independent_set_counts(g), g.v)
    _check_local_poly(acc, len(g.edges))
    return tuple(acc)


def local_factor_poly_by_edge_subsets(g: Graph) -> tuple[int, ...]:
    """Same polynomial by signed inclusion-exclusion over edge subsets.

    sum over F subseteq E of (-1)^|F| x^(number of vertices F touches);
    exponential in |E|, kept as an independent verification route.
    """
    e = len(g.edges)
    if e > MAX_EDGE_SUBSET_EDGES:
        raise ResourceLimitError(
            f"{e} edges exceed the 2**{MAX_EDGE_SUBSET_EDGES} subset budget; "
            "use local_factor_poly instead")
    masks = [(1 << i) | (1 << j) for i, j in sorted(g.edges)]
    coeffs = [0] * (g.v + 1)
    coeffs[0] = 1
    cover = [0] * (1 << e)
    for s in range(1, 1 << e):
        low = s & -s
        cover[s] = cover[s ^ low] | masks[low.bit_length() - 1]
        coeffs[cover[s].bit_count()] += -1 if s.bit_count() & 1 else 1
    _check_local_poly(coeffs, e)
    return tuple(coeffs)


def _check_local_poly(coeffs: Sequence[int], edge_count: int) -> None:
    """c_0 = 1, c_1 = 0 and c_2 = -|E|, as far as the degree reaches (a graph
    with an edge has two vertices, so its polynomial reaches c_2)."""
    head = tuple(coeffs[:3])
    if head != (1, 0, -edge_count)[:len(head)]:
        raise InvariantViolation(
            f"local polynomial starts {head}, expected (1, 0, {-edge_count})")


# ---------------------------------------------------------------------------
# Tuple decomposition
# ---------------------------------------------------------------------------

def decompose_tuple(k: int, n: Sequence[int]) -> tuple[int, ...]:
    """Split (n_1..n_k) into the 2**k - 1 coprime parts indexed by bit labels.

    For label j the exponent of p in part j is the length of the interval
    intersection of [0, v_p(n_i)] over set bits with the complements over
    clear bits: max(0, min over set bits - max over clear bits).  The parts
    reconstruct each n_i as the product over the matching constraint set,
    multiply to lcm(n), and share no prime across any edge of the graph.
    Entries up to 2**40 are factored over the shared sieve tables.
    """
    if len(n) != k:
        raise ValueError(f"expected a {k}-tuple")
    if any(x < 1 for x in n):
        raise ValueError("entries must be positive")
    tables = shared_sieve(factoring_limit(max(n, default=1)))
    factored = [dict(tables.factor(x)) for x in n]
    primes = sorted(set().union(*[set(f) for f in factored]))
    parts = [1] * (2**k - 1)
    for p in primes:
        vals = [f.get(p, 0) for f in factored]
        for j in range(1, 2**k):
            lo = min(vals[i] for i in range(k) if j >> i & 1)
            clear = [vals[i] for i in range(k) if not (j >> i & 1)]
            hi = max(clear) if clear else 0
            if lo > hi:
                parts[j - 1] *= p ** (lo - hi)
    return tuple(parts)


def is_gwise_coprime(g: Graph, a: Sequence[int]) -> bool:
    """True iff gcd(a_i, a_j) == 1 for every edge (i, j) of g."""
    if len(a) != g.v:
        raise ValueError(f"tuple length {len(a)} != vertex count {g.v}")
    return all(math.gcd(a[i - 1], a[j - 1]) == 1 for i, j in g.edges)


# ---------------------------------------------------------------------------
# Text dump (CLI-facing, byte-deterministic)
# ---------------------------------------------------------------------------

def graph_dump(g: CoprimalityGraph) -> str:
    lines = [f"k={g.k}", f"v={g.v}"]
    lines.append("edges=" + ",".join(f"{i}-{j}" for i, j in sorted(g.edges)))
    for i, a in enumerate(g.constraints, start=1):
        lines.append(f"A_{i}=" + ",".join(str(j) for j in sorted(a)))
    return "\n".join(lines) + "\n"
