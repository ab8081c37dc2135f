"""Exact rational volumes of hyperbolic-constraint polytopes.

A polytope here is {t in [0, inf)^dim : sum_{j in A_i} t_j <= 1} for a
family of 0/1 constraint sets A_i.  Its volume is recovered exactly from
lattice-point counts of integer dilates.  The counting function is a
quasi-polynomial E(n) = sum_i c_i(n) n**i with c_dim = vol, and by
McMullen's theorem the period of c_i divides the i-index of the polytope.
`period_bounds` certifies a multiple D_i of every i-index from the
constraint matrix alone, with D_{i+1} dividing D_i, and the mixed-step
difference Delta_{D_0} Delta_{D_1} ... Delta_{D_{dim-1}} then takes every
c_i(n) n**i with i < dim to zero and E to dim! * prod(D_i) * vol, which
hands back the volume as an exact rational.  When every D_i is 1 this is
the plain dim-th difference.

The samples are consecutive dilates on both sides of 0.  Ehrhart-Macdonald
reciprocity gives E(-n) = (-1)**dim * #interior(n-dilate), and the interior
points of the n-dilate (t >= 1, every constraint sum <= n - 1) become,
under t = s + 1, the lattice points of the same polytope with budget
n - 1 - |A_i| on constraint i.  Splitting the samples between negative and
positive dilates roughly halves the largest budget the counts need.  Two
samples beyond the operator's span shift its window by one dilate each,
and all three windows must agree, so a bound that is too small raises
`PeriodDetectionError` instead of returning a volume.

Counts come from a budget dynamic program: the state is the tuple of
per-constraint partial sums, one array axis per constraint, each axis as
long as its largest budget, and adding a coordinate that feeds constraints
S is a prefix sum along the diagonal direction chi_S.  The axes are
finished in index order, each right after the coordinates whose lowest
constraint it is: a finished axis is prefix-summed once more and cut down
to the budgets sampled on it.  Arrays hold exact int64 counts, one pass
per `lattice_counts` call.  A prefix step sums at most one axis length of
entries, so it is refused with `ResourceLimitError` unless the largest
entry times that length stays below 2**63, before any entry could wrap.
The certified sample plans stay far below that: their largest such
product is about 2**28.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coprimality import constraint_family
from .errors import PeriodDetectionError, ResourceLimitError

#: supported polytope families
KINDS = ("D", "D_star", "D_star2", "D_star3", "T")

#: dimension cap for the Ehrhart route
MAX_DIM = 16

#: cap, in bytes, on the DP's working memory: the state table plus the
#: temporaries of retiring an axis, checked before anything is allocated
STATE_BUDGET = 2**30

#: bytes per DP state at the peak: the int64 table and the int64 slice of
#: sampled budgets an axis retirement takes from it.  A prefix step's
#: temporary is one hyperplane, at most half the table, and is freed before
#: the slice is taken.
BYTES_PER_STATE = 8 + 8


@dataclass(frozen=True)
class HyperbolicPolytope:
    """{t >= 0 : sum over each constraint set <= 1}, constraints as 0-based sets."""

    dim: int
    constraints: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"dim must be non-negative, got {self.dim}")
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds {MAX_DIM}")
        covered: set[int] = set()
        for a in self.constraints:
            if not a:
                raise ValueError("empty constraint set")
            if min(a) < 0 or max(a) >= self.dim:
                raise ValueError("constraint indexes out of range")
            covered |= a
        if self.dim and covered != set(range(self.dim)):
            raise ValueError("constraints must cover every coordinate (else unbounded)")


@dataclass(frozen=True)
class EhrhartSamples:
    """Counts at consecutive dilates, read under the period bounds D_0..D_{dim-1}.

    `bounds` are the certified bounds of `period_bounds`; `counts` are the
    closed counts L(0), L(1), ...; `interior_counts` are the interior point
    counts of the dilates 1, 2, ..., which by reciprocity are (-1)**dim
    times the counting function at -1, -2, ...
    """

    bounds: tuple[int, ...]
    counts: tuple[int, ...]
    interior_counts: tuple[int, ...] = ()

    def __post_init__(self):
        if any(b < 1 for b in self.bounds):
            raise ValueError("period bounds must be positive")
        if any(a % b for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("each period bound must divide the one before")
        if not self.counts:
            raise ValueError("counts must hold L(0)")
        if self.counts[0] != 1:
            raise ValueError("L(0) must be 1")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-decreasing")
        if any(c < 0 for c in self.interior_counts):
            raise ValueError("interior counts must be non-negative")
        if any(b < a for a, b in zip(self.interior_counts, self.interior_counts[1:])):
            raise ValueError("interior counts must be non-decreasing")


def build_polytope(kind: str, k: int) -> HyperbolicPolytope:
    """The five constraint families attached to the k-input coprimality graph.

    D     : all 2**k - 1 labels, constraint i = labels with bit i set.
    D_star: D with the all-ones label dropped.
    D_star2: D with the k single-bit labels dropped (all-ones kept).
    D_star3: D with single-bit labels and the all-ones label dropped.
    T     : all labels under the single constraint sum t_j <= 1.

    Coordinates are re-indexed densely in increasing label order; constraint
    sets that become empty after dropping labels are omitted.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not (2 <= k <= 4):
        raise ValueError("k must be between 2 and 4")
    v = 2**k - 1
    labels = list(range(1, v + 1))
    if kind in ("D_star", "D_star3"):
        labels.remove(v)
    if kind in ("D_star2", "D_star3"):
        for i in range(k):
            labels.remove(1 << i)
    pos = {lab: idx for idx, lab in enumerate(labels)}
    if kind == "T":
        cons: list[frozenset[int]] = [frozenset(range(len(labels)))]
    else:
        cons = []
        for a in constraint_family(k):
            dense = frozenset(pos[lab] for lab in a if lab in pos)
            if dense:
                cons.append(dense)
    return HyperbolicPolytope(dim=len(labels), constraints=tuple(cons))


# ---------------------------------------------------------------------------
# Lattice counting
# ---------------------------------------------------------------------------

def _prefix(arr: np.ndarray, axes: Sequence[int]) -> None:
    """Prefix sums along the direction chi_axes, in place, exact in int64.

    Hyperplane idx of axis axes[0] gains hyperplane idx - 1 shifted by one
    along every other axis, so each entry ends as the sum of at most
    arr.shape[axes[0]] non-negative entries, none above arr.max().  The
    step is refused before it starts unless that bound is below 2**63.
    `idx:idx+1` slices keep a 1-D table an array.
    """
    a0, rest = axes[0], axes[1:]
    top = int(arr.max())
    if top * arr.shape[a0] >= 2**63:
        raise ResourceLimitError(
            f"lattice counts may pass int64: entries up to {top} "
            f"summed {arr.shape[a0]} at a time")
    for idx in range(1, arr.shape[a0]):
        dst = [slice(None)] * arr.ndim
        src = [slice(None)] * arr.ndim
        dst[a0], src[a0] = slice(idx, idx + 1), slice(idx - 1, idx)
        for ax in rest:
            dst[ax], src[ax] = slice(1, None), slice(0, -1)
        arr[tuple(dst)] += arr[tuple(src)]


def _budgets(
    p: HyperbolicPolytope, ns: Sequence[int], interior: Sequence[int]
) -> list[tuple[int, ...]]:
    """Per-constraint budget vectors: n on every constraint for a closed
    count, n - 1 - |A_i| on constraint i for an interior count (t = s + 1)."""
    return ([(n,) * len(p.constraints) for n in ns]
            + [tuple(n - 1 - len(a) for a in p.constraints) for n in interior])


def _budget_counts(
    p: HyperbolicPolytope, budgets: Sequence[tuple[int, ...]]
) -> list[int]:
    """Exact counts of {s >= 0 : sum over A_i <= b_i} for each budget vector b."""
    live = sorted({b for b in budgets if min(b) >= 0})  # a negative budget counts 0
    if not live:
        return [0] * len(budgets)
    nc = len(p.constraints)
    sample = [sorted({b[c] for b in live}) for c in range(nc)]
    states = math.prod(s[-1] + 1 for s in sample)
    if states * BYTES_PER_STATE > STATE_BUDGET:
        raise ResourceLimitError(
            f"DP state table of {states} entries needs {states * BYTES_PER_STATE} "
            f"bytes with temporaries, over the budget of {STATE_BUDGET}")
    memberships = tuple(
        tuple(c for c, a in enumerate(p.constraints) if j in a)
        for j in range(p.dim)
    )
    # one DP serves every live budget vector.  Axis c is as long as its
    # largest budget.  The axes are finished in order: for c = 0, 1, ...,
    # every coordinate whose lowest constraint is c takes its prefix step,
    # and then axis c is prefix-summed once more and cut down to the budgets
    # sampled on it.  Prefix steps commute, and an axis is cut only after
    # every coordinate on it has stepped, so the order changes the cost,
    # never the counts.  A budget vector is read at its per-axis sample
    # positions.
    arr = np.zeros(tuple(s[-1] + 1 for s in sample), dtype=np.int64)
    arr[(0,) * nc] = 1
    for c in range(nc):
        for axes in memberships:
            if min(axes) == c:
                _prefix(arr, axes)
        _prefix(arr, (c,))
        arr = arr.take(sample[c], axis=c)
    exact = {b: int(arr[tuple(s.index(n) for s, n in zip(sample, b))])
             for b in live}
    return [exact.get(b, 0) for b in budgets]


def lattice_counts(
    p: HyperbolicPolytope, ns: Sequence[int], interior: Sequence[int] = ()
) -> list[int]:
    """Exact lattice point counts of the ns-dilates, then the interior point
    counts (t >= 1, every constraint sum <= n - 1) of the `interior` dilates,
    in that order, from one DP shared by all."""
    if any(n < 0 for n in (*ns, *interior)):
        raise ValueError("dilates must be non-negative")
    if p.dim == 0:
        return [1 for _ in (*ns, *interior)]
    if len(p.constraints) > 4:
        raise ValueError("at most 4 constraints supported")
    return _budget_counts(p, _budgets(p, ns, interior))


# ---------------------------------------------------------------------------
# Period bounds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _echelon_insert(
    basis: tuple[tuple[int, tuple[int, ...]], ...], v: tuple[int, ...]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """An echelon Z-basis of the lattice spanned by `basis` and v.

    `basis` holds (pivot, vector) pairs with increasing pivots, each vector
    zero before its positive pivot entry.  v is reduced against each pivot
    it reaches by a unimodular extended-gcd step, and what is left of it
    becomes a new basis vector.
    """
    out = []
    rest = list(basis)
    while rest and any(v):
        piv, b = rest[0]
        lead = next(j for j, x in enumerate(v) if x)
        if lead < piv:
            break
        rest.pop(0)
        if lead == piv:
            # x*b_p + y*v_p = g > 0; the 2x2 step has determinant 1
            g, x, y = _egcd(b[piv], v[piv])
            bp, vp = b[piv] // g, v[piv] // g
            b, v = (tuple(x * s + y * t for s, t in zip(b, v)),
                    tuple(bp * t - vp * s for s, t in zip(b, v)))
        out.append((piv, b))
    if any(v):
        lead = next(j for j, x in enumerate(v) if x)
        out.append((lead, v if v[lead] > 0 else tuple(-x for x in v)))
    return tuple(out + rest)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


@lru_cache(maxsize=4096)
def _least_multiple(basis: tuple[tuple[int, tuple[int, ...]], ...],
                    m: int) -> int | None:
    """Least D > 0 with D * (1, ..., 1) (length m) in the lattice of an
    echelon basis, or None if (1, ..., 1) is not in its rational span.

    Over Q the coordinates of 1 in the basis have denominators dividing the
    product P of the pivots, so P * 1 reduces with integer coefficients
    P * a_k, and the least D is P / gcd(P, P * a_1, ..., P * a_r).
    """
    scale = math.prod(b[piv] for piv, b in basis)
    w = [scale] * m
    g = scale
    for piv, b in basis:
        if any(w[:piv]):
            return None
        a = w[piv] // b[piv]  # exact, see above
        g = math.gcd(g, a)
        w = [s - a * t for s, t in zip(w, b)]
    return None if any(w) else scale // g


def _subspace_classes(p: HyperbolicPolytope):
    """Every class of subspaces {t_Z = 0, sum_{A_r} t = 1 for r in I} the
    bound search visits, as (T, D, top).

    Coordinate j restricted to I is a 0/1 column type; a subspace's free
    coordinates have types T (zero type aside), its least D (D * 1 in the
    integer span of T, None if 1 is not even in the rational span) depends
    on T alone, and its dimension is the number of free coordinates less
    rank(T), at most `top` when every coordinate of a type in T or of zero
    type is free.  For each non-empty I the type sets are searched depth
    first, one column added to the parent's echelon basis at a time.  A set
    with D = 1 is yielded but not extended: a larger set spans a larger
    lattice, so it has D = 1 too and can raise no bound.
    """
    nc = len(p.constraints)
    for rows in range(1, 1 << nc):
        cols = [tuple(int(j in a) for r, a in enumerate(p.constraints)
                      if rows >> r & 1) for j in range(p.dim)]
        zero = (0,) * len(cols[0])
        counts = {t: cols.count(t) for t in sorted(set(cols)) if t != zero}
        types = list(counts)
        stack = [(0, (), (), cols.count(zero))]
        while stack:
            start, chosen, basis, free = stack.pop()
            for i in range(start, len(types)):
                t = types[i]
                grown = _echelon_insert(basis, t)
                d = _least_multiple(grown, len(t))
                top = free + counts[t] - len(grown)
                yield chosen + (t,), d, top
                if d != 1:
                    stack.append((i + 1, chosen + (t,), grown, free + counts[t]))


def period_bounds(p: HyperbolicPolytope) -> tuple[int, ...]:
    """(D_0, ..., D_{dim-1}): the period of the Ehrhart coefficient c_i
    divides D_i, and D_{i+1} divides D_i.

    McMullen: the period of c_i divides the i-index, the least D such that
    the affine hull of every i-dimensional face of D * P holds an integer
    point.  The affine hull of a face is a subspace {t_Z = 0, sum_{A_r} t = 1
    for r in I}, and D times it holds an integer point exactly when D * 1 is
    in the integer span of the free columns restricted to I.  D_i is the lcm
    of that least D over every such subspace of dimension i or more, faces
    or not, so it is a multiple of every j-index with j >= i.
    """
    needed: dict[int, int] = {}  # least D > 1 -> largest dimension needing it
    for _, d, top in _subspace_classes(p):
        if d is not None and d > 1 and top > needed.get(d, -1):
            needed[d] = top
    return tuple(math.lcm(*(d for d, top in needed.items() if top >= i))
                 for i in range(p.dim))


# ---------------------------------------------------------------------------
# Volume extraction
# ---------------------------------------------------------------------------

def _sample_window(
    p: HyperbolicPolytope, bounds: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Closed dilates 0..b and interior dilates 1..a, a + b = sum(bounds) + 2.

    Together they are the consecutive samples -a..b of the counting
    function: the span of the difference operator plus two shifted windows.
    a is chosen to minimise the largest per-constraint budget,
    max(b, a - 1 - min |A_i|), preferring fewer interior samples.
    """
    last = sum(bounds) + 2
    smallest = min(len(a) for a in p.constraints)
    a = min(range(last + 1), key=lambda a: (max(last - a, a - 1 - smallest), a))
    return list(range(last - a + 1)), list(range(1, a + 1))


def leading_coeff_by_differences(
    values: Sequence[int | Fraction], degree: int, steps: Sequence[int]
) -> Fraction:
    """Leading coefficient of a degree-`degree` quasi-polynomial from its
    values at consecutive integers.

    `steps` is the difference schedule s_1..s_degree: the operator
    Delta_{s_1} ... Delta_{s_degree}, with Delta_m f(x) = f(x + m) - f(x),
    takes a x**degree to degree! * prod(s_j) * a, and the result is that
    value divided back, in exact rationals.  It takes a term c_i(x) x**i,
    i < degree, to zero when at least i + 1 of the steps are multiples of
    the period of c_i, so with steps of unequal size it reads a leading
    coefficient under lower coefficients of unequal periods.

    It reads sum(s_j) + 1 values; each extra value shifts the window by
    one and must give the same difference, a cross-check that the values
    fit.
    """
    steps = tuple(steps)
    if len(steps) != degree or any(s < 1 for s in steps):
        raise ValueError(f"need {degree} positive steps, got {steps}")
    if len(values) < sum(steps) + 1:
        raise ValueError(
            f"need at least {sum(steps) + 1} samples for degree {degree} "
            f"at steps {steps}, got {len(values)}")
    vals = [Fraction(v) for v in values]
    for s in steps:
        vals = [b - a for a, b in zip(vals, vals[s:])]
    if any(v != vals[0] for v in vals[1:]):
        raise ValueError(
            "the differences of the shifted windows disagree; samples are not "
            f"a quasi-polynomial of degree {degree} killed by steps {steps}")
    return vals[0] / (math.factorial(degree) * math.prod(steps))


def ehrhart_data(p: HyperbolicPolytope) -> tuple[Fraction, EhrhartSamples]:
    """Exact volume plus the count samples that certified it.

    The counts at -a..b (see `_sample_window`; the values at negative
    dilates are interior counts by reciprocity) go through the difference
    operator of steps `period_bounds(p)` at three consecutive offsets.  The
    three windows must agree (the shifted windows are the cross-validation),
    and then vol = diff / (dim! * prod(D_i)), in exact rationals.
    """
    v = p.dim
    if v == 0:
        return Fraction(1), EhrhartSamples((), (1,))
    bounds = period_bounds(p)
    ns, inner = _sample_window(p, bounds)
    counts = lattice_counts(p, ns, interior=inner)
    samples = EhrhartSamples(bounds, tuple(counts[:len(ns)]),
                             tuple(counts[len(ns):]))
    values = ([(-1) ** v * c for c in reversed(samples.interior_counts)]
              + list(samples.counts))
    try:
        vol = leading_coeff_by_differences(values, v, bounds)
    except ValueError as exc:
        raise PeriodDetectionError(
            f"period bounds {bounds} do not fit the counts: {exc}",
            samples=samples) from exc
    if vol <= 0:
        raise PeriodDetectionError(
            f"degenerate leading coefficient {vol} under period bounds {bounds}",
            samples=samples)
    return vol, samples


@lru_cache(maxsize=None)
def volume_of(kind: str, k: int) -> Fraction:
    """Cached exact volume of a named polytope family member."""
    return ehrhart_data(build_polytope(kind, k))[0]


def volume_relations_check(k: int) -> tuple[tuple[str, Fraction, Fraction], ...]:
    """Cone relations tying the dropped-coordinate volumes together, as
    (name, lhs, rhs) triples that hold when lhs == rhs, bit-exact.

    vol(D) = vol(D_star) / (2**k - 1): the all-ones coordinate sits in every
    constraint, so integrating it out scales by 1/dim(D).  Likewise
    vol(D_star2) = vol(D_star3) / (2**k - k - 1).
    """
    return (
        ("vol(D) == vol(D_star)/(2**k-1)",
         volume_of("D", k), volume_of("D_star", k) / (2**k - 1)),
        ("vol(D_star2) == vol(D_star3)/(2**k-k-1)",
         volume_of("D_star2", k), volume_of("D_star3", k) / (2**k - k - 1)),
    )


# ---------------------------------------------------------------------------
# Inequality-matrix export
# ---------------------------------------------------------------------------

def ieqs_rows(p: HyperbolicPolytope) -> list[list[int]]:
    """H-representation rows [b, a_1..a_dim] meaning b + a.t >= 0.

    One row [1, -(j in A_i)] per constraint in family order, then the dim
    non-negativity unit rows.
    """
    rows = []
    for a in p.constraints:
        rows.append([1] + [-1 if j in a else 0 for j in range(p.dim)])
    for j in range(p.dim):
        rows.append([0] + [1 if i == j else 0 for i in range(p.dim)])
    return rows


def export_ieqs(p: HyperbolicPolytope) -> str:
    """Worksheet-style text form of the inequality matrix, one row per line."""
    rows = ieqs_rows(p)
    body = ",\n".join(str(r) for r in rows)
    return f"P=Polyhedron(ieqs=[\n{body}])\nP.volume()\n"
