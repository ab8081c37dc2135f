"""Certified evaluation of Euler products over graph local-factor polynomials.

The density constant of a graph is the product over primes of its local
polynomial evaluated at 1/p.  Truncating that product raw converges like
1/P, hopeless for eight certified digits, so the polynomial is first
factored through (1 - x^j) pieces:

    Q(x) = prod_{j=2..J} (1 - x^j)^(b_j) * R(x),   R(x) = 1 + O(x^(J+1)),

with integer exponents b_j read from the integer coefficients of x Q'/Q and
the remainder identity verified exactly in integer arithmetic.  Multiplying
and dividing by the sieved primes below a cutoff P turns the product into

    prod_{p<=P} Q(1/p) * prod_j [zeta(j) * prod_{p<=P}(1 - p^-j)]^(-b_j)
    * prod_{p>P} R(1/p),

where every factor is numerically tame: the first is the raw finite
product, the bracket is the zeta tail past P (close to 1), and the last is
enclosed by a Cauchy-estimate coefficient bound on R, giving a rigorous
interval whose width drops like P**-J.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .coprimality import (Graph, build_coprimality_graph, expand_one_minus_x,
                          local_factor_poly, stirling_ism_counts)
from .errors import PrecisionError, ResourceLimitError
from .exactmath import (
    BoundedReal,
    CERTIFIED_BITS,
    shared_sieve,
    stirling2,
    zeta_value,
)

#: default acceleration order (factor out (1-x^j) up to j = ORDER)
DEFAULT_ORDER = 12

#: prime cutoffs double from here until the tail bound meets the target
MIN_PRIME_CUTOFF = 64
MAX_PRIME_CUTOFF = 1 << 22

#: default certified absolute error
DEFAULT_TARGET = Fraction(1, 2 * 10**9)

#: the series identities refuse a degree past this: 2**30 bytes of working
#: set at k = 4, at 112 bytes per degree (notes/decisions.md)
IDENTITY_MAX_DEGREE = (1 << 30) // 112

#: Cauchy radii tried for the remainder coefficient bound, largest first
RADIUS_LADDER = tuple(Fraction(1, d) for d in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48))


# ---------------------------------------------------------------------------
# Formal series with integer coefficients
# ---------------------------------------------------------------------------

def _series_mul(a: list[int], b: list[int], deg: int) -> list[int]:
    out = [0] * (deg + 1)
    for i, ai in enumerate(a[: deg + 1]):
        if ai:
            for j, bj in enumerate(b[: deg + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _log_derivative(q: Sequence[int], deg: int) -> list[int]:
    """mu_0..mu_deg of x Q'/Q for Q(0) = 1, from x Q' = Q * (x Q'/Q): mu_n =
    n q_n - sum_{0<m<n} mu_m q_{n-m}, an integer for integer q."""
    qq = list(q) + [0] * (deg + 1)
    mu = [0] * (deg + 1)
    for n in range(1, deg + 1):
        mu[n] = n * qq[n] - sum(mu[m] * qq[n - m] for m in range(1, n))
    return mu


def _geometric_factor(j: int, bj: int, deg: int) -> list[int]:
    """(1 - x^j)^(-bj) as a series to degree deg (bj of either sign)."""
    out = [0] * (deg + 1)
    if bj > 0:
        for mm in range(deg // j + 1):
            out[mm * j] = math.comb(mm + bj - 1, bj - 1)
    else:
        for mm in range(min(-bj, deg // j) + 1):
            out[mm * j] = (-1) ** mm * math.comb(-bj, mm)
    return out


@dataclass(frozen=True)
class ZetaFactorization:
    """Integer exponents b_j with Q(x) = prod (1-x^j)^(b_j) * (1 + O(x^(J+1)))."""

    order: int
    exponents: dict[int, int]


def zeta_factorization(coeffs: Sequence[int], order: int = DEFAULT_ORDER) -> ZetaFactorization:
    """Factor the polynomial through (1 - x^j) pieces up to j = order.

    The exponents come from matching logarithmic derivatives: with mu_n the
    n-th coefficient of x Q'/Q, mu_n = -sum_{j | n} j b_j, solved recursively.
    Each b_n must come out an integer (the polynomial has integer coefficients
    and constant term 1); a non-integer aborts loudly.  The residual series
    is then recomputed by direct multiplication and required to be exactly
    1 + O(x^(order+1)), so only the exponents are kept.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    if len(coeffs) > 1 and coeffs[1] != 0:
        raise ValueError("linear coefficient must vanish")
    mu = _log_derivative(coeffs, order)
    b: dict[int, int] = {}
    for n in range(2, order + 1):
        s = -mu[n] - sum(j * b[j] for j in b if n % j == 0)
        bn, r = divmod(s, n)
        if r:
            raise ArithmeticError(f"non-integer factorization exponent b_{n} = {s}/{n}")
        if bn:
            b[n] = bn
    residual = list(coeffs[: order + 1])
    for j, bj in b.items():
        residual = _series_mul(residual, _geometric_factor(j, bj, order), order)
    if residual[0] != 1 or any(residual[1:]):
        raise ArithmeticError("residual series is not 1 + O(x^(order+1))")
    return ZetaFactorization(order=order, exponents=b)


# ---------------------------------------------------------------------------
# Certified product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerProductResult:
    value: BoundedReal
    primes_used: int
    prime_cutoff: int
    factorization: ZetaFactorization


def _coeff_bound(coeffs: Sequence[int], b: dict[int, int],
                 radius: Fraction) -> Fraction | None:
    """Upper bound for max |R| on the circle |x| = radius, or None if huge.

    Triangle inequality per factor: |Q| <= sum |c_a| r^a, |1-x^j| within
    [1 - r^j, 1 + r^j].  Rejects radii at which the bound exceeds 2**24
    (a tighter radius will be tried instead).  A factor with |b_j| r^j >= 24
    passes 2**24 alone, so it is rejected before its power is formed.
    """
    bits = CERTIFIED_BITS
    acc = BoundedReal.exact(sum(abs(c) * radius**a for a, c in enumerate(coeffs)), bits)
    for j, bj in b.items():
        rj = radius**j
        if abs(bj) * rj >= 24:
            return None
        if bj > 0:
            acc = acc * BoundedReal.exact(1 - rj, bits) ** (-bj)
        else:
            acc = acc * BoundedReal.exact(1 + rj, bits) ** (-bj)
        if acc.hi > 1 << 24:
            return None
    return acc.hi


def euler_product(
    coeffs: Sequence[int],
    target_error=DEFAULT_TARGET,
    order: int = DEFAULT_ORDER,
    prime_cutoff: int | None = None,
) -> EulerProductResult:
    """prod over primes of Q(1/p) for an integer polynomial Q, certified.

    Preconditions checked along the way: Q(1/p) > 0 for every prime below
    the cutoff (the enclosure of each local factor must be positive), and
    past the cutoff positivity follows from the remainder bound.  Raises
    PrecisionError if the final enclosure is wider than target_error, and
    ValueError for an empty polynomial or a non-positive order or cutoff.
    Enclosures carry CERTIFIED_BITS, the precision of the zeta values they
    use.  Results are cached (the computation is pure).
    """
    target = Fraction(target_error)
    if target <= 0:
        raise ValueError("target_error must be positive")
    if any(isinstance(c, bool) for c in coeffs):
        raise TypeError(f"coefficients must be integers, not bool: {coeffs!r}")
    coeffs = tuple(map(operator.index, coeffs))
    if not coeffs:
        raise ValueError("polynomial must not be empty")
    if order < 1:
        raise ValueError("order must be positive")
    if prime_cutoff is not None and prime_cutoff < 1:
        raise ValueError("prime_cutoff must be positive")
    return _euler_product_cached(coeffs, target, order, prime_cutoff)


@lru_cache(maxsize=64)
def _euler_product_cached(
    coeffs: tuple[int, ...],
    target: Fraction,
    order: int,
    prime_cutoff: int | None,
) -> EulerProductResult:
    bits = CERTIFIED_BITS
    if all(c == 0 for c in coeffs[1:]):
        if coeffs[0] != 1:
            raise ValueError("polynomial must have constant term 1")
        return EulerProductResult(BoundedReal.exact(1, bits), 0, 0,
                                  ZetaFactorization(order, {}))

    fz = zeta_factorization(coeffs, order)
    b = fz.exponents

    radius = bound = None
    for r in RADIUS_LADDER:
        m = _coeff_bound(coeffs, b, r)
        if m is not None:
            radius, bound = r, m
            break
    if radius is None:
        raise PrecisionError("no usable remainder radius; raise the order")

    def tail(p_cut: int) -> Fraction:
        # sum_{p > P} |R(1/p) - 1| <= 2*M*(1/r)^(J+1) * sum_{n>P} n^-(J+1)
        #                          <= 2*M*(1/r)^(J+1) * P^-J / J
        return 2 * bound * (1 / radius) ** (order + 1) / (order * Fraction(p_cut) ** order)

    if prime_cutoff is None:
        p_cut = MIN_PRIME_CUTOFF
        while (tail(p_cut) > target / 4 or p_cut * radius < 2) and p_cut < MAX_PRIME_CUTOFF:
            p_cut *= 2
    else:
        p_cut = prime_cutoff
    t1 = tail(p_cut)
    if t1 > target / 4 or t1 > Fraction(1, 2) or p_cut * radius < 2:
        raise PrecisionError(
            f"tail bound {float(t1):.3e} at cutoff {p_cut} misses target",
            achieved=t1)

    primes = [int(p) for p in shared_sieve(max(p_cut, 100)).primes if p <= p_cut]
    one = BoundedReal.exact(1, bits)
    v = len(coeffs) - 1

    # zeta tails past the cutoff: excess_j = zeta(j) * prod_{p<=P}(1 - p^-j),
    # taken before the raw product so that a target refused at the zeta
    # wall stops before the prime loop
    zpart = one
    nfac = max(1, len(b))
    for j, bj in sorted(b.items()):
        ztarget = target / (16 * nfac * max(1, abs(bj)))
        # round this share down to a power of two, a quarter to a half of
        # it.  The zeta cache keeps level sums per (j, dyadic block of odd
        # n), and every term count `_zeta_terms` picks (a power of two) is
        # read off whole blocks, so any target reuses the kept blocks and
        # the rounding saves no division; it only tightens the target, and
        # it stays because it decides which targets meet the zeta wall
        ztarget = Fraction(1, 2 ** (1 - math.floor(math.log2(ztarget))))
        excess = zeta_value(j, ztarget)
        for p in primes:
            pj = p**j
            excess = excess * BoundedReal(
                (1 << bits) - (1 << bits) // pj - 1,
                (1 << bits) - (1 << bits) // pj, bits)
        if excess.lo <= 0:
            raise ArithmeticError(f"zeta excess not positive at j={j}")
        zpart = zpart * (excess ** (-bj))

    # raw finite product of Q(1/p); every local factor must be strictly positive
    qprod = one
    for p in primes:
        x = BoundedReal(
            (1 << bits) // p, (1 << bits) // p + 1, bits)
        acc = BoundedReal.exact(coeffs[v], bits)
        for a in range(v - 1, -1, -1):
            acc = acc * x + coeffs[a]
        if acc.lo <= 0:
            raise ArithmeticError(f"local factor not positive at p={p}: {acc!r}")
        qprod = qprod * acc

    total = qprod * zpart
    # prod_{p>P} R(1/p) lies in [1 - T, exp(T)] subset [1 - T, 1 + 2T] for T <= 1/2
    total = total * BoundedReal.from_bracket(1 - t1, 1 + 2 * t1, bits)

    if total.abs_error > target:
        raise PrecisionError(
            f"achieved bound {float(total.abs_error):.3e} exceeds target "
            f"{float(target):.3e}", achieved=total.abs_error)
    return EulerProductResult(
        value=total, primes_used=len(primes), prime_cutoff=p_cut,
        factorization=fz)


def coprime_density(g: Graph, target_error=DEFAULT_TARGET) -> BoundedReal:
    """Density constant of graph-wise coprime tuples: prod_p Q(1/p), certified."""
    return euler_product(local_factor_poly(g), target_error).value


# ---------------------------------------------------------------------------
# The tuple-count route to the same constant
# ---------------------------------------------------------------------------

def count_density_poly(k: int) -> tuple[int, ...]:
    """Local polynomial of the lcm-multiplicity density, via Stirling numbers.

    The local factor (1-x)^(2**k-1) * sum_nu ((nu+1)^k - nu^k) x^nu has the
    closed form sum_{m=1..k} S(k,m) m! x^(m-1) (1-x)^(2**k-1-m), expanded
    here in exact integers.  Built with no reference to any graph.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    v = 2**k - 1
    # index m - 1 carries S(k,m) m!, so the expansion has degree v - 1
    weights = [stirling2(k, m + 1) * math.factorial(m + 1) for m in range(k)]
    return (*expand_one_minus_x(weights, v - 1), 0)


def lcm_count_density(k: int, target_error=DEFAULT_TARGET) -> BoundedReal:
    """The density constant evaluated from the tuple-count local factors.

    They equal the graph's for k = 2..4, so this is coprime_density's
    Euler product again, not a second route.
    """
    if not (2 <= k <= 4):
        raise ValueError("k must be between 2 and 4")
    return euler_product(count_density_poly(k), target_error).value


# ---------------------------------------------------------------------------
# Exact series identities
# ---------------------------------------------------------------------------

def q_by_graph(k: int, n: int) -> list[int]:
    """The coefficients of the graph's Q up to degree n."""
    q = list(local_factor_poly(build_coprimality_graph(k))) + [0] * (n + 1)
    return q[: n + 1]


def q_by_counts(k: int, n: int) -> list[int]:
    """(1-x)^(2**k-1) * sum_{nu<=n} ((nu+1)^k - nu^k) x^nu up to degree n."""
    series = [(nu + 1) ** k - nu**k for nu in range(n + 1)]
    # each pass subtracts the series shifted by one place: a product with
    # (1 - x), and the truncation at degree n commutes with it
    for _ in range(2**k - 1):
        series = list(map(operator.sub, series, [0, *series]))
    return series


def q_by_stirling(k: int, n: int) -> list[int]:
    """sum_m i_m (1-x)^(v-m) x^m with the Stirling-form i_m, up to degree
    n >= v = 2**k - 1."""
    v = 2**k - 1
    return expand_one_minus_x(stirling_ism_counts(k), v) + [0] * (n - v)


def series_identity_mismatch(k: int, n: int) -> tuple[str, int] | None:
    """First failing identity and coefficient index, or None if all hold.

    Checks, in exact integers up to degree n, that the graph's Q equals
      (a) the tuple-count series times (1-x)^(2**k-1) (`q_by_counts`) and
      (b) the Stirling form (`q_by_stirling`).

    Refuses n past IDENTITY_MAX_DEGREE before any list is made.
    """
    if n < 1 or n.bit_length() <= k:  # n < 2**k, with no 2**k formed
        raise ValueError("n must be at least 2**k")
    if n > IDENTITY_MAX_DEGREE:
        raise ResourceLimitError(
            f"degree {n} exceeds the identity cap {IDENTITY_MAX_DEGREE}")
    q = q_by_graph(k, n)
    for name, series in (("count-series", q_by_counts(k, n)),
                         ("independent-set", q_by_stirling(k, n))):
        for a in range(n + 1):
            if series[a] != q[a]:
                return (name, a)
    return None
