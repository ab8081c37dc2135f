"""Exact arithmetic foundations.

Everything downstream leans on four guarantees provided here:

* rationals are exact (`fractions.Fraction`);
* `BoundedReal` is a two-sided dyadic enclosure: the true quantity always
  lies in [lo, hi], and every operation rounds outward, so bounds are
  worst-case rather than statistical;
* sieve tables hold every prime up to their limit and factor any integer
  up to limit**2 by one trial-division walk over those primes;
* zeta values come with a certified absolute error from a bracketed
  integral tail bound; the partial sum is an exact floor sum, vectorised
  over n as uint64 limbs as wide as the lanes allow (49 bits for odd m
  below 2**15, 40 below 2**24).  Only odd m are divided: the term of
  n = 2**e * m is the odd term shifted right by j*e, so one kept entry per
  (j, dyadic block of odd m) holds the block's sum at every level e.  The
  divisions are one helper, `_quotient_limbs`, which divides in place: the
  caller allocates one set of limb rows per call, and each step writes the
  quotient limbs over the dividend rows it has read.  Each loop has its
  own lane count: the zeta level sums step through ZETA_ODD_CHUNK = 2**14
  odd m, and `floor_prefix_sums` through ZETA_CHUNK = 2**12 n with
  optional integer weights, returning prefix sums at many marks; the k=2
  totient route of `oracle` sums its harmonic numbers and block weights
  with it.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import PrecisionError, ResourceLimitError

#: default working precision (fractional bits) for BoundedReal enclosures
DEFAULT_BITS = 128

#: working precision of zeta values and of the Euler products built on them
CERTIFIED_BITS = DEFAULT_BITS + 32

#: hard ceiling on sieve size (its tables factor up to the square of their limit)
MAX_SIEVE_LIMIT = 10**8

#: refuse zeta partial sums longer than this (raise PrecisionError instead)
ZETA_MAX_TERMS = 1 << 26

#: n per vectorised step of `floor_prefix_sums` (32 KB per uint64 row).  A
#: chunk's limbs have L = 64 - max(bitlen(stop), bitlen(ZETA_CHUNK)) bits, so
#: its limb rows sum below ZETA_CHUNK * 2**L <= 2**64
ZETA_CHUNK = 1 << 12

#: odd m per vectorised step of the zeta level sums (128 KB per uint64 row);
#: their limbs have L = 64 - max(bitlen(stop), 15) bits, so a row sums below
#: 2**63
ZETA_ODD_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# BoundedReal: dyadic interval arithmetic
# ---------------------------------------------------------------------------

def _scale_floor(x: Fraction, bits: int) -> int:
    return (x.numerator << bits) // x.denominator


def _scale_ceil(x: Fraction, bits: int) -> int:
    return -((-x.numerator << bits) // x.denominator)


class BoundedReal:
    """A real number known to lie in a dyadic interval [lo, hi] / 2**bits.

    `value` is the midpoint, `abs_error` the radius; both are exact
    rationals.  Arithmetic (+, -, *, /, integer powers) rounds endpoints
    outward, so composing operations can only widen, never lose, the
    enclosure of the true result.
    """

    __slots__ = ("_lo", "_hi", "_bits")

    def __init__(self, lo: int, hi: int, bits: int):
        if hi < lo:
            raise ValueError("empty interval")
        self._lo = lo
        self._hi = hi
        self._bits = bits

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, x, bits: int = DEFAULT_BITS) -> "BoundedReal":
        """Enclosure of an int or Fraction, exact when x is dyadic."""
        f = Fraction(x)
        return cls(_scale_floor(f, bits), _scale_ceil(f, bits), bits)

    @classmethod
    def from_bracket(cls, lo, hi, bits: int = DEFAULT_BITS) -> "BoundedReal":
        lo, hi = Fraction(lo), Fraction(hi)
        return cls(_scale_floor(lo, bits), _scale_ceil(hi, bits), bits)

    # -- views ---------------------------------------------------------------

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, 1 << self._bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, 1 << self._bits)

    @property
    def value(self) -> Fraction:
        """Midpoint of the enclosure."""
        return Fraction(self._lo + self._hi, 2 << self._bits)

    @property
    def abs_error(self) -> Fraction:
        """Radius of the enclosure; the true value is within +-abs_error."""
        return Fraction(self._hi - self._lo, 2 << self._bits)

    def __repr__(self) -> str:
        return f"BoundedReal({float(self.value)!r} +- {float(self.abs_error):.3e})"

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def encloses(self, other: "BoundedReal") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "BoundedReal") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_greater(self, other: "BoundedReal") -> bool:
        """True only if every point of self is above every point of other."""
        return other.hi < self.lo

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other, bits: int) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            return other
        return BoundedReal.exact(other, bits)

    def rescale(self, bits: int) -> "BoundedReal":
        if bits == self._bits:
            return self
        if bits > self._bits:
            s = bits - self._bits
            return BoundedReal(self._lo << s, self._hi << s, bits)
        s = self._bits - bits
        return BoundedReal(self._lo >> s, -((-self._hi) >> s), bits)

    def _pair(self, other) -> tuple["BoundedReal", "BoundedReal", int]:
        other = self._coerce(other, self._bits)
        bits = max(self._bits, other._bits)
        return self.rescale(bits), other.rescale(bits), bits

    def __add__(self, other):
        a, b, bits = self._pair(other)
        return BoundedReal(a._lo + b._lo, a._hi + b._hi, bits)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, bits = self._pair(other)
        return BoundedReal(a._lo - b._hi, a._hi - b._lo, bits)

    def __mul__(self, other):
        a, b, bits = self._pair(other)
        cands = (a._lo * b._lo, a._lo * b._hi, a._hi * b._lo, a._hi * b._hi)
        return BoundedReal(min(cands) >> bits, -((-max(cands)) >> bits), bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, bits = self._pair(other)
        if b._lo <= 0 <= b._hi:
            raise ZeroDivisionError("divisor interval contains zero")
        # floor and ceil are monotone, so the floor of the least quotient
        # is the least floor, and likewise for the ceil of the greatest
        nums, dens = (a._lo << bits, a._hi << bits), (b._lo, b._hi)
        return BoundedReal(min(n // d for n in nums for d in dens),
                           max(-(-n // d) for n in nums for d in dens), bits)

    def __rtruediv__(self, other):
        return self._coerce(other, self._bits).__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        result = BoundedReal.exact(1, self._bits)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# Exact quadratic surds (for error exponents like q / sqrt(k+1))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurdRatio:
    """Exact number of the form rational / sqrt(root), root a positive integer.

    Square factors of `root` are folded into the rational part on
    construction, so equality is canonical; `root == 1` means the number is
    rational.
    """

    rational: Fraction
    root: int = 1

    def __post_init__(self):
        if self.root <= 0:
            raise ValueError("root must be positive")
        r = q = 1
        for p, e in shared_sieve(factoring_limit(self.root)).factor(self.root):
            r *= p ** (e % 2)
            q *= p ** (e // 2)
        object.__setattr__(self, "rational", Fraction(self.rational) / q)
        object.__setattr__(self, "root", r)

    @property
    def is_rational(self) -> bool:
        return self.root == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational

    def __float__(self) -> float:
        return float(self.rational) / math.sqrt(self.root)

    def __eq__(self, other):
        if isinstance(other, SurdRatio):
            return self.rational == other.rational and self.root == other.root
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.rational == other
        return NotImplemented

    def __repr__(self):
        if self.is_rational:
            return f"{self.rational}"
        return f"{self.rational}/sqrt({self.root})"


# ---------------------------------------------------------------------------
# Sieve tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveTables:
    """The primes up to `limit`; `factor` handles any n <= limit**2."""

    limit: int
    primes: np.ndarray

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as sorted (p, exponent) pairs."""
        if n < 1:
            raise ValueError("n must be positive")
        if n > self.limit * self.limit:
            raise ResourceLimitError(
                f"cannot factor {n} with sieve limit {self.limit}"
            )
        out: list[tuple[int, int]] = []
        for p in map(int, self.primes):
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        # no prime up to sqrt(n) divides what is left, so it is 1 or a prime
        if n > 1:
            out.append((n, 1))
        return out


def sieve(limit: int) -> SieveTables:
    """Build the table of primes up to limit."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds memory budget {MAX_SIEVE_LIMIT}"
        )
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    # the n >= 2 that no prime up to sqrt(limit) marked are the primes
    primes = np.nonzero(~composite[2:])[0] + 2
    return SieveTables(limit=limit, primes=primes)


@lru_cache(maxsize=6)
def shared_sieve(limit: int) -> SieveTables:
    """Process-wide cached tables for callers that do not manage their own."""
    return sieve(limit)


#: the largest limit `factoring_limit` returns; its tables factor n <= 2**40
MAX_FACTORING_LIMIT = 1 << 20


def factoring_limit(n: int) -> int:
    """Sieve limit whose tables factor every integer up to n.

    The smallest power of two from 128 up with limit**2 >= n, capped at
    MAX_FACTORING_LIMIT (past which `SieveTables.factor` refuses).  Powers
    of two keep callers that factor a whole range on one or two
    `shared_sieve` entries.
    """
    # 1 << isqrt(n - 1).bit_length() is the least power of two p with p * p >= n
    return min(MAX_FACTORING_LIMIT, max(128, 1 << math.isqrt(n - 1).bit_length()))


# ---------------------------------------------------------------------------
# Combinatorial helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stirling_row(k: int) -> tuple[int, ...]:
    if k == 0:
        return (1,)
    prev = _stirling_row(k - 1)
    row = [0] * (k + 1)
    for m in range(1, k + 1):
        row[m] = m * (prev[m] if m < k else 0) + prev[m - 1]
    return tuple(row)


def stirling2(k: int, m: int) -> int:
    """Stirling number of the second kind S(k, m); zero outside 0 <= m <= k."""
    if k < 0 or m < 0 or m > k:
        return 0
    return _stirling_row(k)[m]


# ---------------------------------------------------------------------------
# Certified zeta values
# ---------------------------------------------------------------------------

def _limb_width(stop: int, lanes: int) -> int:
    """L = 64 - max(bitlen(stop), bitlen(lanes)): a remainder r < n <= stop
    shifted by L bits stays below 2**64, and a row of `lanes` L-bit limbs
    sums below 2**64."""
    return 64 - max(stop.bit_length(), lanes.bit_length())


def _limb_rows(lo: int, hi: int, lanes: int, bits: int,
               wmax: int = 1) -> np.ndarray:
    """The uint64 rows `_quotient_limbs` divides in for lo <= n <= hi,
    `lanes` n at a time, with weights up to wmax: the limbs of the largest
    first quotient, floor(wmax * 2**bits / lo), at the narrowest width
    L = `_limb_width(hi, lanes)` (at least the two rows the weights need),
    then the remainder."""
    qtop = (((wmax << bits) // lo).bit_length() - 1) // _limb_width(hi, lanes)
    return np.empty((max(qtop, 1) + 2, lanes), np.uint64)


def _quotient_limbs(n: np.ndarray, j: int, bits: int, L: int,
                    rows: np.ndarray, wn=None) -> int | None:
    """floor(wn * 2**bits / n**j) for each lane of n as L-bit limb rows,
    computed in place in the caller's `rows`.

    n is an ascending uint64 array with L + bitlen(n[-1]) <= 64 and wn
    their non-negative weights (1 when None), which must lie below 2**L.
    rows holds len(n) lanes (a view of the caller's longer buffer is fine)
    and the rows `_limb_rows` gives for a range that holds n at this L or
    a narrower one; the last is the remainder, which the caller may use as
    scratch after the call.  The numerator is held as L-bit limbs, most
    significant first, so each weight fills at most the two leading limbs,
    rows 0 and 1 (the limbs of a numerator 2**bits are scalars), and
    divided j times by n one limb at a time (floor(floor(x/m)/n) =
    floor(x/(m*n))): every remainder r < n, so (r << L) | limb < 2**64.
    Each step writes quotient limb i over row i, only after it has read
    row i + (h - qtop) >= i, so nothing is allocated.  Returns h with
    rows[i] weighing 2**(L*(h - i)) for i <= h, or None when every
    quotient is zero, as it then is for every larger n with no larger
    weight.  The lane count is the caller's: `floor_prefix_sums` steps
    through ZETA_CHUNK n, `_odd_level_sums` through ZETA_ODD_CHUNK odd m,
    and each picks L = `_limb_width` of its own lane count so that its row
    sums fit.
    """
    start = int(n[0])
    wmax = 1 if wn is None else int(wn.max())
    if wmax >> L:
        raise ValueError(f"weights must lie in [0, 2**{L}) up to n = {n[-1]}")
    r = rows[-1]
    # limbs[i] weighs 2**(L*(h - i)); wn << (bits % L) may span the two
    # leading limbs, and a scalar limb is the same for every n
    s = bits % L
    if wn is None:
        lead = [0, 1 << s]
    else:
        np.copyto(r, wn, casting="unsafe")
        np.right_shift(r, L - s, out=rows[0])
        np.left_shift(r, s, out=rows[1])
        np.bitwise_and(rows[1], (1 << L) - 1, out=rows[1])
        lead = [rows[0], rows[1]]
    h = bits // L + 1
    limbs = lead + [0] * (h - 1)
    for k in range(1, j + 1):
        # every quotient of this step is at most bound, so its limbs above
        # qtop are zero: the dividend's d limbs above qtop form a number
        # below n, which is the remainder they leave
        bound = (wmax << bits) // start**k
        if bound == 0:
            return None
        qtop = (bound.bit_length() - 1) // L
        if qtop + 2 > len(rows):
            raise ValueError(f"{len(rows)} rows hold no {qtop + 1} limbs "
                             "and a remainder")
        d = h - qtop
        np.copyto(r, limbs[0])
        for t in range(h + 1):
            if t:
                np.left_shift(r, L, out=r)
                np.bitwise_or(r, limbs[t], out=r)
            if t >= d:  # limb t - d was read d steps ago
                np.divmod(r, n, out=(rows[t - d], r))
        limbs, h = rows, qtop
    return h


def floor_prefix_sums(j: int, bits: int, a: int, marks: Sequence[int],
                      w: np.ndarray | None = None) -> list[int]:
    """sum of floor(w_n * 2**bits / n**j) over a <= n <= m, exactly, for
    each m of the ascending `marks` (j, a >= 1).  The weights start at a:
    w[i] weighs n = a + i, so w needs no entries below a (w_n = 1 when w
    is None).

    Each chunk of ZETA_CHUNK consecutive n is divided by `_quotient_limbs`
    in one set of limb rows allocated for the call.  Each limb row is then
    summed, or prefix-summed in a chunk that holds marks, and the rows are
    recombined as Python ints.  At n near 2**24, 2**160 is four 40-bit
    limbs, and j = 2 takes 7 divmods per n.
    The input contract is n <= ZETA_MAX_TERMS and 0 <= w_n < 2**L for the
    L of the chunk that holds n (L >= 37 up to ZETA_MAX_TERMS), so that the
    leading limbs of w_n * 2**bits are L-bit limbs; inputs past either are
    refused.  The one caller with weights, the fast k=2 route of `oracle`,
    passes one totient sieve segment at a time as w, with a at the
    segment's first n, so no weight array longer than a segment exists.
    """
    out: list[int] = []
    last = marks[-1] if marks else 0
    if last > ZETA_MAX_TERMS:
        raise ValueError(f"n = {last} exceeds the lane bound {ZETA_MAX_TERMS}")
    wmax = 1
    if w is not None and last >= a:
        wmax = int(w[:last - a + 1].max())
        if w[:last - a + 1].min() < 0:
            raise ValueError("weights must be non-negative")
    rows = _limb_rows(a, last, ZETA_CHUNK, bits, wmax)
    n = np.arange(a, a + ZETA_CHUNK, dtype=np.uint64)
    total = 0
    for start in range(a, last + 1, ZETA_CHUNK):
        if wmax << bits < start**j:  # every quotient from here on is zero
            break
        if start > a:
            n += ZETA_CHUNK
        stop = min(last, start + ZETA_CHUNK - 1)
        m = stop - start + 1
        L = _limb_width(stop, ZETA_CHUNK)
        h = _quotient_limbs(n[:m], j, bits, L, rows[:, :m],
                            None if w is None else w[start - a:stop - a + 1])
        if h is None:  # every quotient of this chunk is zero
            continue
        # marks before the chunk read the total so far, marks inside it add
        # its row prefixes; a mark at its end waits for the total
        inside = bisect.bisect_left(marks, start, len(out))
        end = bisect.bisect_left(marks, stop, inside)
        out += [total] * (end - len(out))
        if end > inside:
            idx = np.array(marks[inside:end], dtype=np.int64) - start
        for i, q in enumerate(rows[:h + 1, :m]):
            shift = L * (h - i)
            if end > inside:
                prefix = np.cumsum(q, out=rows[-1, :m])
                for o, c in enumerate(prefix[idx].tolist(), inside):
                    out[o] += c << shift
            total += int(q.sum()) << shift
    return out + [total] * (len(marks) - len(out))


def _odd_level_sums(j: int, lo: int, hi: int, top: int) -> list[int]:
    """V[e] = sum of floor(2**CERTIFIED_BITS / (2**e * m)**j) over the odd m
    in [lo, hi] (lo odd), for e = 0..top, exactly.

    floor(2**bits / (2**e * m)**j) = floor(q_m / 2**(j*e)) with
    q_m = floor(2**bits / m**j), so `_quotient_limbs` divides each odd m
    once, ZETA_ODD_CHUNK lanes at a time in one set of limb rows allocated
    for the call, and every level is shifted out of the same limbs: over a
    chunk, sum floor(q / 2**s) = (sum q - sum (q mod 2**s)) >> s, where
    sum q is the row sums and sum (q mod 2**s) the rows of the limbs below
    bit s plus one masked sum of the limb that holds bit s.
    """
    sums = [0] * (top + 1)
    lanes = ZETA_ODD_CHUNK
    rows = _limb_rows(lo, hi, lanes, CERTIFIED_BITS)
    n = np.arange(lo, lo + 2 * lanes, 2, dtype=np.uint64)
    for start in range(lo, hi + 1, 2 * lanes):
        if start > lo:
            n += 2 * lanes
        stop = min(hi, start + 2 * lanes - 2)
        m = (stop - start) // 2 + 1
        L = _limb_width(stop, lanes)
        h = _quotient_limbs(n[:m], j, CERTIFIED_BITS, L, rows[:, :m])
        if h is None:  # here and in every later chunk
            break
        limbs, scratch = rows[:h + 1, :m], rows[-1, :m]
        cols = [int(q.sum()) for q in limbs]
        total = sum(c << L * (h - i) for i, c in enumerate(cols))
        for e in range(top + 1):
            s = j * e
            if total >> s == 0:  # so is every quotient at this level and up
                break
            low = 0
            for i, (q, c) in enumerate(zip(limbs, cols)):
                t = L * (h - i)  # the limb holds bits t .. t + L - 1 of q
                if t + L <= s:
                    low += c << t
                elif t < s:
                    masked = np.bitwise_and(q, (1 << s - t) - 1, out=scratch)
                    low += int(masked.sum()) << t
            sums[e] += (total - low) >> s
    return sums


@lru_cache(maxsize=1024)
def _zeta_block(j: int, b: int) -> tuple[int, ...]:
    """Level sums of the odd m in (2**(b-1), 2**b], kept per (j, b): the
    terms floor(2**CERTIFIED_BITS / n**j) of every n = 2**e * m up to
    ZETA_MAX_TERMS, summed per e (see `_odd_level_sums`)."""
    lo, hi = ((1 << b - 1) + 1, (1 << b) - 1) if b else (1, 1)
    return tuple(_odd_level_sums(j, lo, hi, ZETA_MAX_TERMS.bit_length() - 1 - b))


def _floor_sum(j: int, N: int) -> int:
    """sum of floor(2**CERTIFIED_BITS / n**j) over n <= N = 2**B, exactly.

    n = 2**e * m with m odd in the block of b is at most 2**B iff
    e + b <= B, so the sum takes levels 0..B-b of the kept blocks b <= B.
    """
    B = N.bit_length() - 1
    return sum(sum(_zeta_block(j, b)[:B - b + 1]) for b in range(B + 1))


def _zeta_terms(j: int, target: Fraction) -> int:
    # bracket the tail: integral bounds give
    #   sum_{n>N} n^-j  in  [ (N+1)^(1-j), N^(1-j) ] / (j-1)
    # so the bracket width shrinks like N^-j; grow N until it fits.
    N = 4
    def width(n: int) -> Fraction:
        return (Fraction(1, n ** (j - 1)) - Fraction(1, (n + 1) ** (j - 1))) / (j - 1)
    while width(N) > target / 2:
        N *= 2
        if N > ZETA_MAX_TERMS:
            raise PrecisionError(
                f"zeta({j}) to {float(target):.2e} needs more than "
                f"{ZETA_MAX_TERMS} terms", achieved=width(N // 2))
    return N


def zeta_value(j: int, target_error) -> BoundedReal:
    """zeta(j) for integer j >= 2 with certified absolute error <= target_error.

    Partial sum of n^-j plus a two-sided integral tail bound N^(1-j)/(j-1),
    at CERTIFIED_BITS; the returned enclosure is rigorous, not heuristic.
    N is a power of two, and the partial sum is the exact floor sum
    `_floor_sum`: each odd m is divided once and its quotient shifted for
    every 2**e * m <= N, and the kept level sums of each dyadic block of
    odd m serve every target in any order.
    """
    if isinstance(j, bool) or not hasattr(j, "__index__"):
        raise TypeError(f"j must be an integer, got {j!r}")
    j = operator.index(j)
    if j < 2:
        raise ValueError("j must be at least 2")
    t = Fraction(target_error)
    if t <= 0:
        raise ValueError("target_error must be positive")
    bits = CERTIFIED_BITS
    N = _zeta_terms(j, t)
    lo = _floor_sum(j, N)
    hi = lo + N  # each floored term under-counts by < 1 ulp
    tail_lo = Fraction(1, (j - 1) * (N + 1) ** (j - 1))
    tail_hi = Fraction(1, (j - 1) * N ** (j - 1))
    out = BoundedReal(lo + _scale_floor(tail_lo, bits),
                      hi + _scale_ceil(tail_hi, bits), bits)
    if out.abs_error > t:
        raise PrecisionError(
            f"zeta({j}): achieved {float(out.abs_error):.2e} > target "
            f"{float(t):.2e} at {bits} bits",
            achieved=out.abs_error)
    return out


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def leading_coeff_by_differences(
    samples: Sequence[tuple[int, int | Fraction]], degree: int,
    steps: Sequence[int] | None = None,
) -> Fraction:
    """Leading coefficient of a degree-`degree` polynomial from its values.

    `samples` must be at equally spaced abscissae, h apart.  `steps` is the
    difference schedule s_1..s_degree in units of h (default all 1): the
    operator Delta_{s_1 h} ... Delta_{s_degree h}, with Delta_m f(x) =
    f(x + m) - f(x), takes a x**degree to degree! * prod(s_j h) * a, and
    the result is that value divided back, in exact rationals.  The operator
    also takes a quasi-polynomial's term c_i(x) x**i, i < degree, to zero
    when at least i + 1 of the steps are multiples of the period of c_i, so
    with steps of unequal size it reads the leading coefficient of a
    quasi-polynomial whose coefficients have unequal periods.

    It reads sum(s_j) + 1 samples; each extra sample shifts the window by h
    and must give the same difference, a cross-check that the samples fit.
    """
    steps = (1,) * degree if steps is None else tuple(steps)
    if len(steps) != degree or any(s < 1 for s in steps):
        raise ValueError(f"need {degree} positive steps, got {steps}")
    if len(samples) < sum(steps) + 1:
        raise ValueError(
            f"need at least {sum(steps) + 1} samples for degree {degree} "
            f"at steps {steps}, got {len(samples)}")
    xs = [s[0] for s in samples]
    spacings = {b - a for a, b in zip(xs, xs[1:])}
    if len(spacings) != 1:
        raise ValueError("samples must be equally spaced")
    h = spacings.pop()
    if h <= 0:
        raise ValueError("abscissae must be increasing")
    vals = [Fraction(s[1]) for s in samples]
    for s in steps:
        vals = [b - a for a, b in zip(vals, vals[s:])]
    if any(v != vals[0] for v in vals[1:]):
        raise ValueError(
            "the differences of the shifted windows disagree; samples are not "
            f"a quasi-polynomial of degree {degree} killed by steps {steps}")
    return vals[0] / (math.factorial(degree) * math.prod(s * h for s in steps))
