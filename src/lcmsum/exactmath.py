"""Exact arithmetic foundations.

Everything downstream leans on four guarantees provided here:

* rationals are exact (`fractions.Fraction`, re-exported as `ExactRational`);
* `BoundedReal` is a two-sided dyadic enclosure: the true quantity always
  lies in [lo, hi], and every operation rounds outward, so bounds are
  worst-case rather than statistical;
* sieve tables (primes, smallest prime factors) are exact for every integer
  up to their limit and support factoring up to limit**2;
* zeta values come with a certified absolute error from a bracketed
  integral tail bound; the partial sum is an exact floor sum, vectorised
  over n as uint64 limbs as wide as the lanes allow (51 bits for n below
  2**13, 40 below 2**24).  Only odd m are divided: the term of n = 2**e * m
  is the odd term shifted right by j*e, so one kept entry per (j, dyadic
  block of odd m) holds the block's sum at every level e.  The divisions
  are one helper, `_quotient_limbs`; `floor_prefix_sums` runs it over
  every n with optional integer weights and returns prefix sums at many
  marks, and the k=2 totient route of `oracle` sums its harmonic numbers
  and block weights with it.
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

ExactRational = Fraction

#: default working precision (fractional bits) for BoundedReal enclosures
DEFAULT_BITS = 128

#: working precision of zeta values and of the Euler products built on them
CERTIFIED_BITS = DEFAULT_BITS + 32

#: hard ceiling on sieve size (the limit**2 trial-division fallback covers the rest)
MAX_SIEVE_LIMIT = 10**8

#: refuse zeta partial sums longer than this (raise PrecisionError instead)
ZETA_MAX_TERMS = 1 << 26

#: n per vectorised step of the floor sums (32 KB per uint64 array).  A
#: chunk's limbs have L = 64 - max(bitlen(stop), bitlen(ZETA_CHUNK)) bits, so
#: its limb column sums stay below ZETA_CHUNK * 2**L <= 2**64
ZETA_CHUNK = 1 << 12


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

    def __float__(self) -> float:
        return float(self.value)

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

    def __neg__(self):
        return BoundedReal(-self._hi, -self._lo, self._bits)

    def __sub__(self, other):
        a, b, bits = self._pair(other)
        return BoundedReal(a._lo - b._hi, a._hi - b._lo, bits)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b, bits = self._pair(other)
        cands = (a._lo * b._lo, a._lo * b._hi, a._hi * b._lo, a._hi * b._hi)
        return BoundedReal(min(cands) >> bits, -((-max(cands)) >> bits), bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, bits = self._pair(other)
        if b._lo <= 0 <= b._hi:
            raise ZeroDivisionError("divisor interval contains zero")
        cands = (
            Fraction(a._lo, b._lo), Fraction(a._lo, b._hi),
            Fraction(a._hi, b._lo), Fraction(a._hi, b._hi),
        )
        return BoundedReal(
            _scale_floor(min(cands), bits), _scale_ceil(max(cands), bits), bits
        )

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
        object.__setattr__(self, "rational", self.rational / q)
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

    def __hash__(self):
        return hash((self.rational, self.root))

    def __repr__(self):
        if self.is_rational:
            return f"{self.rational}"
        return f"{self.rational}/sqrt({self.root})"


# ---------------------------------------------------------------------------
# Sieve tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveTables:
    """Primes and smallest prime factors up to `limit`.

    `smallest_prime_factor[n]` is valid for 1 <= n <= limit; `factor`
    handles any n <= limit**2, by trial division over the sieved primes
    while n is above the limit.
    """

    limit: int
    primes: np.ndarray
    smallest_prime_factor: np.ndarray

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as sorted (p, exponent) pairs."""
        if n < 1:
            raise ValueError("n must be positive")
        if n > self.limit * self.limit:
            raise ResourceLimitError(
                f"cannot factor {n} with sieve limit {self.limit}"
            )
        walk = map(int, self.primes)
        out: list[tuple[int, int]] = []
        while n > 1:
            if n <= self.limit:
                p = int(self.smallest_prime_factor[n])
            else:
                # no prime the walk has passed divides n, so the first that
                # does is its least factor; none up to sqrt(n): n is prime
                p = next((q for q in walk if n % q == 0 or q * q > n), n)
                if n % p:
                    p = n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out


def sieve(limit: int) -> SieveTables:
    """Build prime and smallest-factor tables for all n <= limit."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds memory budget {MAX_SIEVE_LIMIT}"
        )
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    primes = np.nonzero(spf == np.arange(limit + 1, dtype=np.int64))[0]
    primes = primes[primes >= 2]
    return SieveTables(limit=limit, primes=primes, smallest_prime_factor=spf)


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

def _quotient_limbs(n: np.ndarray, j: int, bits: int, wn=None,
                    wmax: int = 1) -> tuple[int, list[np.ndarray]] | None:
    """floor(wn * 2**bits / n**j) for each lane of n as L-bit limb columns.

    n is an ascending uint64 array of at most ZETA_CHUNK lanes, wn their
    weights (1 when None) and wmax >= max(wn).  The numerator is held as
    L-bit limbs, L = 64 - max(bitlen(n[-1]), bitlen(ZETA_CHUNK)), most
    significant first, and divided j times by n one limb at a time
    (floor(floor(x/m)/n) = floor(x/(m*n))): every remainder r < n, so
    (r << L) | limb < 2**64, and a column of the quotient limbs sums below
    ZETA_CHUNK * 2**L <= 2**64.  Returns (L, limbs), limbs[i] weighing
    2**(L*(len(limbs) - 1 - i)), or None when every quotient is zero, as it
    then is for every larger n.
    """
    start = int(n[0])
    L = 64 - max(int(n[-1]).bit_length(), ZETA_CHUNK.bit_length())
    # limbs[i] weighs 2**(L*(h - i)); wn << (bits % L) may span the two
    # leading limbs, and a scalar limb is the same for every n
    s = bits % L
    if wn is None:
        lead = [np.uint64(0), np.uint64(1 << s)]
    else:
        wn = wn.astype(np.uint64)
        lead = [wn >> np.uint64(L - s),
                (wn << np.uint64(s)) & np.uint64((1 << L) - 1)]
    h = bits // L + 1
    limbs = lead + [np.uint64(0)] * (h - 1)
    for k in range(1, j + 1):
        # every quotient of this step is at most bound, so its limbs above
        # qtop are zero: the dividend's limbs above qtop form a number
        # below n, which is the remainder they leave
        bound = (wmax << bits) // start**k
        if bound == 0:
            return None
        qtop = (bound.bit_length() - 1) // L
        r = np.zeros_like(n)
        for limb in limbs[:h - qtop]:
            r = (r << L) | limb
        quotients = []
        for limb in limbs[h - qtop:]:
            q, r = np.divmod((r << L) | limb, n)
            quotients.append(q)
        limbs, h = quotients, qtop
    return L, limbs


def floor_prefix_sums(j: int, bits: int, a: int, marks: Sequence[int],
                      w: np.ndarray | None = None) -> list[int]:
    """sum of floor(w_n * 2**bits / n**j) over a <= n <= m, exactly, for
    each m of the ascending `marks` (j, a >= 1).  The weights start at a:
    w[i] weighs n = a + i, so w needs no entries below a (w_n = 1 when w
    is None).

    Each chunk of ZETA_CHUNK consecutive n is divided by `_quotient_limbs`.
    Each limb column is then summed, or prefix-summed in a chunk that holds
    marks, and the columns are recombined as Python ints.  At n near 2**24,
    2**160 is four 40-bit limbs, and j = 2 takes 7 divmods per n.
    The input contract is n <= ZETA_MAX_TERMS and w_n * 2**(bits % 32)
    below 2**32; inputs past either are refused.  The weight bound is the
    one the 32-bit limbs of earlier versions needed.  It is kept as the
    contract, although the L-bit limbs (L >= 37 up to ZETA_MAX_TERMS) would
    carry any w_n < 2**L exactly; the one caller with weights, the fast
    k=2 route of `oracle`, stays inside it.  That caller passes one totient
    sieve segment at a time as w, with a at the segment's first n, so no
    weight array longer than a segment exists.
    """
    out: list[int] = []
    last = marks[-1] if marks else 0
    if last > ZETA_MAX_TERMS:
        raise ValueError(f"n = {last} exceeds the lane bound {ZETA_MAX_TERMS}")
    wmax = 1
    if w is not None and last >= a:
        wmax = int(w[:last - a + 1].max())
        if w[:last - a + 1].min() < 0 or wmax << bits % 32 >= 1 << 32:
            raise ValueError("weights must lie in [0, 2**(32 - bits % 32))")
    total = 0
    for start in range(a, last + 1, ZETA_CHUNK):
        stop = min(last, start + ZETA_CHUNK - 1)
        n = np.arange(start, stop + 1, dtype=np.uint64)
        quotients = _quotient_limbs(
            n, j, bits, None if w is None else w[start - a:stop - a + 1], wmax)
        if quotients is None:  # here and in every later chunk
            break
        L, limbs = quotients
        h = len(limbs) - 1
        # marks before the chunk read the total so far, marks inside it add
        # its column prefixes; a mark at its end waits for the total
        inside = bisect.bisect_left(marks, start, len(out))
        end = bisect.bisect_left(marks, stop, inside)
        out += [total] * (end - len(out))
        if end > inside:
            idx = np.array(marks[inside:end], dtype=np.int64) - start
        for i, q in enumerate(limbs):
            shift = L * (h - i)
            if end > inside:
                for o, c in enumerate(np.cumsum(q)[idx].tolist(), inside):
                    out[o] += c << shift
            total += int(q.sum()) << shift
    return out + [total] * (len(marks) - len(out))


def _odd_level_sums(j: int, lo: int, hi: int, top: int) -> list[int]:
    """V[e] = sum of floor(2**CERTIFIED_BITS / (2**e * m)**j) over the odd m
    in [lo, hi] (lo odd), for e = 0..top, exactly.

    floor(2**bits / (2**e * m)**j) = floor(q_m / 2**(j*e)) with
    q_m = floor(2**bits / m**j), so `_quotient_limbs` divides each odd m
    once, in chunks of ZETA_CHUNK lanes, and every level is shifted out of
    the same limbs: over a chunk, sum floor(q / 2**s) =
    (sum q - sum (q mod 2**s)) >> s, where sum q is the column sums and
    sum (q mod 2**s) the columns of the limbs below bit s plus one masked
    sum of the limb that holds bit s.
    """
    sums = [0] * (top + 1)
    for start in range(lo, hi + 1, 2 * ZETA_CHUNK):
        stop = min(hi, start + 2 * ZETA_CHUNK - 2)
        quotients = _quotient_limbs(
            np.arange(start, stop + 1, 2, dtype=np.uint64), j, CERTIFIED_BITS)
        if quotients is None:  # here and in every later chunk
            break
        L, limbs = quotients
        h = len(limbs) - 1
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
                    low += int((q & np.uint64((1 << s - t) - 1)).sum()) << t
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
    samples: Sequence[tuple[int, Fraction]], degree: int,
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
