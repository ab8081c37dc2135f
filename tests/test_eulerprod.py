import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lcmsum import eulerprod, reference
from lcmsum.coprimality import Graph, build_coprimality_graph, local_factor_poly
from lcmsum.errors import PrecisionError, ResourceLimitError
from lcmsum.eulerprod import (
    coprime_density,
    count_density_poly,
    euler_product,
    lcm_count_density,
    series_identity_mismatch,
    zeta_factorization,
)
from lcmsum.exactmath import CERTIFIED_BITS, BoundedReal
from lcmsum.oracle import leading_constants


# ---------------------------------------------------------------------------
# zeta factorization
# ---------------------------------------------------------------------------

def test_factorization_of_k2_polynomial():
    fz = zeta_factorization(reference.LOCAL_POLY[2], order=12)
    assert fz.order == 12
    assert fz.exponents == {2: 1}


def test_factorization_residual_check_sees_a_corrupt_factor(monkeypatch):
    # the exponents come from the formal logarithm alone, so only the
    # residual check multiplies the factors back and can see a wrong one
    exact = eulerprod._geometric_factor

    def corrupt(j, bj, deg):
        out = exact(j, bj, deg)
        if j == 2:
            out[deg] += 1
        return out

    monkeypatch.setattr(eulerprod, "_geometric_factor", corrupt)
    with pytest.raises(ArithmeticError,
                       match=r"residual series is not 1 \+ O\(x\^\(order\+1\)\)"):
        zeta_factorization(reference.LOCAL_POLY[3], order=12)


def fraction_log_exponents(coeffs, order):
    # exponents from the formal logarithm in exact rationals:
    # n L_n = -sum_{j | n} j b_j
    q = [Fraction(c) for c in coeffs] + [Fraction(0)] * (order + 1)
    lam = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        lam[n] = (n * q[n] - sum(m * lam[m] * q[n - m] for m in range(1, n))) / n
    b = {}
    for n in range(2, order + 1):
        bn = (-n * lam[n] - sum(j * b[j] for j in b if n % j == 0)) / n
        assert bn.denominator == 1
        if bn:
            b[n] = int(bn)
    return b


def test_factorization_exponents_match_the_fraction_logarithm():
    for k in (2, 3, 4):
        for coeffs in (local_factor_poly(build_coprimality_graph(k)),
                       count_density_poly(k)):
            for order in range(1, 21):
                assert zeta_factorization(coeffs, order).exponents == \
                    fraction_log_exponents(coeffs, order), (k, order)


def test_factorization_exponents_are_integers_k34():
    for k in (3, 4):
        fz = zeta_factorization(reference.LOCAL_POLY[k], order=12)
        assert all(isinstance(b, int) for b in fz.exponents.values())
        assert fz.exponents[2] == reference.EDGE_COUNTS[k]


def test_factorization_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        zeta_factorization((2, 0, -1))
    with pytest.raises(ValueError):
        zeta_factorization((1, 1, -1))
    # integer coefficients give integer exponents; a rational one need not
    with pytest.raises(ArithmeticError, match="non-integer factorization exponent b_2"):
        zeta_factorization((1, 0, Fraction(1, 2)))


def test_every_zeta_the_factorizations_use_encloses_mpmath(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    used = []
    zeta_value = eulerprod.zeta_value

    def recording_zeta(j, target_error):
        z = zeta_value(j, target_error)
        used.append((j, z))
        return z

    monkeypatch.setattr(eulerprod, "zeta_value", recording_zeta)
    for k in (2, 3, 4):
        for coeffs in (local_factor_poly(build_coprimality_graph(k)),
                       count_density_poly(k)):
            # past the product cache, so every zeta request is made again
            eulerprod._euler_product_cached.__wrapped__(
                coeffs, Fraction(5, 10**10), eulerprod.DEFAULT_ORDER, None)
    assert {j for j, _ in used} == set(range(2, 13))
    with mpmath.workdps(60):
        for j, z in used:
            # dyadic endpoints, so mpf holds them exactly at 60 digits
            lo, hi = (mpmath.mpf(e.numerator) / e.denominator for e in (z.lo, z.hi))
            assert lo < mpmath.zeta(j) < hi, j


# ---------------------------------------------------------------------------
# certified products
# ---------------------------------------------------------------------------

def test_density_k2_is_six_over_pi_squared():
    val = coprime_density(build_coprimality_graph(2))
    assert abs(float(val.value) - 6 / math.pi**2) <= 1e-10
    assert val.abs_error <= Fraction(1, 10**9)


def test_density_k3_published_digits():
    val = coprime_density(build_coprimality_graph(3))
    assert abs(float(val.value) - reference.RHO_K3) <= 5e-8
    assert val.abs_error <= Fraction(5, 10**9)


def log_density_by_prime_zeta(q, cut=1000, terms=120, digits=60):
    """log prod_p Q(1/p) in mpmath, with a bound on what it leaves out.

    log Q(x) = sum_n lambda_n x**n, and Q(x) * sum_n n lambda_n x**n =
    x Q'(x) makes n lambda_n an integer recurrence.  The primes p <= cut
    are summed as log Q(1/p); past them, sum_n lambda_n (P(n) - sum_{p <=
    cut} p**-n) with P the prime zeta function, each term at enough digits
    to survive the cancellation.  The reciprocal roots of Q are at most B
    (Fujiwara: twice the largest |q_j|**(1/j)), so |lambda_n| <= d B**n / n,
    and sum_{p > cut} p**-n <= cut**(1-n) / (n-1): the terms past `terms`
    add up to at most d cut (B/cut)**(terms+1) / (terms (terms+1) (1 - B/cut)).
    """
    mpmath = pytest.importorskip("mpmath")
    q = list(q)
    while q[-1] == 0:
        q.pop()
    d = len(q) - 1
    q += [0] * (terms + 1 - len(q))
    nlam = [0] * (terms + 1)
    for n in range(1, terms + 1):
        nlam[n] = n * q[n] - sum(q[n - m] * nlam[m] for m in range(1, n))
    assert q[0] == 1 and nlam[1] == 0  # else the product diverges
    big = 2 * max(next(b for b in range(abs(x) + 1) if b**j >= abs(x))
                  for j, x in enumerate(q[1:d + 1], 1))
    assert big < cut
    primes = [p for p in range(2, cut + 1)
              if all(p % r for r in range(2, math.isqrt(p) + 1))]
    with mpmath.workdps(digits + 10):
        total = mpmath.fsum(mpmath.log(mpmath.fsum(
            x * mpmath.mpf(p) ** -j for j, x in enumerate(q[:d + 1])))
            for p in primes)
        dropped = (d * cut * (mpmath.mpf(big) / cut) ** (terms + 1)
                   / (terms * (terms + 1) * (1 - mpmath.mpf(big) / cut)))
    for n in range(2, terms + 1):
        if nlam[n]:
            # P(n) and the prime sum are near 2**-n, lambda_n up to B**n
            lost = max(0, math.ceil(n * math.log10(big / 2)))
            with mpmath.workdps(digits + 10 + lost):
                tail = mpmath.primezeta(n) - mpmath.fsum(
                    mpmath.mpf(p) ** -n for p in primes)
                total += nlam[n] * tail / n
    return total, dropped


@pytest.mark.parametrize("k", [2, 3, 4])
def test_density_and_constant_inside_the_prime_zeta_route(k):
    mpmath = pytest.importorskip("mpmath")
    log_rho, dropped = log_density_by_prime_zeta(
        local_factor_poly(build_coprimality_graph(k)))
    eps = Fraction(1, 10**50)
    assert dropped < 1e-51
    with mpmath.workdps(60):
        rho = mpmath.exp(log_rho)
        if k == 2:
            assert abs(rho - 6 / mpmath.pi**2) < mpmath.mpf(10) ** -55
        rho = Fraction(int(rho.man)) * Fraction(2) ** int(rho.exp)
    lc = leading_constants(k)
    for truth, enclosure in ((rho, lc.density), (rho * lc.vol_d, lc.c)):
        scale = truth / rho
        assert enclosure.contains(truth - eps * scale)
        assert enclosure.contains(truth + eps * scale)


def test_density_edgeless_graph_is_exactly_one():
    val = coprime_density(Graph(5, frozenset()))
    assert val.value == 1 and val.abs_error == 0


def test_density_decreases_with_k():
    r2 = coprime_density(build_coprimality_graph(2))
    r3 = coprime_density(build_coprimality_graph(3))
    r4 = coprime_density(build_coprimality_graph(4))
    assert r2.strictly_greater(r3)
    assert r3.strictly_greater(r4)


def test_density_ignores_isolated_vertices():
    g = build_coprimality_graph(3)
    a = coprime_density(g)
    b = coprime_density(Graph(g.v - 1, g.edges))
    assert a.intersects(b)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error


def test_refined_run_nests_in_coarse_run():
    coeffs = reference.LOCAL_POLY[3]
    coarse = euler_product(coeffs, target_error=1e-6).value
    fine = euler_product(coeffs, target_error=Fraction(1, 10**10)).value
    assert coarse.encloses(fine)
    assert fine.abs_error < coarse.abs_error


def test_higher_cutoff_nests():
    coeffs = reference.LOCAL_POLY[3]
    a = euler_product(coeffs, target_error=1e-8)
    b = euler_product(coeffs, target_error=1e-8,
                      prime_cutoff=4 * a.prime_cutoff)
    assert a.value.encloses(b.value) or a.value.intersects(b.value)
    assert b.value.abs_error <= a.value.abs_error


def test_higher_acceleration_order_stays_inside():
    coeffs = reference.LOCAL_POLY[3]
    low = euler_product(coeffs, target_error=1e-8, order=8)
    high = euler_product(coeffs, target_error=1e-8, order=14)
    assert low.value.intersects(high.value)
    assert low.value.contains(high.value.value)


def test_plain_partial_product_within_crude_tail():
    # unaccelerated product over p <= 10^4, widened by its own tail bound,
    # must trap the accelerated value
    coeffs = reference.LOCAL_POLY[3]
    accel = euler_product(coeffs).value
    bits = 160
    prod = BoundedReal.exact(1, bits)
    from lcmsum.exactmath import shared_sieve

    primes = [int(p) for p in shared_sieve(10**4).primes]
    v = len(coeffs) - 1
    for p in primes:
        x = BoundedReal((1 << bits) // p, (1 << bits) // p + 1, bits)
        acc = BoundedReal.exact(coeffs[v], bits)
        for a in range(v - 1, -1, -1):
            acc = acc * x + coeffs[a]
        prod = prod * acc
    k_bound = sum(abs(c) for c in coeffs[2:])  # |Q(1/p) - 1| <= K / p^2
    t = Fraction(2 * k_bound, 10**4)
    widened = BoundedReal.from_bracket(prod.lo * (1 - t), prod.hi * (1 + t), bits)
    assert widened.encloses(accel) or widened.intersects(accel)
    assert widened.contains(accel.value)


def test_precision_error_carries_achieved_bound():
    with pytest.raises(PrecisionError) as exc:
        euler_product(reference.LOCAL_POLY[3], target_error=Fraction(1, 10**9),
                      prime_cutoff=64, order=3)
    assert exc.value.achieved is not None
    # each term's share of the target is absolute, and the product of 1 +
    # 100/p^2 (about 6.5e4) multiplies them past it
    target = Fraction(1, 10**6)
    with pytest.raises(PrecisionError, match="achieved bound") as exc:
        euler_product((1, 0, 100), target)
    assert exc.value.achieved > target


def test_a_huge_coefficient_leaves_no_remainder_radius_at_once():
    # b_2 = 2**40: every radius's factor (1 + r^2)^(2**40) passes 2**24 and
    # is refused before the power is formed
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="no usable remainder radius"):
        euler_product((1, 0, -(1 << 40)))
    assert time.perf_counter() - start < 1


def test_a_local_factor_that_is_not_positive_is_refused():
    # 1 - 4x^2 vanishes at x = 1/2; the message prints the enclosure
    with pytest.raises(ArithmeticError,
                       match=r"not positive at p=2: BoundedReal\("):
        euler_product((1, 0, -4))


def test_a_zeta_excess_that_is_not_positive_is_refused(monkeypatch):
    # zeta(j) > 1 always, so only a faulty zeta gets here; the target is
    # one no other test asks for, so no cached product answers first
    monkeypatch.setattr(eulerprod, "zeta_value",
                        lambda j, t: BoundedReal.exact(0, CERTIFIED_BITS))
    with pytest.raises(ArithmeticError, match="zeta excess not positive at j=2"):
        euler_product((1, 0, -1), Fraction(1, 12345))


@pytest.mark.parametrize("call, exc", [
    (lambda: euler_product(()), ValueError),
    (lambda: euler_product(reference.LOCAL_POLY[3], prime_cutoff=0), ValueError),
    (lambda: euler_product(reference.LOCAL_POLY[3], prime_cutoff=-5), ValueError),
    (lambda: euler_product(reference.LOCAL_POLY[3], order=0), ValueError),
    (lambda: euler_product(reference.LOCAL_POLY[3], order=-1), ValueError),
    (lambda: euler_product(reference.LOCAL_POLY[3], target_error=0), ValueError),
    (lambda: euler_product((2,)), ValueError),
    (lambda: count_density_poly(1), ValueError),
    (lambda: lcm_count_density(5), ValueError),
    (lambda: euler_product((1, 0, -0.5)), TypeError),
    (lambda: euler_product((1, 0, Fraction(-3, 2))), TypeError),
    (lambda: euler_product((True, 0, -1)), TypeError),
], ids=["empty", "cutoff-0", "cutoff-neg", "order-0", "order-neg", "target-0",
        "constant-2", "count-k1", "count-k5", "float-coeff", "fraction-coeff",
        "bool-coeff"])
def test_euler_product_rejects_bad_inputs(call, exc):
    # an empty polynomial, a constant other than 1, a non-positive order,
    # cutoff or target, or a k outside the count route's range is a usage
    # error, not an IndexError, ZeroDivisionError or PrecisionError; a
    # coefficient that is not an integer is refused, not truncated (1 -
    # 0.5x^2 would read as exact 1, and 1 - 1.5x^2 as 1 - x^2), and a bool
    # is refused as zeta_value refuses it, not read as 1 or 0
    with pytest.raises(exc):
        call()


def test_euler_product_takes_numpy_integer_coefficients():
    coeffs = np.array(reference.LOCAL_POLY[2], dtype=np.int64)
    got = euler_product(coeffs).value
    want = euler_product(reference.LOCAL_POLY[2]).value
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got.contains(Fraction(6 / math.pi**2)) and got.abs_error > 0


# ---------------------------------------------------------------------------
# the tuple-count route
# ---------------------------------------------------------------------------

def test_count_density_poly_matches_graph_poly():
    for k in (2, 3, 4):
        assert count_density_poly(k) == reference.LOCAL_POLY[k]


def test_count_density_local_factor_k2():
    # (1 - x)^3 * sum (2 nu + 1) x^nu collapses to 1 - x^2
    coeffs = count_density_poly(2)
    x = Fraction(1, 7)
    series = sum((2 * nu + 1) * x**nu for nu in range(200))
    lhs = (1 - x) ** 3 * series
    rhs = sum(c * x**a for a, c in enumerate(coeffs))
    assert abs(lhs - rhs) < Fraction(1, 10**20)
    assert rhs == 1 - x**2


# ---------------------------------------------------------------------------
# series identities
# ---------------------------------------------------------------------------

def test_series_identities_hold():
    assert series_identity_mismatch(2, 10) is None
    assert series_identity_mismatch(3, 30) is None
    assert series_identity_mismatch(4, 30) is None


def test_series_identity_reports_a_planted_error_at_its_index(monkeypatch):
    q = list(local_factor_poly(build_coprimality_graph(3)))
    for a in (0, 5, 7):
        bad = q.copy()
        bad[a] += 1
        # Q itself off at a: the count series is compared first
        monkeypatch.setattr(eulerprod, "local_factor_poly", lambda g: tuple(bad))
        assert series_identity_mismatch(3, 40) == ("count-series", a)
    monkeypatch.undo()
    counts = list(eulerprod.stirling_ism_counts(3))
    for m in (0, 2, 3):
        bad = counts.copy()
        bad[m] += 1
        monkeypatch.setattr(eulerprod, "stirling_ism_counts", lambda k: bad)
        # i_m feeds x^m (1-x)^(v-m), whose lowest term is at index m
        assert series_identity_mismatch(3, 40) == ("independent-set", m)


def test_series_identity_requires_enough_terms():
    with pytest.raises(ValueError):
        series_identity_mismatch(3, 4)
    with pytest.raises(ValueError):
        series_identity_mismatch(3, -9)
    assert series_identity_mismatch(3, 8) is None  # n = 2**k is enough
    # a huge k is refused without forming 2**k, here a 12.5 MB int
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\*\*k"):
            series_identity_mismatch(10**8, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_series_identity_refuses_a_degree_past_its_cap_at_once():
    # the refusal comes before any list of n ints is made, at once and in
    # little memory
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="identity cap"):
            series_identity_mismatch(4, eulerprod.IDENTITY_MAX_DEGREE + 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, elapsed
    assert peak < 2**20, peak


def test_series_identity_admits_its_cap(monkeypatch):
    monkeypatch.setattr(eulerprod, "IDENTITY_MAX_DEGREE", 40)
    assert series_identity_mismatch(4, 40) is None
    with pytest.raises(ResourceLimitError):
        series_identity_mismatch(4, 41)


def test_series_identity_hand_expansion_k2():
    # (1-x)^3 (1 + 3x + 5x^2 + ...) = 1 - x^2 through degree 10
    coeffs = [0] * 11
    binom = [1, -3, 3, -1]
    for i, b in enumerate(binom):
        for nu in range(11 - i):
            coeffs[i + nu] += b * (2 * nu + 1)
    assert coeffs == [1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0]
