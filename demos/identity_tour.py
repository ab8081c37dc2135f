#!/usr/bin/env python3
"""The structural identities, checked live at desk scale.

1. Decomposition: the sum of 1/(product of coprime parts) under the
   hyperbolic constraints equals the plain k-fold reciprocal-lcm sum,
   bit-exactly, with the gcd-pinned variant matching the coprime sum.
2. The lcm-multiplicity formula versus literal counting.
3. The exact power-series identity behind the Euler-product acceleration.
"""

from lcmsum import (
    brute_recip_lcm_sum,
    brute_recip_lcm_sum_coprime,
    decompose_tuple,
    gwise_constrained_sum,
    lcm_multiplicity,
    series_identity_mismatch,
)

print("decomposition identity, k = 2:")
for x in (5, 20, 60):
    lhs = gwise_constrained_sum(2, x)
    rhs = brute_recip_lcm_sum(2, x)
    print(f"  x={x:3d}: constrained {lhs} == brute {rhs}: {lhs == rhs}")
    assert lhs == rhs

print("gcd-pinned variant, k = 3:")
for x in (5, 15):
    lhs = gwise_constrained_sum(3, x, fix_last_to_one=True)
    rhs = brute_recip_lcm_sum_coprime(3, x)
    print(f"  x={x:3d}: {lhs} == {rhs}: {lhs == rhs}")
    assert lhs == rhs

print("\na decomposition by hand: (12, 18, 30) ->",
      decompose_tuple(3, (12, 18, 30)))

print("\nlcm multiplicities at prime powers: alpha(k=3, .) on 2, 4, 8:",
      [lcm_multiplicity(3, n) for n in (2, 4, 8)])

print("\npower-series identities to degree 30:")
for k in (2, 3, 4):
    print(f"  k={k}: {series_identity_mismatch(k, 30) is None}")
