#!/usr/bin/env python3
"""Exact volumes of every polytope family member, with their cone relations.

Pass --k4 to include the 10- to 15-dimensional bodies (about 0.1 s of DP).
"""

import sys
from fractions import Fraction
from math import factorial

import lcmsum as L

ks = (2, 3, 4) if "--k4" in sys.argv[1:] else (2, 3)

for k in ks:
    print(f"k = {k}")
    for kind in ("D", "D_star", "D_star2", "D_star3", "T"):
        p = L.build_polytope(kind, k)
        vol = L.volume_of(kind, k)
        print(f"  {kind:8s} dim {p.dim:2d}  vol = {vol}")
    for name, lhs, rhs in L.volume_relations_check(k):
        print(f"  relation {name}: {'ok' if lhs == rhs else 'VIOLATED'}")
    assert L.volume_of("T", k) == Fraction(1, factorial(2**k - 1))
    print()

print("worksheet export for the 3-dimensional pairwise-sum body:")
print(L.export_ieqs(L.build_polytope("D_star3", 3)))
