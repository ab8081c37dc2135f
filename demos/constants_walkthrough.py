#!/usr/bin/env python3
"""From a coprimality graph to the certified leading constant, step by step.

Walks the k = 3 pipeline: build the graph, read off its local-factor
polynomial two ways, evaluate the Euler product with a certified bound,
attach the exact polytope volume, and assemble c = density * volume.
The coprime-variant constant is (2^k - 1) c by the exact cone relation
vol(D_star) = (2^k - 1) vol(D), which `leading_constants` checks.
"""

from fractions import Fraction

import lcmsum as L

k = 3
g = L.build_coprimality_graph(k)
print(f"graph on {g.v} vertices, {len(g.edges)} edges "
      f"(formula: {L.edge_count_formula(k)})")
print(L.graph_dump(g))

ism = L.independent_set_counts(g)
print("independent-set counts:", ism)
print("Stirling closed form:  ", L.stirling_ism_counts(k))

q = L.local_factor_poly(g)
print("local-factor polynomial:", q)
print("edge-subset route:      ", L.local_factor_poly_by_edge_subsets(g))

rho = L.coprime_density(g)
print(f"\ndensity = {float(rho.value):.12f} +- {float(rho.abs_error):.1e}  "
      "(certified enclosure)")

vol = L.volume_of("D", k)
print(f"vol(D) = {vol} = {float(vol):.10f}  (exact rational)")

c = rho * vol
print(f"c = density * vol = {float(c.value):.12f} +- {float(c.abs_error):.1e}")

lc = L.leading_constants(k)
print(f"\ncone relation (exact): vol(D_star) = {lc.vol_d_star} "
      f"= (2^{k}-1) * {lc.vol_d}")
assert lc.vol_d_star == (2**k - 1) * lc.vol_d
print(f"coprime-variant constant c2 = (2^{k}-1) c = "
      f"{float(lc.c2.value):.12f}")
print(f"product-sum constant c3 = {float(lc.c3.value):.12f}")
print(f"error exponents: theta1 = {lc.theta1!r} = {float(lc.theta1):.6f}, "
      f"theta2 = {lc.theta2!r}")
assert lc.theta1 == Fraction(1, 14)
