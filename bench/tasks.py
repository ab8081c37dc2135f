"""Task lists of the three benchmark workloads.

A task is a JSON-friendly dict: `name` (unique within a pass, used in every
report and in `expected.json`), `op` (what the worker calls) and the op's
arguments.  The seed only draws the k=3 point-query x of `oracles`; the other
two workloads have no free input.
"""

from __future__ import annotations

import random

WORKLOADS = ("constants", "density", "oracles")
SIZES = ("full", "smoke")

#: density ladder per k: graph-route targets; the count route then runs at
#: 5e-10 and hits the cache the graph route just filled
LADDER = {
    "full": {2: ("5e-10", "1e-11"), 3: ("5e-10", "5e-11", "1e-12"),
             4: ("5e-10", "1e-12")},
    "smoke": {2: ("5e-10",), 3: ("1e-12",)},
}

#: inclusive range the seed draws the k=3 point-query x from
POINT_X = {"full": (80, 100), "smoke": (8, 12)}

SWEEP_XMAX = {"full": {2: 200, 3: 30}, "smoke": {2: 20}}
FAST_S2_X = {"full": (10_000, 10**6), "smoke": (100, 20_000)}
CONSTANTS_K = {"full": (2, 3, 4), "smoke": (2,)}


def point_x(seed: int, size: str = "full") -> int:
    lo, hi = POINT_X[size]
    return random.Random(seed).randint(lo, hi)


def constants_tasks(size: str) -> list[dict]:
    return [{"name": f"constants.k{k}", "op": "leading_constants", "k": k}
            for k in CONSTANTS_K[size]]


def density_tasks(size: str) -> list[dict]:
    out = []
    for k, targets in LADDER[size].items():
        for t in targets:
            out.append({"name": f"density.k{k}.graph.{t}", "op": "density",
                        "k": k, "route": "graph", "target": t})
        if "5e-10" in targets:
            out.append({"name": f"density.k{k}.count.5e-10", "op": "density",
                        "k": k, "route": "count", "target": "5e-10"})
    return out


def oracle_tasks(size: str, seed: int) -> list[dict]:
    out = []
    for k, xmax in SWEEP_XMAX[size].items():
        for gcd1 in (False, True):
            variant = "gcd1" if gcd1 else "plain"
            out.append({"name": f"oracles.sweep.k{k}.{variant}.x1-{xmax}",
                        "op": "sweep", "k": k, "xmax": xmax, "gcd1": gcd1})
    x = point_x(seed, size)
    for kind, gcd1 in (("S", False), ("U", True)):
        out.append({"name": f"oracles.point.gwise.{kind}.k3.x{x}", "op": "gwise",
                    "k": 3, "x": x, "gcd1": gcd1, "sum": kind})
    for kind in ("S", "U", "V"):
        out.append({"name": f"oracles.point.brute.{kind}.k3.x{x}", "op": "brute",
                    "k": 3, "x": x, "sum": kind})
    for fx in FAST_S2_X[size]:
        out.append({"name": f"oracles.fast_s2.x{fx}", "op": "fast_s2", "x": fx})
    return out


def task_list(workload: str, seed: int, size: str = "full") -> list[dict]:
    if workload == "constants":
        return constants_tasks(size)
    if workload == "density":
        return density_tasks(size)
    if workload == "oracles":
        return oracle_tasks(size, seed)
    raise ValueError(f"unknown workload {workload!r}")
