"""Record the reference values the correctness gate compares against.

Run from the repository root at the commit whose outputs define "correct":

    python3 bench/record_expected.py

It writes bench/expected.json: the published literature values (copied from
lcmsum.reference, so the gate never reads the package under test) and every
task result of both sizes at that commit, including each point-query x the
seed can draw.  Takes about 90 s (the k=4 volumes dominate).
"""

from __future__ import annotations

import json
import os
import sys

import gate
import tasks as T
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record() -> dict:
    mods = worker.load_package(os.path.join(ROOT, "src"))
    from lcmsum import reference

    ctx = worker.setup(mods)
    seed: dict = {}
    todo = []
    for size in T.SIZES:
        todo += T.constants_tasks(size) + T.density_tasks(size)
        lo, hi = T.POINT_X[size]
        # point queries are recorded below for every x the seed can draw
        todo += [t for t in T.oracle_tasks(size, 0)
                 if t["op"] not in ("brute", "gwise")]
        for x in range(lo, hi + 1):
            for kind in ("S", "U", "V"):
                todo.append({"name": f"{kind}.k3.x{x}", "op": "brute",
                             "k": 3, "x": x, "sum": kind})
    for task in todo:
        if task["name"] in seed:
            continue
        out = worker.run_task(task, ctx)
        if out["status"] == "refused":
            seed[task["name"]] = {"refused": out["error"]}
            continue
        if out["status"] != "ok":
            raise RuntimeError(f"{task['name']}: {out['error']}")
        r = out["result"]
        if task["op"] == "sweep":
            if r["gwise"] != r["brute"]:
                raise RuntimeError(f"{task['name']}: gwise != brute")
            r = gate.digest(r["brute"])
        elif task["op"] == "fast_s2" and isinstance(r, str):
            r = gate.digest([r])
        seed[task["name"]] = r
        print(task["name"], file=sys.stderr, flush=True)
    return {
        "literature": {
            "volumes": {f"{kind},{k}": str(v)
                        for (kind, k), v in sorted(reference.VOLUMES.items())},
            "rho_k3": repr(reference.RHO_K3),
            "c_k3": repr(reference.C_K3),
        },
        "seed": seed,
    }


if __name__ == "__main__":
    expected = record()
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
