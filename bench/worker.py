"""One benchmark pass in a fresh process.

Usage: python worker.py SPEC_JSON, where the spec holds `src` (the package
source directory), `tasks` (from tasks.py) and `trace` (bool).  The worker
sets up (imports, graphs, local polynomials, polytopes), prints a `ready`
line, runs the tasks one at a time printing one `task` line each, and ends
with a `done` line carrying its peak RSS and, when traced, its spans.  Every
line on stdout is one JSON object; nothing else is printed there.

Every lru_cache of the package starts empty, as in a CLI invocation.
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from fractions import Fraction

#: exceptions by which the package refuses a task it cannot certify
REFUSALS = ("PrecisionError", "ResourceLimitError", "PeriodDetectionError")


def load_package(src: str) -> dict:
    """Import the package from `src` only; return its modules by short name."""
    sys.path.insert(0, src)
    import lcmsum
    from lcmsum import coprimality, eulerprod, oracle, polytope

    if not lcmsum.__file__.startswith(src):
        raise ImportError(f"lcmsum imported from {lcmsum.__file__}, not {src}")
    return {"coprimality": coprimality, "eulerprod": eulerprod,
            "oracle": oracle, "polytope": polytope}


def setup(mods: dict) -> dict:
    """What the CLI commands build before computing: graphs, local
    polynomials and polytopes, so that setup_s moves with their construction.
    Only the graphs feed the tasks.  Fills none of the package's caches."""
    cop, ep, pt = mods["coprimality"], mods["eulerprod"], mods["polytope"]
    graphs = {k: cop.build_coprimality_graph(k) for k in (2, 3, 4)}
    return {
        "mods": mods,
        "graphs": graphs,
        "polys": {k: cop.local_factor_poly(g) for k, g in graphs.items()},
        "count_polys": {k: ep.count_density_poly(k) for k in graphs},
        "polytopes": {(kind, k): pt.build_polytope(kind, k)
                      for kind in ("D", "D_star", "D_star2") for k in graphs},
    }


def enclosure(b) -> dict:
    return {"lo": str(b.lo), "hi": str(b.hi)}


def execute(task: dict, ctx: dict):
    """Run one task through the package's module attributes (so a tracer's
    wrappers see the call) and return its JSON-friendly result."""
    mods = ctx["mods"]
    ep, orc = mods["eulerprod"], mods["oracle"]
    op = task["op"]
    if op == "leading_constants":
        lc = orc.leading_constants(task["k"])
        return {
            "density": enclosure(lc.density), "c": enclosure(lc.c),
            "c2": enclosure(lc.c2), "c3": enclosure(lc.c3),
            "vol_d": str(lc.vol_d), "vol_d_star": str(lc.vol_d_star),
            "vol_d_star2": str(lc.vol_d_star2),
            "theta": [None if t is None else repr(t)
                      for t in (lc.theta1, lc.theta2, lc.theta3)],
        }
    if op == "density":
        target = Fraction(task["target"])
        if task["route"] == "graph":
            return enclosure(ep.coprime_density(ctx["graphs"][task["k"]], target))
        return enclosure(ep.lcm_count_density(task["k"], target))
    if op == "sweep":
        k, gcd1 = task["k"], task["gcd1"]
        brute = orc.brute_recip_lcm_sum_coprime if gcd1 else orc.brute_recip_lcm_sum
        xs = range(1, task["xmax"] + 1)
        return {"gwise": [str(orc.gwise_constrained_sum(k, x, gcd1)) for x in xs],
                "brute": [str(brute(k, x)) for x in xs]}
    if op == "gwise":
        return str(orc.gwise_constrained_sum(task["k"], task["x"], task["gcd1"]))
    if op == "brute":
        fn = {"S": orc.brute_recip_lcm_sum, "U": orc.brute_recip_lcm_sum_coprime,
              "V": orc.brute_prod_over_lcm_sum}[task["sum"]]
        return str(fn(task["k"], task["x"]))
    if op == "fast_s2":
        res = orc.fast_recip_lcm_sum2(task["x"])
        if isinstance(res, Fraction):
            # hex: the exact sum has more digits than int -> str allows
            return f"{res.numerator:x}/{res.denominator:x}"
        return enclosure(res)
    raise ValueError(f"unknown op {op!r}")


def run_task(task: dict, ctx: dict) -> dict:
    try:
        return {"status": "ok", "result": execute(task, ctx)}
    except Exception as exc:  # reported to run.py, which classifies it
        kind = type(exc).__name__
        return {"status": "refused" if kind in REFUSALS else "error",
                "error": f"{kind}: {exc}"}


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(spec: dict) -> None:
    mods = load_package(spec["src"])
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, mods)
    try:
        ctx = setup(mods)
        emit({"event": "ready"})
        for task in spec["tasks"]:
            span = tracer.span("task." + task["name"]) if tracer else nullcontext()
            with span:
                out = run_task(task, ctx)
            emit({"event": "task", "name": task["name"], **out})
    finally:
        if tracer:
            tracer.restore()
    emit({"event": "done",
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
          "spans": tracer.spans if tracer else []})


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
