"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

A traced worker patches each function in `INSTRUMENTS` at the module
attribute the package resolves it through (so `lcmsum.eulerprod.zeta_value`
is wrapped, not `lcmsum.exactmath.zeta_value`), records one span per call
(name, start, end, parent) and restores the originals afterwards.  Nothing
here imports the package; the worker hands the modules in.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction


class Tracer:
    """A stack of open spans and the list of finished ones (single thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = 0

    @contextmanager
    def span(self, name: str):
        self._ids += 1
        rec = {"id": self._ids, "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace module.attr by a spanning wrapper; `attrs(bound, result)`
        adds call facts, with result None when the call raised."""
        original = getattr(module, attr)
        sig = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except Exception as exc:
                    rec["error"] = type(exc).__name__
                    raise
                finally:
                    if attrs is not None:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        rec["attrs"] = attrs(bound.arguments, result)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _lattice_attrs(a, _result):
    return {"max_n": max(a["ns"]), "ncons": len(a["p"].constraints)}


def _euler_attrs(a, result):
    out = {"target": float(Fraction(a["target_error"]))}
    if result is not None:
        out["achieved"] = float(result.value.abs_error)
        out["primes_used"] = result.primes_used
    return out


def _zeta_attrs(a, _result):
    return {"target_log2": math.log2(Fraction(a["target_error"]))}


def _brute_attrs(a, _result):
    # sorted tuples the brute loop visits: multisets of size k from 1..x
    return {"tuples": math.comb(a["x"] + a["k"] - 1, a["k"])}


#: (module under lcmsum, attribute, span name, attrs function)
INSTRUMENTS = (
    ("polytope", "lattice_counts", "polytope.lattice_counts", _lattice_attrs),
    ("polytope", "leading_coeff_by_differences", "polytope.extract", None),
    ("oracle", "volume_of", "polytope.volume_of", None),
    ("eulerprod", "euler_product", "eulerprod.euler_product", _euler_attrs),
    ("eulerprod", "zeta_factorization", "eulerprod.zeta_factorization", None),
    ("eulerprod", "zeta_value", "exactmath.zeta_value", _zeta_attrs),
    ("eulerprod", "shared_sieve", "exactmath.shared_sieve", None),
    ("oracle", "shared_sieve", "exactmath.shared_sieve", None),
    ("oracle", "gwise_constrained_sum", "oracle.gwise", None),
    ("oracle", "brute_recip_lcm_sum", "oracle.brute", _brute_attrs),
    ("oracle", "brute_recip_lcm_sum_coprime", "oracle.brute", _brute_attrs),
    ("oracle", "brute_prod_over_lcm_sum", "oracle.brute", _brute_attrs),
    ("oracle", "fast_recip_lcm_sum2", "oracle.fast_s2", None),
    ("oracle", "leading_constants", "oracle.leading_constants", None),
    ("oracle", "build_coprimality_graph", "coprimality.build_graph", None),
    ("coprimality", "build_coprimality_graph", "coprimality.build_graph", None),
)


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every instrumented function; `modules` maps short name -> module."""
    for mod, attr, name, attrs in INSTRUMENTS:
        tracer.wrap(modules[mod], attr, name, attrs)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "polytope.lattice_counts_s": ("s", "lower"),
    "polytope.lattice_counts_calls": ("count", "lower"),
    "polytope.extract_s": ("s", "lower"),
    "polytope.max_dilate": ("count", "lower"),
    "polytope.dp_cells": ("count", "lower"),
    "polytope.dp_table_bytes_max": ("B", "lower"),
    "polytope.period_hit_ratio": ("ratio", "higher"),
    "eulerprod.euler_product_s": ("s", "lower"),
    "eulerprod.self_s": ("s", "lower"),
    "eulerprod.factorization_s": ("s", "lower"),
    "eulerprod.calls": ("count", "lower"),
    "eulerprod.cache_hits": ("count", "higher"),
    "eulerprod.primes_used": ("count", "lower"),
    "eulerprod.overshoot_digits": ("digits", "lower"),
    "exactmath.zeta_s": ("s", "lower"),
    "exactmath.zeta_calls": ("count", "lower"),
    "exactmath.zeta_min_target_log2": ("log2", "higher"),
    "exactmath.zeta_refusals": ("count", "lower"),
    "exactmath.sieve_s": ("s", "lower"),
    "oracle.sweep_s": ("s", "lower"),
    "oracle.point_s": ("s", "lower"),
    "oracle.gwise_s": ("s", "lower"),
    "oracle.brute_s": ("s", "lower"),
    "oracle.fast_s2_s": ("s", "lower"),
    "oracle.brute_tuples": ("count", "lower"),
    "oracle.leading_constants_self_s": ("s", "lower"),
    "coprimality.graph_s": ("s", "lower"),
    "coprimality.graph_calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    out = dict(own)
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= own[s["id"]]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every metric of LAYER_METRICS but the overhead ratio, from one pass."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    selft = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, set[str]] = defaultdict(set)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].add(s["name"])

    def total(name):
        return sum(dur[s["id"]] for s in by_name[name])

    def tasks_s(prefix):
        return sum(dur[s["id"]] for s in spans
                   if s["name"].startswith("task." + prefix))

    lattice = by_name["polytope.lattice_counts"]
    cells = [(s["attrs"]["max_n"] + 1) ** s["attrs"]["ncons"] for s in lattice]
    volumes = sum(1 for s in by_name["polytope.volume_of"]
                  if "polytope.lattice_counts" in children[s["id"]])
    euler = by_name["eulerprod.euler_product"]
    certified = [s["attrs"] for s in euler
                 if "error" not in s and s["attrs"].get("achieved", 0) > 0]
    zeta = by_name["exactmath.zeta_value"]
    return {
        "polytope.lattice_counts_s": total("polytope.lattice_counts"),
        "polytope.lattice_counts_calls": len(lattice),
        "polytope.extract_s": total("polytope.extract"),
        "polytope.max_dilate": max((s["attrs"]["max_n"] for s in lattice), default=0),
        "polytope.dp_cells": sum(cells),
        "polytope.dp_table_bytes_max": 4 * max(cells, default=0),
        "polytope.period_hit_ratio": volumes / len(lattice) if lattice else 0.0,
        "eulerprod.euler_product_s": total("eulerprod.euler_product"),
        "eulerprod.self_s": sum(selft[s["id"]] for s in euler),
        "eulerprod.factorization_s": total("eulerprod.zeta_factorization"),
        "eulerprod.calls": len(euler),
        "eulerprod.cache_hits": sum(
            1 for s in euler
            if "eulerprod.zeta_factorization" not in children[s["id"]]),
        "eulerprod.primes_used": max((a["primes_used"] for a in certified), default=0),
        "eulerprod.overshoot_digits": statistics.median(
            math.log10(a["target"] / a["achieved"]) for a in certified)
        if certified else 0.0,
        "exactmath.zeta_s": total("exactmath.zeta_value"),
        "exactmath.zeta_calls": len(zeta),
        "exactmath.zeta_min_target_log2": min(
            (s["attrs"]["target_log2"] for s in zeta), default=0.0),
        "exactmath.zeta_refusals": sum(1 for s in zeta if "error" in s),
        "exactmath.sieve_s": total("exactmath.shared_sieve"),
        "oracle.sweep_s": tasks_s("oracles.sweep"),
        "oracle.point_s": tasks_s("oracles.point"),
        "oracle.gwise_s": total("oracle.gwise"),
        "oracle.brute_s": total("oracle.brute"),
        "oracle.fast_s2_s": total("oracle.fast_s2"),
        "oracle.brute_tuples": sum(s["attrs"]["tuples"] for s in by_name["oracle.brute"]),
        "oracle.leading_constants_self_s": sum(
            selft[s["id"]] for s in by_name["oracle.leading_constants"]),
        "coprimality.graph_s": total("coprimality.build_graph"),
        "coprimality.graph_calls": len(by_name["coprimality.build_graph"]),
    }


def top_self_time(spans: list[dict]) -> tuple[str, float]:
    """The span name with the largest summed self time, task spans excluded."""
    selft = self_times(spans)
    acc: dict[str, float] = defaultdict(float)
    for s in spans:
        if not s["name"].startswith("task."):
            acc[s["name"]] += selft[s["id"]]
    if not acc:
        return ("", 0.0)
    name = max(acc, key=acc.get)
    return name, acc[name]
