"""Correctness gate: every task result of a pass against an independent route
or against the value recorded at the seed commit (`expected.json`).

Independent routes: gwise == brute bit-exactly, graph route intersects the
count route, published volumes and eight-digit constants, the cone relation
vol(D) = vol(D_star)/(2**k - 1), and 6/pi**2 from mpmath.  Every enclosure
must be no wider than its target, contain the reference, and nest inside
the seed's enclosure.  A refusal is not a wrong result; it is classified
here and counted by run.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import mpmath

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: half-width of an eight-digit published decimal (round to nearest)
PUBLISHED_HALF_ULP = Fraction(5, 10**9)

#: default certified target of leading_constants
CONSTANTS_TARGET = Fraction(1, 2 * 10**9)


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def _six_over_pi2() -> tuple[Fraction, Fraction]:
    """An interval of width 2**-190 around 6/pi**2."""
    with mpmath.workprec(256):
        man, exp = (mpmath.mpf(6) / mpmath.pi**2).man_exp
    mid = Fraction(int(man)) * Fraction(2) ** int(exp)
    r = Fraction(1, 2**190)
    return mid - r, mid + r


SIX_OVER_PI2 = _six_over_pi2()


class Interval:
    def __init__(self, d: dict):
        self.lo, self.hi = Fraction(d["lo"]), Fraction(d["hi"])

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def inside(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def contains(self, lo: Fraction, hi: Fraction) -> bool:
        return self.lo <= lo and hi <= self.hi

    def meets(self, lo: Fraction, hi: Fraction) -> bool:
        return self.lo <= hi and lo <= self.hi

    def __repr__(self):
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"


def _published(value: str) -> tuple[Fraction, Fraction]:
    v = Fraction(value)
    return v - PUBLISHED_HALF_ULP, v + PUBLISHED_HALF_ULP


def _enclosure_errors(label: str, got: Interval, seed: dict | None,
                      target: Fraction | None) -> list[str]:
    errs = []
    if target is not None and got.radius > target:
        errs.append(f"{label}: radius {float(got.radius):.3e} exceeds target "
                    f"{float(target):.1e}")
    if seed is not None and not got.inside(Interval(seed)):
        errs.append(f"{label}: {got!r} does not nest inside the seed's "
                    f"{Interval(seed)!r}")
    return errs


class Gate:
    def __init__(self, expected: dict):
        self.exp = expected
        lit = expected["literature"]
        self.volumes = lit["volumes"]
        self.rho_k3 = _published(lit["rho_k3"])
        self.c_k3 = _published(lit["c_k3"])

    def _seed(self, key: str):
        if key not in self.exp["seed"]:
            raise KeyError(f"no value recorded at the seed for {key}")
        return self.exp["seed"][key]

    def expected_refusal(self, name: str) -> bool:
        """Tasks the seed refused (the documented precision wall)."""
        seed = self.exp["seed"].get(name)
        return isinstance(seed, dict) and "refused" in seed

    # -- per op ---------------------------------------------------------------

    def _constants(self, task, r) -> list[str]:
        k, name = task["k"], task["name"]
        seed = self._seed(name)
        errs = []
        for field, kind in (("vol_d", "D"), ("vol_d_star", "D_star"),
                            ("vol_d_star2", "D_star2")):
            want = self.volumes.get(f"{kind},{k}", seed[field])
            if Fraction(r[field]) != Fraction(want):
                errs.append(f"{name}: {field} = {r[field]}, expected {want}")
        if Fraction(r["vol_d"]) * (2**k - 1) != Fraction(r["vol_d_star"]):
            errs.append(f"{name}: cone relation vol(D) = vol(D_star)/{2**k - 1} fails")
        errs += _enclosure_errors(f"{name}: density", Interval(r["density"]),
                                  seed["density"], CONSTANTS_TARGET)
        for field in ("c", "c2", "c3"):
            errs += _enclosure_errors(f"{name}: {field}", Interval(r[field]),
                                      seed[field], None)
        if k == 2:
            lo, hi = SIX_OVER_PI2
            if not Interval(r["density"]).contains(lo, hi):
                errs.append(f"{name}: density misses 6/pi^2")
            if not Interval(r["c"]).contains(lo / 3, hi / 3):
                errs.append(f"{name}: c misses 2/pi^2")
        if k == 3:
            if not Interval(r["density"]).meets(*self.rho_k3):
                errs.append(f"{name}: density misses the published rho(3)")
            if not Interval(r["c"]).meets(*self.c_k3):
                errs.append(f"{name}: c misses the published c(3)")
        if r["theta"] != seed["theta"]:
            errs.append(f"{name}: theta {r['theta']} != {seed['theta']}")
        return errs

    def _density(self, task, r) -> list[str]:
        name, k = task["name"], task["k"]
        got = Interval(r)
        seed = self.exp["seed"].get(name)
        if self.expected_refusal(name):
            # certified past the seed's wall: it must meet every seed enclosure
            seed = None
            errs = [f"{name}: {got!r} misses the seed's {key} enclosure"
                    for key, v in sorted(self.exp["seed"].items())
                    if key.startswith(f"density.k{k}.") and "lo" in v
                    and not got.meets(Fraction(v["lo"]), Fraction(v["hi"]))]
        else:
            seed = self._seed(name)
            errs = []
        errs += _enclosure_errors(name, got, seed, Fraction(task["target"]))
        if k == 2 and not got.contains(*SIX_OVER_PI2):
            errs.append(f"{name}: {got!r} misses 6/pi^2")
        if k == 3 and not got.meets(*self.rho_k3):
            errs.append(f"{name}: {got!r} misses the published rho(3)")
        return errs

    def _sweep(self, task, r) -> list[str]:
        name = task["name"]
        errs = []
        if not (len(r["gwise"]) == len(r["brute"]) == task["xmax"]):
            return [f"{name}: expected {task['xmax']} values per route"]
        for x, (a, b) in enumerate(zip(r["gwise"], r["brute"]), start=1):
            if a != b:
                errs.append(f"{name}: gwise != brute at x={x}")
                break
        if digest(r["brute"]) != self._seed(name):
            errs.append(f"{name}: sums differ from the seed's")
        return errs

    def _point(self, task, r) -> list[str]:
        key = f"{task['sum']}.k{task['k']}.x{task['x']}"
        want = self._seed(key)
        if Fraction(r) != Fraction(want):
            return [f"{task['name']}: {r} != seed value {want}"]
        return []

    def _fast_s2(self, task, r) -> list[str]:
        name = task["name"]
        seed = self._seed(name)
        if isinstance(r, str):
            return [] if digest([r]) == seed else [f"{name}: exact sum differs from the seed's"]
        return _enclosure_errors(name, Interval(r), seed, None)

    # -- per pass -------------------------------------------------------------

    def check_pass(self, tasks: list[dict], outcomes: dict) -> list[str]:
        """Wrong results of one pass, each message naming its task."""
        errs = []
        check = {"leading_constants": self._constants, "density": self._density,
                 "sweep": self._sweep, "gwise": self._point, "brute": self._point,
                 "fast_s2": self._fast_s2}
        ok = {}
        for task in tasks:
            out = outcomes.get(task["name"])
            if out is None or out["status"] != "ok":
                continue
            try:
                errs += check[task["op"]](task, out["result"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                errs.append(f"{task['name']}: malformed result ({type(exc).__name__}: {exc})")
            else:
                ok[task["name"]] = (task, out["result"])
        # cross-task: the two density routes at one k must intersect, and
        # the point gwise sums must equal the brute ones bit-exactly
        dens = [(t, Interval(r)) for t, r in ok.values() if t["op"] == "density"]
        for i, (ta, a) in enumerate(dens):
            for tb, b in dens[i + 1:]:
                if ta["k"] == tb["k"] and not a.meets(b.lo, b.hi):
                    errs.append(f"{ta['name']} and {tb['name']}: disjoint enclosures")
        brute = {(t["sum"], t["x"]): r for t, r in ok.values() if t["op"] == "brute"}
        for t, r in ok.values():
            if t["op"] == "gwise" and (t["sum"], t["x"]) in brute \
                    and brute[(t["sum"], t["x"])] != r:
                errs.append(f"{t['name']}: gwise != brute")
        return errs
