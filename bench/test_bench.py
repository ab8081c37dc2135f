"""The benchmark's own tests, on the smoke task lists (a few seconds)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gate as G
import run
import spans as S
import tasks as T
import worker


def _main(capsys, *extra, workload="density"):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--size", "smoke", *extra])
    out = capsys.readouterr()
    return code, out.out.strip().splitlines(), out.err


@pytest.fixture(scope="module")
def ctx():
    return worker.setup(worker.load_package(run.SRC))


def _outcomes(task_list, ctx):
    return {t["name"]: worker.run_task(t, ctx) for t in task_list}


@pytest.mark.parametrize("workload", T.WORKLOADS)
def test_smoke_run_prints_end_to_end_metrics(capsys, workload):
    code, lines, _ = _main(capsys, workload=workload)
    assert code == 0
    res = json.loads(lines[-1])
    assert res["correct"] is True and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_trace_reports_layers_and_the_wall(capsys):
    code, lines, _ = _main(capsys, "--trace", "1")
    assert code == 0
    res = json.loads(lines[-1])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(S.LAYER_METRICS)
    assert res["failed"] == 0
    # the k=3 1e-12 task is refused by zeta, as at the seed
    assert m["exactmath.zeta_refusals"] >= 1
    assert m["eulerprod.cache_hits"] >= 1  # the count route reuses the graph route
    assert m["polytope.lattice_counts_calls"] == 0
    assert m["trace.overhead_ratio"] > 0
    assert any("largest self time: exactmath.zeta_value" in ln for ln in lines)


@pytest.mark.parametrize("workload", T.WORKLOADS)
def test_gate_passes_honest_results(ctx, workload):
    tl = T.task_list(workload, 5, "smoke")
    gate = G.Gate(G.load_expected())
    assert gate.check_pass(tl, _outcomes(tl, ctx)) == []


def _bump(frac_str: str, by=Fraction(1, 10**30)) -> str:
    return str(Fraction(frac_str) + by)


CORRUPTIONS = {
    "constants.k2": lambda r: r.update(vol_d_star2=_bump(r["vol_d_star2"])),
    "density.k2.graph.5e-10": lambda r: r.update(hi=_bump(r["hi"])),
    "oracles.sweep.k2.gcd1.x1-20": lambda r: r["brute"].__setitem__(
        7, _bump(r["brute"][7])),
    "oracles.fast_s2.x20000": lambda r: r.update(lo=_bump(r["lo"], -Fraction(1, 10**30))),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_gate_trips_on_a_corrupted_result(ctx, name):
    workload = name.split(".")[0]
    tl = T.task_list(workload, 5, "smoke")
    outcomes = _outcomes(tl, ctx)
    CORRUPTIONS[name](outcomes[name]["result"])
    errs = G.Gate(G.load_expected()).check_pass(tl, outcomes)
    assert errs and all(e.startswith(name) for e in errs)


def test_gate_trips_on_gwise_brute_disagreement(ctx):
    tl = T.task_list("oracles", 5, "smoke")
    outcomes = _outcomes(tl, ctx)
    name = next(t["name"] for t in tl if t["op"] == "gwise")
    outcomes[name]["result"] = _bump(outcomes[name]["result"])
    errs = G.Gate(G.load_expected()).check_pass(tl, outcomes)
    assert any(e.startswith(name) for e in errs)


def test_wrong_result_fails_the_run_and_names_the_task(capsys, monkeypatch):
    honest = run.run_pass

    def corrupting(task_list, traced, deadline):
        p = honest(task_list, traced, deadline)
        if task_list:
            r = p.outcomes["density.k2.count.5e-10"]["result"]
            r["lo"] = _bump(r["hi"])
            r["hi"] = _bump(r["lo"])
        return p

    monkeypatch.setattr(run, "run_pass", corrupting)
    code, lines, err = _main(capsys)
    assert code != 0
    assert "density.k2.count.5e-10" in err
    assert not any(ln.startswith("{") for ln in lines)


def test_refusal_counts_but_is_not_wrong(ctx):
    tl = T.task_list("density", 5, "smoke")
    outcomes = _outcomes(tl, ctx)
    gate = G.Gate(G.load_expected())
    wall = "density.k3.graph.1e-12"
    assert outcomes[wall]["status"] == "refused"
    assert run.classify(gate, wall, outcomes[wall]) == "wall"
    refused = dict(outcomes["density.k2.graph.5e-10"], status="refused")
    assert run.classify(gate, "density.k2.graph.5e-10", refused) == "failed"


FAKE_WORKER = """
import json, sys, time
spec = json.loads(sys.argv[1])
print(json.dumps({"event": "ready"}), flush=True)
t = spec["tasks"][0]
print(json.dumps({"event": "task", "name": t["name"], "status": "ok",
                  "result": None}), flush=True)
if "{mode}" == "hang":
    time.sleep(120)
sys.exit(3)
"""


@pytest.mark.parametrize("mode", ["crash", "hang"])
def test_crash_or_deadline_loses_the_unfinished_tasks(tmp_path, monkeypatch, mode):
    fake = tmp_path / "worker.py"
    fake.write_text(FAKE_WORKER.replace("{mode}", mode))
    monkeypatch.setattr(run, "WORKER", str(fake))
    tl = T.task_list("density", 5, "smoke")
    t0 = time.perf_counter()
    p = run.run_pass(tl, False, t0 + 5)
    assert time.perf_counter() - t0 < 15
    status = [p.outcomes[t["name"]]["status"] for t in tl]
    assert status[0] == "ok" and set(status[1:]) == {"lost"}
    gate = G.Gate(G.load_expected())
    assert run.classify(gate, tl[1]["name"], p.outcomes[tl[1]["name"]]) == "failed"


def test_tracer_restores_the_package(ctx):
    mods = ctx["mods"]
    before = {(m, a): getattr(mods[m], a) for m, a, _, _ in S.INSTRUMENTS}
    tracer = S.Tracer()
    S.install(tracer, mods)
    try:
        assert mods["eulerprod"].zeta_value is not before[("eulerprod", "zeta_value")]
        worker.run_task(T.task_list("density", 5, "smoke")[0], ctx)
    finally:
        tracer.restore()
    assert all(getattr(mods[m], a) is f for (m, a), f in before.items())
    names = {s["name"] for s in tracer.spans}
    assert "eulerprod.euler_product" in names


def test_self_time_subtracts_children():
    spans = [{"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
             {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 4.0},
             {"id": 3, "parent": 2, "name": "c", "start": 2.0, "end": 3.0}]
    assert S.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}
    assert S.top_self_time(spans) == ("a", 7.0)


def test_worker_env_pins_threads(monkeypatch):
    monkeypatch.setenv("LCMSUM_THREADS", "8")
    env = run.worker_env()
    assert "LCMSUM_THREADS" not in env
    assert all(env[v] == "1" for v in run.PINNED_THREADS)


def test_without_the_package_the_run_fails_quietly(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "density", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_seed_draws_only_the_point_query():
    assert T.task_list("density", 1) == T.task_list("density", 2)
    assert T.task_list("constants", 1) == T.task_list("constants", 2)
    xs = {T.point_x(s) for s in range(50)}
    assert xs <= set(range(80, 101)) and len(xs) > 5
    assert T.task_list("oracles", 7) == T.task_list("oracles", 7)


def test_benchmark_json_lists_what_the_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bm = json.load(fh)
    assert [w["name"] for w in bm["workloads"]] == list(T.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bm["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bm["per_layer"]} \
        == S.LAYER_METRICS
