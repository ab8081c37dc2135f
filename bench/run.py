"""lcmsum benchmark runner.

    python3 bench/run.py --workload {constants,density,oracles} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  The load is a closed loop: one runner, one worker process
at a time, one task at a time.  Every pass of the workload's task list runs
in a fresh worker (tasks.py lists the tasks), so each pays the cold cost of
a `lcmsum` CLI invocation.  Passes repeat until the next one would end past
--seconds (at least one).  Every result of every pass goes through the
correctness gate (gate.py); a wrong result exits 1 naming the task.

The last stdout line is one JSON object: with --trace 0 the end-to-end
metrics (medians over passes), with --trace 1 the per-layer metrics of
spans.py from traced passes, each traced pass paired with an untraced one
to give the tracing overhead.  Spans of traced passes are written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import gate as G
import spans as S
import tasks as T

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: setup-only worker spawns per run, on top of the one in every pass
SETUP_PROBES = 4

#: every worker is killed by this many seconds after the run started, so a
#: run ends well inside its 180 s allowance even when the program hangs
RUN_LIMIT_S = 170.0

#: how long a worker that said `done` may take to exit
EXIT_GRACE_S = 10.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "certified_ratio": "ratio"}

#: thread pools the worker's numpy could start, pinned to one thread
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Pass:
    """One worker's pass: timings from the runner's clock, outcomes by task."""

    setup_s: float | None
    wall_s: float | None
    rss_mb: float | None
    outcomes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LCMSUM_THREADS", None)
    env.update({var: "1" for var in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def run_pass(task_list: list[dict], traced: bool, deadline: float) -> Pass:
    """Spawn a worker, run the tasks, and kill it at `deadline` (perf_counter).

    Tasks the worker never reported (crash, deadline) come back with
    status `lost`.
    """
    spec = json.dumps({"src": SRC, "tasks": task_list, "trace": traced})
    lines: queue.Queue = queue.Queue()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, spec], cwd=ROOT,
                            env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    ready = end = rss = None
    outcomes: dict = {}
    spans: list = []
    try:
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                break
            if line is None:
                break
            try:
                msg = json.loads(line)
            except ValueError:  # not a protocol line: treat as a crash
                break
            if msg["event"] == "ready":
                ready = time.perf_counter()
            elif msg["event"] == "task":
                outcomes[msg.pop("name")] = msg
            elif msg["event"] == "done":
                end = time.perf_counter()
                rss, spans = msg["rss_mb"], msg["spans"]
                break
    finally:
        try:
            proc.wait(timeout=EXIT_GRACE_S if end is not None else 0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    if ready is not None and end is None:
        end = time.perf_counter()
    for t in task_list:
        outcomes.setdefault(t["name"], {
            "status": "lost", "error": "worker crashed or passed its deadline"})
    return Pass(setup_s=None if ready is None else ready - t0,
                wall_s=None if ready is None else end - ready,
                rss_mb=rss, outcomes=outcomes, spans=spans)


def classify(gate: G.Gate, name: str, outcome: dict) -> str:
    """certified, wall (a refusal the seed also made), or failed."""
    if outcome["status"] == "ok":
        return "certified"
    if outcome["status"] == "refused" and gate.expected_refusal(name):
        return "wall"
    return "failed"


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(args, task_list: list[dict]) -> tuple[list[float], list[Pass], list[Pass]]:
    """Setup probes, then untraced passes (each followed by a traced one
    when tracing) until the next round would end past args.seconds."""
    limit = time.perf_counter() + RUN_LIMIT_S
    run_pass([], False, limit)  # compiles bytecode; not measured
    setups = [run_pass([], False, limit).setup_s for _ in range(SETUP_PROBES)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    while True:
        plain.append(run_pass(task_list, False, limit))
        if args.trace:
            traced.append(run_pass(task_list, True, limit))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(plain)
        if elapsed + per_round > args.seconds or time.perf_counter() + per_round > limit:
            return setups, plain, traced


def traced_metrics(traced: list[Pass], untraced_wall: float) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    layers = [S.layer_metrics(p.spans) for p in traced]
    out = {name: _median(m[name] for m in layers)
           for name in S.LAYER_METRICS if name != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = _median(p.wall_s for p in traced) / untraced_wall
    return out


def write_spans(args, traced: list[Pass]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": [p.spans for p in traced]}, fh)
    return os.path.relpath(path, ROOT)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=T.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=T.SIZES, default="full",
                    help="smoke: a tiny task list for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lcmsum")):
        print(f"bench: no package source at {os.path.join(SRC, 'lcmsum')}",
              file=sys.stderr)
        return 2
    gate = G.Gate(G.load_expected())
    task_list = T.task_list(args.workload, args.seed, args.size)
    setups, plain, traced = measure(args, task_list)
    if any(s is None for s in setups) or any(p.wall_s is None for p in plain + traced):
        print("bench: a worker never became ready", file=sys.stderr)
        return 1

    errors = []
    for p in plain + traced:
        errors += gate.check_pass(task_list, p.outcomes)
    if errors:
        for e in dict.fromkeys(errors):
            print(f"bench: WRONG RESULT {e}", file=sys.stderr)
        return 1

    counts = {"certified": 0, "wall": 0, "failed": 0}
    not_ok = {}
    for p in plain + traced:
        for name, out in p.outcomes.items():
            counts[classify(gate, name, out)] += 1
            if out["status"] != "ok":
                not_ok[name] = f"{out['status']} ({out['error']})"
    for name, why in not_ok.items():
        print(f"  {name}: {why}", file=sys.stderr)
    attempted = sum(counts.values())
    wall = _median(p.wall_s for p in plain)
    setup_all = setups + [p.setup_s for p in plain]
    e2e = {
        "wall_s": wall,
        "setup_s": _median(setup_all),
        "peak_rss_mb": _median(p.rss_mb for p in plain),
        "certified_ratio": counts["certified"] / attempted,
    }
    print(f"bench: workload={args.workload} seed={args.seed} size={args.size} "
          f"passes={len(plain)} traced_passes={len(traced)} "
          f"tasks_per_pass={len(task_list)}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<16} {1 - e2e['certified_ratio']:.6g} ratio  "
          f"({attempted - counts['certified']} refused or failed of {attempted}; "
          f"{counts['wall']} at the documented precision wall)")
    print(f"  setup spawns={sum(s is not None for s in setup_all)}")

    if args.trace:
        metrics = traced_metrics(traced, wall)
        top, top_s = S.top_self_time(traced[0].spans)
        print(f"  largest self time: {top} {top_s:.4g} s")
        print(f"  spans written to {write_spans(args, traced)}")
        result = {name: {"value": metrics[name], "unit": S.LAYER_METRICS[name][0]}
                  for name in S.LAYER_METRICS}
    else:
        result = {name: {"value": e2e[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": counts["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
