"""What production traffic leaves unrun in src/lcmsum, and how many values
the package lets a caller or an editor set.

    python tests/traffic.py

prints two things, with the standard library and the package's own
dependencies only:

* the settable values: module-level upper-case constants, parameters with
  a default, and dataclass fields with a default, counted in the AST of
  every file of src/lcmsum;
* each executable line of src/lcmsum (as `tests/linecov.py` defines it)
  that none of three kinds of production traffic ran, traced in this
  process with `sys.settrace`:
  - the full task lists of the three benchmark workloads at seed 1, run
    through `bench/worker.py`'s `setup` and `run_task`;
  - `checks.run_checks()`, the `lcmsum verify` battery;
  - every argv of `tests/golden/cli_stdout.json`, through `cli.main` with
    its output captured.
  Every package `lru_cache` and `oracle._RANGES` is cleared before each
  task list, before the battery and before each argv, so each starts cold
  as a fresh process would.

Tests and demos are not traffic here, so a line this prints may still be
covered by the suite: it is an argument guard, a refusal, or public API
only tests and demos call.  The script imports `bench/` read-only and
writes no bytecode.  It exits 0; pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcmsum"
GOLDEN = ROOT / "tests" / "golden" / "cli_stdout.json"


def settable_values() -> tuple[int, int, int]:
    """(module-level upper-case constants, defaulted parameters, defaulted
    dataclass fields) over every file of src/lcmsum."""
    consts = params = fields = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            consts += sum(isinstance(t, ast.Name) and t.id.isupper()
                          for t in targets)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += sum(isinstance(b, ast.AnnAssign) and b.value is not None
                              for b in node.body)
    return consts, params, fields


def clear_caches(oracle) -> None:
    """Empty every lru_cache of the package and the oracle's range cache."""
    for name, module in list(sys.modules.items()):
        if name == "lcmsum" or name.startswith("lcmsum."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    oracle._RANGES.clear()


def traced(run, prefix: str, seen: set[tuple[str, int]]):
    """Return `run()`, adding to `seen` each (file, line) under `prefix` it
    runs."""
    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def outer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.add((name, frame.f_lineno))
        return local

    sys.settrace(outer)
    try:
        return run()
    finally:
        sys.settrace(None)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import tasks
    import worker
    from linecov import executable_lines

    consts, params, fields = settable_values()
    print(f"settable values: {consts + params + fields} ({consts} module "
          f"constants, {params} defaulted parameters, {fields} defaulted "
          f"dataclass fields)")

    def load():
        mods = worker.load_package(str(ROOT / "src"))
        from lcmsum import checks, cli
        return mods, checks, cli

    # the imports are traffic too: they run every module's top level
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()
    mods, checks, cli = traced(load, prefix, seen)

    def task_list(workload):
        ctx = worker.setup(mods)
        for task in tasks.task_list(workload, 1):
            worker.run_task(task, ctx)

    def argv_run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    runs = [lambda w=w: task_list(w) for w in tasks.WORKLOADS]
    runs.append(checks.run_checks)
    runs += [lambda a=e["argv"]: argv_run(a)
             for e in json.loads(GOLDEN.read_text())]
    for run in runs:
        clear_caches(mods["oracle"])
        traced(run, prefix, seen)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        name = prefix + path.name
        for n in sorted(executable_lines(path)):
            total += 1
            if (name, n) not in seen:
                unrun += 1
                print(f"src/lcmsum/{path.name}:{n}: {source[n - 1].strip()}")
    print(f"{total} executable lines in src/lcmsum; production traffic ran "
          f"{total - unrun}, left {unrun} unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main())
