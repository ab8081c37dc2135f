"""Line coverage of src/lcmsum under the tier-1 suite, with the standard
library only.

    python tests/linecov.py [pytest args...]

runs the tier-1 command (`python -m pytest -q --continue-on-collection-errors`
plus any extra arguments) in a subprocess whose PYTHONPATH starts with a
temporary directory holding a `sitecustomize` module.  Every Python process
started with that PYTHONPATH (the suite, CLI subprocesses, the benchmark's
workers) imports it first, traces the lines of src/lcmsum it runs with
`sys.settrace`, and writes them out at exit.  A process killed before it
exits (the benchmark's hang case) records nothing.

The executable lines of a file are the lines its compiled code objects map
bytecode to.  The script prints each executable line no process ran that
ALLOWLIST does not name, the counts, and exits 1 if any is left.  Tracing
makes the suite about three times slower, so tests with a wall-clock bound
may fail under it; their lines still count.  pytest does not collect this
file (its name does not start with `test_`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcmsum"

#: (file under src/lcmsum, stripped source line, why no input reaches it).
#: A line is exempt when its stripped text equals the entry's text;
#: tests/test_readme.py checks that each text still occurs in its file.
ALLOWLIST: list[tuple[str, str, str]] = []

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_prefix = {prefix!r}
_out = {out!r}
_seen = set()
_real = {{}}  # co_filename -> its real path under _prefix, or None


def _local(frame, event, arg):
    if event == "line":
        _seen.add((_real[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _real:
        real = os.path.realpath(name)
        _real[name] = real if real.startswith(_prefix) else None
    if _real[name] is None:
        return None
    _seen.add((_real[name], frame.f_lineno))
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, "%d-%d.json" % (os.getpid(), id(_seen)))
    with open(path, "w") as fh:
        json.dump(sorted(_seen), fh)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from `path` maps bytecode to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        # the tracer compares real paths, whatever path a process imported
        # the package by
        prefix = os.path.realpath(PACKAGE) + os.sep
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=prefix, out=out))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv],
            cwd=ROOT, env=env)
        ran: set[tuple[str, int]] = set()
        for dump in Path(out).iterdir():
            ran.update((f, n) for f, n in json.loads(dump.read_text()))
    total = unrun = exempt = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        real = os.path.realpath(path)
        for n in sorted(executable_lines(path)):
            total += 1
            if (real, n) in ran:
                continue
            text = source[n - 1].strip()
            if any((f, t) == (path.name, text) for f, t, _ in ALLOWLIST):
                exempt += 1
                continue
            unrun += 1
            print(f"src/lcmsum/{path.name}:{n}: {text}")
    print(f"{total} executable lines in src/lcmsum; {unrun} unrun outside "
          f"the allowlist, {exempt} allowlisted; the suite exited "
          f"{suite.returncode}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
