"""CLI stdout pinned byte for byte.

`golden/cli_stdout.json` holds argv, exit status and stdout for each
invocation in `golden/record_cli_stdout.py`, recorded from a reference
tree; every one is replayed here through `lcmsum.cli.main`.  A change that
means to alter the output re-records the file and says why.
"""

import importlib.util
import json
from pathlib import Path

from lcmsum.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "cli_stdout.json").read_text())


def test_golden_file_holds_every_recorded_invocation_in_order():
    # an argv added to the recorder or to the file alone must not go unnoticed
    spec = importlib.util.spec_from_file_location(
        "record_cli_stdout", GOLDEN_DIR / "record_cli_stdout.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    assert [entry["argv"] for entry in GOLDEN] == list(recorder.invocations())


def test_cli_stdout_matches_the_golden_file(capsys):
    mismatched = []
    for entry in GOLDEN:
        code = main(entry["argv"])
        out = capsys.readouterr().out
        if (code, out) != (entry["code"], entry["stdout"]):
            mismatched.append(" ".join(entry["argv"]))
    assert not mismatched, mismatched
