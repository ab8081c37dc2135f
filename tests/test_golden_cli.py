"""CLI stdout pinned byte for byte.

`golden/cli_stdout.json` holds argv, exit status and stdout for each
invocation in `golden/record_cli_stdout.py`, recorded from a reference
tree; every one is replayed here through `lcmsum.cli.main`.  A change that
means to alter the output re-records the file and says why.
"""

import json
from pathlib import Path

from lcmsum.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_stdout.json").read_text())


def test_cli_stdout_matches_the_golden_file(capsys):
    mismatched = []
    for entry in GOLDEN:
        code = main(entry["argv"])
        out = capsys.readouterr().out
        if (code, out) != (entry["code"], entry["stdout"]):
            mismatched.append(" ".join(entry["argv"]))
    assert not mismatched, mismatched
