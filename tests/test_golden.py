"""Golden outputs: the stdout and exit code of `weylinv invariants --json` on
a fixed spec list, of `weylinv table` on every family, of `weylinv
generators` on the reduce workload's specs and of `weylinv reduce` on fixed
f-tuples must stay byte-identical.

The data file holds each command line with its output, so the spec list does
not move with the benchmark's inputs.  The f-tuples are the reduce
workload's ops of seed 1, pass 0, one JSON file each under `data/reduce/`;
command lines name them relative to the repository root, where every
command runs.  After a deliberate output change,
re-record with `PYTHONPATH=src python tests/test_golden.py` and list the
changed outputs in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from weylinv.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden_outputs.json"
ROOT = DATA.parents[2]
CASES = json.loads(DATA.read_text())


def run(argv):
    """(exit code, stdout) of one in-process `weylinv` run from the repository root."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][1:]))
def test_output_is_unchanged(case):
    assert run(case["argv"]) == (case["code"], case["stdout"])


if __name__ == "__main__":
    for case in CASES:
        case["code"], case["stdout"] = run(case["argv"])
    DATA.write_text(json.dumps(CASES, indent=1) + "\n")
