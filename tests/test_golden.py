"""Golden outputs: the stdout and exit code of `weylinv invariants --json` on
a fixed spec list, of `weylinv table` on every family, of `weylinv
generators` on the reduce workload's specs (on four of them also with each
degree-1 `--lambda0`), of `weylinv reduce` on fixed
f-tuples, of `weylinv pgo8-check` and `weylinv fuzz-syzygy` at seed 0 and of
`weylinv verify-flatness --dump-poly` on A1-A8 and C2-C8 must stay
byte-identical, and no `invariants` or `table` run fills a generator set.  The `verify-flatness` outputs are held as sha256 digests of
stdout (`stdout_sha256`), since C8 alone prints about 260 KB.

The data file holds each command line with its output, so the spec list does
not move with the benchmark's inputs.  The f-tuples are the reduce
workload's ops of seed 1, pass 0 (`opNN.json`), whose mod-d syzygies are
all zero, and four tuples with a nonzero one (`koszulN.json`: the h2[1]
tuple plus a Koszul pair f_i += rho_j, f_j -= rho_i), which run the
normalization's trivialization, a degree-0 tuple of `SL(12) / mu(2)`
(`sl12_deg0.json`), whose zero syzygy reads no transform, and two tuples
that reach the reduction's step 2 (`step2_N.json`: c = e^{lambda0} times
d at the first h3 position k and c a_0j rho_k at each chain position j,
plus a generator combination of `random.Random(0)`); one JSON file
each under `data/reduce/`;
command lines name them relative to the repository root, where every
command runs.  After a deliberate output change,
re-record with `PYTHONPATH=src python tests/test_golden.py` and list the
changed outputs in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from weylinv.cli import main
from weylinv.generators import _model_generators

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


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][1:]))
def test_output_is_unchanged(case):
    code, stdout = run(case["argv"])
    if "stdout_sha256" in case:
        assert (code, digest(stdout)) == (case["code"], case["stdout_sha256"])
    else:
        assert (code, stdout) == (case["code"], case["stdout"])


def test_invariants_fill_no_generator_set():
    # Sdec's witness is read off the Dec fold: no golden invariants or table
    # run calls the per-model generator fill, filled or cached
    _model_generators.cache_clear()
    for case in CASES:
        if case["argv"][0] in ("invariants", "table"):
            run(case["argv"])
    info = _model_generators.cache_info()
    assert (info.hits, info.misses) == (0, 0)


if __name__ == "__main__":
    for case in CASES:
        case["code"], stdout = run(case["argv"])
        if "stdout_sha256" in case:
            case["stdout_sha256"] = digest(stdout)
        else:
            case["stdout"] = stdout
    DATA.write_text(json.dumps(CASES, indent=1) + "\n")
