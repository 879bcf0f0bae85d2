"""Artifacts of the shipped examples against the benchmark's reference.

perfbench/reference.json records, for every benchmark op, the exit code, the
sha256 of each data artifact and the numbers of each JSON artifact, taken
from the unchanged source.  These tests rerun the ops whose numbers come from
the finite-difference core and the witness defects (the shipped-grid
`frobenius` runs with and without eta recovery, and `verify` on every
example) and compare them with the benchmark's own rule, `check_op`.  The
reference file is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from streamfields.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling `workloads`
_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
Op = bench.wl.Op

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))

OPS = [Op("frobenius", "shallow-annulus-eta"), Op("frobenius", "born-infeld-fund")] + [
    Op("verify", name) for name in bench.wl.EXAMPLES]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.key)
def test_artifacts_match_the_benchmark_reference(op, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(op.argv(out))
    capsys.readouterr()
    assert bench.check_op(op, rc, out, REFERENCE) == []
