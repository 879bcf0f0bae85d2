"""Artifacts of the shipped examples against the benchmark's reference.

perfbench/reference.json records, for every benchmark op, the exit code, the
sha256 of each data artifact and the numbers of each JSON artifact, taken
from the unchanged source.  These tests rerun every shipped-grid op of the
benchmark (`synth`, `singular`, `frobenius` and `verify` on every example, and
`forms` on form-21), so every CSV the writer produces and every number of the
finite-difference core and the witness defects is pinned, and compare them
with the benchmark's own rule, `check_op`.  The reference file is only read.
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

OPS = [Op(sub, name) for sub in ("synth", "singular", "frobenius", "verify")
       for name in bench.wl.EXAMPLES] + [Op("forms", "form-21")]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.key)
def test_artifacts_match_the_benchmark_reference(op, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(op.argv(out))
    capsys.readouterr()
    assert bench.check_op(op, rc, out, REFERENCE) == []
