"""Artifacts of the shipped examples against the benchmark's reference.

perfbench/reference.json records, for every benchmark op, the exit code, the
sha256 of each data artifact and the numbers of each JSON artifact, taken
from the unchanged source.  These tests rerun every shipped-grid op of the
benchmark (`synth`, `singular`, `frobenius` and `verify` on every example,
`forms` on form-21, and the three-level `verify` studies of refine-l3), and
every export-513 op, so every CSV the writer produces (at the shipped grids
and at 512^2 and 64^3) and every number of the finite-difference core and the
witness defects is pinned, and compare them with the benchmark's own rule,
`check_op`.  The reference file is only read.
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
# the refine-l3 workload: three-level studies on two threads, whose coarse
# levels are read off the finest synthesis
OPS += [Op("verify", name, threads=2, levels=3) for name in bench.wl.EXAMPLES]
# every export-513 op: the batched Gamma solve and the eta tree at full size,
# and the largest field.csv and masks.csv files the float formatter writes
OPS += [Op("forms", "form-21", (256, 256)), Op("frobenius", "shallow-annulus-eta", (512, 512)),
        Op("synth", "shallow-vortex", (512, 512)), Op("singular", "shallow-vortex", (512, 512)),
        Op("synth", "born-infeld-fund", (64, 64, 64))]


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.key)
def test_artifacts_match_the_benchmark_reference(op, tmp_path, capsys):
    bench.wl.write_configs((op,))
    out = str(tmp_path / "out")
    rc = main(op.argv(out))
    capsys.readouterr()
    assert bench.check_op(op, rc, out, REFERENCE) == []


# One op per subcommand, small enough for tier-1, that together reach the
# traced witness, eta, forms, singular-set and residual layers; the verify op
# is a study, since a study streams its finest level past the residual
# functions and only its coarser levels call them.
TRACED_OPS = [Op("synth", "unit-density"), Op("singular", "caustic-tau1"),
              Op("frobenius", "shallow-annulus-eta"), Op("forms", "form-21"),
              Op("verify", "born-infeld-fund", threads=2, levels=3)]


def test_traced_ops_match_the_reference_and_the_tracer_restores_every_name(tmp_path, capsys):
    """`perfbench/run.py --trace 1` wraps library names by namespace: a deleted
    name breaks `install`, a wrapper whose counter no longer fits its call
    breaks an op, and `uninstall` must leave every name as the library's own."""
    from streamfields import cli
    from tracer import Tracer, summarize

    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.restored()
        results = [bench.run_op(cli, op, str(tmp_path / str(i)), tracer, i)
                   for i, op in enumerate(TRACED_OPS)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.restored()
    for i, (op, (_, rc, _)) in enumerate(zip(TRACED_OPS, results)):
        assert bench.check_op(op, rc, str(tmp_path / str(i)), REFERENCE) == [], op.key
    layers = summarize(tracer.spans)
    for name in ("synth.synthesize", "singular.classify_solution", "frobenius.witness",
                 "frobenius.recover_eta", "forms.gamma_witness", "verify.residual",
                 "cli.write_csv", "density.psi", "expr.eval_jets"):
        assert layers[name]["calls"] > 0, name
