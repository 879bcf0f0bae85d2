"""The residual matrix: every residual kind on every built-in example.

Each pair runs `verify --levels 3` on the example's shipped grid, with that
one kind and the threshold at 1e300, so that only an order fit or an exit
code other than the threshold's can tell pairs apart.  Each pair's outcome
is classified by one rule (`classify`) and compared with the outcome
recorded here, with a one-line reason.  A change that moves a pair must
change its record.  The grids are the shipped ones: coarser grids change
the pre-asymptotic orders.
"""

import copy
import json
from collections import Counter

import pytest

from streamfields import config as cfgmod
from streamfields.cli import main

KINDS = ("divergence", "minor", "frobenius", "exactness", "codifferential")

FLOOR = "at the floor"
CONVERGES = "converges"  # fitted order >= 1.75
SLOW = "converges slowly"  # order in [0.5, 1.75)
STALLS = "stalls"  # |order| < 0.5
GROWS = "grows"  # order <= -0.5
STRADDLES = "straddles the floor"  # order null, not at the floor
NOT_CONSERVATIVE = "exit 4: witness not conservative"
NO_FORMS = "exit 2: verify.residuals lists codifferential, which needs a forms section"


def classify(code: int, stderr: str, report: dict) -> str:
    """One pair's outcome: an exit code with its stderr reason, or else the
    fitted order of the study's report (see the constants above)."""
    if code != 0:
        for outcome in (NOT_CONSERVATIVE, NO_FORMS):
            status, reason = outcome.split(": ", 1)
            if status == f"exit {code}" and reason in stderr:
                return outcome
        return f"exit {code}: {stderr.strip()}"
    order = report["order"]
    if order is None:
        return FLOOR if report["at_floor"] else STRADDLES
    if order >= 1.75:
        return CONVERGES
    if order >= 0.5:
        return SLOW
    if order > -0.5:
        return STALLS
    return GROWS


_STREAM_MINOR = "the minor system does not hold for a divergence-type (stream) drive"
_ZERO_DIV = "rho w = a of a stream drive is divergence-free to rounding"
_GAUGE = "the least-squares witness is not a gradient; eta would need a gauge field"
_SECOND_ORDER = "a smooth field: O(h^2) truncation error of central differences"
_NO_FORMS = "no forms section, so no form to synthesize"
_Z1 = ("open defect (Z1): w jumps or G blows up on the circle r = sqrt(2) where rho "
       "vanishes, unflagged at grid resolution")

# (example, kind) -> (outcome, reason)
EXPECTED = {
    ("shallow-vortex", "divergence"): (FLOOR, _ZERO_DIV),
    ("shallow-vortex", "minor"): (STALLS, _STREAM_MINOR),
    ("shallow-vortex", "frobenius"): (GROWS, _Z1),
    ("shallow-vortex", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("shallow-vortex", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("shallow-vortex-r4", "divergence"): (FLOOR, _ZERO_DIV),
    ("shallow-vortex-r4", "minor"): (STALLS, _STREAM_MINOR),
    ("shallow-vortex-r4", "frobenius"): (GROWS, _Z1),
    ("shallow-vortex-r4", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("shallow-vortex-r4", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("shallow-annulus-eta", "divergence"): (FLOOR, _ZERO_DIV),
    ("shallow-annulus-eta", "minor"): (STALLS, _STREAM_MINOR),
    ("shallow-annulus-eta", "frobenius"): (GROWS, _Z1),
    ("shallow-annulus-eta", "exactness"): (CONVERGES, "eta recovered on the masked annulus"),
    ("shallow-annulus-eta", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("extremal-patching", "divergence"): (CONVERGES, "verify.mask keeps r > 1.35, off the seam"),
    ("extremal-patching", "minor"): (STALLS, _STREAM_MINOR),
    ("extremal-patching", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("extremal-patching", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("extremal-patching", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("extremal-patching-study", "divergence"): (CONVERGES, _SECOND_ORDER),
    ("extremal-patching-study", "minor"): (STALLS, _STREAM_MINOR),
    ("extremal-patching-study", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("extremal-patching-study", "exactness"): (CONVERGES, "one branch away from the seam"),
    ("extremal-patching-study", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("caustic-tau1", "divergence"): (CONVERGES, _SECOND_ORDER),
    ("caustic-tau1", "minor"): (STALLS, _STREAM_MINOR),
    ("caustic-tau1", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("caustic-tau1", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("caustic-tau1", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("caustic-tau2", "divergence"): (CONVERGES, _SECOND_ORDER),
    ("caustic-tau2", "minor"): (STALLS, _STREAM_MINOR),
    ("caustic-tau2", "frobenius"): (SLOW, "pre-asymptotic (1.46): the maximum moves toward the "
                                          "grid corner (0.85, 0.85)"),
    ("caustic-tau2", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("caustic-tau2", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("born-infeld-fund", "divergence"): (CONVERGES, "the Coulomb potential is harmonic"),
    ("born-infeld-fund", "minor"): (CONVERGES, _SECOND_ORDER),
    ("born-infeld-fund", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("born-infeld-fund", "exactness"): (CONVERGES, "a gradient drive's witness is conservative"),
    ("born-infeld-fund", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("born-infeld-fund-minus", "divergence"): (CONVERGES, "the Coulomb potential is harmonic"),
    ("born-infeld-fund-minus", "minor"): (CONVERGES, _SECOND_ORDER),
    ("born-infeld-fund-minus", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("born-infeld-fund-minus", "exactness"): (NOT_CONSERVATIVE,
                                              "the witness's curl (1.7e-5) is above 1e-6 near "
                                              "the blow-up at r = 1"),
    ("born-infeld-fund-minus", "codifferential"): (NO_FORMS, _NO_FORMS),
    ("form-21", "divergence"): (CONVERGES, _SECOND_ORDER),
    ("form-21", "minor"): (STALLS, _STREAM_MINOR),
    ("form-21", "frobenius"): (CONVERGES, _SECOND_ORDER),
    ("form-21", "exactness"): (NOT_CONSERVATIVE, _GAUGE),
    ("form-21", "codifferential"): (CONVERGES, _SECOND_ORDER),
    ("unit-density", "divergence"): (FLOOR, "a constant field: every difference is exact"),
    ("unit-density", "minor"): (FLOOR, "a constant field: every difference is exact"),
    ("unit-density", "frobenius"): (FLOOR, "a constant field: every difference is exact"),
    ("unit-density", "exactness"): (FLOOR, "a constant field: every difference is exact"),
    ("unit-density", "codifferential"): (NO_FORMS, _NO_FORMS),
}


def test_the_matrix_covers_every_pair_with_the_recorded_counts():
    assert set(EXPECTED) == {(name, kind) for name in cfgmod.EXAMPLES for kind in KINDS}
    counts = Counter(outcome for outcome, _ in EXPECTED.values())
    assert counts == {FLOOR: 7, CONVERGES: 19, SLOW: 1, STALLS: 8, GROWS: 3,
                      NOT_CONSERVATIVE: 7, NO_FORMS: 10}


@pytest.mark.parametrize("name, kind", list(EXPECTED), ids=[f"{n}-{k}" for n, k in EXPECTED])
def test_each_example_and_residual_kind_has_its_recorded_outcome(tmp_path, capsys, name, kind):
    cfg = copy.deepcopy(cfgmod.EXAMPLES[name])
    cfg["verify"]["residuals"] = [kind]
    cfg["verify"]["threshold"] = 1e300
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(path), "--out", str(out), "--levels", "3"])
    stderr = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())["reports"][0] if code == 0 else None
    expected, reason = EXPECTED[name, kind]
    assert classify(code, stderr, report) == expected, reason


@pytest.mark.parametrize("order, at_floor, outcome", [
    (None, True, FLOOR), (None, False, STRADDLES), (1.75, False, CONVERGES),
    (1.7499, False, SLOW), (0.5, False, SLOW), (0.4999, False, STALLS),
    (-0.4999, False, STALLS), (-0.5, False, GROWS)])
def test_classify_draws_each_boundary_once(order, at_floor, outcome):
    assert classify(0, "", {"order": order, "at_floor": at_floor}) == outcome
    assert classify(3, "no admitted point", None) == "exit 3: no admitted point"
