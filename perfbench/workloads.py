"""The benchmark's workloads: fixed lists of `streamfields` CLI calls.

Every op is one `streamfields.cli.main(argv)` call.  The op lists do not
depend on the seed; the seed only shuffles the order of ops within a pass, so
the artifacts of every op (and their hashes in reference.json) are the same
for every seed.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# The built-in examples, in a fixed order.  Kept here (not read from
# streamfields.config.EXAMPLES) so the op list cannot change silently when an
# example is added.
EXAMPLES = (
    "born-infeld-fund",
    "born-infeld-fund-minus",
    "caustic-tau1",
    "caustic-tau2",
    "extremal-patching",
    "extremal-patching-study",
    "form-21",
    "shallow-annulus-eta",
    "shallow-vortex",
    "shallow-vortex-r4",
    "unit-density",
)


@dataclass(frozen=True)
class Op:
    sub: str                      # CLI subcommand
    example: str                  # built-in example the config comes from
    cells: Optional[tuple] = None  # grid override; None keeps the shipped grid
    threads: int = 1
    levels: int = 1

    @property
    def key(self) -> str:
        grid = "x".join(map(str, self.cells)) if self.cells else "shipped"
        lv = f" L{self.levels}" if self.levels > 1 else ""
        return f"{self.sub}{lv} {self.example}@{grid}"

    def config_path(self) -> Optional[str]:
        if self.cells is None:
            return None
        return os.path.join(WORK, "configs", f"{self.example}@{'x'.join(map(str, self.cells))}.json")

    def argv(self, out: str) -> list:
        path = self.config_path()
        src = ["--config", path] if path else ["--example", self.example]
        return [self.sub, *src, "--out", out, "--threads", str(self.threads),
                "--levels", str(self.levels)]


WORKLOADS = {
    "export-513": (
        Op("synth", "shallow-vortex", (512, 512)),
        Op("singular", "shallow-vortex", (512, 512)),
        Op("frobenius", "shallow-annulus-eta", (512, 512)),
        Op("forms", "form-21", (256, 256)),
        Op("synth", "born-infeld-fund", (64, 64, 64)),
    ),
    "refine-l3": tuple(Op("verify", name, threads=2, levels=3) for name in EXAMPLES),
    "examples-shipped": tuple(
        Op(sub, name) for name in EXAMPLES for sub in ("synth", "singular", "frobenius", "verify")
    ) + (Op("forms", "form-21"),),
}


def shrunk(ops: tuple, factor: int) -> tuple:
    """The same ops on grids `factor` times coarser per axis (for the self-test)."""
    out = []
    for op in ops:
        cells = op.cells or tuple(_shipped_cells(op.example))
        out.append(Op(op.sub, op.example, tuple(max(4, c // factor) for c in cells),
                      op.threads, op.levels))
    return tuple(out)


def _shipped_cells(example: str) -> list:
    from streamfields.config import EXAMPLES as CONFIGS

    return CONFIGS[example]["grid"]["cells"]


# Seconds one untraced pass takes on the 2-core VM the benchmark was built on.
# A run makes a fixed number of passes, worked out from --seconds and this,
# rather than passing until --seconds are up: otherwise a run that happens to
# meet a fast spell of the machine would make more, warmer passes, and a
# slow spell fewer, colder ones, which widens the spread between runs.
PASS_SECONDS = {"export-513": 18.0, "refine-l3": 7.5, "examples-shipped": 7.0}


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes a run of `seconds` makes: the nearest whole number, at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def write_configs(ops: tuple) -> None:
    """Write the JSON config of every op that overrides the shipped grid."""
    from streamfields.config import EXAMPLES as CONFIGS

    for op in ops:
        path = op.config_path()
        if path is None:
            continue
        cfg = json.loads(json.dumps(CONFIGS[op.example]))
        cfg["grid"]["cells"] = list(op.cells)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)


def pass_order(ops: tuple, workload: str, seed: int) -> list:
    """The ops of one pass, shuffled by the seed; equal seeds give equal orders."""
    order = list(ops)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def _level_nodes(op: Op, level: int) -> int:
    return math.prod(c * 2 ** level + 1 for c in op.cells or _shipped_cells(op.example))


def grid_nodes(op: Op) -> int:
    """Grid nodes the op solves on, summed over every refinement level."""
    return sum(_level_nodes(op, level) for level in range(op.levels))


def largest_array_bytes(ops: tuple) -> int:
    """Computed bytes of the largest working array: the (N, m, m) float64
    Hessian stack of the jets on the finest grid of any op."""
    return max(_level_nodes(op, op.levels - 1) * len(op.cells or _shipped_cells(op.example)) ** 2 * 8
               for op in ops)
