"""Refinement study for the ring field patched across |x| = 1.

The elliptic branch outside the unit circle and the hyperbolic branch inside
glue continuously along the seam. This script measures (a) the order of the
finite-difference divergence residual away from the seam, and (b) how fast
the one-sided radial derivatives agree across it.

Usage: python scripts/patching_convergence.py [--base 192] [--levels 3]
"""

import argparse
import math
from dataclasses import replace

import numpy as np

from streamfields import (
    GridSpec,
    divergence_residual,
    extremal,
    fit_order,
    radial_log,
    region_map,
    synthesize,
    synthesize_at_points,
)
from streamfields.config import MAX_GRID_NODES
from streamfields.synth import ROW_ARRAYS
from streamfields.verify import FLOOR, VerifyError


def level(finest, grid):
    """`finest` at the nodes of the coarser `grid` nested in its grid, its
    every 2^j-th node per axis, as the solution on `grid`."""
    step = finest.grid.cells[0] // grid.cells[0]

    def strided(rows):
        tail = rows.shape[1:]
        return rows.reshape(finest.grid.shape() + tail)[::step, ::step].reshape((-1,) + tail)
    return replace(finest, grid=grid, _points=None,
                   **{name: strided(getattr(finest, name)) for name in ROW_ARRAYS})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=int, default=192, help="coarsest cells per axis")
    ap.add_argument("--levels", type=int, default=3, help="refinement levels (at least 3)")
    args = ap.parse_args()
    if args.levels < 3:
        ap.error(f"--levels must be at least 3 for the order fit, got {args.levels}")
    # an exponent of 64 already exceeds the budget, so capping it keeps a huge --levels cheap
    if args.base < 2 or (args.base * 2 ** min(args.levels - 1, 64) + 1) ** 2 > MAX_GRID_NODES:
        ap.error(f"--base must be at least 2, and the finest grid may have at most "
                 f"{MAX_GRID_NODES} nodes; got --base {args.base} --levels {args.levels}")

    model = extremal()
    d = radial_log()
    policy = region_map([("1 - sqrt(x1^2 + x2^2)", 2)], default_id=1, dim=2)

    grids = [GridSpec((-1.8, -1.8), (1.8, 1.8), (args.base * 2 ** i,) * 2)
             for i in range(args.levels)]
    # synthesis is pointwise and the levels nest: each coarser level is read
    # off the finest one
    finest = synthesize(model, d, policy, grids[-1])
    print("divergence residual outside r = 1.35:")
    far = lambda p: np.sqrt((p ** 2).sum(axis=1)) > 1.35  # noqa: E731 (the far field)
    levels = []
    for g in grids:
        sol = level(finest, g)
        try:
            rep = divergence_residual(sol, mask=far)
        except VerifyError as exc:
            ap.error(f"--base {args.base} is too coarse for the far-field residual: {exc}")
        levels.append((g.spacing()[0], rep.max_norm))
        print(f"  {g.cells[0]:>4d} cells  h = {g.spacing()[0]:.5f}  "
              f"max |div(rho w)| = {rep.max_norm:.4e}")
    order, at_floor = fit_order(levels)
    if at_floor:
        print("residuals at rounding floor")
    elif order is None:
        print(f"levels straddle the rounding floor ({FLOOR:.0e}): no order fitted")
    else:
        print(f"fitted order: {order:.3f}")

    print("\none-sided radial derivatives across the seam (direction theta = 0.37):")
    theta = 0.37
    e = np.array([math.cos(theta), math.sin(theta)])
    w0 = np.array([-e[1], e[0]])  # common limit of both branches at r = 1
    for k in (5, 6, 7, 8):
        h = 0.5 ** k
        wp = synthesize_at_points(model, d, policy, (1 + h) * e[None, :]).w[0]
        wm = synthesize_at_points(model, d, policy, (1 - h) * e[None, :]).w[0]
        gap = np.abs((wp - w0) / h - (w0 - wm) / h).max()
        print(f"  h = 1/{2 ** k:<4d} |D+ - D-| = {gap:.3e}   (5h = {5 * h:.3e})")


if __name__ == "__main__":
    main()
