"""Portrait of the rigid-rotation vortex across all three branch regions.

Synthesizes the fold-crossing vortex on a square grid, reports how far the
field sits from the closed form (-y, x)/sqrt(R), where the detected sonic
band lands relative to the fold circle t = 2R/3, and the witness defect of
the closed-form gauge G = (2x/t, 2y/t) on a subcritical annulus.

Usage: python scripts/vortex_branch_portrait.py [--R 4] [--cells 128] [--out field.csv]
"""

import argparse
import math
import os

import numpy as np

from streamfields import (
    GridSpec,
    MASK_BITS,
    Tolerances,
    classify,
    minor_defect_with,
    prefer_type1,
    region_map,
    shallow_vortex,
    shallow_water,
    synthesize,
    synthesize_at_points,
)
from streamfields.cli import _write_table
from streamfields.config import MAX_GRID_NODES, ConfigError

BRANCH_NAMES = {0: "undefined", 1: "tranquil", 2: "shooting", 3: "over-speed"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--R", type=float, default=1.0, help="rotation strength")
    ap.add_argument("--cells", type=int, default=96, help="grid cells per axis")
    ap.add_argument("--out", default=None, help="optional CSV path for the field")
    args = ap.parse_args()
    # past these bounds the box or the witness annulus overflows or underflows
    if not 1e-100 <= args.R <= 1e100:
        ap.error(f"--R must lie in [1e-100, 1e100], got {args.R}")
    if args.cells < 2 or (args.cells + 1) ** 2 > MAX_GRID_NODES:
        ap.error(f"--cells must be at least 2, and the grid may have at most {MAX_GRID_NODES} "
                 f"nodes; got {args.cells}")

    R, cells = args.R, args.cells
    lim = 1.05 * math.sqrt(2.0 * R)  # just past the outer zero circle t = 2R
    model = shallow_water()
    d = shallow_vortex(R)
    policy = region_map(
        [(f"2*{R}/3 - (x1^2 + x2^2)", 1), (f"2*{R} - (x1^2 + x2^2)", 2)],
        default_id=3, dim=2, allow_nonphysical=True)
    grid = GridSpec((-lim, -lim), (lim, lim), (cells, cells))
    sol = synthesize(model, d, policy, grid)

    keep = sol.defined & ((sol.flags & MASK_BITS) == 0)
    want = np.stack([-sol.points[:, 1], sol.points[:, 0]], axis=1) / math.sqrt(R)
    dev = np.abs(sol.w[keep] - want[keep]).max()
    print(f"vortex R={R} on {cells}x{cells}, box [-{lim:.3f}, {lim:.3f}]^2")
    print(f"usable nodes: {int(keep.sum())} of {keep.size}")
    for b in (1, 2, 3):
        print(f"  branch {b} ({BRANCH_NAMES[b]:>10s}): {int((sol.branch_id == b).sum())} nodes")
    print(f"max |w - (-y, x)/sqrt(R)| over usable nodes: {dev:.3e}")

    rep = classify(model, d, policy, grid)
    r_fold, r_zero = math.sqrt(2 * R / 3), math.sqrt(2 * R)
    verts = np.concatenate([np.asarray(p) for p in rep.sonic_contour] or [np.empty((0, 2))])
    rv = np.sqrt((verts ** 2).sum(axis=1))
    split = 0.5 * (r_fold + r_zero)
    h = 2 * lim / cells
    print(f"sonic contour: {len(rep.sonic_contour)} polylines, {len(verts)} vertices (h = {h:.4f})")
    for label, want_r, sel in (("fold circle", r_fold, rv < split),
                               ("zero circle", r_zero, rv >= split)):
        if sel.any():
            err = np.abs(rv[sel] - want_r).max()
            print(f"  {label}: radius {want_r:.6f}, max contour deviation {err:.3e}")

    rng = np.random.default_rng(0)
    r = math.sqrt(R) * (0.35 + 0.35 * rng.random(400))
    th = 2 * np.pi * rng.random(400)
    apts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    asol = synthesize_at_points(model, d, prefer_type1(), apts,
                                tol=Tolerances(eps_phi_prime=1e-3))
    t = (apts ** 2).sum(axis=1)
    defect = minor_defect_with(asol, 2.0 * apts / t[:, None])
    print(f"witness defect for G = (2x/t, 2y/t) on t in [{t.min():.3f}, {t.max():.3f}]: "
          f"{np.nanmax(defect):.3e}")

    if args.out:
        try:
            _write_table(os.path.dirname(args.out), os.path.basename(args.out), grid,
                         [("w1", "float", sol.w[:, 0]), ("w2", "float", sol.w[:, 1]),
                          ("Q", "float", sol.Q), ("branch", "int", sol.branch_id)])
        except ConfigError as exc:
            ap.error(str(exc))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
