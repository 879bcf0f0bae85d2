"""Singular/admissibility sets on grids and 2D sonic contour extraction.

Set membership is tolerance-based: the analytic loci (rho = 0, phi' = 0,
rho undefined, drive critical points) become boolean masks over grid nodes.
The sonic contour is the zero level of s(x) = phi'(psi(xi(x))) for the
policy-selected branch, extracted by marching squares with linear edge
interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import DensityModel
from .drive import DriveField
from .synth import (
    FLAG_DRIVE_UNDEFINED,
    FLAG_GAMMA0,
    FLAG_GAMMA_G,
    FLAG_GAMMA_INF,
    FLAG_GAMMA_S,
    FLAG_OUTSIDE_OMEGA,
    BranchPolicy,
    FieldSolution,
    GridSpec,
    Tolerances,
    synthesize,
)


class SingularError(ValueError):
    pass


@dataclass(eq=False)
class SingularReport:
    grid: Optional[GridSpec]
    solution: FieldSolution
    omega_f_complement: np.ndarray  # bool masks shaped like the grid, or one per point
    gamma_0: np.ndarray
    gamma_s: np.ndarray
    gamma_inf: np.ndarray
    gamma_g: np.ndarray
    sonic_values: np.ndarray  # phi'(psi(xi)) at nodes, NaN off-branch
    sonic_contour: list  # polylines (each an (M, 2) array); 2D grids only


def classify_solution(sol: FieldSolution) -> SingularReport:
    """The singular sets of `sol`, shaped like its grid, or one entry per
    point for a solution on no grid (a slab of rows), which has no contour."""
    shape = (len(sol.Q),) if sol.grid is None else sol.grid.shape()
    flags = sol.flags.reshape(shape)

    def mask(bit: int) -> np.ndarray:
        return (flags & bit) != 0

    svals = sol.model.phi_prime(sol.Q).reshape(shape)
    report = SingularReport(
        grid=sol.grid,
        solution=sol,
        omega_f_complement=mask(FLAG_OUTSIDE_OMEGA) | mask(FLAG_DRIVE_UNDEFINED),
        gamma_0=mask(FLAG_GAMMA0),
        gamma_s=mask(FLAG_GAMMA_S),
        gamma_inf=mask(FLAG_GAMMA_INF),
        gamma_g=mask(FLAG_GAMMA_G),
        sonic_values=svals,
        sonic_contour=[],
    )
    if sol.grid is not None and sol.grid.dim == 2:
        report.sonic_contour = sonic_contour(sol.grid, svals)
    return report


def classify(model: DensityModel, d: DriveField, policy: BranchPolicy,
             grid: GridSpec, tol: Optional[Tolerances] = None) -> SingularReport:
    return classify_solution(synthesize(model, d, policy, grid, tol=tol))


def sonic_contour(grid: GridSpec, sonic_values: np.ndarray) -> list:
    """Zero-level polylines of phi'(psi(xi)), grid-shaped `sonic_values` on
    the 2-D `grid`; cells touching NaN are skipped."""
    if grid.dim != 2:
        raise SingularError("sonic contour extraction is 2D only")
    xs, ys = grid.axes()
    return _marching_squares(sonic_values, xs, ys)


# ---------------------------------------------------------------------------
# marching squares

# segment table keyed by the 4-bit corner-positivity code; entries are pairs
# of local edge ids: 0 bottom, 1 right, 2 top, 3 left
_CASES = {
    1: [(0, 3)],
    2: [(0, 1)],
    3: [(1, 3)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(3, 2)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(1, 3)],
    13: [(0, 1)],
    14: [(0, 3)],
}


def _marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list:
    v = np.asarray(values, dtype=float)
    ok = np.isfinite(v)
    # candidate cells: all four corners finite and not all one sign
    c_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    p = np.where(ok, v >= 0.0, False).view(np.uint8)  # corner bits, no wider temporary
    code = p[:-1, :-1] | (p[1:, :-1] << 1) | (p[1:, 1:] << 2) | (p[:-1, 1:] << 3)
    cand = c_ok & (code != 0) & (code != 15)
    segments = []
    for i, j in zip(*np.nonzero(cand)):
        c0, c1, c2, c3 = v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[j], ys[j + 1]

        def cross(va, vb, pa, pb):
            t = va / (va - vb)
            return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

        edge_pts = {}
        if (c0 >= 0) != (c1 >= 0):
            edge_pts[0] = cross(c0, c1, (x0, y0), (x1, y0))
        if (c1 >= 0) != (c2 >= 0):
            edge_pts[1] = cross(c1, c2, (x1, y0), (x1, y1))
        if (c3 >= 0) != (c2 >= 0):
            edge_pts[2] = cross(c3, c2, (x0, y1), (x1, y1))
        if (c0 >= 0) != (c3 >= 0):
            edge_pts[3] = cross(c0, c3, (x0, y0), (x0, y1))

        cell_code = int(code[i, j])
        if cell_code in (5, 10):
            center = 0.25 * (c0 + c1 + c2 + c3)
            if cell_code == 5:
                pairs = [(3, 2), (0, 1)] if center >= 0 else [(0, 3), (1, 2)]
            else:
                pairs = [(0, 3), (1, 2)] if center >= 0 else [(0, 1), (2, 3)]
        else:
            pairs = _CASES[cell_code]
        for ea, eb in pairs:
            if ea in edge_pts and eb in edge_pts:
                segments.append((edge_pts[ea], edge_pts[eb]))
    return _chain_segments(segments, key_scale=1e-9 * max(xs[1] - xs[0], ys[1] - ys[0]))


def _chain_segments(segments: list, key_scale: float) -> list:
    if not segments:
        return []

    def key(p):
        return (round(p[0] / key_scale), round(p[1] / key_scale))

    adj: dict = {}
    for idx, (p, q) in enumerate(segments):
        adj.setdefault(key(p), []).append((idx, 0))
        adj.setdefault(key(q), []).append((idx, 1))

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        # extend forward from q, then backward from p
        for tail in (True, False):
            while True:
                end = chain[-1] if tail else chain[0]
                nxt = None
                for idx, side in adj.get(key(end), ()):
                    if not used[idx]:
                        nxt = (idx, side)
                        break
                if nxt is None:
                    break
                idx, side = nxt
                used[idx] = True
                other = segments[idx][1 - side]
                if tail:
                    chain.append(other)
                else:
                    chain.insert(0, other)
        if key(chain[0]) == key(chain[-1]) and len(chain) > 2:
            chain[-1] = chain[0]  # snap closed loops exactly
        polylines.append(np.asarray(chain, dtype=float))
    return polylines
