"""Frobenius witnesses G, their residuals, and integrating-factor recovery.

For minor-type systems the witness satisfies d_i w_j - d_j w_i = G_i w_j -
G_j w_i; for divergence-type (gradient-drive) systems it satisfies div w =
G . w.  Both are assembled from the drive-level least-squares witness
g = M a / |a|^2 (M_ij = d_i a_j - d_j a_i) plus the chain-rule term
-grad log rho(psi(xi)).  The defining defects here are analytic (jet-based);
the verify module redoes them with finite differences.  Which witness suits
which drive type is decided once, in `_fits`, for "auto" and for every check.

A witness reads Q and the branch from the FieldSolution it is given and
evaluates the drive once more on its points, for the jacobian; at other points
(explicit ones, or the Gauss points of eta recovery) it synthesizes first, so
the drive is evaluated twice per point.

When G is conservative (small curl residual), eta with G = grad eta is
recovered by integrating G along grid edges (two-point Gauss per edge) over a
breadth-first spanning tree, after which e^(-eta) w is checked to be exact.
The curl gate and that post-check take fourth-order central differences from
the finite-difference core shared with the verify module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drive import DriveBatch, GradientDrive, RawField, Scalar2D, drive_batch
from .synth import FieldSolution, GridSpec, log_rho_gradient, synthesize_at_points
from .verify import closure_residual, curl_max, interior


class FrobeniusError(ValueError):
    pass


@dataclass(eq=False)
class FrobeniusWitness:
    kind: str  # "minor" or "divergence"
    points: np.ndarray
    G: np.ndarray
    G1: np.ndarray
    defining_residual: np.ndarray  # analytic defect per point (NaN undefined)
    solvability_residual: np.ndarray  # drive-level wedge defect (0 where exact)
    defined: np.ndarray
    solution: FieldSolution
    evaluator: Callable[[np.ndarray], np.ndarray]  # points -> G rows
    grid: Optional[GridSpec] = None
    curl_residual: Optional[np.ndarray] = None  # filled by curl_residual_grid


def _at(sol: FieldSolution, points: Optional[np.ndarray]) -> tuple:
    """The solution and the drive batch at `points`; None means the points of
    `sol` itself, where only the drive is evaluated again."""
    if points is None:
        return sol, drive_batch(sol.drive, sol.points)
    pts = np.asarray(points, dtype=float)
    local = synthesize_at_points(sol.model, sol.drive, sol.policy, pts, tol=sol.tol)
    return local, drive_batch(sol.drive, pts)


def _core(kind: str, sol: FieldSolution, batch: DriveBatch) -> tuple:
    """Witness terms at the points of `sol`: Q and branch come from `sol`, the
    drive and its jacobian from `batch`, evaluated at the same points."""
    tol = sol.tol
    a, jac, xi = batch.a, batch.jac, batch.xi
    rho_c = sol.model.rho(sol.Q)
    glr, usable = log_rho_gradient(sol.model, sol.Q, rho_c, batch.grad_xi, tol)
    with np.errstate(all="ignore"):
        w = a / rho_c[:, None]
        if kind == "minor":
            M = np.swapaxes(jac, 1, 2) - jac  # M[i][j] = d_i a_j - d_j a_i
            g = np.einsum("nij,nj->ni", M, a) / xi[:, None]
            solvability = _max_minor(M - _wedge(g, a))
        else:
            div_a = np.trace(jac, axis1=1, axis2=2)
            g = (div_a / xi)[:, None] * a
            solvability = np.zeros(xi.shape)
        G = g - glr
        G1 = -g
    defined = (
        ~batch.bad
        & (sol.branch_id != 0)
        & usable
        & (np.sqrt(np.maximum(xi, 0.0)) > tol.eps_grad)
        & np.isfinite(glr).all(axis=1)
    )
    bad = ~defined
    for arr in (G, G1, glr, w):
        arr[bad] = np.nan
    solvability = np.where(defined, solvability, np.nan)
    return a, jac, w, rho_c, glr, G, G1, solvability, defined


def _max_minor(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[1]
    iu = np.triu_indices(n, k=1)
    return np.abs(mat[:, iu[0], iu[1]]).max(axis=1)


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u ^ v)[:, i, j] = u_i v_j - u_j v_i as an antisymmetric stack."""
    return u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]


def _defect(kind: str, core: tuple, G) -> np.ndarray:
    """Analytic defining defect of a candidate witness G at the points of
    `core` (the output of _core): max |(curl w - G ^ w)_ij| for minor
    systems, |div w - G . w| for divergence systems; NaN where undefined."""
    a, jac, w, rho_c, glr, _, _, _, defined = core
    G = np.asarray(G, dtype=float)
    with np.errstate(all="ignore"):
        if kind == "minor":
            curl_w = (np.swapaxes(jac, 1, 2) - jac) / rho_c[:, None, None] - _wedge(glr, w)
            defect = _max_minor(curl_w - _wedge(G, w))
        else:
            div_w = (np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,ni->n", a, glr)) / rho_c
            defect = np.abs(div_w - np.einsum("ni,ni->n", G, w))
    return np.where(defined, defect, np.nan)


def minor_defect_with(sol: FieldSolution, G_values: np.ndarray,
                      points: Optional[np.ndarray] = None) -> np.ndarray:
    """Analytic minor defect of an externally supplied candidate witness."""
    return _defect("minor", _core("minor", *_at(sol, points)), G_values)


def _build(sol: FieldSolution, points, kind: str) -> FrobeniusWitness:
    if points is not None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
    local, batch = _at(sol, points)
    core = _core(kind, local, batch)
    G, G1, solv, defined = core[5:]

    def evaluator(qpts: np.ndarray) -> np.ndarray:
        return _core(kind, *_at(sol, qpts))[5]  # G

    return FrobeniusWitness(
        kind=kind, points=local.points, G=G, G1=G1,
        defining_residual=_defect(kind, core, G), solvability_residual=solv,
        defined=defined, solution=sol, evaluator=evaluator,
        grid=sol.grid if points is None else None,
    )


# The witnesses besides "auto", which takes the first one that suits the drive.
WITNESSES = ("2d", "gradient", "nd")


class WitnessMismatch(FrobeniusError):
    """A witness asked of a drive type it does not apply to (a config error)."""


def _fits(witness: str, d) -> bool:
    """The drive-type rules: which drives each witness applies to."""
    if witness == "2d":
        return d.dim == 2 and (isinstance(d, Scalar2D) or (
            isinstance(d, RawField) and d.closure_mode == "divergence_free"))
    if witness == "gradient":
        return isinstance(d, GradientDrive) or (
            isinstance(d, RawField) and d.closure_mode == "curl_free")
    return witness == "nd" and not isinstance(d, GradientDrive)


def resolve_witness(choice: str, d) -> str:
    """The witness `choice` for drive `d`, with "auto" resolved; WitnessMismatch
    when the drive's type does not admit it."""
    fits = [w for w in WITNESSES if _fits(w, d)]
    if choice == "auto":
        return fits[0]
    if choice not in fits:
        raise WitnessMismatch(f"witness {choice!r} does not apply to a {type(d).__name__} "
                              f"drive of dimension {d.dim}; use {' or '.join(fits)}")
    return choice


def witness_2d(sol: FieldSolution, points: Optional[np.ndarray] = None) -> FrobeniusWitness:
    """Minor-system witness in the plane (scalar stream or raw divergence-free)."""
    resolve_witness("2d", sol.drive)
    return _build(sol, points, "minor")


def witness_nd(sol: FieldSolution, points: Optional[np.ndarray] = None) -> FrobeniusWitness:
    """Minor-system witness in any dimension via the least-squares ansatz."""
    resolve_witness("nd", sol.drive)
    return _build(sol, points, "minor")


def witness_gradient(sol: FieldSolution, points: Optional[np.ndarray] = None) -> FrobeniusWitness:
    """Divergence-type witness for curl-free drives: div w = G . w."""
    resolve_witness("gradient", sol.drive)
    return _build(sol, points, "divergence")


# ---------------------------------------------------------------------------
# conservativity and integrating factor


def curl_residual_grid(witness: FrobeniusWitness) -> np.ndarray:
    """Max |d_i G_j - d_j G_i| per node by 4th-order differences (grid witnesses)."""
    if witness.grid is None:
        raise FrobeniusError("curl residual needs a grid-backed witness")
    grid = witness.grid
    comps = [witness.G[:, k].reshape(grid.shape()) for k in range(grid.dim)]
    with np.errstate(all="ignore"):
        witness.curl_residual = curl_max(comps, grid.spacing(), 4)
    return witness.curl_residual


def _edge_integrals(evaluator, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Two-point Gauss-Legendre quadrature of G . dl along segments, batched."""
    mid = 0.5 * (starts + ends)
    half = 0.5 * (ends - starts)
    off = half / np.sqrt(3.0)
    gpts = np.concatenate([mid - off, mid + off], axis=0)
    gv = evaluator(gpts)
    m = starts.shape[0]
    return np.einsum("ei,ei->e", gv[:m] + gv[m:], half)


@dataclass(eq=False)
class EtaRecovery:
    eta: np.ndarray  # grid-shaped, NaN off-mask
    anchor: tuple
    curl_gate: float
    loop_max: float
    post_residual: float
    mask: np.ndarray
    unreached: int  # masked nodes outside the anchor's component; eta is NaN there


def recover_eta(witness: FrobeniusWitness, anchor: Optional[tuple] = None,
                mask: Optional[np.ndarray] = None, tol_conservative: float = 1e-6) -> EtaRecovery:
    grid = witness.grid
    if grid is None:
        raise FrobeniusError("recover_eta needs a grid")
    shape = grid.shape()
    n = grid.dim
    if mask is None:
        mask = witness.defined.reshape(shape)
    else:
        mask = np.asarray(mask, dtype=bool) & witness.defined.reshape(shape)
    if not mask.any():
        raise FrobeniusError("no usable nodes for eta recovery")

    if witness.curl_residual is None:
        curl_residual_grid(witness)
    gate_vals = np.where(interior(mask, 2), witness.curl_residual, np.nan)
    if not np.isfinite(gate_vals).any():
        raise FrobeniusError("no interior nodes with a full curl stencil inside the mask")
    gate = float(np.nanmax(gate_vals))
    if gate > tol_conservative:
        loc = tuple(int(i) for i in np.unravel_index(np.nanargmax(gate_vals), shape))
        pos = tuple(float(ax[i]) for ax, i in zip(grid.axes(), loc))
        raise FrobeniusError(
            f"witness not conservative: max curl residual {gate:.3e} > {tol_conservative:.1e} "
            f"at grid node {loc} (x = {pos}); a gauge field H with H ^ w = 0 would be needed"
        )

    axes = grid.axes()
    nodes = grid.points().reshape(shape + (n,))

    if anchor is None:
        start = tuple(int(i) for i in np.argwhere(mask)[0])
    else:
        cand = np.argwhere(mask)
        target = np.asarray(anchor, dtype=float)
        pts = nodes[tuple(cand.T)]
        start = tuple(int(i) for i in cand[np.argmin(((pts - target) ** 2).sum(axis=1))])

    # breadth-first spanning tree over masked nodes, then one batched quadrature
    tree: list = []
    seen = np.zeros(shape, dtype=bool)
    seen[start] = True
    queue = deque([start])
    while queue:
        idx = queue.popleft()
        for axis in range(n):
            for step in (1, -1):
                jdx = list(idx)
                jdx[axis] += step
                if not (0 <= jdx[axis] < shape[axis]):
                    continue
                jdx = tuple(jdx)
                if seen[jdx] or not mask[jdx]:
                    continue
                seen[jdx] = True
                tree.append((idx, jdx))
                queue.append(jdx)

    eta = np.full(shape, np.nan)
    eta[start] = 0.0
    if tree:
        starts = np.array([nodes[p] for p, _ in tree])
        ends = np.array([nodes[q] for _, q in tree])
        increments = _edge_integrals(witness.evaluator, starts, ends)
        for (p, q), inc in zip(tree, increments):
            eta[q] = eta[p] + inc

    loop_max = _loop_check(witness.evaluator, grid, mask, nodes)
    if loop_max > 10.0 * tol_conservative:
        raise FrobeniusError(
            f"path dependence detected: rectangle loop integral {loop_max:.3e} "
            f"exceeds 10 x {tol_conservative:.1e}"
        )

    post = _post_exactness(witness, grid, mask, eta)
    return EtaRecovery(eta=eta, anchor=start, curl_gate=gate, loop_max=loop_max,
                       post_residual=post, mask=mask, unreached=int((mask & ~seen).sum()))


def _loop_check(evaluator, grid: GridSpec, mask: np.ndarray, nodes: np.ndarray) -> float:
    """Largest |loop integral| over up to 20 random masked grid rectangles."""
    rng = np.random.default_rng(404)
    shape = grid.shape()
    n = grid.dim
    worst = 0.0
    found = 0
    for _ in range(600):
        if found >= 20:
            break
        i0 = tuple(int(rng.integers(0, s)) for s in shape)
        if not mask[i0]:
            continue
        ax1, ax2 = (0, 1) if n == 2 else tuple(sorted(rng.choice(n, size=2, replace=False)))
        d1 = int(rng.integers(1, max(2, shape[ax1] // 3)))
        d2 = int(rng.integers(1, max(2, shape[ax2] // 3)))
        i1 = list(i0)
        i1[ax1] += d1
        i2 = list(i1)
        i2[ax2] += d2
        i3 = list(i0)
        i3[ax2] += d2
        if i1[ax1] >= shape[ax1] or i2[ax2] >= shape[ax2]:
            continue
        path = _rect_unit_edges([i0, tuple(i1), tuple(i2), tuple(i3)], ax1, ax2)
        if not all(mask[p] for p, _ in path):  # each boundary node starts one edge
            continue
        starts = np.array([nodes[p] for p, _ in path])
        ends = np.array([nodes[q] for _, q in path])
        vals = _edge_integrals(evaluator, starts, ends)
        if not np.isfinite(vals).all():
            continue
        worst = max(worst, abs(float(vals.sum())))
        found += 1
    return worst


def _rect_unit_edges(corners, ax1, ax2):
    """Unit grid edges tracing the rectangle boundary once around."""
    i0, i1, i2, i3 = corners
    path = []

    def march(frm, axis, upto):
        idx = list(frm)
        while idx[axis] != upto:
            nxt = list(idx)
            nxt[axis] += 1 if upto > idx[axis] else -1
            path.append((tuple(idx), tuple(nxt)))
            idx = nxt

    march(i0, ax1, i1[ax1])
    march(i1, ax2, i2[ax2])
    march(i2, ax1, i3[ax1])
    march(i3, ax2, i0[ax2])
    return path


def _post_exactness(witness: FrobeniusWitness, grid: GridSpec, mask: np.ndarray,
                    eta: np.ndarray) -> float:
    """Max curl (minor kind) or divergence (divergence kind) of e^(-eta) w."""
    sol = witness.solution
    ok = interior(mask & np.isfinite(eta), 2)
    vals = closure_residual(sol.w, eta, witness.kind, grid.spacing(), 4)[ok]
    return max(0.0, float(np.nanmax(vals))) if vals.size else 0.0
