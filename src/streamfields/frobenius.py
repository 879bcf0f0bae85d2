"""Frobenius witnesses G, their residuals, and integrating-factor recovery.

For minor-type systems the witness satisfies d_i w_j - d_j w_i = G_i w_j -
G_j w_i; for divergence-type (gradient-drive) systems it satisfies div w =
G . w.  Both are assembled from the drive-level least-squares witness
g = M a / |a|^2 (M_ij = d_i a_j - d_j a_i) plus the chain-rule term
-grad log rho(psi(xi)).  The defining defects here are analytic (jet-based);
the verify module redoes them with finite differences.  Which witness suits
which drive type is decided once, in `_fits`, for "auto" and for every check.

A witness reads Q and the branch from the FieldSolution it is given and
evaluates the drive once more on its points, for the jacobian.  Off the grid
(the Gauss points of eta recovery and its loop check) one synthesis hands Q,
the branch and its drive batch to the witness, so each point costs one drive
evaluation; the points go through in blocks of synth.SYNTH_BLOCK.

When G is conservative (small curl residual), eta with G = grad eta is
recovered by integrating G along grid edges (two-point Gauss per edge) over a
breadth-first spanning tree, after which e^(-eta) w is checked to be exact.
The tree is swept one frontier at a time in array code; it is edge for edge,
in the same order, the tree of a first-in-first-out queue search, so eta is
set by one gather-add per layer.
The curl gate and that post-check take fourth-order central differences from
the finite-difference core shared with the verify module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drive import DriveBatch, GradientDrive, RawField, Scalar2D, drive_batch
from .synth import FieldSolution, GridSpec, _solve, block_rows, log_rho_gradient
# Not called here; perfbench/tracer.py wraps this module-level name.
from .synth import synthesize_at_points  # noqa: F401
from .verify import closure_residual, curl_max, interior


class FrobeniusError(ValueError):
    pass


@dataclass(eq=False)
class FrobeniusWitness:
    kind: str  # "minor" or "divergence"
    G: np.ndarray
    G1: np.ndarray
    defining_residual: np.ndarray  # analytic defect per point (NaN undefined)
    solvability_residual: np.ndarray  # drive-level wedge defect (0 where exact)
    defined: np.ndarray
    solution: FieldSolution
    evaluator: Callable[[np.ndarray], np.ndarray]  # points -> G rows
    curl_residual: Optional[np.ndarray] = None  # filled by curl_residual_grid


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


def minor_defect_with(sol: FieldSolution, G_values: np.ndarray) -> np.ndarray:
    """Analytic minor defect of an externally supplied candidate witness."""
    return _defect("minor", _core("minor", sol, drive_batch(sol.drive, sol.points)), G_values)


def _build(sol: FieldSolution, kind: str) -> FrobeniusWitness:
    core = _core(kind, sol, drive_batch(sol.drive, sol.points))
    G, G1, solv, defined = core[5:]

    def evaluator(qpts: np.ndarray) -> np.ndarray:
        # G, one synthesis block of points at a time
        return np.concatenate([_core(kind, *_solve(sol.model, sol.drive, sol.policy, qpts[rows],
                                                   sol.tol))[5]
                               for rows in block_rows(len(qpts))])

    return FrobeniusWitness(
        kind=kind, G=G, G1=G1, defining_residual=_defect(kind, core, G),
        solvability_residual=solv, defined=defined, solution=sol, evaluator=evaluator,
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


def witness_2d(sol: FieldSolution) -> FrobeniusWitness:
    """Minor-system witness in the plane (scalar stream or raw divergence-free)."""
    resolve_witness("2d", sol.drive)
    return _build(sol, "minor")


def witness_nd(sol: FieldSolution) -> FrobeniusWitness:
    """Minor-system witness in any dimension via the least-squares ansatz."""
    resolve_witness("nd", sol.drive)
    return _build(sol, "minor")


def witness_gradient(sol: FieldSolution) -> FrobeniusWitness:
    """Divergence-type witness for curl-free drives: div w = G . w."""
    resolve_witness("gradient", sol.drive)
    return _build(sol, "divergence")


# ---------------------------------------------------------------------------
# conservativity and integrating factor


def curl_residual_grid(witness: FrobeniusWitness) -> np.ndarray:
    """Max |d_i G_j - d_j G_i| per node by 4th-order differences (grid witnesses)."""
    grid = witness.solution.grid
    if grid is None:
        raise FrobeniusError("curl residual needs a grid-backed witness")
    comps = [witness.G[:, k].reshape(grid.shape()) for k in range(grid.dim)]
    with np.errstate(all="ignore"):
        witness.curl_residual = curl_max(comps, grid.spacing(), 4)
    return witness.curl_residual


def _edge_integrals(evaluator, points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Two-point Gauss-Legendre quadrature of G . dl along grid edges, batched:
    `edges` holds (p, q) rows of flat node indices into `points` (N, n)."""
    seg = points[edges]  # (E, 2, n)
    starts, ends = seg[:, 0], seg[:, 1]
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
    grid = witness.solution.grid
    if grid is None:
        raise FrobeniusError("recover_eta needs a grid")
    shape = grid.shape()
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

    points = grid.points()

    if anchor is None:
        start = tuple(int(i) for i in np.argwhere(mask)[0])
    else:
        cand = np.argwhere(mask)
        target = np.asarray(anchor, dtype=float)
        pts = points[mask.reshape(-1)]  # the rows of cand, in the same C order
        start = tuple(int(i) for i in cand[np.argmin(((pts - target) ** 2).sum(axis=1))])

    # a spanning tree over masked nodes, one batched quadrature, then one
    # gather-add per layer: every parent was set by an earlier layer
    layers, seen = _spanning_tree(mask, start)
    eta = np.full(mask.size, np.nan)
    eta[np.ravel_multi_index(start, shape)] = 0.0
    if layers:
        increments = _edge_integrals(witness.evaluator, points, np.concatenate(layers))
        done = 0
        for parent, child in (layer.T for layer in layers):
            eta[child] = eta[parent] + increments[done:done + child.size]
            done += child.size
    eta = eta.reshape(shape)

    loop_max = _loop_check(witness.evaluator, grid, mask, points)
    if loop_max > 10.0 * tol_conservative:
        raise FrobeniusError(
            f"path dependence detected: rectangle loop integral {loop_max:.3e} "
            f"exceeds 10 x {tol_conservative:.1e}"
        )

    post = _post_exactness(witness, grid, mask, eta)
    return EtaRecovery(eta=eta, anchor=start, curl_gate=gate, loop_max=loop_max,
                       post_residual=post, mask=mask, unreached=int((mask & ~seen).sum()))


def _spanning_tree(mask: np.ndarray, start: tuple) -> tuple:
    """Breadth-first spanning tree of the masked nodes reachable from `start`,
    swept one frontier at a time: (layers, seen), each layer an (E, 2) array of
    (parent, child) flat node indices.  A layer visits its nodes in discovery
    order and each node's neighbours in (axis, +1/-1) order, and the first claim
    on a node wins, so the edges and their order are a first-in-first-out queue
    search's.  A False border around the mask keeps every neighbour in range."""
    shape = mask.shape
    padded = tuple(s + 2 for s in shape)
    strides = np.cumprod((1,) + padded[:0:-1])[::-1]
    offsets = np.array([step * stride for stride in strides for step in (1, -1)])
    open_ = np.pad(mask, 1).reshape(-1)  # masked and not yet claimed
    frontier = np.array([np.ravel_multi_index(tuple(i + 1 for i in start), padded)])
    open_[frontier] = False
    parents, children = [], []
    while True:
        claims = (frontier[:, None] + offsets).reshape(-1)  # node-major, then (axis, step)
        owners = np.repeat(frontier, offsets.size)
        ok = open_[claims]
        claims, owners = claims[ok], owners[ok]
        if not claims.size:
            break
        _, first = np.unique(claims, return_index=True)
        first.sort()
        frontier = claims[first]
        open_[frontier] = False
        parents.append(owners[first])
        children.append(frontier)
    inner = tuple(slice(1, -1) for _ in shape)
    seen = mask & ~open_.reshape(padded)[inner]
    layers = []
    if parents:
        edges = np.stack([np.concatenate(parents), np.concatenate(children)], axis=1)
        unpadded = np.stack(np.unravel_index(edges, padded)) - 1
        flat = np.ravel_multi_index(tuple(unpadded), shape)
        layers = np.split(flat, np.cumsum([len(c) for c in children])[:-1])
    return layers, seen


def _loop_check(evaluator, grid: GridSpec, mask: np.ndarray, points: np.ndarray) -> float:
    """Largest |loop integral| over up to 20 random masked grid rectangles."""
    rng = np.random.default_rng(404)
    shape = grid.shape()
    n = grid.dim
    flat_mask = mask.reshape(-1)
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
        if i0[ax1] + d1 >= shape[ax1] or i0[ax2] + d2 >= shape[ax2]:
            continue
        path = _rect_unit_edges(shape, i0, ax1, d1, ax2, d2)
        if not flat_mask[path[:, 0]].all():  # each boundary node starts one edge
            continue
        vals = _edge_integrals(evaluator, points, path)
        if not np.isfinite(vals).all():
            continue
        worst = max(worst, abs(float(vals.sum())))
        found += 1
    return worst


def _rect_unit_edges(shape, i0, ax1, d1, ax2, d2):
    """Unit grid edges, as (p, q) flat node indices, tracing the rectangle with
    corner i0 and sides d1 along ax1 and d2 along ax2 once around: up ax1, up
    ax2, back down ax1, down ax2."""
    steps = np.zeros((2 * (d1 + d2), len(shape)), dtype=np.intp)
    steps[:d1, ax1] = 1
    steps[d1:d1 + d2, ax2] = 1
    steps[d1 + d2:2 * d1 + d2, ax1] = -1
    steps[2 * d1 + d2:, ax2] = -1
    ends = np.asarray(i0) + np.cumsum(steps, axis=0)
    return np.ravel_multi_index(tuple(np.moveaxis(np.stack([ends - steps, ends], axis=1), -1, 0)),
                                shape)


def _post_exactness(witness: FrobeniusWitness, grid: GridSpec, mask: np.ndarray,
                    eta: np.ndarray) -> float:
    """Max curl (minor kind) or divergence (divergence kind) of e^(-eta) w."""
    sol = witness.solution
    ok = interior(mask & np.isfinite(eta), 2)
    vals = closure_residual(sol.w, eta, witness.kind, grid.spacing(), 4)[ok]
    return max(0.0, float(np.nanmax(vals))) if vals.size else 0.0
