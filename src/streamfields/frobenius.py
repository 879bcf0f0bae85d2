"""Frobenius witnesses G, their residuals, and integrating-factor recovery.

For minor-type systems the witness satisfies d_i w_j - d_j w_i = G_i w_j -
G_j w_i; for divergence-type (gradient-drive) systems it satisfies div w =
G . w.  Both are assembled from the drive-level least-squares witness
g = M a / |a|^2 (M_ij = d_i a_j - d_j a_i) plus the chain-rule term
-grad log rho(psi(xi)).  The defining defect and the solvability defect of
M = g ^ a are analytic (jet-based); both go through verify.wedge_defect, the
one defect routine that verify's finite-difference residuals share.  Which
witness suits which drive type is decided once, in `_fits`, for "auto" and
for every check; no witness suits a form's drive (forms.FormDrive).

A witness reads Q and the branch from the FieldSolution it is given and
evaluates the drive once more on its points (a grid's from GridSpec.nodes),
for the jacobian, expr.BLOCK_ROWS points (the jets' pass) at a time: each
block's order-2 batch and witness terms are freed before the next.  Off the grid
(the Gauss points of eta recovery and its loop check) one synthesis hands Q,
the branch and its drive batch to the witness's evaluator, so each point
costs one drive evaluation; it computes G alone (_core), in the same blocks.

When G is conservative (small curl residual), eta with G = grad eta is
recovered by integrating G along grid edges (two-point Gauss per edge) over a
breadth-first spanning tree, after which e^(-eta) w is checked to be exact.
Recovery reads an EtaSource, which the frobenius command fills by slabs,
with G's evaluator built from the synthesis settings (g_evaluator).
The tree is swept one frontier at a time in array code; it is edge for edge,
in the same order, the tree of a first-in-first-out queue search, so eta is
set by one gather-add per layer; edge ends come from the grid axes.
The curl gate and that post-check are verify.closure_defect of G and of
e^(-eta) w at fourth order on synth.slabs with 2 rows more on each side:
G streamed through synth.stitched (curl_rows), e^(-eta) w cut from its whole
arrays; bit for bit the whole grid's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import expr as exprmod
from . import synth as synthmod
from .drive import DriveBatch, GradientDrive, RawField, Scalar2D, drive_batch
from .forms import FormDrive
from .synth import FieldSolution, GridSpec, _solve, block_rows, log_rho_gradient
# Not called here; perfbench/tracer.py wraps this module-level name.
from .synth import synthesize_at_points  # noqa: F401
from .verify import closure_defect, integrating_factor, interior, wedge, wedge_defect


class FrobeniusError(ValueError):
    pass


@dataclass(eq=False)
class FrobeniusWitness:
    kind: str  # "minor" or "divergence"
    G: np.ndarray
    defining_residual: np.ndarray  # analytic defect per point (NaN undefined)
    solvability_residual: np.ndarray  # drive-level wedge defect (0 where exact)
    defined: np.ndarray
    solution: FieldSolution
    evaluator: Callable[[np.ndarray], np.ndarray]  # points -> G rows


# The witness terms of _core: glr is grad log rho(psi(xi)), g the drive-level
# witness and G = g - glr; M[i][j] = d_i a_j - d_j a_i (minor kind) or div_a,
# the jacobian's trace (divergence kind), is set.
_Core = NamedTuple("_Core", [(name, Optional[np.ndarray]) for name in (
    "a", "rho_c", "glr", "g", "G", "defined", "M", "div_a")])


def _core(kind: str, sol: FieldSolution, batch: DriveBatch) -> _Core:
    """Witness terms at the points of `sol`, G NaN where undefined: Q and
    branch come from `sol`, the drive and its jacobian from `batch`."""
    tol = sol.tol
    a, jac, xi = batch.a, batch.jac, batch.xi
    rho_c, glr, usable = log_rho_gradient(sol.model, sol.Q, batch.grad_xi, tol)
    M = div_a = None
    with np.errstate(all="ignore"):
        if kind == "minor":
            M = np.swapaxes(jac, 1, 2) - jac
            g = np.einsum("nij,nj->ni", M, a) / xi[:, None]
        else:
            div_a = sum((jac[:, i, i] for i in range(a.shape[1])), 0.0)  # np.trace, bit for bit
            g = (div_a / xi)[:, None] * a
        G = g - glr
    defined = (
        ~batch.bad
        & (sol.branch_id != 0)
        & usable
        & (np.sqrt(np.maximum(xi, 0.0)) > tol.eps_grad)
        & np.isfinite(glr).all(axis=1)
    )
    G[~defined] = np.nan
    return _Core(a, rho_c, glr, g, G, defined, M, div_a)


def _defect(kind: str, core: _Core, G) -> np.ndarray:
    """Analytic defining defect of a candidate witness G at the points of
    `core` (verify.wedge_defect): max |(curl w - G ^ w)_ij| for minor
    systems, |div w - G . w| for divergence systems; NaN where undefined."""
    a, rho_c, glr = core.a, core.rho_c, core.glr
    with np.errstate(all="ignore"):
        w = a / rho_c[:, None]

    def d(*pair):  # curl w = M / rho - glr ^ w, or div w = (div a - a . glr) / rho
        if not pair:
            return (core.div_a - np.einsum("ni,ni->n", a, glr)) / rho_c
        i, j = pair
        return core.M[:, i, j] / rho_c - wedge(glr, w, i, j)
    return np.where(core.defined, wedge_defect(kind, d, np.asarray(G, dtype=float), w), np.nan)


def _blocks(sol: FieldSolution, kind: str):
    """(rows, _core of those rows) for each block of expr.BLOCK_ROWS rows of `sol`."""
    for rows in block_rows(len(sol.Q), exprmod.BLOCK_ROWS):
        pts = sol.points[rows] if sol.grid is None else sol.grid.nodes(rows.start, rows.stop)
        yield rows, _core(kind, sol.restricted(rows), drive_batch(sol.drive, pts))


def minor_defect_with(sol: FieldSolution, G_values: np.ndarray) -> np.ndarray:
    """Analytic minor defect of an externally supplied candidate witness."""
    G_values, out = np.asarray(G_values, dtype=float), np.empty(len(sol.Q))
    for rows, core in _blocks(sol, "minor"):
        out[rows] = _defect("minor", core, G_values[rows])
    return out


def _build(sol: FieldSolution, kind: str) -> FrobeniusWitness:
    n, dim = sol.w.shape
    G = np.empty((n, dim))
    defining, solvability, defined = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for rows, core in _blocks(sol, kind):
        ok = core.defined
        # the drive-level wedge defect of M = g ^ a, 0 for divergence systems
        drive_wedge = wedge_defect(kind, lambda i, j: core.M[:, i, j].copy(), core.g,
                                   core.a) if kind == "minor" else 0.0
        G[rows], defined[rows] = core.G, ok
        defining[rows] = _defect(kind, core, core.G)
        solvability[rows] = np.where(ok, drive_wedge, np.nan)

    return FrobeniusWitness(
        kind=kind, G=G, defining_residual=defining, solvability_residual=solvability,
        defined=defined, solution=sol, evaluator=g_evaluator(kind, sol),
    )


def g_evaluator(kind: str, s) -> Callable[[np.ndarray], np.ndarray]:
    """points -> the rows of G there of the `kind` witness of `s`, a
    FieldSolution or a synth.Synthesis, of which it keeps the synthesis
    settings, not the arrays: a synthesis at the points, expr.BLOCK_ROWS
    points at a time, from full-order batches (_core reads jac)."""
    model, drive, policy, tol = s.model, s.drive, s.policy, s.tol

    def evaluator(qpts: np.ndarray) -> np.ndarray:
        return np.concatenate([_core(kind, *_solve(model, drive, policy, qpts[rows], tol,
                                                   order=2)).G
                               for rows in block_rows(len(qpts), exprmod.BLOCK_ROWS)])
    return evaluator


# The witnesses besides "auto", which takes the first one that suits the
# drive, and the kind of system each solves.
KINDS = {"2d": "minor", "gradient": "divergence", "nd": "minor"}


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
    return witness == "nd" and not isinstance(d, (GradientDrive, FormDrive))


def resolve_witness(choice: str, d) -> str:
    """The witness `choice` for drive `d`, with "auto" resolved; WitnessMismatch
    when the drive's type does not admit it."""
    fits = [w for w in KINDS if _fits(w, d)]
    if choice == "auto" and fits:
        return fits[0]
    if choice not in fits:
        use = f"use {' or '.join(fits)}" if fits else "no witness does"
        raise WitnessMismatch(f"witness {choice!r} does not apply to a {type(d).__name__} "
                              f"drive of dimension {d.dim}; {use}")
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


def curl_rows(grid: GridSpec, chunks: Iterable[tuple]) -> Iterator[tuple]:
    """(top, end, arrays, curl) from `chunks` of (top, end, arrays) on
    axis-0 rows top to end - 1 in order, G the first array: each of
    synth.stitched's windows with a halo of 2 rows, `arrays` its own rows
    and `curl` max |d_i G_j - d_j G_i| there by 4th-order differences, so
    bit for bit the whole grid's."""
    shape, row = grid.shape(), grid.npoints() // grid.shape()[0]
    for lo, top, end, arrays in synthmod.stitched(chunks, shape[0], row, 2):
        own = slice((top - lo) * row, (end - lo) * row)
        yield top, end, [a[own] for a in arrays], closure_defect(
            arrays[0], (len(arrays[0]) // row,) + shape[1:], "minor", grid.spacing(), 4)[
            top - lo:end - lo]


def curl_residual_grid(witness: FrobeniusWitness) -> np.ndarray:
    """curl_rows of a grid witness's G on synth.slabs, grid-shaped."""
    grid = witness.solution.grid
    if grid is None:
        raise FrobeniusError("curl residual needs a grid-backed witness")
    curl, row = np.empty(grid.shape()), grid.npoints() // grid.shape()[0]
    for top, end, _, vals in curl_rows(grid, ((top, end, [witness.G[top * row:end * row]])
                                              for top, end in synthmod.slabs(grid))):
        curl[top:end] = vals
    return curl


# What eta recovery reads, each held whole: the witness kind, w and where G
# is defined (a row per node), G's grid-shaped curl, and G off the grid.
EtaSource = NamedTuple("EtaSource", [("kind", str), ("grid", GridSpec), ("w", np.ndarray),
                                     ("defined", np.ndarray), ("curl", np.ndarray),
                                     ("evaluator", Callable)])


def _coords(axes: list, shape: tuple, flat: np.ndarray) -> np.ndarray:
    """Rows `flat` of GridSpec.points(), bit for bit, from the grid's axes."""
    return np.stack([ax[i] for ax, i in zip(axes, np.unravel_index(flat, shape))], axis=1)


def _edge_integrals(evaluator, grid: GridSpec, edges: np.ndarray) -> np.ndarray:
    """Two-point Gauss-Legendre quadrature of G . dl along grid edges, batched:
    `edges` holds (p, q) rows of flat node indices of `grid`, taken
    expr.BLOCK_ROWS // 2 a call, so a call has at most expr.BLOCK_ROWS points."""
    axes, shape = grid.axes(), grid.shape()
    step, out = max(exprmod.BLOCK_ROWS // 2, 1), np.empty(len(edges))
    for at in range(0, len(edges), step):
        starts, ends = (_coords(axes, shape, edges[at:at + step, k]) for k in (0, 1))
        mid, half, m = 0.5 * (starts + ends), 0.5 * (ends - starts), len(starts)
        off = half / np.sqrt(3.0)
        gv = evaluator(np.concatenate([mid - off, mid + off], axis=0))
        out[at:at + m] = np.einsum("ei,ei->e", gv[:m] + gv[m:], half)
    return out


@dataclass(eq=False)
class EtaRecovery:
    eta: np.ndarray  # grid-shaped, NaN off-mask
    anchor: tuple
    curl_gate: float
    loop_max: float
    post_residual: float
    mask: np.ndarray
    unreached: int  # masked nodes outside the anchor's component; eta is NaN there


def recover_eta(source, anchor: Optional[tuple] = None,
                mask: Optional[np.ndarray] = None, tol_conservative: float = 1e-6) -> EtaRecovery:
    if isinstance(source, FrobeniusWitness):  # a grid witness: what recovery reads of it
        source = EtaSource(source.kind, source.solution.grid, source.solution.w, source.defined,
                           curl_residual_grid(source), source.evaluator)
    grid = source.grid
    shape = grid.shape()
    if mask is None:
        mask = source.defined.reshape(shape)
    else:
        mask = np.asarray(mask, dtype=bool) & source.defined.reshape(shape)
    if not mask.any():
        raise FrobeniusError("no usable nodes for eta recovery")

    gate_vals = np.where(interior(mask, 2), source.curl, np.nan)
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
    del gate_vals

    cand = np.flatnonzero(mask)
    if anchor is None:
        first = cand[0]
    else:  # the masked node nearest the anchor, the first of equals in C order
        target, axes = np.asarray(anchor, dtype=float), grid.axes()
        first = cand[np.argmin(np.concatenate([
            ((_coords(axes, shape, cand[rows]) - target) ** 2).sum(axis=1)
            for rows in block_rows(cand.size)]))]
    start = tuple(int(i) for i in np.unravel_index(first, shape))
    del cand

    # a spanning tree over masked nodes, one batched quadrature, then one
    # gather-add per layer: every parent was set by an earlier layer
    edges, sizes, seen = _spanning_tree(mask, start)
    eta = np.full(mask.size, np.nan)
    eta[first] = 0.0
    increments, done = _edge_integrals(source.evaluator, grid, edges), 0
    for size in sizes:
        parent, child = edges[done:done + size].T
        eta[child] = eta[parent] + increments[done:done + size]
        done += size
    eta = eta.reshape(shape)
    del edges, increments

    loop_max = _loop_check(source.evaluator, grid, mask)
    if loop_max > 10.0 * tol_conservative:
        raise FrobeniusError(
            f"path dependence detected: rectangle loop integral {loop_max:.3e} "
            f"exceeds 10 x {tol_conservative:.1e}"
        )

    post = _post_exactness(source, mask, eta)
    return EtaRecovery(eta=eta, anchor=start, curl_gate=gate, loop_max=loop_max,
                       post_residual=post, mask=mask, unreached=int((mask & ~seen).sum()))


def _spanning_tree(mask: np.ndarray, start: tuple) -> tuple:
    """Breadth-first spanning tree of the masked nodes reachable from `start`,
    swept one frontier at a time: (edges, sizes, seen), edges an (E, 2) array
    of (parent, child) flat node indices, layer by layer, and sizes the edge
    count of each layer.  A layer visits its nodes in discovery order and each
    node's neighbours in (axis, +1/-1) order, and the first claim on a node
    wins, so the edges and their order are a first-in-first-out queue
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
    sizes = [len(c) for c in children]
    edges = np.empty((sum(sizes), 2), dtype=np.intp)
    for column, part in zip(edges.T, (parents, children)):
        column[:] = np.concatenate(part) if part else 0
        part.clear()
    for rows in block_rows(len(edges)):  # off the padded grid, a block at a time
        edges[rows] = np.ravel_multi_index(
            tuple(i - 1 for i in np.unravel_index(edges[rows], padded)), shape)
    return edges, sizes, seen


def _loop_check(evaluator, grid: GridSpec, mask: np.ndarray) -> float:
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
        vals = _edge_integrals(evaluator, grid, path)
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


def _post_exactness(source: EtaSource, mask: np.ndarray, eta: np.ndarray) -> float:
    """Max curl (minor kind) or divergence (divergence kind) of e^(-eta) w
    where its stencil lies in the mask and eta is set; 0 for no such node."""
    grid = source.grid
    worst, rows, row = 0.0, grid.shape()[0], grid.npoints() // grid.shape()[0]
    for top, end in synthmod.slabs(grid):
        lo, hi = max(top - 2, 0), min(end + 2, rows)
        own = slice(top - lo, end - lo)
        ok = interior(mask[lo:hi] & np.isfinite(eta[lo:hi]), 2)[own]
        vals = closure_defect(source.w[lo * row:hi * row], eta[lo:hi].shape,
                              source.kind, grid.spacing(), 4,
                              integrating_factor(eta[lo:hi].reshape(-1)))[own]
        worst = np.fmax.reduce(vals[ok], initial=worst)  # NaN is skipped
    return float(worst)
