"""Field synthesis: per point, pick a branch, invert phi, scale the drive.

w = a / rho(psi(|a|^2)) wherever rho is usable; where rho(psi) degenerates with
psi -> 0 the alternate form w = (a/|a|) sqrt(psi) takes over (and yields w = 0
in the limit).  Every point carries a regime label, the branch used, and a
bitset of singular/admissibility flags.  No point's values depend on another
point, so a solution restricted to the nodes of a coarser grid nested in its
own (nested_index, FieldSolution.restricted) is that grid's solution.  A grid
node is lo + i·h with a normal spacing h, so refining a grid by a power of two
keeps every node bit for bit.

For the same reason a grid is synthesized in blocks of SYNTH_BLOCK nodes, one
after another or on a thread pool, each written into its rows of the full
solution: every temporary is block-sized, and the partition, and so the
bytes, do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import expr as exprmod
from .density import DensityModel, PhiBranch
from .drive import DriveField, drive_batch


class SynthError(ValueError):
    pass


# Nodes per synthesis block: the jets, drive and assembly temporaries of one
# block, not of the whole grid, are alive at a time (per worker).
SYNTH_BLOCK = 1 << 16


# flag bit order is part of the CSV contract; do not reorder
FLAG_OUTSIDE_OMEGA = 1 << 0
FLAG_GAMMA0 = 1 << 1
FLAG_GAMMA_S = 1 << 2
FLAG_GAMMA_INF = 1 << 3
FLAG_GAMMA_G = 1 << 4
FLAG_NONPHYSICAL_RHO = 1 << 5
FLAG_DRIVE_UNDEFINED = 1 << 6

FLAG_NAMES = {
    FLAG_OUTSIDE_OMEGA: "outside_omega_f",
    FLAG_GAMMA0: "gamma_0",
    FLAG_GAMMA_S: "gamma_s",
    FLAG_GAMMA_INF: "gamma_inf",
    FLAG_GAMMA_G: "gamma_g",
    FLAG_NONPHYSICAL_RHO: "nonphysical_rho",
    FLAG_DRIVE_UNDEFINED: "drive_undefined",
}

REGIME_UNDEFINED = 0
REGIME_ELLIPTIC = 1
REGIME_HYPERBOLIC = 2
REGIME_SONIC = 3
REGIME_NAMES = ("undefined", "elliptic", "hyperbolic", "sonic")


@dataclass(frozen=True)
class GridSpec:
    lo: tuple
    hi: tuple
    cells: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        cells = tuple(int(c) for c in self.cells)
        if not (len(lo) == len(hi) == len(cells)):
            raise SynthError("grid lo/hi/cells must have equal lengths")
        if not all(a < b and b - a < float("inf") for a, b in zip(lo, hi)):
            raise SynthError("grid requires lo < hi componentwise, with a finite extent hi - lo")
        if any(c < 2 for c in cells):
            raise SynthError("grid requires at least 2 cells per axis")
        tiny = np.finfo(float).tiny
        if not all((b - a) / c >= tiny for a, b, c in zip(lo, hi, cells)):
            raise SynthError(f"grid spacing (hi - lo)/cells must be at least the smallest normal "
                             f"float, {tiny:.17g}, on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "cells", cells)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    def spacing(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.cells)

    def axes(self) -> list:
        """Node i of an axis is lo + i·((hi - lo)/cells) and the last node is
        hi, the arithmetic of np.linspace.  Halving a normal spacing is exact,
        so every node of a grid is a node of the grid refined by 2^j."""
        out = []
        for l, h, c in zip(self.lo, self.hi, self.cells):
            ax = l + np.arange(c + 1) * ((h - l) / c)
            ax[-1] = h
            out.append(ax)
        return out

    def points(self) -> np.ndarray:
        """All nodes, lexicographic in the multi-index (first axis slowest)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def npoints(self) -> int:
        return int(np.prod(self.shape()))


def nested_index(coarse: GridSpec, fine: GridSpec) -> Optional[np.ndarray]:
    """The flat indices of `coarse`'s nodes among `fine`'s, in `coarse`'s node
    order; None unless both grids span one box, bit for bit (a last node of
    -0.0 is not one of 0.0), and every fine cell count is the coarse one times
    a power of two.  Such coarse nodes are fine nodes bit for bit (GridSpec.axes)."""
    if coarse.dim != fine.dim or (np.array([coarse.lo, coarse.hi]).tobytes()
                                  != np.array([fine.lo, fine.hi]).tobytes()):
        return None
    steps = [f // c for c, f in zip(coarse.cells, fine.cells)]
    if any(f != s * c or s & (s - 1) for s, c, f in zip(steps, coarse.cells, fine.cells)):
        return None
    node = np.arange(fine.npoints()).reshape(fine.shape())
    return node[tuple(slice(None, None, s) for s in steps)].reshape(-1)


@dataclass(frozen=True)
class Tolerances:
    eps_phi_prime: float = 1e-6
    eps_rho: float = 1e-6
    eps_grad: float = 1e-8
    q_zero: float = 1e-12
    rho_zero: float = 1e-12
    xi_snap: float = 1e-12  # relative forgiveness at shared image fold values


@dataclass(frozen=True, eq=False)
class BranchPolicy:
    mode: str = "prefer_type1"  # prefer_type1 | prefer_type2 | single_branch | region_map
    branch_id: Optional[int] = None
    regions: tuple = ()  # ((predicate Expression, branch id), ...), first match wins
    default_id: Optional[int] = None
    allow_nonphysical: bool = False
    params: dict = field(default_factory=dict)


def prefer_type1(allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="prefer_type1", allow_nonphysical=allow_nonphysical)


def prefer_type2(allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="prefer_type2", allow_nonphysical=allow_nonphysical)


def single_branch(branch_id: int, allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="single_branch", branch_id=int(branch_id), allow_nonphysical=allow_nonphysical)


def region_map(regions, default_id: int, dim: int = 2,
               params: Optional[dict] = None, allow_nonphysical: bool = False) -> BranchPolicy:
    params = dict(params or {})
    parsed = []
    names = ("x1", "x2", "x3", "x4")[:dim]
    for pred, bid in regions:
        e = pred if isinstance(pred, exprmod.Expression) else exprmod.parse(pred, names, tuple(params))
        parsed.append((e, int(bid)))
    return BranchPolicy(
        mode="region_map", regions=tuple(parsed), default_id=int(default_id),
        allow_nonphysical=allow_nonphysical, params=params,
    )


@dataclass(eq=False)
class FieldSolution:
    grid: Optional[GridSpec]
    model: DensityModel
    drive: DriveField
    policy: BranchPolicy
    tol: Tolerances
    points: np.ndarray  # (N, n)
    w: np.ndarray  # (N, n), (N, C(n, k)) for a k-form; NaN rows where undefined
    Q: np.ndarray  # (N,)
    xi: np.ndarray  # (N,)
    regime: np.ndarray  # (N,) uint8 codes into REGIME_NAMES
    branch_id: np.ndarray  # (N,) int32, 0 = no branch
    flags: np.ndarray  # (N,) int32 bitset

    @property
    def defined(self) -> np.ndarray:
        return finite_rows(self.w)

    def restricted(self, grid: GridSpec, idx: np.ndarray) -> "FieldSolution":
        """This solution at the nodes `idx`, as the solution on `grid`; with
        idx = nested_index(grid, self.grid) it is, bit for bit, a synthesis
        on `grid`, since each node's values depend on that node alone."""
        return replace(self, grid=grid, points=self.points[idx], w=self.w[idx], Q=self.Q[idx],
                       xi=self.xi[idx], regime=self.regime[idx],
                       branch_id=self.branch_id[idx], flags=self.flags[idx])


def finite_rows(v: np.ndarray) -> np.ndarray:
    """np.isfinite(v).all(axis=1), one column at a time: no (N, m) temporary."""
    ok = np.ones(v.shape[0], dtype=bool)
    for col in v.T:
        ok &= np.isfinite(col)
    return ok


def _branch_snap(b: PhiBranch, tol: Tolerances) -> float:
    scale = 1.0
    for v in (b.image.lo, b.image.hi):
        if np.isfinite(v):
            scale = max(scale, abs(v))
    return tol.xi_snap * scale


def _resolve_branch(model: DensityModel, policy: BranchPolicy, bid: int) -> PhiBranch:
    for b in model.branches():
        if b.index == bid:
            if b.nonphysical and not policy.allow_nonphysical:
                raise SynthError(
                    f"branch {bid} ({b.label}) is nonphysical; enable allow_nonphysical to use it"
                )
            return b
    raise SynthError(f"no branch with id {bid} in {model.kind} model")


def _select_branches(model: DensityModel, policy: BranchPolicy, pts: np.ndarray,
                     xi: np.ndarray, usable: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Pick a branch index per point (0 = none admitted)."""
    sel = np.zeros(xi.shape[0], dtype=np.int32)
    all_branches = model.branches()
    if policy.mode in ("prefer_type1", "prefer_type2"):
        admitted = [b for b in all_branches if policy.allow_nonphysical or not b.nonphysical]
        want_first = policy.mode == "prefer_type1"
        ordered = [b for b in admitted if b.elliptic == want_first] + \
                  [b for b in admitted if b.elliptic != want_first]
        for b in ordered:
            take = usable & (sel == 0) & b.admits(xi, _branch_snap(b, tol))
            sel[take] = b.index
        return sel
    if policy.mode == "single_branch":
        if policy.branch_id is None:
            raise SynthError("single_branch policy needs a branch_id")
        b = _resolve_branch(model, policy, policy.branch_id)
        take = usable & b.admits(xi, _branch_snap(b, tol))
        sel[take] = b.index
        return sel
    if policy.mode == "region_map":
        if policy.default_id is None:
            raise SynthError("region_map policy needs a default branch id")
        _resolve_branch(model, policy, policy.default_id)
        choice = np.full(xi.shape[0], policy.default_id, dtype=np.int32)
        assigned = np.zeros(xi.shape[0], dtype=bool)
        for pred, bid in policy.regions:
            _resolve_branch(model, policy, bid)
            vals = exprmod.eval_values(pred, pts, policy.params)
            m = ~assigned & (vals > 0.0)
            choice[m] = bid
            assigned |= m
        for bid in np.unique(choice):
            b = _resolve_branch(model, policy, int(bid))
            lanes = usable & (choice == bid) & b.admits(xi, _branch_snap(b, tol))
            sel[lanes] = bid
        return sel
    raise SynthError(f"unknown policy mode {policy.mode!r}")


def _assemble(model: DensityModel, policy: BranchPolicy, tol: Tolerances,
              pts: np.ndarray, a: np.ndarray, xi: np.ndarray, bad: np.ndarray,
              lap: np.ndarray):
    """Branch selection, flag taxonomy, and amplitude scaling shared by the
    vector and k-form synthesizers.  `a` may have any number of columns; each
    row is rescaled by 1/rho (or the degenerate-rho alternate)."""
    npts = pts.shape[0]
    n = a.shape[1]
    flags = np.zeros(npts, dtype=np.int32)
    flags[bad] |= FLAG_DRIVE_UNDEFINED
    usable = ~bad

    sel = _select_branches(model, policy, pts, xi, usable, tol)
    flags[usable & (sel == 0)] |= FLAG_OUTSIDE_OMEGA

    branch_of = {b.index: b for b in model.branches()}
    present = [branch_of[int(bid)] for bid in np.flatnonzero(np.bincount(sel)) if bid != 0]
    Q = np.full(npts, np.nan)
    for b in present:
        lanes = sel == b.index
        Q[lanes] = b.psi(xi[lanes], _branch_snap(b, tol))
        if b.nonphysical:
            flags[lanes] |= FLAG_NONPHYSICAL_RHO
    # numeric inversion can fail inside a sampled image; demote such points
    failed = (sel != 0) & ~np.isfinite(Q)
    flags[failed] |= FLAG_OUTSIDE_OMEGA
    sel[failed] = 0

    on_branch = sel != 0
    rho_q = model.rho(Q)
    rho_c = np.where(on_branch, rho_q, np.nan)
    phi_p = np.where(on_branch, model.phi_prime(Q, rho_q), np.nan)

    with np.errstate(all="ignore"):
        primary = on_branch & np.isfinite(rho_c) & (np.abs(rho_c) >= tol.rho_zero)
        # a whole-block division, then NaN rows: each kept row is a[p] / rho_c[p]
        w = a / rho_c[:, None]
        w[~primary] = np.nan
        # rho degenerate but psi -> 0: w = (a/|a|) sqrt(Q), zero in the limit
        alternate = on_branch & ~primary & (Q <= tol.q_zero)
        if np.any(alternate):
            norm_a = np.sqrt(xi[alternate])
            amp = np.sqrt(np.maximum(Q[alternate], 0.0))
            unit = np.zeros((int(alternate.sum()), n))
            pos = norm_a > 0.0
            unit[pos] = a[alternate][pos] / norm_a[pos, None]
            w[alternate] = unit * amp[:, None]

    gamma0_hard = on_branch & ~primary & ~(Q <= tol.q_zero) & np.isfinite(rho_c)
    gamma_inf = on_branch & np.isfinite(Q) & ~np.isfinite(rho_c)
    flags[gamma_inf] |= FLAG_GAMMA_INF
    gamma0_flag = on_branch & np.isfinite(rho_c) & (np.abs(rho_c) < tol.eps_rho) & (Q > tol.eps_rho)
    flags[gamma0_flag | gamma0_hard] |= FLAG_GAMMA0
    sonic = on_branch & np.isfinite(Q) & (~np.isfinite(phi_p) | (np.abs(phi_p) < tol.eps_phi_prime))
    # the zero set of rho sits inside the sonic set; keep the inclusion exact
    flags[sonic | gamma0_flag | gamma0_hard] |= FLAG_GAMMA_S

    with np.errstate(all="ignore"):
        gamma_g = usable & (np.sqrt(np.maximum(xi, 0.0)) < tol.eps_grad) & (np.abs(lap) > tol.eps_grad)
    flags[gamma_g] |= FLAG_GAMMA_G

    regime = np.zeros(npts, dtype=np.uint8)
    ok = on_branch & finite_rows(w)
    for b in present:  # a demoted branch matches no point here
        code = REGIME_ELLIPTIC if b.elliptic else REGIME_HYPERBOLIC
        regime[ok & (sel == b.index)] = code
    regime[ok & sonic] = REGIME_SONIC
    return w, Q, regime, sel, flags


def _solve(model: DensityModel, d: DriveField, policy: BranchPolicy, points: np.ndarray,
           tol: Optional[Tolerances] = None, grid: Optional[GridSpec] = None) -> tuple:
    """(the FieldSolution at `points`, the DriveBatch it was synthesized from)."""
    tol = tol or Tolerances()
    pts = np.asarray(points, dtype=float)
    batch = drive_batch(d, pts)
    w, Q, regime, sel, flags = _assemble(
        model, policy, tol, pts, batch.a, batch.xi, batch.bad, batch.laplacian_f)
    return FieldSolution(
        grid=grid, model=model, drive=d, policy=policy, tol=tol, points=pts,
        w=w, Q=Q, xi=batch.xi, regime=regime, branch_id=sel, flags=flags,
    ), batch


def synthesize_at_points(model: DensityModel, d: DriveField, policy: BranchPolicy,
                         points: np.ndarray, tol: Optional[Tolerances] = None,
                         grid: Optional[GridSpec] = None) -> FieldSolution:
    return _solve(model, d, policy, points, tol, grid)[0]


def block_rows(npts: int) -> list:
    """Row slices of SYNTH_BLOCK rows that cover `npts` rows in order; one
    slice, the whole (possibly empty) range, when npts <= SYNTH_BLOCK."""
    return [slice(start, start + SYNTH_BLOCK) for start in range(0, max(npts, 1), SYNTH_BLOCK)]


def synthesize(model: DensityModel, d: DriveField, policy: BranchPolicy,
               grid: GridSpec, tol: Optional[Tolerances] = None,
               workers: int = 1) -> FieldSolution:
    """Synthesize on every grid node, one block of SYNTH_BLOCK nodes at a
    time, each written into its rows of one preallocated solution; with
    workers > 1 a thread pool runs the same blocks.  A grid of at most one
    block is one call."""
    if grid.dim != d.dim:
        raise SynthError(f"grid dimension {grid.dim} != drive dimension {d.dim}")
    pts = grid.points()
    npts = pts.shape[0]
    blocks = block_rows(npts)
    if len(blocks) == 1:
        return synthesize_at_points(model, d, policy, pts, tol=tol, grid=grid)
    tol = tol or Tolerances()
    out = FieldSolution(grid=grid, model=model, drive=d, policy=policy, tol=tol, points=pts,
                        w=np.empty((npts, d.dim)), Q=np.empty(npts), xi=np.empty(npts),
                        regime=np.empty(npts, dtype=np.uint8),
                        branch_id=np.empty(npts, dtype=np.int32),
                        flags=np.empty(npts, dtype=np.int32))

    def solve(rows: slice) -> None:
        part = synthesize_at_points(model, d, policy, pts[rows], tol=tol)
        for name in ("w", "Q", "xi", "regime", "branch_id", "flags"):
            getattr(out, name)[rows] = getattr(part, name)

    if workers <= 1:
        for rows in blocks:
            solve(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve, blocks))  # reading every result re-raises a block's error
    return out


def log_rho_gradient(model: DensityModel, Q: np.ndarray, rho_c: np.ndarray,
                     grad_xi: np.ndarray, tol: Tolerances) -> tuple:
    """grad log rho(psi(xi)) = rho' / (rho phi') grad xi, by the chain rule
    through the branch inverse, with the mask of points where the caller's
    rho(Q) and phi'(Q) are finite and clear of their zero tolerances."""
    phi_p = model.phi_prime(Q)
    with np.errstate(all="ignore"):
        glr = (model.rho_prime(Q) / (rho_c * phi_p))[:, None] * grad_xi
    usable = (np.isfinite(rho_c) & (np.abs(rho_c) >= tol.rho_zero)
              & np.isfinite(phi_p) & (np.abs(phi_p) >= tol.eps_phi_prime))
    return glr, usable
