"""Field synthesis: per point, pick a branch, invert phi, scale the drive.

w = a / rho(psi(|a|^2)) wherever rho is usable; where rho(psi) degenerates with
psi -> 0 the alternate form w = (a/|a|) sqrt(psi) takes over (and yields w = 0
in the limit).  Every point carries a regime label, the branch used, and a
bitset of singular/admissibility flags.  No point's values depend on another
point, so a solution's every 2^j-th node per axis is the solution on the grid
2^j times coarser.  A grid node is lo + i·h with a normal spacing h, so
refining a grid by a power of two keeps every node bit for bit.  A k-form is
synthesized the same way: its drive is a forms.FormDrive, whose a (and w) has
C(n, k) columns.

For the same reason a grid can be cut anywhere.  It is cut one way: its
axis-0 rows into slabs of about SYNTH_BLOCK nodes (slabs), and for threads
into equal bands of slabs (walk).  A stencil over a stream of slabs reads
`halo` rows past each seam, and one routine carries them (stitched), copying
only the rows that two windows share: every temporary is slab-sized, and
the bytes do not depend on the worker count.  A block builds only its own
nodes (GridSpec.nodes), so no (N, n) array of all the nodes is built; a
solution read off a grid builds its `points` from its grid the first time
they are read.  A Synthesis is what synthesize is given, not yet run: verify
and the CSV commands synthesize one a slab of rows at a time.

w needs only the drive a, the first derivatives of its potential, so
synthesis builds first-order drive jets (drive_batch(..., order=1)) and
evaluates again at full order only two kinds of points (_solve): those the
first-order pass leaves undefined, since order 1 refuses every zero under a
sqrt or a power 0 < p < 2 and only the Hessian tells whether such a zero
moves; and those with sqrt(xi) < tol.eps_grad, where the gamma_g flag reads
the Laplacian.  Every other value is the full order's bit for bit, so the
solution is the full-order one, except at a point whose drive Hessian alone
is not finite: synthesis keeps it, and the witnesses, which read that
Hessian, leave it undefined.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import expr as exprmod
from .density import DensityModel, PhiBranch, phi_prime_of
from .drive import DriveField, coord_names, drive_batch


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
        return self.nodes(0, self.npoints())

    def nodes(self, start: int, stop: int) -> np.ndarray:
        """Nodes start to stop - 1 of points(), bit for bit: each axis's values
        broadcast into one array over only the first-axis rows they lie in."""
        shape, dim = self.shape(), self.dim
        row = self.npoints() // shape[0]
        first, last = start // row, -(-stop // row)
        out = np.empty((last - first,) + shape[1:] + (dim,))
        for i, ax in enumerate(self.axes()):
            out[..., i] = (ax[first:last] if i == 0 else ax).reshape(
                [-1 if j == i else 1 for j in range(dim)])
        return out.reshape(-1, dim)[start - first * row:stop - first * row]

    def npoints(self) -> int:
        return int(np.prod(self.shape()))


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


def prefer_type1(allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="prefer_type1", allow_nonphysical=allow_nonphysical)


def prefer_type2(allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="prefer_type2", allow_nonphysical=allow_nonphysical)


def single_branch(branch_id: int, allow_nonphysical: bool = False) -> BranchPolicy:
    return BranchPolicy(mode="single_branch", branch_id=int(branch_id), allow_nonphysical=allow_nonphysical)


def region_map(regions, default_id: int, dim: int = 2,
               allow_nonphysical: bool = False) -> BranchPolicy:
    """Each point takes the branch of the first of `regions`' (predicate, id)
    positive there, else default_id; a predicate reads drive.coord_names(dim)."""
    parsed = tuple((pred if isinstance(pred, exprmod.Expression)
                    else exprmod.parse(pred, coord_names(dim)), int(bid)) for pred, bid in regions)
    return BranchPolicy(mode="region_map", regions=parsed, default_id=int(default_id),
                        allow_nonphysical=allow_nonphysical)


# the per-node arrays of a FieldSolution, one row per node
ROW_ARRAYS = ("w", "Q", "xi", "regime", "branch_id", "flags")


@dataclass(eq=False)
class FieldSolution:
    grid: Optional[GridSpec]
    model: DensityModel
    drive: DriveField  # or a forms.FormDrive for a k-form
    policy: BranchPolicy
    tol: Tolerances
    w: np.ndarray  # (N, n), (N, C(n, k)) for a k-form; NaN rows where undefined
    Q: np.ndarray  # (N,)
    xi: np.ndarray  # (N,)
    regime: np.ndarray  # (N,) uint8 codes into REGIME_NAMES
    branch_id: np.ndarray  # (N,) int32, 0 = no branch
    flags: np.ndarray  # (N,) int32 bitset
    # the (N, n) points it was synthesized at; None on a solution read off a
    # grid, whose `points` are built from the grid on first read
    _points: Optional[np.ndarray] = field(default=None, kw_only=True, repr=False)

    @property
    def points(self) -> np.ndarray:
        """(N, n) points; a grid-backed solution without them builds them from
        its grid the first time they are read and keeps them."""
        if self._points is None:
            self._points = self.grid.points()
        return self._points

    @property
    def defined(self) -> np.ndarray:
        return finite_rows(self.w)

    def restricted(self, rows: slice) -> "FieldSolution":
        """Views of this solution's rows `rows`, as a solution on no grid."""
        return replace(self, grid=None, _points=None,
                       **{name: getattr(self, name)[rows] for name in ROW_ARRAYS})

    def fill(self, start: int, part: "FieldSolution") -> None:
        """Write the rows of `part` into this solution's, from row `start` on."""
        for name in ROW_ARRAYS:
            getattr(self, name)[start:start + len(part.Q)] = getattr(part, name)


@dataclass(frozen=True, eq=False)
class Synthesis:
    """A synthesis on `grid` that has not run: what synthesize is given."""
    grid: GridSpec
    model: DensityModel
    drive: DriveField  # or a forms.FormDrive
    policy: BranchPolicy
    tol: Tolerances

    def __post_init__(self):
        if self.grid.dim != self.drive.dim:
            raise SynthError(f"grid dimension {self.grid.dim} != drive dimension {self.drive.dim}")

    def allocate(self, n: int, grid: Optional[GridSpec] = None) -> FieldSolution:
        """An unwritten solution of n nodes (on `grid`), whose rows the caller fills."""
        columns = getattr(self.drive, "columns", self.drive.dim)  # C(n, k) for a forms.FormDrive
        return FieldSolution(grid=grid, model=self.model, drive=self.drive, policy=self.policy,
                             tol=self.tol, w=np.empty((n, columns)), Q=np.empty(n),
                             xi=np.empty(n), regime=np.empty(n, dtype=np.uint8),
                             branch_id=np.empty(n, dtype=np.int32),
                             flags=np.empty(n, dtype=np.int32))


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


def _candidates(model: DensityModel, policy: BranchPolicy, pts: np.ndarray, n: int) -> list:
    """(branch, lanes) in the order the policy tries them on the n points `pts`,
    lanes the mask of points the branch may take or None for all: prefer_type*
    the admitted branches, the preferred type first; single_branch its one;
    region_map each id its regions choose, on the points that chose it."""
    if policy.mode in ("prefer_type1", "prefer_type2"):
        admitted = [b for b in model.branches() if policy.allow_nonphysical or not b.nonphysical]
        want = policy.mode == "prefer_type1"
        return [(b, None) for b in sorted(admitted, key=lambda b: b.elliptic != want)]
    if policy.mode == "single_branch":
        if policy.branch_id is None:
            raise SynthError("single_branch policy needs a branch_id")
        return [(_resolve_branch(model, policy, policy.branch_id), None)]
    if policy.mode == "region_map":
        if policy.default_id is None:
            raise SynthError("region_map policy needs a default branch id")
        _resolve_branch(model, policy, policy.default_id)
        choice = np.full(n, policy.default_id, dtype=np.int32)
        assigned = np.zeros(n, dtype=bool)
        for pred, bid in policy.regions:
            _resolve_branch(model, policy, bid)
            m = ~assigned & (exprmod.eval_values(pred, pts) > 0.0)
            choice[m] = bid
            assigned |= m
        return [(_resolve_branch(model, policy, int(bid)), choice == bid)
                for bid in np.unique(choice)]
    raise SynthError(f"unknown policy mode {policy.mode!r}")


def _select_branches(model: DensityModel, policy: BranchPolicy, pts: np.ndarray,
                     xi: np.ndarray, usable: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Pick a branch index per point (0 = none admitted): each usable point
    takes the first of _candidates' branches that admits its xi on its lanes."""
    sel = np.zeros(xi.shape[0], dtype=np.int32)
    for b, lanes in _candidates(model, policy, pts, xi.shape[0]):
        take = usable & (sel == 0) & b.admits(xi, _branch_snap(b, tol))
        if lanes is not None:
            take &= lanes
        sel[take] = b.index
    return sel


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
    rho_c, rho_p = model.rho_and_prime(Q)
    phi_p = phi_prime_of(Q, rho_c, rho_p)
    del rho_p  # not read again: freed before the block's w is built

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
           tol: Optional[Tolerances] = None, order: int = 1) -> tuple:
    """(the FieldSolution at `points`, the DriveBatch it was synthesized from).
    Order 2 builds the batch at full order, for a caller that reads its
    Jacobian.  Order 1 builds a first-order batch and re-evaluates at full
    order only the rows whose values can differ: those it leaves undefined,
    where a full-order zero test may still define them, and those with
    sqrt(xi) < tol.eps_grad, the only rows whose laplacian_f _assemble reads."""
    tol = tol or Tolerances()
    pts = np.asarray(points, dtype=float)
    batch = drive_batch(d, pts, order)
    if order < 2:
        redo = np.flatnonzero(batch.bad | (np.sqrt(np.maximum(batch.xi, 0.0)) < tol.eps_grad))
        if redo.size:
            full = drive_batch(d, pts[redo], 2)
            for name in ("a", "xi", "laplacian_f", "bad"):
                getattr(batch, name)[redo] = getattr(full, name)
    w, Q, regime, sel, flags = _assemble(
        model, policy, tol, pts, batch.a, batch.xi, batch.bad, batch.laplacian_f)
    return FieldSolution(
        grid=None, model=model, drive=d, policy=policy, tol=tol, _points=pts,
        w=w, Q=Q, xi=batch.xi, regime=regime, branch_id=sel, flags=flags,
    ), batch


def synthesize_at_points(model: DensityModel, d: DriveField, policy: BranchPolicy,
                         points: np.ndarray, tol: Optional[Tolerances] = None) -> FieldSolution:
    """The solution at (N, n) `points`, on no grid (synthesize makes one on a grid)."""
    return _solve(model, d, policy, points, tol)[0]


def block_rows(npts: int, size: int = 0) -> list:
    """Row slices of `size` rows (SYNTH_BLOCK for 0) that cover `npts` rows
    of a point set in order, the last one ending at npts; one slice, the
    whole (possibly empty) range, when npts <= size.  A grid is cut by slabs."""
    size = size or SYNTH_BLOCK
    return [slice(start, min(start + size, npts)) for start in range(0, max(npts, 1), size)]


def slabs(grid: GridSpec, start: int = 0, end: Optional[int] = None) -> list:
    """(top, end) of each slab of about SYNTH_BLOCK nodes, and at least one
    row, of `grid`'s axis-0 rows start to end - 1 (all for None), in order."""
    rows = grid.shape()[0]
    height = max(1, SYNTH_BLOCK // (grid.npoints() // rows))
    end = rows if end is None else end
    return [(top, min(top + height, end)) for top in range(start, end, height)]


def walk(grid: GridSpec, workers: int, band: Callable[[list], None]) -> None:
    """band(slabs) for each band of `grid`'s axis-0 rows: the one partition
    of a grid.  The rows are cut into min(workers, blocks of SYNTH_BLOCK
    nodes, rows) bands of equal height (one for workers < 1, as for 1), and
    each band is handed its slabs, in order.  More than one band runs on a
    thread pool, one band a thread (ordered): a band's error is re-raised,
    and a thread that cannot start raises MemoryError."""
    rows, npts = grid.shape()[0], grid.npoints()
    bands = min(max(workers, 1), -(-npts // SYNTH_BLOCK), rows)
    cuts = [rows * b // bands for b in range(bands + 1)]
    own = [slabs(grid, start, end) for start, end in zip(cuts, cuts[1:])]
    deque(ordered(band, own, bands), maxlen=0)  # every band's thread starts first


def stitched(chunks: Iterable[tuple], rows: int, row: int, halo: int) -> Iterator[tuple]:
    """(lo, first, last, arrays) windows from `chunks` of (top, end, arrays)
    on consecutive axis-0 rows of a grid of `rows` rows, `row` array entries
    a row: rows first to last - 1 are handed out, each once and in order, in
    `arrays` of rows lo = max(first - halo, 0) to min(last + halo, rows) - 1.
    The stream's own first and last `halo` rows are only read, unless they
    are the grid's edge.  A window is handed out once its chunks are in, and
    only the rows that the next one shares are copied (none for a halo of
    0: a chunk is its window), so no chunk is held past the next."""
    lo = first = None
    for top, end, arrays in chunks:
        if lo is None:
            lo, first = top, top if top == 0 else top + halo
        held = list(arrays) if lo == top else [np.concatenate(pair) for pair in zip(held, arrays)]
        del arrays  # held has them
        last = end if end == rows else end - halo
        if last > first:
            yield lo, first, last, held
            keep = max(last - halo, lo)
            held = [h[(keep - lo) * row:].copy() for h in held]
            lo, first = keep, last


def ordered(work: Callable, items: list, workers: int):
    """work(item) for each of `items`, yielded in order; with more than one
    worker on a thread pool, at most `workers` items alive, the one being
    read among them.  A thread that cannot start raises MemoryError."""
    if workers <= 1 or len(items) <= 1:
        yield from map(work, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for item in items:
            if len(ahead) == workers:
                yield ahead.popleft().result()
            try:
                ahead.append(pool.submit(work, item))
            except RuntimeError as exc:  # a thread that could not start
                raise MemoryError(str(exc)) from exc
        while ahead:
            yield ahead.popleft().result()


def synthesize(model: DensityModel, d: DriveField, policy: BranchPolicy,
               grid: GridSpec, tol: Optional[Tolerances] = None) -> FieldSolution:
    """Synthesize on every grid node, in order on the calling thread, a block
    of SYNTH_BLOCK nodes a synthesize_at_points call, each written into its
    rows of one preallocated solution.  A block builds only its own nodes
    (GridSpec.nodes); grid.points() is not built here, and the solution
    builds its points on first read."""
    tol = tol or Tolerances()
    out = Synthesis(grid, model, d, policy, tol).allocate(grid.npoints(), grid)
    for rows in block_rows(grid.npoints()):
        out.fill(rows.start, synthesize_at_points(model, d, policy,
                                                  grid.nodes(rows.start, rows.stop), tol=tol))
    return out


def log_rho_gradient(model: DensityModel, Q: np.ndarray, grad_xi: np.ndarray,
                     tol: Tolerances) -> tuple:
    """(rho(Q), grad log rho(psi(xi)), usable): the gradient is rho' / (rho
    phi') grad xi, by the chain rule through the branch inverse, and usable
    the mask of points where rho(Q) and phi'(Q) are finite and clear of their
    zero tolerances.  rho and rho' come from one model.rho_and_prime call."""
    rho_c, rho_p = model.rho_and_prime(Q)
    phi_p = phi_prime_of(Q, rho_c, rho_p)
    with np.errstate(all="ignore"):
        glr = (rho_p / (rho_c * phi_p))[:, None] * grad_xi
    usable = (np.isfinite(rho_c) & (np.abs(rho_c) >= tol.rho_zero)
              & np.isfinite(phi_p) & (np.abs(phi_p) >= tol.eps_phi_prime))
    return rho_c, glr, usable
