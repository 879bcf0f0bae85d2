"""Finite-difference residuals, convergence fits, and energy quadrature.

The package's one finite-difference core and its one defect routine,
`wedge_defect`, live here and are shared with frobenius.  Every check is
d c = G ^ c (minor systems: the max over i < j of |d_ij - (G_i c_j - G_j c_i)|)
or div c = G . c (divergence systems: |d - G . c|), or closure without G;
`closure_defect` hands it the central differences of c = rho(Q) w, of w with
the witness's G, or of e^(-eta) w, here at second order and in frobenius's
curl gate and eta post-check at fourth.  Nodes without a full stencil of
clean neighbors are masked, never one-sided.  A stencil writes its
differences into its output slice and divides there, and divergence and
curl accumulate in place, in the terms' order.
The mask is exactly the union of singular flags (nonphysical-branch markers
are informational, not singular), the nodes a kernel leaves undefined and the
nodes the verify.mask predicate excludes, dilated by one stencil width, plus
the boundary.
Every residual kind runs its kernels on the slabs of axis-0 rows that
synth.walk cuts a grid into, of about SYNTH_BLOCK nodes each, walked in
order within one band of rows per thread (`_slabs`).  A band reads its rows
once, and HALO rows past each end (`rows_of`), from a solution or from a
synth.Synthesis that has not run (a study's finest level), with their
verify.mask values; synth.stitched hands them out as windows with HALO rows
past each end.  A window writes only its own rows of one residual array and
one mask per kind, so the temporaries are slab-sized, every value is the
whole grid's, bit for bit, for any slab height or worker count, no solution
of the grid is held whole, and the synthesis and the predicate see a node
once, or twice within HALO rows of a seam between bands.
The slab kinds (`slab_residuals`) share one such pass.  The residuals read
no grid points.
A report moves the kept residuals forward within the residual array, in
index order, and reduces over them with numpy sums, so reports are
deterministic.  The codifferential residual hands central differences to
`forms.codifferential` as coefficient gradients, so it applies the forms
module's one sign table (`forms._wedge_sum`) and has none of its own.
The energy density e(Q) is a closed form for the built-in laws and one
vectorized Gauss-Kronrod rule over the gaps between the distinct Q for a custom law.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from . import synth as synthmod
from .density import DensityModel
from .forms import FormValues, codifferential, omega_values
from .synth import FLAG_NONPHYSICAL_RHO, FieldSolution, GridSpec, block_rows, synthesize_at_points

if TYPE_CHECKING:  # frobenius imports this module; the witness is an annotation only
    from .frobenius import FrobeniusWitness


class VerifyError(ValueError):
    pass


class NoUsableCells(VerifyError):
    """No cell centre of the energy quadrature is admitted, unflagged and kept
    by verify.mask: the outcome of a synthesis that admits no point (exit 3)."""


MASK_BITS = ~FLAG_NONPHYSICAL_RHO  # every flag except the physicality marker
ORDER = 2  # the residuals' central differences
HALO = ORDER // 2  # rows a slab reads past each of its ends: the stencil and mask width


@dataclass
class ResidualReport:
    kind: str
    h: float
    max_norm: float
    l2_norm: float
    masked_fraction: float
    convergence: Optional[list] = None  # [(h, max_norm), ...] coarse to fine
    order: Optional[float] = None
    at_floor: bool = False


def interior(ok: np.ndarray, width: int) -> np.ndarray:
    """Nodes of `ok` whose neighbors up to `width` steps along every axis are
    on the grid and in `ok`: where a central stencil of that half-width is clean
    (~ok, padded with True off the grid, shifted up to `width` steps per axis)."""
    bad = np.pad(~ok, width, constant_values=True)
    inner = [slice(width, width + n) for n in ok.shape]
    out = ~ok
    for axis, n in enumerate(ok.shape):
        for step in range(2 * width + 1):
            if step != width:
                out |= bad[(*inner[:axis], slice(step, step + n), *inner[axis + 1:])]
    return ~out


def _excluded(solution, shape: tuple, *bad: Optional[np.ndarray]) -> np.ndarray:
    out = ((solution.flags & MASK_BITS) != 0) | ~solution.defined
    for extra in bad:
        if extra is not None:
            out |= extra
    return ~interior(~out.reshape(shape), 1)


def stencil(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """Central derivative of order 2 or 4 along `axis`; NaN within order/2
    nodes of either end, where the stencil leaves the grid."""
    r = order // 2
    n = values.shape[axis]

    def at(k):  # the nodes k steps along the axis from each interior node
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(r + k, max(n - r + k, 0))
        return tuple(sl)

    out = np.full_like(values, np.nan)
    inner = out[at(0)]
    # written into the output slice in the terms' order, one product temporary
    if order == 2:
        np.subtract(values[at(1)], values[at(-1)], out=inner)
        inner /= 2.0 * h
    elif order == 4:
        np.negative(values[at(2)], out=inner)
        term = np.multiply(values[at(1)], 8.0)
        inner += term
        np.multiply(values[at(-1)], 8.0, out=term)
        inner -= term
        inner += values[at(-2)]
        inner /= 12.0 * h
    else:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    return out


def wedge(u: np.ndarray, v: np.ndarray, i: int, j: int) -> np.ndarray:
    """(u ^ v)_ij = u_i v_j - u_j v_i, for u and v with one row per point."""
    return u[:, i] * v[:, j] - u[:, j] * v[:, i]


def wedge_defect(system: str, d: Callable, G: Optional[np.ndarray], w: np.ndarray) -> np.ndarray:
    """The defect of d = G ^ w per point: the max over i < j of
    |d(i, j) - (G ^ w)_ij| for a minor system, |d() - G . w| for a
    divergence system, |d| where G is None; NaN where a term is.  G and w
    hold one row per point; d's arrays are fresh, and written in place."""
    with np.errstate(all="ignore"):
        if system == "divergence":
            out = d()
            if G is not None:
                out -= np.einsum("ni,ni->n", G, w).reshape(out.shape)
            return np.abs(out, out=out)
        if system == "minor":
            out = 0.0
            for i, j in zip(*np.triu_indices(w.shape[1], 1)):
                dij = d(i, j)
                if G is not None:
                    dij -= wedge(G, w, i, j).reshape(dij.shape)
                out = np.maximum(out, np.abs(dij, out=dij), out=dij)
            return out
    raise VerifyError(f"unknown system kind {system!r}")


def integrating_factor(eta: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):  # e^(-eta) scales w to a closed field
        return np.exp(-eta)


def closure_defect(w: np.ndarray, shape: tuple, system: str, h, order: int,
                   scale: Optional[np.ndarray] = None, G: Optional[np.ndarray] = None) -> np.ndarray:
    """wedge_defect of the central differences of c = scale w (w where scale
    is None) on a grid of `shape`: d_i c_j - d_j c_i for a minor system, the
    sum of d_i c_i for a divergence system.  w, scale and G hold one row per
    node; the result is grid-shaped, NaN where a stencil is missing."""
    with np.errstate(all="ignore"):
        c = [(col if scale is None else scale * col).reshape(shape) for col in w.T]

    def d(*pair):  # d_i c_j - d_j c_i, or the sum of d_i c_i
        if not pair:
            out = stencil(c[0], 0, h[0], order)
            for i in range(1, len(c)):
                out += stencil(c[i], i, h[i], order)
            return out
        i, j = pair
        out = stencil(c[j], i, h[i], order)
        out -= stencil(c[i], j, h[j], order)
        return out
    return wedge_defect(system, d, G, w)


def _report(kind: str, grid: GridSpec, residual: np.ndarray, excluded: np.ndarray) -> ResidualReport:
    """Norms of the finite residuals at nodes not excluded, moved forward in
    order, a block at a time, into the first entries of `residual` (overwritten)."""
    flat, excluded, n_keep = residual.reshape(-1), excluded.reshape(-1), 0
    for rows in block_rows(flat.size):
        kept = flat[rows][~excluded[rows] & np.isfinite(flat[rows])]
        flat[n_keep:n_keep + kept.size] = kept
        n_keep += kept.size
    if n_keep < 3:
        raise VerifyError(f"{kind}: fewer than 3 unmasked interior points")
    vals = flat[:n_keep]
    max_norm = float(vals.max())
    return ResidualReport(
        kind=kind,
        h=float(np.max(grid.spacing())),
        max_norm=max_norm,
        l2_norm=float(np.sqrt(np.mean(np.square(vals, out=vals)))),
        masked_fraction=float(1.0 - n_keep / residual.size),
    )


def _grid_of(source) -> GridSpec:
    if source.grid is None:
        raise VerifyError("solution is not grid-backed")
    return source.grid


def rows_of(source, row: int, lo: int, hi: int) -> FieldSolution:
    """`source` on axis-0 rows lo to hi - 1, as a solution without a grid:
    views of a FieldSolution's rows, or a Synthesis's rows synthesized at
    most SYNTH_BLOCK nodes a synthesize_at_points call, each written into
    one new solution as it comes (the rows of one block are its solution)."""
    if isinstance(source, FieldSolution):
        return source.restricted(slice(lo * row, hi * row))
    blocks = block_rows((hi - lo) * row)
    part = source.allocate((hi - lo) * row) if len(blocks) > 1 else None
    for rows in blocks:
        block = synthesize_at_points(source.model, source.drive, source.policy, source.grid.nodes(
            lo * row + rows.start, lo * row + rows.stop), tol=source.tol)
        if part is None:
            return block
        part.fill(rows.start, block)
    return part


def _slabs(source, kernels: Sequence[Callable], workers: int, mask: Optional[Callable] = None,
           visit: Optional[Callable] = None) -> list:
    """(residual, excluded) grid arrays of each kernel over slabs of axis-0
    rows of `source`, a FieldSolution or a Synthesis (see rows_of).

    The rows are cut into synth.walk's bands, one per thread.  A band reads
    each row of its slabs once, in order, and HALO rows past each end
    (rows_of), with the predicate `mask` (False where a node is excluded,
    as verify.mask) on them as one more array; synth.stitched hands them
    out as windows with HALO rows on each side.  With no kernel the halo is
    0 and no mask is evaluated.  `kernel(part, nodes, shape)` returns the
    residual on a window's rows and the nodes it leaves undefined (or
    None): `part` is the source on the flat nodes `nodes`, of grid shape
    `shape`.  A window keeps its own rows of each, so every residual and
    mask bit is the whole grid's for any slab height or worker count.
    visit(top, end, part) sees every window's own rows as `part`."""
    grid = _grid_of(source)
    shape = grid.shape()
    row, halo = math.prod(shape[1:]), HALO if kernels else 0
    mask, outs = mask if kernels else None, [(np.empty(shape), np.empty(shape, dtype=bool))
                                             for _ in kernels]

    def chunk(lo: int, hi: int) -> tuple:
        part = rows_of(source, row, lo, hi)
        kept = [] if mask is None else [np.asarray(mask(grid.nodes(lo * row, hi * row)), bool)]
        return lo, hi, [getattr(part, name) for name in synthmod.ROW_ARRAYS] + kept

    def window(top: int, end: int, lo: int, first: int, last: int, arrays: list) -> None:
        # stitched counts the grid's edge rows as any band's own: keep the band's
        first, last, hi = max(first, top), min(last, end), lo + len(arrays[0]) // row
        nodes, sub, own = slice(lo * row, hi * row), (hi - lo,) + shape[1:], slice(
            first - lo, last - lo)
        part = FieldSolution(None, source.model, source.drive, source.policy, source.tol,
                             *arrays[:len(synthmod.ROW_ARRAYS)])
        masked = None if mask is None else ~arrays[-1]
        for kernel, (residual, excluded) in zip(kernels, outs):
            values, bad = kernel(part, nodes, sub)
            residual[first:last] = values[own]
            excluded[first:last] = _excluded(part, sub, bad, masked)[own]
        if visit is not None and first < last:
            visit(first, last, part.restricted(slice((first - lo) * row, (last - lo) * row)))

    def band(slabs: list) -> None:
        (top, _), (_, end) = slabs[0], slabs[-1]
        cuts = [max(top - halo, 0)] + [stop for _, stop in slabs[:-1]] + [min(end + halo, shape[0])]
        # starmap keeps no window while the next is read, so a band holds one
        deque(itertools.starmap(functools.partial(window, top, end), synthmod.stitched(
            (chunk(a, b) for a, b in zip(cuts, cuts[1:])), shape[0], row, halo)), maxlen=0)

    synthmod.walk(grid, workers, band)
    return outs


def _codifferential_kernel(h) -> Callable:
    def kernel(part, nodes, shape):
        omega, rho_c = omega_values(part), part.model.rho(part.Q)
        with np.errstate(all="ignore"):
            coeffs = {key: rho_c * vals for key, vals in omega.coeffs.items()}
        grads = {key: np.stack([stencil(vals.reshape(shape), i, h[i], ORDER).reshape(-1)
                                for i in range(omega.n)], axis=1)
                 for key, vals in coeffs.items()}
        delta = codifferential(FormValues(n=omega.n, k=omega.k, coeffs=coeffs, grads=grads,
                                          bad=omega.bad))
        worst = np.zeros(shape)
        for vals in delta.coeffs.values():
            worst = np.maximum(worst, np.abs(vals.reshape(shape)))
        return worst, None
    return kernel


# The residual kinds whose kernel reads only its own slab of the solution:
# kind -> (report kind, kernel(h) for grid spacing h).
SLAB_KINDS = {
    "divergence": ("DivergenceOfRhoW", lambda h: lambda part, nodes, shape: (
        closure_defect(part.w, shape, "divergence", h, ORDER, part.model.rho(part.Q)), None)),
    "minor": ("MinorSystemOfRhoW", lambda h: lambda part, nodes, shape: (
        closure_defect(part.w, shape, "minor", h, ORDER, part.model.rho(part.Q)), None)),
    "codifferential": ("CodifferentialDefect", _codifferential_kernel),
}


def _residual(kind: str, solution: FieldSolution, kernel: Callable, workers: int,
              mask: Optional[Callable]) -> ResidualReport:
    (residual, excluded), = _slabs(solution, [kernel], workers, mask)
    return _report(kind, _grid_of(solution), residual, excluded)


def slab_residuals(source, kinds: Sequence[str], workers: int, mask: Optional[Callable] = None,
                   visit: Optional[Callable] = None) -> dict:
    """kind -> a callable that returns its ResidualReport on source.grid, for
    every SLAB_KINDS kind of `kinds`, from one pass of _slabs over `source`, a
    FieldSolution or a Synthesis, which is then synthesized slab by slab and
    never held whole.  The reports are made, and a VerifyError raised, only
    when called."""
    grid = _grid_of(source)
    named = [SLAB_KINDS[kind] for kind in kinds]
    outs = _slabs(source, [kernel(grid.spacing()) for _, kernel in named], workers, mask, visit)
    return {kind: functools.partial(_report, name, grid, *out)
            for kind, (name, _), out in zip(kinds, named, outs)}


def divergence_residual(solution: FieldSolution, *, workers: int = 1,
                        mask: Optional[Callable] = None) -> ResidualReport:
    """Central-difference divergence of rho(Q) w, rho the solution's model."""
    return slab_residuals(solution, ["divergence"], workers, mask)["divergence"]()


def minor_residual(solution: FieldSolution, *, workers: int = 1,
                   mask: Optional[Callable] = None) -> ResidualReport:
    """Max 2x2 minor |d_i(rho w_j) - d_j(rho w_i)| by central differences."""
    return slab_residuals(solution, ["minor"], workers, mask)["minor"]()


def codifferential_residual(fsol: FieldSolution, *, workers: int = 1,
                            mask: Optional[Callable] = None) -> ResidualReport:
    """Codifferential of rho(Q) omega, coefficientwise, for a form synthesis:
    forms.codifferential with central-difference coefficient gradients."""
    return slab_residuals(fsol, ["codifferential"], workers, mask)["codifferential"]()


def frobenius_residual(solution: FieldSolution, witness: FrobeniusWitness, *,
                       workers: int = 1, mask: Optional[Callable] = None) -> ResidualReport:
    """Frobenius defect with finite-difference derivatives of w and the
    witness's G: minor systems compare curls, divergence systems divergences."""
    h = _grid_of(solution).spacing()
    if witness.G.shape[0] != solution.w.shape[0]:
        raise VerifyError("witness and solution are not aligned on the same points")

    def kernel(part, nodes, shape):
        return (closure_defect(part.w, shape, witness.kind, h, ORDER, G=witness.G[nodes]),
                ~witness.defined[nodes])

    return _residual("FrobeniusDefect", solution, kernel, workers, mask)


def exactness_residual(solution: FieldSolution, eta: np.ndarray, system: str = "minor", *,
                       workers: int = 1, mask: Optional[Callable] = None) -> ResidualReport:
    """Closure of the rescaled field: curl of e^(-eta) w for minor systems,
    divergence of e^(-eta) w for divergence systems."""
    grid = _grid_of(solution)
    eta = np.asarray(eta, dtype=float).reshape(grid.npoints())
    h = grid.spacing()

    def kernel(part, nodes, shape):
        return (closure_defect(part.w, shape, system, h, ORDER, integrating_factor(eta[nodes])),
                ~np.isfinite(eta[nodes]))

    return _residual("ExactnessDefect", solution, kernel, workers, mask)


# ---------------------------------------------------------------------------
# convergence studies

FLOOR = 1e-11  # below this the scheme error has hit rounding; no order is fit


def fit_order(levels: Sequence[tuple]) -> tuple:
    """Least-squares slope of log max_norm against log h; (order, at_floor).

    An order is fit only when every level is at or above FLOOR, and at_floor
    holds only when every level is below it; levels on both sides of the
    floor give (None, False)."""
    hs = np.array([lv[0] for lv in levels], dtype=float)
    ms = np.array([lv[1] for lv in levels], dtype=float)
    if len(levels) < 3:
        raise VerifyError("order fit needs at least 3 grid levels")
    if np.all(ms < FLOOR):
        return None, True
    if np.any(ms < FLOOR):
        return None, False
    slope = np.polyfit(np.log(hs), np.log(ms), 1)[0]
    return float(slope), False


def convergence_study(make_report: Callable[[GridSpec], ResidualReport],
                      grids: Sequence[GridSpec]) -> ResidualReport:
    """A new report: the finest grid's (grids coarse to fine), with the fitted order."""
    reports = [make_report(g) for g in grids]
    levels = [(r.h, r.max_norm) for r in reports]
    order, at_floor = fit_order(levels)
    return replace(reports[-1], convergence=levels, order=order, at_floor=at_floor)


# ---------------------------------------------------------------------------
# energy


# QUADPACK's 15-point Gauss-Kronrod pair (qk15) on [-1, 1], rounded to float64:
# the Kronrod nodes x >= 0, the K15 weights and the G7 weights at x[1::2]
_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0, 0.1294849661688697, 0, 0.27970539148927664, 0, 0.3818300505051189, 0, 0.4179591836734694)
GK_NODES = np.concatenate((np.negative(_X[:7]), _X[::-1]))
GK_WEIGHTS = np.array([np.concatenate((w[:7], w[::-1])) for w in (_WK, _WG)])  # rows sum to 2.0
GK_TOL = 1e-14  # relative |K15 - G7| above which a piece is halved
GK_PASSES = 32  # halving passes
GK_MIN_SPLITS = 64  # pass p halves at most max(GK_MIN_SPLITS, gaps / 2^p) pieces


def _gk15(rho, a: np.ndarray, b: np.ndarray):
    """K15 of rho on each [a, b] and |K15 - G7|, at most SYNTH_BLOCK intervals a call."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    kg = np.empty((a.size, 2))
    for rows in block_rows(a.size):
        f = rho(c[rows, None] + h[rows, None] * GK_NODES)
        kg[rows] = h[rows, None] * (f[:, None, :] * GK_WEIGHTS).sum(axis=2)
    kg[h == 0.0] = 0.0  # an empty interval, even where rho is undefined
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _integrals(rho, floor: float, xs: np.ndarray) -> np.ndarray:
    """Integral of rho from `floor` to each sorted xs >= floor: GK15 on every gap,
    pieces halved while |K15 - G7| is above tolerance (largest error first, at
    most 2 len(xs) + GK_MIN_SPLITS GK_PASSES of them, never a non-finite one)."""
    a, b, gap = np.concatenate(([floor], xs[:-1])), xs.copy(), np.arange(xs.size)
    k, err = _gk15(rho, a, b)
    for p in range(GK_PASSES):
        # relative to |rho| integrated up to the piece's gap (NaN compares false)
        scale = np.cumsum(np.bincount(gap, weights=np.abs(k), minlength=xs.size))
        split = np.flatnonzero(err > GK_TOL * scale[gap])
        if split.size == 0:
            break
        split = split[np.argsort(-err[split], kind="stable")[:max(GK_MIN_SPLITS, xs.size >> p)]]
        m, hi = 0.5 * (a[split] + b[split]), b[split]
        ks, es = _gk15(rho, np.append(a[split], m), np.append(m, hi))
        b[split], k[split], err[split] = m, ks[:split.size], es[:split.size]
        a, b, gap = np.append(a, m), np.append(b, hi), np.append(gap, gap[split])
        k, err = np.append(k, ks[split.size:]), np.append(err, es[split.size:])
    return np.cumsum(np.bincount(gap, weights=k, minlength=xs.size))


def energy_density(model: DensityModel, Q: np.ndarray) -> np.ndarray:
    """e(Q) = (1/2) * integral of rho from the domain floor to Q.  A custom law's
    e is NaN below the floor and from the first gap where rho is undefined on."""
    Q, kind = np.asarray(Q, dtype=float), model.kind
    with np.errstate(all="ignore"):
        if kind == "shallow_water":
            return (Q - Q ** 2 / 4.0) / 2.0
        if kind in ("extremal", "born_infeld"):
            return np.where(Q <= 1.0, 1.0 - np.sqrt(np.maximum(1.0 - Q, 0.0)),
                            1.0 + np.sqrt(np.maximum(Q - 1.0, 0.0)))
        if kind == "caustic":  # the integral of sqrt(|s^2 - tau^2|) for s from 0 to sqrt(Q)
            tau, u = float(model.params["tau"]), np.sqrt(np.maximum(Q, 0.0))
            t2, r, v = tau * tau, np.sqrt(np.abs((u - tau) * (u + tau))), u / tau
            inside = 0.5 * (u * r + t2 * np.arcsin(np.minimum(v, 1.0)))
            outside = 0.25 * np.pi * t2 + 0.5 * (u * r - t2 * np.arccosh(np.maximum(v, 1.0)))
            return np.where(u <= tau, inside, outside)
        floor = model.q_domain[0].lo  # a custom law's one interval, from q_min >= 0
        out = np.full(Q.shape, np.nan)
        ok = np.isfinite(Q) & (Q >= floor)
        if ok.any():
            xs, where = np.unique(Q[ok], return_inverse=True)
            out[ok] = 0.5 * _integrals(model.rho, floor, xs)[where]
    return out


def energy(solution, mask: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Midpoint quadrature of e(Q) over cells; the field is re-synthesized at
    cell centers, gathered from the axes' midpoints SYNTH_BLOCK at a time, and
    cells whose center is flagged or excluded contribute 0.  Only the grid
    and the synthesis settings of `solution` (its model among them), a
    FieldSolution or a Synthesis, are read.  A non-finite e(Q) is refused,
    naming the gap of Q where rho is undefined."""
    grid, model = _grid_of(solution), solution.model
    mids = [0.5 * (ax[1:] + ax[:-1]) for ax in grid.axes()]
    kept = []
    for rows in block_rows(math.prod(grid.cells)):
        cell = np.unravel_index(np.arange(rows.start, rows.stop), grid.cells)
        centers = np.stack([mid[i] for mid, i in zip(mids, cell)], axis=1)
        cs = synthesize_at_points(model, solution.drive, solution.policy, centers, tol=solution.tol)
        keep = ((cs.flags & MASK_BITS) == 0) & (cs.branch_id != 0) & np.isfinite(cs.Q)
        if mask is not None:
            keep &= np.asarray(mask(centers), dtype=bool)
        kept.append(cs.Q[keep])
    qvals = np.concatenate(kept)
    if not qvals.size:
        raise NoUsableCells("no usable cells: no cell centre is admitted, unflagged and kept by "
                            "verify.mask")
    if not model.in_domain(qvals).all():
        raise VerifyError("quadrature hit Q outside the density domain")
    e = energy_density(model, qvals)
    finite = np.isfinite(e)
    if not finite.all():
        lo = qvals[finite].max() if finite.any() else model.q_domain[0].lo
        raise VerifyError(f"the energy is not finite: rho is undefined or not integrable "
                          f"somewhere in Q in [{lo:.6g}, {qvals[~finite].min():.6g}]")
    return float(np.sum(e) * float(np.prod(grid.spacing())))
