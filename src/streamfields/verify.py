"""Finite-difference residuals, convergence fits, and energy quadrature.

The package's one finite-difference core lives here (`stencil`, `curl_max`,
`divergence`, `closure_residual`, `interior`) and is shared with frobenius.
The residuals here use second-order central differences on the uniform grid;
frobenius uses fourth order for its conservative curl gate and eta post-check.
Nodes without a full stencil of clean neighbors are masked, never one-sided.
A stencil writes its differences into its output slice and divides there,
and divergence and curl accumulate in place, in the terms' order; rho w is
built one contiguous component at a time.
The mask is exactly the union of singular flags (nonphysical-branch markers
are informational, not singular) and every residual's `extra_bad` nodes,
dilated by one stencil width, plus the boundary.  Reductions are numpy sums
in fixed index order, so reports are deterministic.  The codifferential
residual hands central differences to `forms.codifferential` as coefficient
gradients, so it applies the forms module's one sign table
(`forms._wedge_sum`) and has none of its own.
The energy density e(Q) is a closed form for the built-in laws and one
vectorized Gauss-Kronrod rule over the gaps between the distinct Q for a custom law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .density import DensityModel
from .forms import FormSolution, FormValues, codifferential
from .synth import (FLAG_NONPHYSICAL_RHO, FieldSolution, GridSpec, block_rows,
                    synthesize_at_points)

if TYPE_CHECKING:  # frobenius imports this module; the witness is an annotation only
    from .frobenius import FrobeniusWitness


class VerifyError(ValueError):
    pass


MASK_BITS = ~FLAG_NONPHYSICAL_RHO  # every flag except the physicality marker


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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h,
            "max_norm": self.max_norm,
            "l2_norm": self.l2_norm,
            "masked_fraction": self.masked_fraction,
            "order": self.order,
            "convergence": [list(lv) for lv in self.convergence] if self.convergence else None,
            "at_floor": self.at_floor,
        }


def _dilate(mask: np.ndarray, width: int) -> np.ndarray:
    """Grow the excluded set by `width` nodes along each axis."""
    out = mask.copy()
    for axis in range(mask.ndim):
        for step in range(1, width + 1):
            for sgn in (1, -1):
                rolled = np.roll(mask, sgn * step, axis=axis)
                sl = [slice(None)] * mask.ndim
                sl[axis] = slice(0, step) if sgn > 0 else slice(-step, None)
                rolled[tuple(sl)] = False
                out |= rolled
    return out


def _border(shape, width: int) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(0, width)
        out[tuple(sl)] = True
        sl[axis] = slice(-width, None)
        out[tuple(sl)] = True
    return out


def interior(ok: np.ndarray, width: int) -> np.ndarray:
    """Nodes of `ok` whose neighbors up to `width` steps along every axis are
    on the grid and in `ok`: where a central stencil of that half-width is clean."""
    return ~(_dilate(~ok, width) | _border(ok.shape, width))


def _excluded(solution, grid: GridSpec, *extra_bad: Optional[np.ndarray]) -> np.ndarray:
    flagged = (solution.flags & MASK_BITS) != 0
    bad = flagged | ~solution.defined
    for extra in extra_bad:
        if extra is not None:
            bad = bad | extra
    return ~interior(~bad.reshape(grid.shape()), 1)


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


def curls(comps: Sequence[np.ndarray], h, order: int):
    """Yield (i, j, d_i c_j - d_j c_i) for every pair i < j of grid components."""
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            curl = stencil(comps[j], i, h[i], order)
            curl -= stencil(comps[i], j, h[j], order)
            yield i, j, curl


def curl_max(comps: Sequence[np.ndarray], h, order: int) -> np.ndarray:
    """Max over i < j of |d_i c_j - d_j c_i| per node (NaN where a stencil is missing)."""
    worst = np.zeros(comps[0].shape)
    for _, _, curl in curls(comps, h, order):
        np.maximum(worst, np.abs(curl, out=curl), out=worst)
    return worst


def divergence(comps: Sequence[np.ndarray], h, order: int) -> np.ndarray:
    """Sum of d_i c_i over the grid components, one axis at a time."""
    div = np.zeros(comps[0].shape)
    for i, comp in enumerate(comps):
        div += stencil(comp, i, h[i], order)
    return div


def closure_residual(w: np.ndarray, eta: np.ndarray, system: str, h, order: int) -> np.ndarray:
    """|curl| (minor systems) or |div| (divergence systems) of e^(-eta) w per
    node; `eta` is grid-shaped and `w` holds one row per node."""
    with np.errstate(all="ignore"):
        scale = np.exp(-eta)
        comps = [w[:, i].reshape(eta.shape) * scale for i in range(w.shape[1])]
        if system == "minor":
            return curl_max(comps, h, order)
        if system == "divergence":
            return np.abs(divergence(comps, h, order))
    raise VerifyError(f"unknown system kind {system!r}")


def _report(kind: str, grid: GridSpec, residual: np.ndarray, excluded: np.ndarray) -> ResidualReport:
    keep = ~excluded & np.isfinite(residual)
    n_keep = int(keep.sum())
    if n_keep < 3:
        raise VerifyError(f"{kind}: fewer than 3 unmasked interior points")
    vals = residual[keep]
    return ResidualReport(
        kind=kind,
        h=float(np.max(grid.spacing())),
        max_norm=float(np.abs(vals).max()),
        l2_norm=float(np.sqrt(np.mean(vals ** 2))),
        masked_fraction=float(1.0 - n_keep / residual.size),
    )


def _grid_of(solution: FieldSolution) -> GridSpec:
    if solution.grid is None:
        raise VerifyError("solution is not grid-backed")
    return solution.grid


def _rho_w(solution: FieldSolution, model: Optional[DensityModel], grid: GridSpec) -> list:
    """Grid components of rho(Q) w."""
    model = model or solution.model
    with np.errstate(all="ignore"):
        rho = model.rho(solution.Q)
        return [(rho * solution.w[:, i]).reshape(grid.shape()) for i in range(grid.dim)]


def divergence_residual(solution: FieldSolution, model: Optional[DensityModel] = None,
                        extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Central-difference divergence of rho(Q) w."""
    grid = _grid_of(solution)
    div = divergence(_rho_w(solution, model, grid), grid.spacing(), 2)
    return _report("DivergenceOfRhoW", grid, div, _excluded(solution, grid, extra_bad))


def minor_residual(solution: FieldSolution, model: Optional[DensityModel] = None,
                   extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Max 2x2 minor |d_i(rho w_j) - d_j(rho w_i)| by central differences."""
    grid = _grid_of(solution)
    worst = curl_max(_rho_w(solution, model, grid), grid.spacing(), 2)
    return _report("MinorSystemOfRhoW", grid, worst, _excluded(solution, grid, extra_bad))


def frobenius_residual(solution: FieldSolution, witness: FrobeniusWitness,
                       extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Frobenius defect with finite-difference derivatives of w and the
    witness's G: minor systems compare curls, divergence systems divergences."""
    grid = _grid_of(solution)
    shape = grid.shape()
    h = grid.spacing()
    if witness.G.shape[0] != solution.points.shape[0]:
        raise VerifyError("witness and solution are not aligned on the same points")
    G, w = witness.G, solution.w
    comps = [w[:, i].reshape(shape) for i in range(grid.dim)]
    with np.errstate(all="ignore"):
        if witness.kind == "minor":
            worst = np.zeros(shape)
            for i, j, curl in curls(comps, h, 2):
                wedge = (G[:, i] * w[:, j] - G[:, j] * w[:, i]).reshape(shape)
                worst = np.maximum(worst, np.abs(curl - wedge))
        else:
            worst = np.abs(divergence(comps, h, 2) - np.einsum("ni,ni->n", G, w).reshape(shape))
    excluded = _excluded(solution, grid, ~witness.defined, extra_bad)
    return _report("FrobeniusDefect", grid, worst, excluded)


def exactness_residual(solution: FieldSolution, eta: np.ndarray, system: str = "minor",
                       extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Closure of the rescaled field: curl of e^(-eta) w for minor systems,
    divergence of e^(-eta) w for divergence systems."""
    grid = _grid_of(solution)
    eta = np.asarray(eta, dtype=float).reshape(grid.shape())
    worst = closure_residual(solution.w, eta, system, grid.spacing(), 2)
    excluded = _excluded(solution, grid, ~np.isfinite(eta).reshape(-1), extra_bad)
    return _report("ExactnessDefect", grid, worst, excluded)


def codifferential_residual(fsol: FormSolution, *,
                            extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Codifferential of rho(Q) omega, coefficientwise: forms.codifferential
    with central-difference coefficient gradients."""
    grid = _grid_of(fsol)
    shape = grid.shape()
    h = grid.spacing()
    omega, rho_c = fsol.omega, fsol.rho_c
    with np.errstate(all="ignore"):
        coeffs = {key: rho_c * vals for key, vals in omega.coeffs.items()}
    grads = {key: np.stack([stencil(vals.reshape(shape), i, h[i], 2).reshape(-1)
                            for i in range(fsol.n)], axis=1)
             for key, vals in coeffs.items()}
    delta = codifferential(FormValues(n=fsol.n, k=fsol.k, coeffs=coeffs, grads=grads,
                                      bad=omega.bad))
    worst = np.zeros(shape)
    for vals in delta.coeffs.values():
        worst = np.maximum(worst, np.abs(vals.reshape(shape)))
    return _report("CodifferentialDefect", grid, worst, _excluded(fsol, grid, extra_bad))


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
    """Run a residual over several grids (coarse to fine) and fit the order."""
    reports = [make_report(g) for g in grids]
    levels = [(r.h, r.max_norm) for r in reports]
    order, at_floor = fit_order(levels)
    final = reports[-1]
    final.convergence = levels
    final.order = order
    final.at_floor = at_floor
    return final


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


def energy(model: DensityModel, solution: FieldSolution,
           mask: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Midpoint quadrature of e(Q) over cells; the field is re-synthesized at
    cell centers, at most SYNTH_BLOCK centers a call, and cells whose center
    is flagged or excluded contribute 0.  A non-finite e(Q) is refused,
    naming the gap of Q where rho is undefined."""
    grid = _grid_of(solution)
    mesh = np.meshgrid(*(0.5 * (ax[1:] + ax[:-1]) for ax in grid.axes()), indexing="ij")
    centers = np.stack([m.reshape(-1) for m in mesh], axis=1)
    kept = []
    for rows in block_rows(len(centers)):
        cs = synthesize_at_points(solution.model, solution.drive, solution.policy,
                                  centers[rows], tol=solution.tol)
        keep = ((cs.flags & MASK_BITS) == 0) & (cs.branch_id != 0) & np.isfinite(cs.Q)
        if mask is not None:
            keep &= np.asarray(mask(centers[rows]), dtype=bool)
        kept.append(cs.Q[keep])
    qvals = np.concatenate(kept)
    if not qvals.size:
        raise VerifyError("no usable cells for the energy quadrature")
    if not model.in_domain(qvals).all():
        raise VerifyError("quadrature hit Q outside the density domain")
    e = energy_density(model, qvals)
    finite = np.isfinite(e)
    if not finite.all():
        lo = qvals[finite].max() if finite.any() else model.q_domain[0].lo
        raise VerifyError(f"the energy is not finite: rho is undefined or not integrable "
                          f"somewhere in Q in [{lo:.6g}, {qvals[~finite].min():.6g}]")
    return float(np.sum(e) * float(np.prod(grid.spacing())))
