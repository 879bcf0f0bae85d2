"""Finite-difference residuals, convergence fits, and energy quadrature.

The package's one finite-difference core lives here (`stencil`, `curl_max`,
`divergence`, `closure_residual`, `interior`) and is shared with frobenius.
The residuals here use second-order central differences on the uniform grid;
frobenius uses fourth order for its conservative curl gate and eta post-check.
Nodes without a full stencil of clean neighbors are masked, never one-sided.
The mask is exactly the union of singular flags (nonphysical-branch markers
are informational, not singular) and every residual's `extra_bad` nodes,
dilated by one stencil width, plus the boundary.  Reductions are numpy sums
in fixed index order, so reports are deterministic.  The codifferential
residual hands central differences to `forms.codifferential` as coefficient
gradients, so it applies the forms module's one sign table
(`forms._wedge_sum`) and has none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .density import DensityModel
from .forms import FormSolution, FormValues, codifferential
from .synth import (FLAG_NONPHYSICAL_RHO, FieldSolution, GridSpec,
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
    if order == 2:
        out[at(0)] = (values[at(1)] - values[at(-1)]) / (2.0 * h)
    elif order == 4:
        out[at(0)] = (-values[at(2)] + 8.0 * values[at(1)] - 8.0 * values[at(-1)]
                      + values[at(-2)]) / (12.0 * h)
    else:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    return out


def curls(comps: Sequence[np.ndarray], h, order: int):
    """Yield (i, j, d_i c_j - d_j c_i) for every pair i < j of grid components."""
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            yield i, j, stencil(comps[j], i, h[i], order) - stencil(comps[i], j, h[j], order)


def curl_max(comps: Sequence[np.ndarray], h, order: int) -> np.ndarray:
    """Max over i < j of |d_i c_j - d_j c_i| per node (NaN where a stencil is missing)."""
    worst = np.zeros(comps[0].shape)
    for _, _, curl in curls(comps, h, order):
        worst = np.maximum(worst, np.abs(curl))
    return worst


def divergence(comps: Sequence[np.ndarray], h, order: int) -> np.ndarray:
    """Sum of d_i c_i over the grid components, one axis at a time."""
    div = np.zeros(comps[0].shape)
    for i, comp in enumerate(comps):
        div = div + stencil(comp, i, h[i], order)
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
        u = model.rho(solution.Q)[:, None] * solution.w
    return [u[:, i].reshape(grid.shape()) for i in range(grid.dim)]


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


def codifferential_residual(fsol: FormSolution, grid: GridSpec,
                            extra_bad: Optional[np.ndarray] = None) -> ResidualReport:
    """Codifferential of rho(Q) omega, coefficientwise: forms.codifferential
    with central-difference coefficient gradients."""
    shape = grid.shape()
    h = grid.spacing()
    with np.errstate(all="ignore"):
        coeffs = {key: fsol.rho_c * vals for key, vals in fsol.omega.coeffs.items()}
    grads = {key: np.stack([stencil(vals.reshape(shape), i, h[i], 2).reshape(-1)
                            for i in range(fsol.n)], axis=1)
             for key, vals in coeffs.items()}
    delta = codifferential(FormValues(n=fsol.n, k=fsol.k, coeffs=coeffs, grads=grads,
                                      bad=fsol.omega.bad))
    worst = np.zeros(shape)
    for vals in delta.coeffs.values():
        worst = np.maximum(worst, np.abs(vals.reshape(shape)))
    return _report("CodifferentialDefect", grid, worst, _excluded(fsol, grid, extra_bad))


# ---------------------------------------------------------------------------
# convergence studies

FLOOR = 1e-11  # below this the scheme error has hit rounding; no order is fit


def fit_order(levels: Sequence[tuple]) -> tuple:
    """Least-squares slope of log max_norm against log h; (order, at_floor)."""
    hs = np.array([lv[0] for lv in levels], dtype=float)
    ms = np.array([lv[1] for lv in levels], dtype=float)
    if len(levels) < 3:
        raise VerifyError("order fit needs at least 3 grid levels")
    if np.all(ms < FLOOR):
        return None, True
    if np.any(ms <= 0.0):
        return None, True
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


def _adaptive_simpson(fn, a: float, b: float, tol: float = 1e-10, depth: int = 48) -> float:
    if a == b:
        return 0.0
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
                + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))

    return recurse(a, fa, b, fb, m, fm, whole, tol, depth)


def energy_density(model: DensityModel, Q: np.ndarray) -> np.ndarray:
    """e(Q) = (1/2) * integral of rho from 0 to Q, analytic where available."""
    Q = np.asarray(Q, dtype=float)
    kind = model.kind
    with np.errstate(all="ignore"):
        if kind == "shallow_water":
            return (Q - Q ** 2 / 4.0) / 2.0
        if kind in ("extremal", "born_infeld"):
            return np.where(Q <= 1.0, 1.0 - np.sqrt(np.maximum(1.0 - Q, 0.0)),
                            1.0 + np.sqrt(np.maximum(Q - 1.0, 0.0)))
    if kind == "caustic":
        tau = float(model.params["tau"])

        def seg(u0, u1):
            if u1 <= u0:
                return 0.0
            return _adaptive_simpson(lambda u: np.sqrt(abs(u * u - tau * tau)), u0, u1)

        return _cumulative(np.sqrt(np.maximum(Q, 0.0)), seg, split=tau)
    # custom densities: integrate rho numerically from the domain floor
    lo = max(0.0, min(iv.lo for iv in model.q_domain))

    def seg_rho(q0, q1):
        if q1 <= q0:
            return 0.0
        return 0.5 * _adaptive_simpson(lambda s: float(model.rho(np.array([s]))[0]), q0, q1)

    return _cumulative(Q, seg_rho, base=lo)


def _cumulative(xs: np.ndarray, seg, base: float = 0.0, split: Optional[float] = None) -> np.ndarray:
    """Evaluate x -> integral(base..x) for many x by chaining sorted segments."""
    flat = xs.reshape(-1)
    out = np.full(flat.shape, np.nan)
    finite = np.isfinite(flat)
    if not finite.any():
        return out.reshape(xs.shape)
    order = np.argsort(flat[finite])
    idx = np.nonzero(finite)[0][order]
    acc = 0.0
    prev = base
    for i in idx:
        x = flat[i]
        if x < base:
            out[i] = -seg(x, base) if split is None or not (x < split < base) else \
                -(seg(x, split) + seg(split, base))
            continue
        if split is not None and prev < split < x:
            acc += seg(prev, split) + seg(split, x)
        else:
            acc += seg(prev, x)
        prev = x
        out[i] = acc
    return out.reshape(xs.shape)


def energy(model: DensityModel, solution: FieldSolution,
           mask: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Midpoint quadrature of e(Q) over cells; the field is re-synthesized at
    cell centers, and cells whose center is flagged or excluded contribute 0."""
    grid = _grid_of(solution)
    h = grid.spacing()
    axes = [0.5 * (ax[1:] + ax[:-1]) for ax in grid.axes()]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.reshape(-1) for m in mesh], axis=1)
    cs = synthesize_at_points(solution.model, solution.drive, solution.policy,
                              centers, tol=solution.tol)
    keep = ((cs.flags & MASK_BITS) == 0) & (cs.branch_id != 0) & np.isfinite(cs.Q)
    if mask is not None:
        keep &= np.asarray(mask(centers), dtype=bool)
    if not keep.any():
        raise VerifyError("no usable cells for the energy quadrature")
    qvals = cs.Q[keep]
    if not model.in_domain(qvals).all():
        raise VerifyError("quadrature hit Q outside the density domain")
    e = energy_density(model, qvals)
    return float(np.sum(e) * float(np.prod(h)))
