"""Drive objects: prescribed vector fields a(x) that source the synthesis.

Four kinds.  A 2D scalar stream function contributes its transverse gradient
a = (-df/dy, df/dx); a skew matrix of stream coefficients contributes
a_i = sum_{j != i} d_j F_ij (divergence-free by construction); a gradient
drive contributes a = grad f (curl-free); a raw field is taken as given and
validated against its declared closure at construction.  All evaluation goes
through jets, so Jacobians, laplacians and grad ||a||^2 are analytic, not
differenced.  An order-2 DriveBatch builds its Jacobian and grad ||a||^2 on
first read, from the jets' derivative rows it holds until then: the
witnesses and the eta evaluator read them.  Synthesis reads neither, and
asks for an order-1 batch, which computes no second derivative.  A
forms.FormDrive (this module cannot import forms) gives *df's coefficients as a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import expr as exprmod


class DriveError(ValueError):
    pass


_VAR_NAMES = ("x1", "x2", "x3", "x4")


def coord_names(dim: int) -> tuple[str, ...]:
    if dim not in (2, 3, 4):
        raise DriveError(f"drive dimension must be 2, 3 or 4, got {dim}")
    return _VAR_NAMES[:dim]


def _as_expr(f, dim: int, params: Mapping[str, float]) -> exprmod.Expression:
    if isinstance(f, exprmod.Expression):
        return f
    return exprmod.parse(f, coord_names(dim), tuple(params))


@dataclass(frozen=True, eq=False)
class Scalar2D:
    f: exprmod.Expression
    params: dict = field(default_factory=dict)
    dim: int = field(default=2, init=False)


@dataclass(frozen=True, eq=False)
class SkewMatrix:
    dim: int
    entries: dict  # (i, j) with 1 <= i < j <= dim -> Expression
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class GradientDrive:
    dim: int
    f: exprmod.Expression
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class RawField:
    dim: int
    alpha: tuple
    closure_mode: str  # "divergence_free" or "curl_free"
    box: tuple  # (lo vector, hi vector) used for closure validation
    params: dict = field(default_factory=dict)


DriveField = Union[Scalar2D, SkewMatrix, GradientDrive, RawField]


def scalar_drive(f, params: Optional[Mapping[str, float]] = None) -> Scalar2D:
    params = dict(params or {})
    return Scalar2D(f=_as_expr(f, 2, params), params=params)


def skew_drive(dim: int, entries: Mapping, params: Optional[Mapping[str, float]] = None) -> SkewMatrix:
    params = dict(params or {})
    coord_names(dim)
    parsed = {}
    for key, val in entries.items():
        i, j = key
        if not (1 <= i < j <= dim):
            raise DriveError(f"skew entry indices must satisfy 1 <= i < j <= dim, got {key}")
        parsed[(i, j)] = _as_expr(val, dim, params)
    if not parsed:
        raise DriveError("skew drive needs at least one upper-triangular entry")
    return SkewMatrix(dim=dim, entries=parsed, params=params)


def gradient_drive(dim: int, f, params: Optional[Mapping[str, float]] = None) -> GradientDrive:
    params = dict(params or {})
    return GradientDrive(dim=dim, f=_as_expr(f, dim, params), params=params)


def raw_drive(
    dim: int,
    alpha: Sequence,
    closure_mode: str,
    box: tuple,
    params: Optional[Mapping[str, float]] = None,
) -> RawField:
    params = dict(params or {})
    if closure_mode not in ("divergence_free", "curl_free"):
        raise DriveError(f"unknown closure mode {closure_mode!r}")
    comps = tuple(_as_expr(c, dim, params) for c in alpha)
    if len(comps) != dim:
        raise DriveError(f"raw drive needs {dim} components, got {len(comps)}")
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    if lo.shape != (dim,) or hi.shape != (dim,) or not np.all(lo < hi):
        raise DriveError("raw drive box must be a valid (lo, hi) pair of length dim")
    d = RawField(dim=dim, alpha=comps, closure_mode=closure_mode, box=(tuple(lo), tuple(hi)), params=params)

    rng = np.random.default_rng(91)
    pts = lo + (hi - lo) * rng.random((1000, dim))
    batch = drive_batch(d, pts)
    ok = ~batch.bad
    if np.count_nonzero(ok) < 100:
        raise DriveError("raw drive undefined on most of its validation box")
    jac = batch.jac[ok]
    if closure_mode == "divergence_free":
        defect = np.abs(np.trace(jac, axis1=1, axis2=2)).max()
        what = "divergence"
    else:
        defect = np.abs(jac - np.swapaxes(jac, 1, 2)).max()
        what = "curl"
    if defect > 1e-8:
        raise DriveError(
            f"raw drive fails {closure_mode} validation: max {what} {defect:.3e} > 1.0e-08"
        )
    return d


class DriveBatch:
    """Vectorized samples: a (N,n), xi (N,), laplacian_f (N,) (NaN for kinds
    without a scalar potential, and for a batch built below order 2) and bad
    (N,).  jac[r,c] = d_c a_r (N,n,n) and grad_xi (N,n) are built on first
    read from the derivative rows an order-2 batch holds, which are dropped
    once jac is built; synthesis reads neither."""

    def __init__(self, drive: "DriveField", a, xi, laplacian_f, bad, rows, order: int):
        self.a, self.xi, self.laplacian_f, self.bad = a, xi, laplacian_f, bad
        self._drive, self._rows, self.order = drive, rows, order

    @cached_property
    def jac(self) -> np.ndarray:
        self._needs_full("jac")
        jac = _jacobian(self._drive, self._rows, self.a.shape[0])
        self._rows = None
        if np.any(self.bad):
            jac[self.bad] = np.nan
        return jac

    @cached_property
    def grad_xi(self) -> np.ndarray:
        self._needs_full("grad_xi")
        return 2.0 * np.einsum("nij,ni->nj", self.jac, self.a)

    def _needs_full(self, what: str) -> None:
        if self.order < 2:
            raise ValueError(f"{what} needs a drive batch of order 2; this one was built at "
                             f"order {self.order}")


def _jacobian(d: "DriveField", rows: list, npts: int) -> np.ndarray:
    """d_c a_r from the held rows: the packed Hessian rows of the potential
    (Scalar2D, GradientDrive) or of each skew entry, in entry order, or each
    raw component's gradient rows."""
    n = d.dim
    if isinstance(d, Scalar2D):
        (h,) = rows  # packed rows (0, 0), (0, 1), (1, 1)
        jac = np.empty((npts, 2, 2))
        jac[:, 0, 0] = -h[1]
        jac[:, 0, 1] = -h[2]
        jac[:, 1, 0] = h[0]
        jac[:, 1, 1] = h[1]
    elif isinstance(d, GradientDrive):
        (h,) = rows
        jac = np.empty((npts, n, n))
        for r in range(n):
            for c in range(n):
                jac[:, r, c] = h[exprmod.tri_row(r, c, n)]
    elif isinstance(d, SkewMatrix):
        jac = np.zeros((npts, n, n))
        for (i, j), h in zip(d.entries, rows):
            for c in range(n):
                jac[:, i - 1, c] += h[exprmod.tri_row(j - 1, c, n)]
                jac[:, j - 1, c] -= h[exprmod.tri_row(i - 1, c, n)]
    else:
        jac = np.empty((npts, n, n))
        for r, g in enumerate(rows):
            jac[:, r, :] = g.T
    return jac


def drive_batch(d: DriveField, points: np.ndarray, order: int = 2) -> DriveBatch:
    """a, xi and bad from jets of ``order`` (expr.eval_jets): 2 gives the
    Laplacian and the Jacobian as well, 1 neither."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d.dim:
        raise DriveError(f"expected points of shape (N, {d.dim})")
    if order not in (1, 2):
        raise DriveError(f"drive batch order must be 1 or 2, got {order!r}")
    npts, n = pts.shape
    lap = np.full(npts, np.nan)
    if isinstance(d, (Scalar2D, GradientDrive)):
        jets = exprmod.eval_jets(d.f, pts, d.params, order)
        g, h = jets.grad_rows, jets.hess_rows
        a = np.stack([-g[1], g[0]], axis=1) if isinstance(d, Scalar2D) else g.T.copy()
        if h is not None:
            # np.trace of the Hessian, bit for bit, from its contiguous diagonal rows
            lap = sum((h[exprmod.tri_row(i, i, n)] for i in range(n)), 0.0)
        bad, rows = jets.bad, [h]
    elif isinstance(d, SkewMatrix):
        a = np.zeros((npts, n))
        bad = np.zeros(npts, dtype=bool)
        rows = []
        for (i, j), e in d.entries.items():
            jets = exprmod.eval_jets(e, pts, d.params, order)
            a[:, i - 1] += jets.grad_rows[j - 1]
            a[:, j - 1] -= jets.grad_rows[i - 1]
            rows.append(jets.hess_rows)
            bad |= jets.bad
    elif isinstance(d, RawField):
        a = np.empty((npts, n))
        bad = np.zeros(npts, dtype=bool)
        rows = []
        for i, e in enumerate(d.alpha):
            jets = exprmod.eval_jets(e, pts, d.params, order)
            a[:, i] = jets.val
            rows.append(jets.grad_rows)
            bad |= jets.bad
    elif hasattr(d, "star"):  # a forms.FormDrive
        star = d.star(pts, order)
        a, bad, rows = star.as_matrix(), star.bad, None
    else:
        raise DriveError(f"unknown drive kind {d!r}")

    if np.any(bad):
        a[bad] = np.nan
        lap[bad] = np.nan
    xi = np.einsum("ni,ni->n", a, a)
    return DriveBatch(d, a, xi, lap, bad, rows if order == 2 else None, order)


# ---------------------------------------------------------------------------
# built-in drive library

# sign factor u/|u| keeps one expression valid on both sides of r=1, giving
# grad f = (1/|r-1|) (x/r, y/r) everywhere off the unit circle
RADIAL_LOG_F = "((sqrt(x^2+y^2)-1)/abs(sqrt(x^2+y^2)-1))*log(abs(sqrt(x^2+y^2)-1))"

SHALLOW_VORTEX_F = "((x^2+y^2) - (x^2+y^2)^2/(4*R))/(2*sqrt(R))"

COULOMB_F = "1/sqrt(x^2+y^2+z^2)"


def radial_log() -> Scalar2D:
    return scalar_drive(RADIAL_LOG_F)


def shallow_vortex(R: float = 1.0) -> Scalar2D:
    if not R > 0:
        raise DriveError("shallow_vortex requires R > 0")
    return scalar_drive(SHALLOW_VORTEX_F, params={"R": float(R)})


def coulomb() -> GradientDrive:
    return gradient_drive(3, COULOMB_F)


def radial_class(f_tilde, g) -> Scalar2D:
    """Compose a radial profile f_tilde(t) with a planar shape t = g(x, y)."""
    try:
        prof = f_tilde if isinstance(f_tilde, exprmod.Expression) else exprmod.parse(f_tilde, ("t",))
        shape = g if isinstance(g, exprmod.Expression) else exprmod.parse(g, coord_names(2))
    except exprmod.ExpressionError as exc:
        raise DriveError(f"radial drive: {exc}") from exc
    if prof.variables != ("t",):
        raise DriveError("radial profile must be an expression in the single variable t")
    return Scalar2D(f=exprmod.substitute(prof, "t", shape), params={})

