"""Exterior calculus on boxes in R^n (n <= 4): k-form synthesis and witnesses.

A k-form is stored by its coefficients over strictly increasing multi-indices
(1-based).  The metric is Euclidean with orientation dx_1 ^ ... ^ dx_n, so the
Hodge star is pure sign bookkeeping.  Synthesis is the vector module's:
omega = *df / rho(psi(|df|^2)) with the same branch policies and flag bits,
and its result, a FormSolution, is a synth.FieldSolution of omega's
coefficients.

One sign table serves the whole algebra: `_wedge_sum` builds
sum_I sum_i T_I[:, i] dx_i ^ dx_I through `insert_sign`, and d (T the
coefficient gradients, or Hessians one order up), the wedge with a 1-form,
the Gamma witness's matrix and, through `codifferential`, the verify module's
finite-difference codifferential are all that one sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import expr as exprmod
from .density import DensityModel
from .drive import coord_names
from .synth import (BranchPolicy, FieldSolution, GridSpec, Tolerances, _assemble,
                    log_rho_gradient)


class FormError(ValueError):
    pass


def multi_indices(n: int, k: int) -> list:
    return list(itertools.combinations(range(1, n + 1), k))


def _perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def star_sign(idx: tuple, n: int) -> tuple:
    """Complement index and the sign with *(dx_I) = sign dx_{I^c}."""
    comp = tuple(i for i in range(1, n + 1) if i not in idx)
    return comp, _perm_sign(idx + comp)


def insert_sign(i: int, idx: tuple) -> tuple:
    """dx_i ^ dx_I = sign dx_J with J = sorted(I + {i}); 0 if i in I."""
    if i in idx:
        return idx, 0
    pos = sum(1 for j in idx if j < i)
    out = tuple(sorted(idx + (i,)))
    return out, (-1) ** pos


@dataclass(eq=False)
class KForm:
    n: int
    k: int
    coeffs: dict  # multi-index -> Expression

    def __post_init__(self):
        if not (1 <= self.n <= 4):
            raise FormError("supported ambient dimensions are 1..4")
        if not (0 <= self.k <= self.n):
            raise FormError(f"degree {self.k} out of range for n={self.n}")
        valid = set(multi_indices(self.n, self.k))
        names = coord_names(self.n)
        coeffs = {}
        for key, val in self.coeffs.items():
            key = tuple(int(i) for i in key)
            if key not in valid:
                raise FormError(f"bad multi-index {key} for (n,k)=({self.n},{self.k})")
            if not isinstance(val, exprmod.Expression):
                val = exprmod.parse(str(val), names)
            coeffs[key] = val
        self.coeffs = coeffs


def kform(n: int, k: int, coeffs) -> KForm:
    return KForm(n=n, k=k, coeffs=dict(coeffs))


@dataclass(eq=False)
class FormValues:
    """Numeric k-form samples; grads (when present) let one more d be applied."""
    n: int
    k: int
    coeffs: dict  # multi-index -> (N,) values
    grads: Optional[dict]  # multi-index -> (N, n) coefficient gradients
    bad: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """(N, C(n,k)) coefficient matrix, columns in lexicographic index order."""
        keys = multi_indices(self.n, self.k)
        cols = [self.coeffs.get(key, np.zeros(self.bad.shape)) for key in keys]
        return np.stack(cols, axis=1) if cols else np.zeros((self.bad.shape[0], 0))

    def restricted(self, idx: np.ndarray) -> "FormValues":
        """These samples at the points `idx`."""
        grads = None if self.grads is None else {key: g[idx] for key, g in self.grads.items()}
        return FormValues(n=self.n, k=self.k, coeffs={key: c[idx] for key, c in self.coeffs.items()},
                          grads=grads, bad=self.bad[idx])


def evaluate_form(form: KForm, points: np.ndarray, params: Optional[dict] = None) -> FormValues:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != form.n:
        raise FormError(f"points have dimension {pts.shape[1]}, form lives in n={form.n}")
    npts = pts.shape[0]
    bad = np.zeros(npts, dtype=bool)
    coeffs, grads = {}, {}
    for key in multi_indices(form.n, form.k):
        e = form.coeffs.get(key)
        if e is None:
            coeffs[key] = np.zeros(npts)
            grads[key] = np.zeros((npts, form.n))
            continue
        jet = exprmod.eval_jets(e, pts, params or {})
        bad |= jet.bad
        coeffs[key] = np.where(jet.bad, np.nan, jet.val)
        g = jet.grad.copy()
        g[jet.bad] = np.nan
        grads[key] = g
    return FormValues(n=form.n, k=form.k, coeffs=coeffs, grads=grads, bad=bad)


def _wedge_sum(n: int, k: int, terms: dict, shape: tuple) -> dict:
    """Coefficients of the (k+1)-form sum_I sum_i T_I[:, i] dx_i ^ dx_I.

    `terms` maps each k-index I to T_I, whose axis 1 is the direction i; each
    output coefficient has `shape`.  Keys are taken in stored order and i
    ascending, summed from zeros; a sign of +-1 multiplies exactly, so every
    caller rounds as a loop written out by hand would.
    """
    out = {key: np.zeros(shape) for key in multi_indices(n, k + 1)}
    for key, term in terms.items():
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                out[new] = out[new] + sgn * term[:, i - 1]
    return out


def _d_values(values: FormValues) -> FormValues:
    if values.grads is None:
        raise FormError("exterior derivative needs coefficient gradients")
    n, k = values.n, values.k
    coeffs = _wedge_sum(n, k, values.grads, values.bad.shape)
    return FormValues(n=n, k=k + 1, coeffs=coeffs, grads=None, bad=values.bad)


def exterior_d(form: Union[KForm, FormValues], points: Optional[np.ndarray] = None,
               params: Optional[dict] = None) -> FormValues:
    """d of a symbolic form at points, or of numeric values carrying gradients.

    Symbolic input keeps one derivative order in reserve (output gradients come
    from the coefficient Hessians), so d can be applied once more.
    """
    if isinstance(form, FormValues):
        return _d_values(form)
    if points is None:
        raise FormError("points required for a symbolic form")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    n, k = form.n, form.k
    npts = pts.shape[0]
    if k >= n:
        return FormValues(n=n, k=k + 1, coeffs={}, grads=None, bad=np.zeros(npts, dtype=bool))
    bad = np.zeros(npts, dtype=bool)
    jets = {key: exprmod.eval_jets(e, pts, params or {}) for key, e in form.coeffs.items()}
    for jet in jets.values():
        bad |= jet.bad
    out = _wedge_sum(n, k, {key: jet.grad for key, jet in jets.items()}, (npts,))
    outg = _wedge_sum(n, k, {key: jet.hess for key, jet in jets.items()}, (npts, n))
    for key in out:
        out[key][bad] = np.nan
        outg[key][bad] = np.nan
    return FormValues(n=n, k=k + 1, coeffs=out, grads=outg, bad=bad)


def hodge_star(values: FormValues) -> FormValues:
    """*(dx_I) = sign(I, I^c) dx_{I^c}; linear with constant signs, so any
    attached coefficient gradients transport unchanged."""
    n = values.n
    coeffs, grads = {}, {}
    for key in multi_indices(values.n, values.k):
        comp, sgn = star_sign(key, n)
        vals = values.coeffs.get(key)
        if vals is None:
            continue
        coeffs[comp] = sgn * vals
        if values.grads is not None:
            grads[comp] = sgn * values.grads[key]
    return FormValues(n=n, k=n - values.k, coeffs=coeffs,
                      grads=grads if values.grads is not None else None, bad=values.bad)


def codifferential_sign(n: int, k: int) -> int:
    return (-1) ** (n * (k + 1) + 1)


def codifferential(form: Union[KForm, FormValues], points: Optional[np.ndarray] = None,
                   params: Optional[dict] = None) -> FormValues:
    """delta = (-1)^(n(k+1)+1) * d * on k-forms (k >= 1).

    Numeric values need coefficient gradients; they may be analytic (a symbolic
    form is evaluated with its jets) or finite differences, as in the verify
    module's codifferential residual.
    """
    if form.k < 1:
        raise FormError("codifferential lowers degree; needs k >= 1")
    values = form if isinstance(form, FormValues) else evaluate_form(form, points, params)
    result = hodge_star(_d_values(hodge_star(values)))
    sgn = codifferential_sign(values.n, values.k)
    for key in result.coeffs:
        result.coeffs[key] = sgn * result.coeffs[key]
    return result


def wedge_1form(gamma: np.ndarray, beta: FormValues) -> FormValues:
    """(gamma ^ beta) for a numeric 1-form gamma given as (N, n) rows."""
    n, k = beta.n, beta.k
    terms = {key: gamma * vals[:, None] for key, vals in beta.coeffs.items()}
    coeffs = _wedge_sum(n, k, terms, beta.bad.shape)
    return FormValues(n=n, k=k + 1, coeffs=coeffs, grads=None, bad=beta.bad)


# ---------------------------------------------------------------------------
# synthesis


@dataclass(eq=False)
class FormSolution(FieldSolution):
    """A k-form synthesis as a FieldSolution: `w` holds omega's coefficients,
    its columns in multi_indices(n, k) order, and `drive` the stream form f, or
    the closed form alpha that stands for df."""
    k: int
    star_df: FormValues  # *df (or *alpha), with coefficient gradients

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def omega(self) -> FormValues:
        coeffs = {key: self.w[:, c] for c, key in enumerate(multi_indices(self.n, self.k))}
        return FormValues(n=self.n, k=self.k, coeffs=coeffs, grads=None, bad=self.star_df.bad)

    @property
    def rho_c(self) -> np.ndarray:
        """rho(Q) where a branch was taken, NaN elsewhere."""
        return np.where(self.branch_id != 0, self.model.rho(self.Q), np.nan)

    def restricted(self, grid: GridSpec, idx: np.ndarray) -> "FormSolution":
        return replace(super().restricted(grid, idx), star_df=self.star_df.restricted(idx))


def _synthesize_from_star(model, drive: KForm, policy, tol, points, star_a: FormValues,
                          grid: Optional[GridSpec]) -> FormSolution:
    """omega = star_a / rho(psi(|star_a|^2)) at `points` (N rows, or one point)."""
    tol = tol or Tolerances()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mat = star_a.as_matrix()
    with np.errstate(all="ignore"):
        xi = np.einsum("nc,nc->n", mat, mat)
    lap = np.full(pts.shape[0], np.nan)
    w, Q, regime, sel, flags = _assemble(
        model, policy, tol, pts, mat, xi, star_a.bad, lap)
    return FormSolution(
        grid=grid, model=model, drive=drive, policy=policy, tol=tol, points=pts, w=w, Q=Q,
        xi=xi, regime=regime, branch_id=sel, flags=flags, k=star_a.k, star_df=star_a,
    )


def synthesize_form(model: DensityModel, f: KForm, policy: BranchPolicy,
                    points: np.ndarray, tol: Optional[Tolerances] = None,
                    params: Optional[dict] = None,
                    grid: Optional[GridSpec] = None) -> FormSolution:
    """omega = *df / rho(psi(|df|^2)) for an (n-k-1)-stream form f."""
    if f.k > f.n - 1:
        raise FormError("stream form must have degree at most n-1")
    df = exterior_d(f, points, params)
    return _synthesize_from_star(model, f, policy, tol, points, hodge_star(df), grid)


def synthesize_form_closed(model: DensityModel, alpha: KForm, policy: BranchPolicy,
                           points: np.ndarray, box, tol: Optional[Tolerances] = None,
                           params: Optional[dict] = None,
                           grid: Optional[GridSpec] = None) -> FormSolution:
    """Same synthesis from a raw (n-k)-form alpha, after checking d(alpha) = 0."""
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    rng = np.random.default_rng(91)
    probe = lo + (hi - lo) * rng.random((1000, alpha.n))
    da = exterior_d(alpha, probe, params)
    worst = 0.0
    for vals in da.coeffs.values():
        good = vals[~da.bad]
        if good.size:
            worst = max(worst, float(np.abs(good).max()))
    if (~da.bad).sum() < 100:
        raise FormError("closure check: form undefined on most of the box")
    if worst > 1e-8:
        raise FormError(f"form is not closed: max |d alpha| = {worst:.3e} > 1.0e-08")
    av = evaluate_form(alpha, points, params)
    return _synthesize_from_star(model, alpha, policy, tol, points, hodge_star(av), grid)


# ---------------------------------------------------------------------------
# Gamma witness


def _gelsd_failed(*_):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _least_squares(A: np.ndarray, b: np.ndarray, usable: np.ndarray) -> tuple:
    """Minimum-norm least squares A[p] x = b[p] at the usable rows, bit for bit
    np.linalg.lstsq(A[p], b[p], rcond=None) and the norm of its residual, in
    one gelsd call: (x, residual norm, rank < min(m, n)), NaN/False elsewhere.
    A numpy without the private gelsd name solves point by point with lstsq.
    A usable A with a non-finite entry raises LinAlgError before any solve:
    lstsq raises on a NaN, but an infinite entry sends gelsd into a loop
    that never ends."""
    npts, m, cols = A.shape
    x = np.full((npts, cols), np.nan)
    defect = np.full(npts, np.nan)
    rank_def = np.zeros(npts, dtype=bool)
    if not usable.any():
        return x, defect, rank_def
    Au, bu = A[usable], b[usable]
    if not np.isfinite(Au).all():
        _gelsd_failed()
    try:
        # np.linalg.lstsq refuses stacked matrices (_assert_2d); the LAPACK
        # gelsd gufunc it calls solves a whole stack in one call
        from numpy.linalg._umath_linalg import lstsq as gelsd
    except ImportError:
        solved = [np.linalg.lstsq(Ap, bp, rcond=None) for Ap, bp in zip(Au, bu)]
        xu = np.stack([s[0] for s in solved])
        rank = np.array([s[2] for s in solved])
    else:
        # lstsq's own rcond and error handling: a failed solve raises LinAlgError
        with np.errstate(call=_gelsd_failed, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            xu, _, rank, _ = gelsd(Au, bu[:, :, None], np.finfo(float).eps * max(m, cols),
                                   signature="ddd->ddid")
        xu = xu[:, :, 0]
    # a matmul inner product is norm's BLAS dot bit for bit; einsum is not.
    # A b near the double limit may overflow here, as in norm, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        r = (Au @ xu[:, :, None])[:, :, 0] - bu
        defect[usable] = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    x[usable] = xu
    rank_def[usable] = rank < min(m, cols)
    return x, defect, rank_def


@dataclass(eq=False)
class GammaWitness:
    Gamma: np.ndarray  # (N, n) 1-form coefficients
    Gamma1: np.ndarray
    defect: np.ndarray  # wedge-system residual norm per point
    frobenius_defect: np.ndarray  # max coefficient of d(omega) - Gamma ^ omega
    rank_deficient: np.ndarray
    defined: np.ndarray


def gamma_witness(model: DensityModel, f: KForm, sol: FormSolution) -> GammaWitness:
    """Gamma = Gamma1 - d log rho with Gamma1 least-squares in d*df = Gamma1 ^ *df.

    The wedge system is solvable exactly for k in {1, n-1}; for intermediate k
    the residual norm is reported as the obstruction measure.  All usable
    points are solved in one batched gelsd call (`_least_squares`), bit for
    bit the per-point np.linalg.lstsq.  `rank_deficient` depends only on the
    degree of omega = *df: it is true exactly when omega is a 1-form and
    n >= 3 (omega itself spans the kernel of Gamma1 -> Gamma1 ^ omega), and
    otherwise false wherever |df| > eps_grad, except for a decomposable
    2-form omega in n = 4.
    """
    n = sol.n
    star_df = sol.star_df
    d_star = _d_values(star_df)
    npts = sol.points.shape[0]
    with np.errstate(all="ignore"):
        grad_xi = np.zeros((npts, n))
        for key, vals in star_df.coeffs.items():
            grad_xi += 2.0 * vals[:, None] * star_df.grads[key]

    # column j of the wedge system is dx_j ^ *df
    A = np.stack([wedge_1form(e_j, star_df).as_matrix() for e_j in np.eye(n)], axis=2)
    b = d_star.as_matrix()

    tol = sol.tol
    usable = ~star_df.bad & (sol.xi > tol.eps_grad ** 2)
    Gamma1, defect, rank_def = _least_squares(A, b, usable)

    rho_c = sol.rho_c
    glr, rho_usable = log_rho_gradient(model, sol.Q, rho_c, grad_xi, tol)
    with np.errstate(all="ignore"):
        Gamma = Gamma1 - glr
        # d(omega) = [d*df - dlogrho ^ *df] / rho, then compare with Gamma ^ omega
        d_omega = {}
        wedge_glr = wedge_1form(glr, star_df)
        for key in d_star.coeffs:
            d_omega[key] = (d_star.coeffs[key] - wedge_glr.coeffs[key]) / rho_c
        wedge_gam = wedge_1form(Gamma, sol.omega)
        fro = np.zeros(npts)
        for key in d_omega:
            fro = np.maximum(fro, np.abs(d_omega[key] - wedge_gam.coeffs[key]))
    defined = usable & np.isfinite(Gamma).all(axis=1) & rho_usable
    Gamma[~defined] = np.nan
    fro = np.where(defined, fro, np.nan)
    return GammaWitness(Gamma=Gamma, Gamma1=Gamma1, defect=defect,
                        frobenius_defect=fro, rank_deficient=rank_def, defined=defined)
