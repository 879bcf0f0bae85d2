"""Exterior calculus on boxes in R^n (2 <= n <= 4): k-form synthesis and witnesses.

A k-form is stored by its coefficients over strictly increasing multi-indices
(1-based).  The metric is Euclidean with orientation dx_1 ^ ... ^ dx_n, so the
Hodge star is pure sign bookkeeping.  Synthesis is the vector module's,
omega = *df / rho(psi(|df|^2)): a FormDrive is the drive whose a is *df (or
*alpha for a closed form alpha), so synth.synthesize serves forms unchanged,
and a form synthesis is a FieldSolution whose `w` holds omega's coefficients.

One sign table serves the whole algebra: `_wedge_sum` builds
sum_I sum_i T_I[:, i] dx_i ^ dx_I through `insert_sign`, and d (T the
coefficient gradients, or Hessians one order up), the wedge with a 1-form,
the Gamma witness's matrix and, through `codifferential`, the verify module's
finite-difference codifferential are all that one sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import expr as exprmod
from .density import DensityModel
from .drive import coord_names
from .synth import (FLAG_DRIVE_UNDEFINED, BranchPolicy, FieldSolution, Tolerances, block_rows,
                    log_rho_gradient, synthesize_at_points)


class FormError(ValueError):
    pass


def form_names(n: int) -> tuple:
    """x1..xn for a form in n = 2, 3 or 4 dimensions."""
    if not 2 <= n <= 4:
        raise FormError(f"forms live in 2, 3 or 4 dimensions, got n = {n}")
    return coord_names(n)


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
        names = form_names(self.n)
        if not (0 <= self.k <= self.n):
            raise FormError(f"degree {self.k} out of range for n={self.n}")
        valid = set(multi_indices(self.n, self.k))
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
        jet = exprmod.eval_jets(e, pts, params or {}, order=1)
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
               params: Optional[dict] = None, order: int = 2) -> FormValues:
    """d of a symbolic form at points, or of numeric values carrying gradients.

    Symbolic input at order 2 keeps one derivative order in reserve (gradients
    from the coefficient Hessians), so d can be applied once more; order 1 has none.
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
    jets = {key: exprmod.eval_jets(e, pts, params or {}, order) for key, e in form.coeffs.items()}
    for jet in jets.values():
        bad |= jet.bad
    out = _wedge_sum(n, k, {key: jet.grad for key, jet in jets.items()}, (npts,))
    outg = (_wedge_sum(n, k, {key: jet.hess for key, jet in jets.items()}, (npts, n))
            if order == 2 else None)
    for key in out:
        out[key][bad] = np.nan
        if outg is not None:
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
class FormDrive:
    """The drive of a k-form synthesis, for drive.drive_batch: *df of the
    stream form `form`, or with `closed` *alpha of the closed form `form`."""
    form: KForm
    params: dict = field(default_factory=dict)
    closed: bool = False
    dim: int = field(init=False)  # n
    k: int = field(init=False)  # the degree of omega
    columns: int = field(init=False)  # C(n, k), the width of the synthesis's w

    def __post_init__(self):
        if not self.closed and self.form.k > self.form.n - 1:
            raise FormError("stream form must have degree at most n-1")
        self.dim = self.form.n
        self.k = self.dim - self.form.k - (0 if self.closed else 1)
        self.columns = math.comb(self.dim, self.k)

    def star(self, points: np.ndarray, order: int = 2) -> FormValues:
        """*df from jets of `order`, with coefficient gradients at order 2
        only; *alpha, with gradients, from first-order jets at either order."""
        if self.closed:
            return hodge_star(evaluate_form(self.form, points, self.params))
        return hodge_star(exterior_d(self.form, points, self.params, order))


def omega_values(sol: FieldSolution) -> FormValues:
    """omega of a form synthesis (its w), bad where its drive is undefined."""
    n, k = sol.drive.dim, sol.drive.k
    coeffs = {key: sol.w[:, c] for c, key in enumerate(multi_indices(n, k))}
    return FormValues(n=n, k=k, coeffs=coeffs, grads=None,
                      bad=(sol.flags & FLAG_DRIVE_UNDEFINED) != 0)


def check_closed(alpha: KForm, box, params: Optional[dict] = None) -> None:
    """FormError unless d(alpha) = 0, to 1e-8, at seeded points of `box` = (lo, hi)."""
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


def synthesize_form(model: DensityModel, f: KForm, policy: BranchPolicy,
                    points: np.ndarray, tol: Optional[Tolerances] = None,
                    params: Optional[dict] = None) -> FieldSolution:
    """omega = *df / rho(psi(|df|^2)) for an (n-k-1)-stream form f."""
    return synthesize_at_points(model, FormDrive(f, dict(params or {})), policy, points, tol)


def synthesize_form_closed(model: DensityModel, alpha: KForm, policy: BranchPolicy,
                           points: np.ndarray, box, tol: Optional[Tolerances] = None,
                           params: Optional[dict] = None) -> FieldSolution:
    """Same synthesis from a raw (n-k)-form alpha, after checking d(alpha) = 0."""
    check_closed(alpha, box, params)
    return synthesize_at_points(model, FormDrive(alpha, dict(params or {}), True), policy,
                                points, tol)


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


def gamma_witness(model: DensityModel, f: KForm, sol: FieldSolution) -> GammaWitness:
    """Gamma = Gamma1 - d log rho with Gamma1 least-squares in d*df = Gamma1 ^ *df,
    *df evaluated at order 2 from sol.drive, so a point where only a
    coefficient's Hessian is not finite has no Gamma.  The points go through
    in blocks of expr.BLOCK_ROWS, each block's jets and wedge system freed
    before the next.

    The wedge system is solvable exactly for k in {1, n-1}; for intermediate k
    the residual norm is reported as the obstruction measure.  All usable
    points are solved in one batched gelsd call (`_least_squares`), bit for
    bit the per-point np.linalg.lstsq.  `rank_deficient` depends only on the
    degree of omega = *df: it is true exactly when omega is a 1-form and
    n >= 3 (omega itself spans the kernel of Gamma1 -> Gamma1 ^ omega), and
    otherwise false wherever |df| > eps_grad, except for a decomposable
    2-form omega in n = 4.
    """
    npts, n = len(sol.Q), sol.drive.dim
    out = GammaWitness(np.empty((npts, n)), np.empty((npts, n)), np.empty(npts), np.empty(npts),
                       np.empty(npts, dtype=bool), np.empty(npts, dtype=bool))
    for rows in block_rows(npts, exprmod.BLOCK_ROWS):
        for name, vals in vars(_gamma_block(model, sol.restricted(rows), sol.points[rows])).items():
            getattr(out, name)[rows] = vals
    return out


def _gamma_block(model: DensityModel, sol: FieldSolution, points: np.ndarray) -> GammaWitness:
    n = sol.drive.dim
    star_df = sol.drive.star(points, 2)
    d_star = _d_values(star_df)
    npts = sol.xi.shape[0]
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

    rho_c, glr, rho_usable = log_rho_gradient(model, sol.Q, grad_xi, tol)
    with np.errstate(all="ignore"):
        Gamma = Gamma1 - glr
        # d(omega) = [d*df - dlogrho ^ *df] / rho, then compare with Gamma ^ omega
        d_omega = {}
        wedge_glr = wedge_1form(glr, star_df)
        for key in d_star.coeffs:
            d_omega[key] = (d_star.coeffs[key] - wedge_glr.coeffs[key]) / rho_c
        wedge_gam = wedge_1form(Gamma, omega_values(sol))
        fro = np.zeros(npts)
        for key in d_omega:
            fro = np.maximum(fro, np.abs(d_omega[key] - wedge_gam.coeffs[key]))
    defined = usable & np.isfinite(Gamma).all(axis=1) & rho_usable
    Gamma[~defined] = np.nan
    fro = np.where(defined, fro, np.nan)
    return GammaWitness(Gamma=Gamma, Gamma1=Gamma1, defect=defect,
                        frobenius_defect=fro, rank_deficient=rank_def, defined=defined)
