import numpy as np
import pytest
from hypothesis import settings

# Every @given test draws the same examples on every run, so the suite's
# verdict depends only on the code under test (no example database either).
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fd_value_grad_hess(fn, pts: np.ndarray, h: float = 1e-5):
    """Finite-difference jets of a vectorized scalar fn over (N, m) points.

    Central differences: O(h^2) gradient, O(h^2) Hessian. Used as an
    independent oracle for analytic jet evaluation.
    """
    pts = np.asarray(pts, dtype=float)
    n, m = pts.shape
    val = fn(pts)
    grad = np.zeros((n, m))
    hess = np.zeros((n, m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        fp, fm = fn(pts + ei), fn(pts - ei)
        grad[:, i] = (fp - fm) / (2 * h)
        hess[:, i, i] = (fp - 2 * val + fm) / h**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            fpp = fn(pts + ei + ej)
            fpm = fn(pts + ei - ej)
            fmp = fn(pts - ei + ej)
            fmm = fn(pts - ei - ej)
            hess[:, i, j] = hess[:, j, i] = (fpp - fpm - fmp + fmm) / (4 * h**2)
    return val, grad, hess


# The defect formulas that verify.wedge_defect and verify.closure_defect
# replaced, kept as their oracles, each as it stood: frobenius's wedge stack
# and its max over the upper triangle, and verify's curls, curl_max,
# divergence (signed), closure_residual, the rho(Q) w product and the
# frobenius residual's own curl and divergence formula.


def old_wedge(u, v):
    """(u ^ v)[:, i, j] = u_i v_j - u_j v_i as an antisymmetric stack."""
    return u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]


def old_max_minor(mat):
    iu = np.triu_indices(mat.shape[1], k=1)
    return np.abs(mat[:, iu[0], iu[1]]).max(axis=1)


def old_curls(comps, h, order):
    """(i, j, d_i c_j - d_j c_i) for every pair i < j of grid components."""
    from streamfields.verify import stencil

    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            curl = stencil(comps[j], i, h[i], order)
            curl -= stencil(comps[i], j, h[j], order)
            yield i, j, curl


def old_curl_max(comps, h, order):
    worst = np.zeros(comps[0].shape)
    for _, _, curl in old_curls(comps, h, order):
        np.maximum(worst, np.abs(curl, out=curl), out=worst)
    return worst


def old_divergence(comps, h, order):
    from streamfields.verify import stencil

    div = np.zeros(comps[0].shape)
    for i, comp in enumerate(comps):
        div += stencil(comp, i, h[i], order)
    return div


def old_closure_residual(w, eta, system, h, order):
    """|curl| or |div| of e^(-eta) w, eta grid-shaped and w one row per node."""
    with np.errstate(all="ignore"):
        scale = np.exp(-eta)
        comps = [w[:, i].reshape(eta.shape) * scale for i in range(w.shape[1])]
        if system == "minor":
            return old_curl_max(comps, h, order)
        return np.abs(old_divergence(comps, h, order))


def old_rho_w(solution, shape):
    with np.errstate(all="ignore"):
        rho = solution.model.rho(solution.Q)
        return [(rho * solution.w[:, i]).reshape(shape) for i in range(len(shape))]


def old_frobenius_fd(G, w, shape, kind, h, order):
    """The frobenius residual kernel's own curl and divergence formula."""
    comps = [w[:, i].reshape(shape) for i in range(len(shape))]
    with np.errstate(all="ignore"):
        if kind == "minor":
            worst = np.zeros(shape)
            for i, j, curl in old_curls(comps, h, order):
                wedge = (G[:, i] * w[:, j] - G[:, j] * w[:, i]).reshape(shape)
                worst = np.maximum(worst, np.abs(curl - wedge))
            return worst
        return np.abs(old_divergence(comps, h, order) - np.einsum("ni,ni->n", G, w).reshape(shape))
