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
