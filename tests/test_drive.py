import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import (
    DriveError,
    coord_names,
    coulomb,
    drive_batch,
    gradient_drive,
    radial_class,
    radial_log,
    raw_drive,
    scalar_drive,
    shallow_vortex,
    skew_drive,
)
from streamfields import drive as drivemod
from streamfields.expr import eval_jets
from conftest import fd_value_grad_hess


def test_coord_names():
    assert coord_names(2) == ("x1", "x2")
    assert coord_names(4) == ("x1", "x2", "x3", "x4")


def test_scalar_drive_rotates_gradient(rng):
    d = scalar_drive("x1^2 * x2 + x2^3")
    pts = rng.uniform(-1, 1, (60, 2))
    batch = drive_batch(d, pts)
    x, y = pts[:, 0], pts[:, 1]
    fx = 2 * x * y
    fy = x**2 + 3 * y**2
    np.testing.assert_allclose(batch.a[:, 0], -fy, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(batch.a[:, 1], fx, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(batch.xi, fx**2 + fy**2, rtol=1e-12, atol=1e-13)


def test_gradient_drive_matches_fd(rng):
    d = gradient_drive(3, "exp(x1*x2) + sin(x3)")
    pts = rng.uniform(-0.8, 0.8, (25, 3))
    batch = drive_batch(d, pts)

    def fn(p):
        return np.exp(p[:, 0] * p[:, 1]) + np.sin(p[:, 2])

    _, grad, _ = fd_value_grad_hess(fn, pts)
    np.testing.assert_allclose(batch.a, grad, rtol=0, atol=5e-9)


def test_grad_xi_identity(rng):
    """grad(|a|^2) = 2 J^T a for smooth drives."""
    d = scalar_drive("sin(x1)*x2 + x1*x2^2")
    pts = rng.uniform(-1, 1, (40, 2))
    batch = drive_batch(d, pts)
    expected = 2.0 * np.einsum("nij,nj->ni", np.swapaxes(batch.jac, 1, 2), batch.a)
    np.testing.assert_allclose(batch.grad_xi, expected, rtol=1e-12, atol=1e-12)

    def xi_fn(p):
        return drive_batch(d, p).xi

    _, grad, _ = fd_value_grad_hess(xi_fn, pts)
    np.testing.assert_allclose(batch.grad_xi, grad, rtol=0, atol=5e-8)


def test_skew_drive_antisymmetry(rng):
    d = skew_drive(3, {(1, 2): "x3", (1, 3): "-x2", (2, 3): "x1"})
    pts = rng.uniform(-1, 1, (10, 3))
    batch = drive_batch(d, pts)
    # row i of a is sum_j M_ij e_j applied to nothing else: columns checked by value
    assert batch.a.shape == (10, 3)
    assert np.isfinite(batch.a).all()


def test_skew_drive_validates_indices():
    with pytest.raises(DriveError):
        skew_drive(2, {(2, 1): "x1"})
    with pytest.raises(DriveError):
        skew_drive(2, {})
    with pytest.raises(DriveError):
        skew_drive(2, {(1, 3): "x1"})


def test_raw_drive_validates_closure():
    box = ((-1.0, -1.0), (1.0, 1.0))
    d = raw_drive(2, ("-x2", "x1"), "divergence_free", box)
    assert d.closure_mode == "divergence_free"
    with pytest.raises(DriveError):
        raw_drive(2, ("x1", "x2"), "divergence_free", box)  # div = 2
    d2 = raw_drive(2, ("x1", "x2"), "curl_free", box)
    assert d2.dim == 2
    with pytest.raises(DriveError):
        raw_drive(2, ("-x2", "x1"), "curl_free", box)
    with pytest.raises(DriveError):
        raw_drive(2, ("-x2", "x1"), "sideways", box)


def test_radial_log_gradient_formula(rng):
    d = radial_log()
    r = rng.uniform(0.2, 0.9, 30)
    th = rng.uniform(0, 2 * np.pi, 30)
    pts_in = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    pts_out = pts_in * (1.9 / r)[:, None] * rng.uniform(0.6, 0.95, 30)[:, None] + 0
    for pts in (pts_in,):
        batch = drive_batch(d, pts)
        rr = np.sqrt((pts**2).sum(axis=1))
        # |grad f| = 1/|r-1| and a is the rotated gradient
        np.testing.assert_allclose(batch.xi, 1.0 / (rr - 1.0) ** 2, rtol=1e-10)


def test_shallow_vortex_xi_profile(rng):
    R = 4.0
    d = shallow_vortex(R)
    pts = rng.uniform(-1.5, 1.5, (50, 2))
    t = (pts**2).sum(axis=1)
    batch = drive_batch(d, pts)
    want = t * (1.0 - t / (2 * R)) ** 2 / R
    np.testing.assert_allclose(batch.xi, want, rtol=1e-11, atol=1e-13)


def test_coulomb_is_inverse_square(rng):
    d = coulomb()
    pts = rng.uniform(0.3, 1.0, (20, 3))
    batch = drive_batch(d, pts)
    r = np.sqrt((pts**2).sum(axis=1))
    want = -pts / (r**3)[:, None]
    np.testing.assert_allclose(batch.a, want, rtol=1e-12)


def test_radial_class_builds_scalar_drive():
    d = radial_class("t^2", "x1^2 + x2^2")
    batch = drive_batch(d, np.array([[0.6, 0.0]]))
    t = 0.36
    # f = t^2 with t = x^2 + y^2, so a = (-4*y*t, 4*x*t)
    np.testing.assert_allclose(batch.a[0], [0.0, 4 * 0.6 * t], rtol=1e-13, atol=1e-15)
    with pytest.raises(DriveError):
        radial_class("x1", "x1^2")


def test_drive_batch_single_point():
    d = scalar_drive("x1*x2")
    batch = drive_batch(d, np.array([2.0, 3.0])[None])
    np.testing.assert_allclose(batch.a[0], [-2.0, 3.0])
    assert batch.xi[0] == pytest.approx(13.0)
    assert not batch.bad[0]


def test_undefined_points_marked_bad():
    d = scalar_drive("log(x1)")
    batch = drive_batch(d, np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert batch.bad[0] and not batch.bad[1]
    assert np.isnan(batch.a[0]).all()


@settings(max_examples=30, deadline=None)
@given(
    c1=st.floats(-2, 2, allow_nan=False),
    c2=st.floats(-2, 2, allow_nan=False),
    x=st.floats(-1, 1, allow_nan=False),
    y=st.floats(-1, 1, allow_nan=False),
)
def test_scalar_drive_is_divergence_free(c1, c2, x, y):
    """The rotated gradient of any smooth f has zero divergence: check via
    the Jacobian trace at a point."""
    d = scalar_drive("a*x1^2*x2 + b*x2^2", params={"a": c1, "b": c2})
    batch = drive_batch(d, np.array([[x, y]]))
    trace = np.trace(batch.jac[0])
    assert trace == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# jac and grad_xi, built on first read, against the eager formulas they replaced


def _eager_jac_and_grad_xi(d, pts):
    """The eager drive_batch body, kept as the oracle: dense point-major jets,
    NaN rows where the drive is undefined, and grad_xi by the same einsum."""
    npts, n = pts.shape
    if isinstance(d, (drivemod.Scalar2D, drivemod.GradientDrive)):
        jets = eval_jets(d.f, pts, d.params)
        g, hess = jets.grad, jets.hess
        if isinstance(d, drivemod.Scalar2D):
            a = np.stack([-g[:, 1], g[:, 0]], axis=1)
            jac = np.empty((npts, 2, 2))
            jac[:, 0, 0] = -hess[:, 0, 1]
            jac[:, 0, 1] = -hess[:, 1, 1]
            jac[:, 1, 0] = hess[:, 0, 0]
            jac[:, 1, 1] = hess[:, 0, 1]
        else:
            a = g.copy()
            jac = hess.copy()
        bad = jets.bad.copy()
    elif isinstance(d, drivemod.SkewMatrix):
        a = np.zeros((npts, n))
        jac = np.zeros((npts, n, n))
        bad = np.zeros(npts, dtype=bool)
        for (i, j), e in d.entries.items():
            jets = eval_jets(e, pts, d.params)
            a[:, i - 1] += jets.grad[:, j - 1]
            a[:, j - 1] -= jets.grad[:, i - 1]
            jac[:, i - 1, :] += jets.hess[:, j - 1, :]
            jac[:, j - 1, :] -= jets.hess[:, i - 1, :]
            bad |= jets.bad
    else:
        a = np.empty((npts, n))
        jac = np.empty((npts, n, n))
        bad = np.zeros(npts, dtype=bool)
        for i, e in enumerate(d.alpha):
            jets = eval_jets(e, pts, d.params)
            a[:, i] = jets.val
            jac[:, i, :] = jets.grad
            bad |= jets.bad
    a[bad] = np.nan
    jac[bad] = np.nan
    return a, jac, 2.0 * np.einsum("nij,ni->nj", jac, a), bad


def _all_kinds():
    """One drive of each kind, with points where it is undefined."""
    rng = np.random.default_rng(61)
    planar = rng.uniform(-2.0, 2.0, (300, 2))
    planar[:40] /= np.hypot(planar[:40, 0], planar[:40, 1])[:, None]  # the unit circle
    planar[40:45] = 0.0
    planar[45:48, 1] = np.nan
    space = rng.uniform(-1.0, 2.0, (300, 3))
    space[:5] = 0.0
    space[5:8, 2] = np.inf
    return [
        (radial_log(), planar),
        (shallow_vortex(2.0), planar),
        (coulomb(), space),
        (skew_drive(3, {(1, 2): "x3*log(x1)", (1, 3): "sin(x2)*x1^2",
                        (2, 3): "x1*x2*x3"}), space),
        (raw_drive(2, ("-x2/(x1^2+x2^2)", "x1/(x1^2+x2^2)"), "divergence_free",
                   ((0.5, 0.5), (1.5, 1.5))), planar),
    ]


@pytest.mark.parametrize("case", range(5))
def test_jacobian_and_grad_xi_on_first_read_are_the_eager_formulas(case):
    d, pts = _all_kinds()[case]
    a, jac, grad_xi, bad = _eager_jac_and_grad_xi(d, pts)
    batch = drive_batch(d, pts)
    assert bad.any() and not bad.all()
    np.testing.assert_array_equal(batch.bad, bad)
    for got, want in ((batch.a, a), (batch.jac, jac), (batch.grad_xi, grad_xi)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert batch._rows is None  # the held derivative rows are dropped once jac is built
    assert batch.jac is batch.jac


@pytest.mark.parametrize("case", range(5))
def test_synthesis_reads_neither_the_jacobian_nor_grad_xi(monkeypatch, case):
    from streamfields import GridSpec, prefer_type1, shallow_water, synth, synthesize_at_points

    reads = []

    def spy(name):
        return property(lambda self: reads.append(name))

    d, pts = _all_kinds()[case]
    monkeypatch.setattr(drivemod.DriveBatch, "jac", spy("jac"))
    monkeypatch.setattr(drivemod.DriveBatch, "grad_xi", spy("grad_xi"))
    policy = prefer_type1(allow_nonphysical=True)
    synthesize_at_points(shallow_water(), d, policy, pts)
    if d.dim == 2:
        monkeypatch.setattr(synth, "SYNTH_BLOCK", 100)
        synth.synthesize(shallow_water(), d, policy, GridSpec((0.2, 0.3), (1.7, 1.9), (20, 20)),
                         workers=2)
    assert reads == []
    drive_batch(d, pts[:3]).jac  # the spy sees a read
    assert reads == ["jac"]
