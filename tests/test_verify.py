import numpy as np
import pytest
from scipy import integrate

from streamfields import (
    FLAG_NONPHYSICAL_RHO,
    GridSpec,
    MASK_BITS,
    Tolerances,
    VerifyError,
    born_infeld,
    caustic,
    codifferential_residual,
    convergence_study,
    coulomb,
    custom,
    divergence_residual,
    energy,
    energy_density,
    exactness_residual,
    extremal,
    fit_order,
    frobenius_residual,
    kform,
    minor_residual,
    prefer_type1,
    region_map,
    scalar_drive,
    shallow_vortex,
    shallow_water,
    single_branch,
    synthesize,
    synthesize_form,
    witness_2d,
)


def vortex_solution(cells=64, lim=1.1):
    model = shallow_water()
    d = shallow_vortex(1.0)
    policy = region_map(
        [("2/3 - (x1^2 + x2^2)", 1), ("2 - (x1^2 + x2^2)", 2)], 3,
        allow_nonphysical=True)
    grid = GridSpec((-lim, -lim), (lim, lim), (cells, cells))
    return model, synthesize(model, d, policy, grid), grid


def test_fit_order_synthetic():
    levels = [(h, 3.0 * h ** 2) for h in (0.1, 0.05, 0.025)]
    order, at_floor = fit_order(levels)
    assert not at_floor
    assert abs(order - 2.0) < 1e-12

    order, at_floor = fit_order([(0.1, 1e-14), (0.05, 2e-15), (0.025, 8e-16)])
    assert order is None and at_floor

    order, at_floor = fit_order([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-5)])
    assert order is None and at_floor

    with pytest.raises(VerifyError):
        fit_order([(0.1, 1.0), (0.05, 0.25)])


def test_vortex_divergence_sits_at_the_floor():
    """The vortex stream potential is cubic in the coordinates, so the
    central-difference divergence cancels to rounding."""
    model, sol, grid = vortex_solution()
    rep = divergence_residual(sol)
    assert rep.max_norm < 1e-10
    assert rep.masked_fraction < 0.2
    # nonphysical outer nodes are kept: they satisfy the equation as well
    assert (sol.flags & FLAG_NONPHYSICAL_RHO).any()
    assert MASK_BITS & FLAG_NONPHYSICAL_RHO == 0


def test_unit_density_minor_is_exactly_zero_and_energy_half():
    model = custom("1", q_min=0.0, q_max=16.0)
    d = scalar_drive("x1")  # rotated gradient: w = (0, 1) everywhere
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (16, 16))
    sol = synthesize(model, d, prefer_type1(), grid)
    rep = minor_residual(sol)
    assert rep.max_norm == 0.0
    # e(Q) = Q/2 at unit density and Q = 1 on the whole box
    assert abs(energy(model, sol) - 0.5) < 1e-13


def test_divergence_order_two_for_curved_drive():
    model = shallow_water()
    d = scalar_drive("exp(x1*x2)/3")

    def make(grid):
        return divergence_residual(synthesize(model, d, prefer_type1(), grid))

    grids = [GridSpec((0.2, 0.2), (0.8, 0.8), (c, c)) for c in (48, 96, 192)]
    rep = convergence_study(make, grids)
    assert not rep.at_floor
    assert 1.7 < rep.order < 2.2
    assert rep.convergence[0][1] > rep.convergence[-1][1]


def test_minor_order_two_on_born_infeld_shell():
    model = born_infeld()
    d = coulomb()
    policy = single_branch(1)

    def make(grid):
        return minor_residual(synthesize(model, d, policy, grid))

    grids = [GridSpec((1.1, 0.2, 0.2), (1.9, 0.8, 0.8), (c, c, c))
             for c in (12, 24, 48)]
    rep = convergence_study(make, grids)
    assert not rep.at_floor
    assert 1.6 < rep.order < 2.2


def test_frobenius_residual_order_two():
    """Away from the fold (xi below 8/27 on this box) both sides of the
    minor relation are smooth and the defect shrinks at second order."""
    model = shallow_water()
    d = scalar_drive("exp(x1*x2)/3")
    policy = prefer_type1()

    def make(grid):
        sol = synthesize(model, d, policy, grid)
        wit = witness_2d(sol)
        return frobenius_residual(sol, wit)

    grids = [GridSpec((0.2, 0.2), (0.6, 0.6), (c, c)) for c in (48, 96, 192)]
    rep = convergence_study(make, grids)
    assert not rep.at_floor
    assert 1.7 < rep.order < 2.2


def test_exactness_residual_order_two_with_closed_form_eta():
    """On the vortex the integrating factor is log(x^2 + y^2); rescaling by it
    makes the field closed, and the finite-difference curl converges at 2."""
    model = shallow_water()
    d = shallow_vortex(1.0)
    policy = region_map(
        [("2/3 - (x1^2 + x2^2)", 1), ("2 - (x1^2 + x2^2)", 2)], 3,
        allow_nonphysical=True)

    def make(grid):
        sol = synthesize(model, d, policy, grid)
        with np.errstate(all="ignore"):
            eta = np.log(sol.points[:, 0] ** 2 + sol.points[:, 1] ** 2)
        return exactness_residual(sol, eta, system="minor")

    grids = [GridSpec((0.3, 0.3), (1.1, 1.1), (c, c)) for c in (32, 64, 128)]
    rep = convergence_study(make, grids)
    assert not rep.at_floor
    assert 1.7 < rep.order < 2.2

    with pytest.raises(VerifyError):
        make_bad = synthesize(model, d, policy, grids[0])
        exactness_residual(make_bad, np.zeros(grids[0].npoints()), system="nope")


def test_codifferential_residual_order_two():
    model = shallow_water()
    f = kform(2, 0, {(): "x1^2 * x2^3 / 8"})
    policy = prefer_type1()

    def make(grid):
        fsol = synthesize_form(model, f, policy, grid.points())
        return codifferential_residual(fsol, grid)

    grids = [GridSpec((0.2, 0.2), (0.8, 0.8), (c, c)) for c in (32, 64, 128)]
    rep = convergence_study(make, grids)
    assert not rep.at_floor
    assert 1.8 < rep.order < 2.2


@pytest.mark.parametrize("model,kink,qs", [
    (shallow_water(), None, [0.05, 0.3, 0.66, 1.0, 1.7]),
    (extremal(), 1.0, [0.1, 0.5, 0.999, 1.3, 2.5]),
    (born_infeld(), 1.0, [0.1, 0.5, 1.3, 2.5]),
    (caustic(1.3), 1.69, [0.2, 1.0, 1.69, 2.4, 5.0]),
    (custom("1 - Q/2", q_max=2.0), None, [0.05, 0.3, 0.66, 1.0, 1.7]),
])
def test_energy_density_matches_direct_quadrature(model, kink, qs):
    """e(Q) = (1/2) * integral of rho(u) du from 0 to Q, checked against an
    independent adaptive quadrature with integrable endpoint singularities."""
    def rho_scalar(u):
        return float(model.rho(np.array([u]))[0])

    got = energy_density(model, np.array(qs, dtype=float))
    for q, g in zip(qs, got):
        pts = [kink] if kink is not None and 0.0 < kink < q else None
        want, err = integrate.quad(rho_scalar, 0.0, q, points=pts,
                                   limit=200, epsabs=1e-12)
        assert abs(g - 0.5 * want) < max(5e-9, 10.0 * err), (model.kind, q)


def test_energy_against_scipy_double_integral():
    model = shallow_water()
    d = shallow_vortex(1.0)
    grid = GridSpec((-0.5, -0.5), (0.5, 0.5), (64, 64))
    sol = synthesize(model, d, prefer_type1(), grid)
    got = energy(model, sol)

    b1 = model.branches()[0]

    def integrand(y, x):
        t = x * x + y * y
        xi = t * (1.0 - t / 2.0) ** 2
        q = float(b1.psi(np.array([xi]))[0])
        assert np.isfinite(q)  # every xi of the box lies in the tranquil image
        return (q - q * q / 4.0) / 2.0

    want, quad_err = integrate.dblquad(integrand, -0.5, 0.5, -0.5, 0.5,
                                       epsabs=1e-10)
    assert quad_err < 1e-8
    assert abs(got - want) < 2e-4  # midpoint rule at h = 1/64


def test_energy_mask_and_domain_guard():
    model, sol, grid = vortex_solution(cells=32, lim=0.7)
    full = energy(model, sol)
    half = energy(model, sol, mask=lambda pts: pts[:, 0] > 0.0)
    assert 0.0 < half < full
    with pytest.raises(VerifyError):
        energy(model, sol, mask=lambda pts: np.zeros(pts.shape[0], dtype=bool))


def test_all_masked_raises():
    model = shallow_water()
    d = scalar_drive("10*x1")  # xi = 100 sits above both physical images
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (12, 12))
    sol = synthesize(model, d, prefer_type1(), grid)
    with pytest.raises(VerifyError, match="fewer than 3"):
        divergence_residual(sol)


def test_report_json_round_trip():
    model, sol, grid = vortex_solution(cells=32)
    rep = divergence_residual(sol)
    d = rep.to_json_dict()
    assert set(d) == {"kind", "h", "max_norm", "l2_norm", "masked_fraction", "order",
                      "convergence", "at_floor"}
    assert (d["convergence"], d["at_floor"]) == (None, False)  # one grid, no study
    assert d["kind"] == "DivergenceOfRhoW"
    assert d["h"] == pytest.approx(2.2 / 32)


# ---------------------------------------------------------------------------
# the shared finite-difference core


def _random_poly(rng, dim, degree):
    """A polynomial of degree <= `degree` in each coordinate, with its gradient."""
    exps = np.stack(np.meshgrid(*[np.arange(degree + 1)] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)
    coef = rng.normal(size=len(exps))

    def value(x):
        return sum(c * np.prod([x[k] ** e[k] for k in range(dim)], axis=0)
                   for c, e in zip(coef, exps))

    def partial(x, axis):
        out = np.zeros_like(x[0])
        for c, e in zip(coef, exps):
            if e[axis] == 0:
                continue
            term = c * e[axis] * x[axis] ** (e[axis] - 1)
            for k in range(dim):
                if k != axis:
                    term = term * x[k] ** e[k]
            out = out + term
        return out

    return value, partial


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("cells", [(9, 12), (7, 8, 10), (2, 9)])
def test_stencil_is_exact_on_polynomials_of_its_order(rng, order, cells):
    """Order 2 differentiates quadratics exactly and order 4 quartics, along
    every axis; the order/2 nodes at each end have no stencil and are NaN
    (on a 3-node axis that is every node for order 4)."""
    from streamfields.verify import stencil

    dim = len(cells)
    grid = GridSpec((-0.9,) * dim, tuple(0.7 + 0.1 * k for k in range(dim)), cells)
    x = np.meshgrid(*grid.axes(), indexing="ij")
    value, partial = _random_poly(rng, dim, order)
    f = value(x)
    r = order // 2
    for axis in range(dim):
        got = stencil(f, axis, grid.spacing()[axis], order)
        inner = [slice(None)] * dim
        inner[axis] = slice(r, -r)
        want = partial(x, axis)
        np.testing.assert_allclose(got[tuple(inner)], want[tuple(inner)], rtol=0, atol=1e-10)
        assert np.isfinite(got[tuple(inner)]).all()
        margin = np.moveaxis(got, axis, 0)
        assert np.isnan(margin[:r]).all() and np.isnan(margin[-r:]).all()


def _erode_reference(mask, width):
    """The roll-based erosion that `interior` replaced, kept as its oracle."""
    out = mask.copy()
    for axis in range(mask.ndim):
        for step in range(1, width + 1):
            for sgn in (1, -1):
                out &= np.roll(mask, sgn * step, axis=axis)
    # roll wraps around; kill the borders it contaminates
    for axis in range(mask.ndim):
        sl = [slice(None)] * mask.ndim
        sl[axis] = slice(0, width)
        out[tuple(sl)] = False
        sl[axis] = slice(-width, None)
        out[tuple(sl)] = False
    return out


@pytest.mark.parametrize("shape", [(23, 17), (9, 10, 11)])
@pytest.mark.parametrize("width", [1, 2])
def test_interior_matches_the_roll_erosion(rng, shape, width):
    from streamfields.verify import interior

    for density in (0.6, 0.9, 0.98):
        mask = rng.uniform(size=shape) < density
        np.testing.assert_array_equal(interior(mask, width), _erode_reference(mask, width))
