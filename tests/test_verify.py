import numpy as np
import pytest
from scipy import integrate

from streamfields import (
    DensityModel,
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
    gradient_drive,
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
from streamfields.verify import GK_MIN_SPLITS, GK_PASSES


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

    # levels on both sides of the floor: no order, and not at the floor either
    order, at_floor = fit_order([(0.1, 1e-3), (0.05, 0.0), (0.025, 1e-5)])
    assert (order, at_floor) == (None, False)
    order, at_floor = fit_order([(0.1, 2.2e-16), (0.05, 0.171), (0.025, 0.141)])
    assert (order, at_floor) == (None, False)

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
        fsol = synthesize_form(model, f, policy, grid.points(), grid=grid)
        return codifferential_residual(fsol)

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
    (custom("2 + abs(Q - 0.777)", q_max=4.0), 0.777, [0.05, 0.3, 0.66, 1.3, 2.5, 2.5, 0.3]),
    (custom("abs(Q - 1.2345)", q_max=200.0), 1.2345, [0.2, 3.7, 100.0]),
    (custom("1/sqrt(1 + Q)", q_max=100.0), None, [1e-3, 0.3, 2.5, 50.0]),
])
def test_energy_density_matches_direct_quadrature(model, kink, qs):
    """e(Q) = (1/2) * integral of rho(u) du from 0 to Q, to 1e-12 relative,
    checked against an independent adaptive quadrature with integrable
    endpoint singularities; the kinked custom laws have their kink inside a
    gap between the Q values."""
    def rho_scalar(u):
        return float(model.rho(np.array([u]))[0])

    got = energy_density(model, np.array(qs, dtype=float))
    for q, g in zip(qs, got):
        pts = [kink] if kink is not None and 0.0 < kink < q else None
        want, _ = integrate.quad(rho_scalar, 0.0, q, points=pts, limit=500,
                                 epsabs=0.0, epsrel=1e-13)
        assert abs(g - 0.5 * want) <= 1e-12 * abs(0.5 * want), (model.kind, q)


def test_energy_density_is_nan_where_rho_is_undefined():
    # below the domain floor, and from the first gap on which rho is NaN
    assert np.isnan(energy_density(custom("1", q_min=1.0, q_max=16.0), [0.5])).all()
    e = energy_density(custom("sqrt((Q-1)*(Q-2))", q_max=10.0), [0.5, 0.9, 2.5, 3.0, np.inf])
    assert np.isfinite(e[:2]).all() and np.isnan(e[2:]).all()


def test_energy_rho_calls_do_not_grow_with_the_grid(monkeypatch):
    """The energy evaluates rho in blocks of whole gaps: the same number of
    calls at 16^2 as at 256^2 cells (the cell-centre synthesis's, then one
    for the GK15 rule on every gap), and for a kinked law at most one more
    per halving pass, with the rho points bounded by the distinct Q."""
    calls, points = [], []
    rho = DensityModel.rho

    def counted(self, q):
        calls.append(1)
        points.append(np.size(q))
        return rho(self, q)

    monkeypatch.setattr(DensityModel, "rho", counted)
    d = gradient_drive(2, "0.1*(x1^2 + x2^2)")
    for law, most in (("1/sqrt(1 + Q)", None), ("2 + abs(Q - 0.0123456)", 3 + GK_PASSES)):
        model = custom(law, q_max=100.0)
        per_grid = []
        for cells in (16, 256):
            sol = synthesize(model, d, prefer_type1(), GridSpec((0, 0), (1, 1), (cells, cells)))
            calls.clear()
            points.clear()
            energy(model, sol)
            per_grid.append(len(calls))
            centres = cells * cells
            # the centre synthesis reads rho twice at each centre; GK15 reads
            # 15 nodes per gap and per half of each halved piece
            halvings = 2 * centres + GK_MIN_SPLITS * GK_PASSES
            assert sum(points) <= 2 * centres + 15 * (centres + 2 * halvings)
        if most is None:
            assert per_grid[0] == per_grid[1]
        else:
            assert max(per_grid) <= most


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


def test_energy_synthesizes_the_cell_centres_in_blocks(monkeypatch):
    """No centre synthesis takes more than SYNTH_BLOCK points, and the
    blocked energy is bit-equal to the one-call value."""
    from streamfields import synth
    from streamfields import verify as verifymod

    cases = [vortex_solution(cells=24, lim=0.7)[:2]]
    model = custom("1/sqrt(1 + Q)", q_max=100.0)
    cases.append((model, synthesize(model, gradient_drive(2, "0.1*(x1^2 + x2^2)"),
                                    prefer_type1(), GridSpec((0, 0), (1, 1), (24, 24)))))
    half = lambda pts: pts[:, 0] + pts[:, 1] > 0.3  # noqa: E731
    whole = [energy(model, sol, mask=m) for model, sol in cases for m in (None, half)]
    sizes = []
    synthesize_at_points = verifymod.synthesize_at_points

    def recorded(model, d, policy, points, **kw):
        sizes.append(len(points))
        return synthesize_at_points(model, d, policy, points, **kw)

    monkeypatch.setattr(verifymod, "synthesize_at_points", recorded)
    monkeypatch.setattr(synth, "SYNTH_BLOCK", 100)
    blocked = [energy(model, sol, mask=m) for model, sol in cases for m in (None, half)]
    assert np.array(blocked).view(np.int64).tolist() == np.array(whole).view(np.int64).tolist()
    assert max(sizes) == 100 and sum(sizes) == 4 * 24 * 24


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


# ---------------------------------------------------------------------------
# stencils written into their output, against the expressions they replaced


def _old_stencil(values, axis, h, order):
    r = order // 2
    n = values.shape[axis]

    def at(k):
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(r + k, max(n - r + k, 0))
        return tuple(sl)

    out = np.full_like(values, np.nan)
    if order == 2:
        out[at(0)] = (values[at(1)] - values[at(-1)]) / (2.0 * h)
    else:
        out[at(0)] = (-values[at(2)] + 8.0 * values[at(1)] - 8.0 * values[at(-1)]
                      + values[at(-2)]) / (12.0 * h)
    return out


def _holed_grids(rng, shape, count):
    """Random grid components with NaN holes, infinities and signed zeros."""
    comps = []
    for _ in range(count):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        v[rng.random(shape) < 0.05] = np.nan
        v[rng.random(shape) < 0.01] = -np.nan
        v[rng.random(shape) < 0.01] = np.inf
        v[rng.random(shape) < 0.02] = -0.0
        comps.append(v)
    return comps


@pytest.mark.parametrize("shape", [(17, 13), (9, 11, 7), (3, 5), (4, 6, 5)])
def test_stencil_divergence_and_curl_in_place_are_the_old_expressions(shape):
    from streamfields.verify import curl_max, divergence, stencil

    rng = np.random.default_rng(sum(shape))
    comps = _holed_grids(rng, shape, len(shape))
    h = rng.uniform(0.01, 0.2, len(shape))
    for order in (2, 4):
        with np.errstate(all="ignore"):
            for axis in range(len(shape)):
                got = stencil(comps[0], axis, h[axis], order)
                want = _old_stencil(comps[0], axis, h[axis], order)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            div = np.zeros(shape)
            worst = np.zeros(shape)
            for i in range(len(shape)):
                div = div + _old_stencil(comps[i], i, h[i], order)
                for j in range(i + 1, len(shape)):
                    curl = (_old_stencil(comps[j], i, h[i], order)
                            - _old_stencil(comps[i], j, h[j], order))
                    worst = np.maximum(worst, np.abs(curl))
            np.testing.assert_array_equal(divergence(comps, h, order).view(np.int64),
                                          div.view(np.int64))
            np.testing.assert_array_equal(curl_max(comps, h, order).view(np.int64),
                                          worst.view(np.int64))


@pytest.mark.parametrize("cells", [(12, 10), (6, 5, 4)])
def test_rho_w_by_contiguous_components_is_the_old_product(cells):
    from streamfields.verify import _rho_w

    dim = len(cells)
    grid = GridSpec((-1.0,) * dim, (1.0,) * dim, cells)
    model = born_infeld() if dim == 3 else shallow_water()
    sol = synthesize(model, coulomb() if dim == 3 else shallow_vortex(1.0),
                     prefer_type1(allow_nonphysical=True), grid)
    rng = np.random.default_rng(dim)
    sol.w[rng.random(sol.w.shape[0]) < 0.1] = np.nan
    sol.Q[rng.random(sol.Q.shape[0]) < 0.05] = np.nan
    with np.errstate(all="ignore"):
        u = model.rho(sol.Q)[:, None] * sol.w
    want = [u[:, i].reshape(grid.shape()) for i in range(dim)]
    got = _rho_w(sol, None, grid)
    assert len(got) == dim
    for g, w in zip(got, want):
        assert g.flags.c_contiguous
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
