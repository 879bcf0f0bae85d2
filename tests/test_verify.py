import dataclasses

import numpy as np
import pytest
from scipy import integrate

from streamfields import (
    DensityModel,
    FLAG_GAMMA_S,
    FLAG_NONPHYSICAL_RHO,
    FormDrive,
    FormValues,
    GridSpec,
    MASK_BITS,
    Tolerances,
    VerifyError,
    born_infeld,
    caustic,
    codifferential,
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
    multi_indices,
    prefer_type1,
    region_map,
    scalar_drive,
    shallow_vortex,
    shallow_water,
    single_branch,
    synthesize,
    witness_2d,
)
from streamfields.verify import GK_MIN_SPLITS, GK_PASSES

from conftest import (old_closure_residual, old_curl_max, old_divergence, old_frobenius_fd,
                      old_max_minor, old_rho_w, old_wedge)


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


def test_fit_order_is_the_least_squares_slope_over_every_level():
    # off a power law, so the slope of any two levels differs from the fit
    hs, ms = np.array([0.1, 0.05, 0.025]), np.array([1e-2, 4e-3, 5e-4])
    x, y = np.log(hs), np.log(ms)
    want = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    order, at_floor = fit_order(list(zip(hs, ms)))
    assert not at_floor
    assert abs(order - want) < 1e-12 and abs(order - 3.0) > 0.5

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
    assert abs(energy(sol) - 0.5) < 1e-13


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


def test_a_wrong_density_does_not_converge_on_the_caustic_example():
    """Negative control: the caustic-tau1 field checked against caustic(1.01),
    passed as replace(sol, model=...), keeps a residual above 1 that does not
    fall under refinement, while the true density's falls at second order.
    The example's 1e-8 threshold separates neither: both breach it."""
    from streamfields import config as cfgmod

    cfg = cfgmod.example_config("caustic-tau1")
    base = cfgmod.build_grid(cfg)
    model, d = cfgmod.build_model(cfg), cfgmod.build_drive(cfg)
    policy, tol = cfgmod.build_policy(cfg, base.dim), cfgmod.build_tol(cfg)
    true, wrong = [], []
    for factor in (1, 2, 4):  # 64^2, 128^2 and 256^2 cells
        grid = GridSpec(base.lo, base.hi, tuple(c * factor for c in base.cells))
        sol = synthesize(model, d, policy, grid, tol=tol)
        true.append((grid.spacing()[0], divergence_residual(sol).max_norm))
        off = dataclasses.replace(sol, model=caustic(1.01))
        wrong.append((grid.spacing()[0], divergence_residual(off).max_norm))
    wrong_norms = [m for _, m in wrong]
    assert min(wrong_norms) > 1.0 and wrong_norms == sorted(wrong_norms)
    order, at_floor = fit_order(true)
    assert not at_floor and 1.8 < order < 2.2
    assert true[-1][1] > cfgmod.verify_section(cfg)["threshold"]


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
        fsol = synthesize(model, FormDrive(f), policy, grid)
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
    # halving the gap [0.66, 1.3] puts a GK15 node on the kink, where rho is
    # defined though its derivative is not
    (custom("2 + abs(Q - 1)", q_max=4.0), 1.0, [0.05, 0.3, 0.66, 1.3, 2.5]),
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
            energy(sol)
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
    got = energy(sol)

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
    full = energy(sol)
    half = energy(sol, mask=lambda pts: pts[:, 0] > 0.0)
    assert 0.0 < half < full
    with pytest.raises(VerifyError):
        energy(sol, mask=lambda pts: np.zeros(pts.shape[0], dtype=bool))


def test_energy_synthesizes_the_cell_centres_in_blocks(monkeypatch):
    """No centre synthesis takes more than SYNTH_BLOCK points; the centres
    each block synthesizes and masks are the rows of the whole (N, n) array
    of every cell centre, stacked from a meshgrid of the axes' midpoints, bit
    for bit; and the blocked energy is bit-equal to the one-call value.  On
    shallow water, unit-density and a custom law on a 13 x 9 cell grid."""
    from streamfields import config as cfgmod, synth
    from streamfields import verify as verifymod

    cfg = cfgmod.example_config("unit-density")
    unit = cfgmod.build_grid(cfg)
    sols = [vortex_solution(cells=24, lim=0.7)[1],
            synthesize(cfgmod.build_model(cfg), cfgmod.build_drive(cfg),
                       cfgmod.build_policy(cfg, unit.dim), unit),
            synthesize(custom("1/sqrt(1 + Q)", q_max=100.0), gradient_drive(2, "0.1*(x1^2 + x2^2)"),
                       prefer_type1(), GridSpec((0, 0.1), (1, 0.8), (13, 9)))]
    half = lambda pts: pts[:, 0] + pts[:, 1] > 0.3  # noqa: E731
    whole = [energy(sol, mask=m) for sol in sols for m in (None, half)]
    synthesized, masked = [], []
    synthesize_at_points = verifymod.synthesize_at_points

    def recorded(model, d, policy, points, **kw):
        synthesized.append(points)
        return synthesize_at_points(model, d, policy, points, **kw)

    def recorded_half(pts):
        masked.append(pts)
        return half(pts)

    monkeypatch.setattr(verifymod, "synthesize_at_points", recorded)
    monkeypatch.setattr(synth, "SYNTH_BLOCK", 7)
    blocked = [energy(sol, mask=m) for sol in sols for m in (None, recorded_half)]
    assert np.array(blocked).view(np.int64).tolist() == np.array(whole).view(np.int64).tolist()
    assert max(map(len, synthesized)) == 7
    centres = []
    for sol in sols:
        mesh = np.meshgrid(*(0.5 * (ax[1:] + ax[:-1]) for ax in sol.grid.axes()), indexing="ij")
        centres.append(np.stack([m.reshape(-1) for m in mesh], axis=1))
    assert np.concatenate(synthesized).tobytes() == np.concatenate(
        [c for c in centres for _ in (None, half)]).tobytes()
    assert np.concatenate(masked).tobytes() == np.concatenate(centres).tobytes()


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
    d = dataclasses.asdict(rep)
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
    """stencil, and closure_defect's divergence and curl of the components
    (|div| and the max |curl| over pairs), are the out-of-place expressions
    bit for bit, with holes, infinities and signed zeros; so are the
    parent's in-place divergence and curl_max (the oracles in conftest)."""
    from streamfields.verify import closure_defect, stencil

    rng = np.random.default_rng(sum(shape))
    comps = _holed_grids(rng, shape, len(shape))
    w = np.stack([c.reshape(-1) for c in comps], axis=1)
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
            np.testing.assert_array_equal(old_divergence(comps, h, order).view(np.int64),
                                          div.view(np.int64))
            np.testing.assert_array_equal(old_curl_max(comps, h, order).view(np.int64),
                                          worst.view(np.int64))
            for system, want in (("divergence", np.abs(div)), ("minor", worst)):
                got = closure_defect(w, shape, system, h, order)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("cells", [(12, 10), (6, 5, 4)])
def test_rho_w_by_contiguous_components_is_the_old_product(cells, monkeypatch):
    """closure_defect with scale rho(Q), the divergence and minor kinds'
    kernel, hands stencil C-contiguous components that are the old rho(Q) w
    product bit for bit, and gives |div| and curl_max of that product, on a
    solution with NaN rows in w and Q."""
    from streamfields import verify
    from streamfields.verify import closure_defect

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
    old = old_rho_w(sol, grid.shape())
    assert len(old) == dim
    for g, w in zip(old, [u[:, i].reshape(grid.shape()) for i in range(dim)]):
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
    h, rho = grid.spacing(), model.rho(sol.Q)
    seen, stencil = [], verify.stencil
    monkeypatch.setattr(verify, "stencil", lambda values, axis, *rest: (
        seen.append((values, axis)) or stencil(values, axis, *rest)))
    with np.errstate(all="ignore"):
        for system, want in (("divergence", np.abs(old_divergence(old, h, 2))),
                             ("minor", old_curl_max(old, h, 2))):
            seen.clear()
            got = closure_defect(sol.w, grid.shape(), system, h, 2, rho)
            assert np.isnan(got).any() and np.isfinite(got).any()
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert seen and all(values.flags.c_contiguous for values, _ in seen)
            if system == "divergence":  # d_i of component i, in axis order
                assert [axis for _, axis in seen] == list(range(dim))
                for (values, _), g in zip(seen, old):
                    np.testing.assert_array_equal(values.view(np.int64), g.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_defect_is_the_minor_and_divergence_defect(n):
    """wedge_defect on rows with NaN, +-inf and -0.0 in d, G and w: the max
    over pairs of |d_ij - (G_i w_j - G_j w_i)| (minor), |d - G . w|
    (divergence) and |d| without G, against frobenius's old whole-stack
    formulas (conftest), NaN where any term is; an unknown system is a
    VerifyError."""
    from streamfields.verify import wedge_defect

    rng = np.random.default_rng(n)
    G, w = _holed_grids(rng, (400, n), 2)
    d = _holed_grids(rng, (400, n, n), 1)[0]
    div = _holed_grids(rng, (400,), 1)[0]
    for v in (G, w, d, div):  # rows of signed zeros, whose defect is +0.0
        v[:5] = -0.0
    with np.errstate(all="ignore"):
        minor = wedge_defect("minor", lambda i, j: d[:, i, j].copy(), G, w)
        np.testing.assert_array_equal(minor, old_max_minor(d - old_wedge(G, w)))
        assert np.isnan(minor).any() and np.isinf(minor).any() and (minor == 0).any()
        assert not np.signbit(minor).any()
        bare = wedge_defect("minor", lambda i, j: d[:, i, j].copy(), None, w)
        np.testing.assert_array_equal(bare, old_max_minor(d))
        got = wedge_defect("divergence", div.copy, G, w)
        np.testing.assert_array_equal(got.view(np.int64),
                                      np.abs(div - np.einsum("ni,ni->n", G, w)).view(np.int64))
        assert not np.signbit(got[:5]).any()
        np.testing.assert_array_equal(wedge_defect("divergence", div.copy, None, w).view(np.int64),
                                      np.abs(div).view(np.int64))
    with pytest.raises(VerifyError, match="unknown system"):
        wedge_defect("curl", lambda *pair: div.copy(), G, w)


# ---------------------------------------------------------------------------
# residuals in row slabs against the kernels run on the whole grid


def _whole_grid_residual(kind, sol, extra, witness=None, eta=None):
    """(residual, excluded) of one kind from the finite-difference kernels on
    the whole grid at once, as the residual bodies computed them before slabs."""
    from streamfields.verify import _excluded, stencil

    grid = sol.grid
    shape, h = grid.shape(), grid.spacing()
    bad = None
    with np.errstate(all="ignore"):
        if kind == "divergence":
            res = np.abs(old_divergence(old_rho_w(sol, shape), h, 2))
        elif kind == "minor":
            res = old_curl_max(old_rho_w(sol, shape), h, 2)
        elif kind == "frobenius":
            res = old_frobenius_fd(witness.G, sol.w, shape, witness.kind, h, 2)
            bad = ~witness.defined
        elif kind == "exactness":
            res = old_closure_residual(sol.w, eta.reshape(shape), witness.kind, h, 2)
            bad = ~np.isfinite(eta)
        else:
            # rho(Q) where a branch was taken, NaN elsewhere; omega's
            # coefficients are the columns of w
            n, k = grid.dim, sol.drive.k
            rho_c = np.where(sol.branch_id != 0, sol.model.rho(sol.Q), np.nan)
            coeffs = {key: rho_c * sol.w[:, c] for c, key in enumerate(multi_indices(n, k))}
            grads = {key: np.stack([stencil(vals.reshape(shape), i, h[i], 2).reshape(-1)
                                    for i in range(n)], axis=1)
                     for key, vals in coeffs.items()}
            delta = codifferential(FormValues(n=n, k=k, coeffs=coeffs, grads=grads,
                                              bad=np.zeros(grid.npoints(), dtype=bool)))
            res = np.zeros(shape)
            for vals in delta.coeffs.values():
                res = np.maximum(res, np.abs(vals.reshape(shape)))
    return res, _excluded(sol, shape, bad, extra)


# (drive, density, policy, box, cells, stream form); the frobenius witness is
# the first that fits the drive: minor in 2-D, divergence in 3-D and 4-D
SLAB_CASES = {
    "2d": (lambda: scalar_drive("exp(x1*x2)/3"), shallow_water, prefer_type1,
           ((0.2, 0.2), (0.8, 0.8)), (22, 9), "x1^2 * x2^3 / 8"),
    "2d-shorter-than-a-slab": (lambda: scalar_drive("exp(x1*x2)/3"), shallow_water, prefer_type1,
                               ((0.2, 0.2), (0.8, 0.8)), (4, 40), "x1^2 * x2^3 / 8"),
    "3d": (coulomb, born_infeld, lambda: single_branch(1),
           ((1.1, 0.2, 0.2), (1.9, 0.8, 0.8)), (10, 5, 4), "x1^2*x2/8 + x3^2/10"),
    "4d": (lambda: gradient_drive(4, "0.1*(x1^2 + x2^2 + x3^2 + x4^2) + 0.05*x1*x2"),
           shallow_water, prefer_type1, ((0.1,) * 4, (0.9,) * 4), (8, 3, 3, 4),
           "x1*x2^2/8 + x3*x4/10"),
}


def _holed(sol, rng, edges, row):
    """Plant NaN rows in w, singular flags and excluded nodes (returned) at
    random and on the rows either side of every slab edge in `edges`."""
    n = sol.w.shape[0]
    near = np.zeros(n, dtype=bool)
    for r in edges:
        for rr in (r - 1, r):
            near[rr * row + rng.integers(0, row, 2)] = True
    sol.w[(rng.random(n) < 0.02) | (near & (rng.random(n) < 0.5))] = np.nan
    sol.flags[(rng.random(n) < 0.02) | (near & (rng.random(n) < 0.5))] |= FLAG_GAMMA_S
    return (rng.random(n) < 0.02) | (near & (rng.random(n) < 0.5))


def _node_mask(grid, excluded):
    """The verify.mask predicate that is False on the grid nodes `excluded`:
    each point's node is rint((p - lo) / h)."""
    lo, h = np.asarray(grid.lo), grid.spacing()

    def mask(points):
        nodes = np.rint((points - lo) / h).astype(np.intp)
        return ~excluded[np.ravel_multi_index(tuple(nodes.T), grid.shape())]
    return mask


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_residual_slabs_are_the_whole_grid_residual_bit_for_bit(monkeypatch, case):
    """Every residual kind, with slabs of 1, 2 and 7 rows on one and two
    workers: the residual and the mask the driver hands _report are the
    whole-grid kernels' byte for byte, and so is the report, with NaN holes,
    flagged points and nodes the mask predicate excludes on the slab edges."""
    from streamfields import frobenius as frobmod, synth as synthmod
    from streamfields import verify as verifymod

    make_drive, make_model, make_policy, (lo, hi), cells, stream = SLAB_CASES[case]
    grid = GridSpec(lo, hi, cells)
    shape, row = grid.shape(), int(np.prod(grid.shape()[1:]))
    rng = np.random.default_rng(len(case))
    d, model, policy = make_drive(), make_model(), make_policy()
    sol = synthesize(model, d, policy, grid)
    wit = getattr(frobmod, "witness_" + frobmod.resolve_witness("auto", d))(sol)
    fsol = synthesize(model, FormDrive(kform(grid.dim, 0, {(): stream})), policy, grid)
    edges = [r for height in (2, 7) for r in range(height, shape[0], height)]
    extra = _holed(sol, rng, edges, row)
    form_extra = _holed(fsol, rng, edges, row)
    keep, form_keep = _node_mask(grid, extra), _node_mask(grid, form_extra)
    eta = rng.normal(size=grid.npoints())
    eta[rng.random(eta.size) < 0.03] = np.nan
    runs = {
        "divergence": (sol, extra, {}, lambda **kw: divergence_residual(sol, mask=keep, **kw)),
        "minor": (sol, extra, {}, lambda **kw: minor_residual(sol, mask=keep, **kw)),
        "frobenius": (sol, extra, {"witness": wit},
                      lambda **kw: frobenius_residual(sol, wit, mask=keep, **kw)),
        "exactness": (sol, extra, {"witness": wit, "eta": eta},
                      lambda **kw: exactness_residual(sol, eta, system=wit.kind, mask=keep, **kw)),
        "codifferential": (fsol, form_extra, {},
                           lambda **kw: codifferential_residual(fsol, mask=form_keep, **kw)),
    }
    seen = []
    report = verifymod._report

    def spy(kind, g, residual, excluded):
        seen.append((residual.copy(), excluded.copy()))
        return report(kind, g, residual, excluded)

    monkeypatch.setattr(verifymod, "_report", spy)
    for kind, (s, bad, extra_args, run) in runs.items():
        want_res, want_exc = _whole_grid_residual(kind, s, bad, **extra_args)
        want = dataclasses.asdict(report("k", grid, want_res.copy(), want_exc))
        for height in (1, 2, 7):
            monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * row)
            for workers in (1, 2):
                seen.clear()
                got = dataclasses.asdict(run(workers=workers))
                (res, exc), = seen
                label = (kind, height, workers)
                assert res.tobytes() == want_res.tobytes(), label
                assert exc.tobytes() == want_exc.tobytes(), label
                assert {**got, "kind": "k"} == want, label
    assert want_exc.any() and not want_exc.all()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 7])
def test_slabs_visit_the_walks_slabs_and_a_synthesis_gives_the_synthesized_rows(
        monkeypatch, height, workers):
    """With no kernel, _slabs visits every slab of synth.walk's bands once,
    each band's in order, with slabs of 1, 2 and 7 rows on one worker and
    two; from a Synthesis that has not run, the rows it visits are
    synthesize's, bit for bit, as they are from the solution itself."""
    from streamfields import synth as synthmod, verify as verifymod

    grid = GridSpec((-1.1, -1.0), (1.2, 0.9), (12, 9))
    row = 10
    model, d, policy, tol = shallow_water(), shallow_vortex(1.0), prefer_type1(), Tolerances()
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * row)
    want = synthesize(model, d, policy, grid, tol=tol)
    bands = []
    synthmod.walk(grid, workers, bands.append)
    walked = sorted(slab for band in bands for slab in band)
    assert [top for top, _ in walked] == [0] + [end for _, end in walked[:-1]]
    assert walked[-1][1] == grid.shape()[0]  # every row once
    for source in (want, synthmod.Synthesis(grid, model, d, policy, tol)):
        seen = []

        def visit(top, end, part):
            seen.append((top, end, {name: getattr(part, name).copy()
                                    for name in synthmod.ROW_ARRAYS}))

        verifymod._slabs(source, [], workers, visit=visit)
        for slabs in bands:  # a band's slabs, in its order among the threads' visits
            tops = range(slabs[0][0], slabs[-1][1])
            assert [(top, end) for top, end, _ in seen if top in tops] == slabs
        assert len(seen) == len(walked)
        for top, end, part in seen:
            for name, rows in part.items():
                assert rows.tobytes() == getattr(want, name)[top * row:end * row].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_with_no_kernel_synthesizes_each_node_once(monkeypatch, workers):
    """A pass that only visits its slabs (a study's level copy, a form
    config's field pass) reads no HALO rows, so from a Synthesis every node
    is synthesized once, on one band or two."""
    from streamfields import synth as synthmod, verify as verifymod

    grid = GridSpec((-1.1, -1.0), (1.2, 0.9), (12, 9))
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 2 * 10)
    counted, visited = [], []
    real = verifymod.synthesize_at_points

    def spy(model, d, policy, points, **kw):
        counted.append(len(points))
        return real(model, d, policy, points, **kw)

    monkeypatch.setattr(verifymod, "synthesize_at_points", spy)
    source = synthmod.Synthesis(grid, shallow_water(), shallow_vortex(1.0), prefer_type1(),
                                Tolerances())
    verifymod._slabs(source, [], workers, visit=lambda top, end, part: visited.append(end - top))
    assert sum(counted) == grid.npoints() and sum(visited) == grid.shape()[0]


def test_bands_of_one_row_hand_out_each_row_once(monkeypatch):
    """Four bands of one row each, every one within HALO rows of the grid's
    edge: each band hands out only its own row, so every row is visited
    once, and the residual and mask arrays are the one band's bit for bit."""
    from streamfields import synth as synthmod, verify as verifymod

    grid = GridSpec((-1.1, -1.0), (1.2, 0.9), (3, 40))
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 41)
    source = synthmod.Synthesis(grid, shallow_water(), shallow_vortex(1.0), prefer_type1(),
                                Tolerances())
    kernel = verifymod.SLAB_KINDS["divergence"][1](grid.spacing())
    runs = []
    for workers in (1, 4):
        bands, visited = [], []
        synthmod.walk(grid, workers, bands.append)
        outs = verifymod._slabs(source, [kernel], workers,
                                mask=lambda points: points[:, 1] < 0.5,
                                visit=lambda top, end, part: visited.append((top, end)))
        assert len(bands) == workers
        assert sorted(r for top, end in visited for r in range(top, end)) == [0, 1, 2, 3]
        runs.append([array.tobytes() for pair in outs for array in pair])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("synthesis", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 7])
def test_the_mask_predicate_sees_each_node_once_a_band(monkeypatch, height, workers, synthesis):
    """With slabs of 1, 2 and 7 rows, the verify.mask predicate sees each
    node of a band once (the HALO rows either side of a seam between bands
    once per band), and the mask is the whole grid's bit for bit.  From a
    Synthesis that has not run, each node is synthesized exactly as often."""
    from streamfields import synth as synthmod, verify as verifymod

    grid = GridSpec((-1.1, -1.0), (1.2, 0.9), (12, 9))
    shape, row = grid.shape(), 10
    model, d, policy, tol = shallow_water(), shallow_vortex(1.0), prefer_type1(), Tolerances()
    sol = synthesize(model, d, policy, grid, tol=tol)

    def predicate(points):
        return points[:, 0] ** 2 + 0.5 * points[:, 1] < 0.6

    want = verifymod._excluded(sol, shape, None, ~predicate(grid.points()))
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * row)
    seen, synthesized, real = [], [], verifymod.synthesize_at_points

    def mask(points):
        seen.append(points.copy())
        return predicate(points)

    def spy(model, d, policy, points, **kw):
        synthesized.append(points.copy())
        return real(model, d, policy, points, **kw)

    def counts(points: list) -> np.ndarray:
        pts = np.concatenate(points)
        flat = [np.searchsorted(ax, pts[:, i]) for i, ax in enumerate(grid.axes())]
        return np.bincount(np.ravel_multi_index(flat, shape), minlength=grid.npoints())

    monkeypatch.setattr(verifymod, "synthesize_at_points", spy)
    source = synthmod.Synthesis(grid, model, d, policy, tol) if synthesis else sol
    kernel = verifymod.SLAB_KINDS["divergence"][1](grid.spacing())
    (_, excluded), = verifymod._slabs(source, [kernel], workers, mask=mask)
    assert excluded.tobytes() == want.tobytes()
    bands = []
    synthmod.walk(grid, workers, bands.append)
    expected = np.ones(shape, dtype=np.intp)
    for slabs in bands[1:]:
        seam = slabs[0][0]
        expected[seam - verifymod.HALO:seam + verifymod.HALO] += 1
    assert np.array_equal(counts(seen), expected.reshape(-1))
    if synthesis:
        assert np.array_equal(counts(synthesized), expected.reshape(-1))
    else:
        assert synthesized == []
    assert want.any() and not want.all()
