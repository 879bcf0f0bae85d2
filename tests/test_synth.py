import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import (
    FLAG_DRIVE_UNDEFINED,
    FLAG_GAMMA0,
    FLAG_GAMMA_G,
    FLAG_GAMMA_INF,
    FLAG_GAMMA_S,
    FLAG_NONPHYSICAL_RHO,
    FLAG_OUTSIDE_OMEGA,
    GridSpec,
    SynthError,
    Tolerances,
    caustic,
    extremal,
    gradient_drive,
    nested_index,
    prefer_type1,
    prefer_type2,
    region_map,
    scalar_drive,
    shallow_vortex,
    shallow_water,
    single_branch,
    synthesize,
    synthesize_at_points,
)


def random_poly_drive(rng):
    """Random cubic stream potential with seeded coefficients."""
    c = [float(v) for v in rng.uniform(-1.0, 1.0, 7)]
    f = (f"{c[0]!r}*x1^3 + {c[1]!r}*x1^2*x2 + {c[2]!r}*x1*x2^2 + {c[3]!r}*x2^3"
         f" + {c[4]!r}*x1^2 + {c[5]!r}*x1*x2 + {c[6]!r}*x2^2")
    return scalar_drive(f)


def drive_a_xi(d, pts):
    from streamfields import drive_batch

    batch = drive_batch(d, pts)
    return batch.a, batch.xi


def test_random_polynomials_match_branch_closed_forms(rng):
    """For the square-root density pair, w on branch 1 is a/sqrt(1+xi) and on
    branch 2 it is a/sqrt(xi-1); check 20 seeded random stream potentials."""
    m = extremal()
    for trial in range(20):
        d = random_poly_drive(rng)
        pts = rng.uniform(-1.2, 1.2, (50, 2))
        a, xi = drive_a_xi(d, pts)

        s1 = synthesize_at_points(m, d, single_branch(1), pts)
        want1 = a / np.sqrt(1.0 + xi)[:, None]
        ok1 = s1.branch_id == 1
        assert ok1.sum() > 10
        assert np.abs(s1.w[ok1] - want1[ok1]).max() < 1e-12

        s2 = synthesize_at_points(m, d, single_branch(2), pts)
        ok2 = s2.branch_id == 2
        if ok2.any():
            want2 = a[ok2] / np.sqrt(xi[ok2] - 1.0)[:, None]
            assert np.abs(s2.w[ok2] - want2).max() < 1e-12
        # points with xi <= 1 cannot sit on branch 2
        assert not (s2.branch_id[xi <= 1.0] == 2).any()


def test_vortex_region_map_crosses_all_three_branches():
    R = 1.0
    m = shallow_water()
    d = shallow_vortex(R)
    g = GridSpec((-1.1, -1.1), (1.1, 1.1), (48, 48))
    policy = region_map(
        [("2/3 - (x1^2 + x2^2)", 1), ("2 - (x1^2 + x2^2)", 2)],
        default_id=3, dim=2, allow_nonphysical=True)
    sol = synthesize(m, d, policy, g)
    assert set(np.unique(sol.branch_id[sol.branch_id > 0])) == {1, 2, 3}
    pts = sol.points
    want = np.stack([-pts[:, 1], pts[:, 0]], axis=1) / np.sqrt(R)
    ok = sol.branch_id != 0
    assert np.abs(sol.w[ok] - want[ok]).max() < 1e-10
    # nonphysical annulus is flagged but synthesized
    t = (pts**2).sum(axis=1)
    outer = t > 2.0 + 1e-9
    assert (sol.flags[outer] & FLAG_NONPHYSICAL_RHO).all()
    assert not (sol.flags[t < 2.0 - 1e-9] & FLAG_NONPHYSICAL_RHO).any()


def test_nonphysical_branch_needs_opt_in():
    m = shallow_water()
    d = shallow_vortex(1.0)
    pts = np.array([[1.2, 1.2]])  # t = 2.88 > 2
    with pytest.raises(SynthError):
        synthesize_at_points(m, d, single_branch(3), pts)
    opened = synthesize_at_points(m, d, single_branch(3, allow_nonphysical=True), pts)
    assert opened.branch_id[0] == 3
    assert opened.flags[0] & FLAG_NONPHYSICAL_RHO
    # prefer policies silently skip the nonphysical branch when not opted in
    skipped = synthesize_at_points(m, d, prefer_type1(), pts)
    assert skipped.branch_id[0] == 0
    assert skipped.flags[0] & FLAG_OUTSIDE_OMEGA


def test_prefer_policies_pick_the_advertised_type():
    m = shallow_water()
    d = shallow_vortex(1.0)
    pts = np.array([[0.4, 0.3], [0.9, 0.6]])  # t = 0.25 and 1.17
    s1 = synthesize_at_points(m, d, prefer_type1(), pts)
    assert list(s1.branch_id) == [1, 1]
    s2 = synthesize_at_points(m, d, prefer_type2(), pts)
    assert list(s2.branch_id) == [2, 2]
    assert (s1.regime == 1).all() and (s2.regime == 2).all()


def test_regime_codes_follow_phi_prime_sign():
    m = extremal()
    d = scalar_drive("x1*x2")
    pts = np.array([[0.5, 0.5], [2.0, 2.0]])
    s1 = synthesize_at_points(m, d, single_branch(1), pts)
    assert (s1.regime == 1).all()  # type1 branch -> elliptic
    s2 = synthesize_at_points(m, d, single_branch(2), pts)
    on2 = s2.branch_id == 2
    assert (s2.regime[on2] == 2).all()  # type2 branch -> hyperbolic


def test_gamma0_subset_gamma_s(rng):
    """Fold-touching points: gamma_0 never escapes gamma_s."""
    m = shallow_water()
    d = shallow_vortex(1.0)
    pts = rng.uniform(-1.5, 1.5, (4000, 2))
    sol = synthesize_at_points(m, d, prefer_type1(allow_nonphysical=True), pts,
                               tol=Tolerances(eps_phi_prime=1e-2))
    g0 = (sol.flags & FLAG_GAMMA0) != 0
    gs = (sol.flags & FLAG_GAMMA_S) != 0
    assert not (g0 & ~gs).any()


def test_alternate_scaling_agrees_with_primary_where_rho_regular():
    """Where |rho| is comfortably nonzero, a/rho and unit(a)*sqrt(Q) coincide."""
    tau = 1.0
    m = caustic(tau)
    d = scalar_drive("x1^2 * x2^3")
    pts = np.random.default_rng(7).uniform(0.4, 1.2, (200, 2))
    sol = synthesize_at_points(m, d, prefer_type1(), pts)
    ok = sol.branch_id != 0
    rho = m.rho(sol.Q[ok])
    strong = np.abs(rho) > 1e-6
    from streamfields import drive_batch

    batch = drive_batch(d, pts)
    unit = batch.a[ok] / np.sqrt(batch.xi[ok])[:, None]
    alt = unit * np.sqrt(sol.Q[ok])[:, None]
    assert np.abs(sol.w[ok][strong] - alt[strong]).max() < 1e-9


def test_degenerate_rho_with_vanishing_q_gives_zero_field():
    """rho(0) = 0 densities: where psi(xi) collapses to 0 the primary scaling
    a/rho is 0/0, and the unit(a)*sqrt(Q) fallback returns an exact zero."""
    from streamfields import custom

    m = custom("sqrt(Q)", q_max=9.0, name="sqrt")
    d = scalar_drive("x1^2 + x2^2")  # a = (-2y, 2x) vanishes at the origin
    sol = synthesize_at_points(m, d, prefer_type1(), np.array([[0.0, 0.0], [0.3, 0.0]]))
    assert sol.branch_id[0] == 1
    np.testing.assert_array_equal(sol.w[0], [0.0, 0.0])
    assert sol.flags[0] & FLAG_GAMMA_S  # phi'(0) = 0 for this density
    assert np.isfinite(sol.w[1]).all() and abs(sol.w[1][1]) > 0.1


def test_gamma0_marks_the_rho_zero_set():
    """Caustic shadow branch: xi -> 0 sends Q to tau^2 where rho vanishes with
    Q far from zero; such points are flagged gamma_0 (and so gamma_s)."""
    tau = 1.0
    m = caustic(tau)
    d = scalar_drive("x1^2 + x2^2")  # xi = 4 t, tiny near the origin
    pts = np.array([[1e-9, 0.0], [0.5, 0.0]])
    sol = synthesize_at_points(m, d, prefer_type1(), pts)
    assert sol.branch_id[0] == 1
    assert sol.flags[0] & FLAG_GAMMA0
    assert sol.flags[0] & FLAG_GAMMA_S
    assert not (sol.flags[1] & FLAG_GAMMA0)


def test_undefined_drive_flag():
    m = extremal()
    d = scalar_drive("log(x1)")
    sol = synthesize_at_points(m, d, prefer_type1(), np.array([[-1.0, 0.5]]))
    assert sol.flags[0] & FLAG_DRIVE_UNDEFINED
    assert sol.branch_id[0] == 0
    assert np.isnan(sol.w[0]).all()


def test_nested_index_finds_coarse_nodes_and_refuses_grids_that_do_not_nest():
    fine = GridSpec((0.0, -1.0), (1.0, 2.0), (8, 6))
    coarse = GridSpec((0.0, -1.0), (1.0, 2.0), (4, 3))
    idx = nested_index(coarse, fine)
    assert fine.points()[idx].tobytes() == coarse.points().tobytes()
    assert np.array_equal(nested_index(fine, fine), np.arange(fine.npoints()))
    assert nested_index(GridSpec((0.0, -1.0), (1.0, 2.0), (3, 3)), fine) is None  # 8 % 3
    assert nested_index(GridSpec((0.0, -1.0), (2.0, 2.0), (4, 3)), fine) is None  # other box
    assert nested_index(GridSpec((0.0,), (1.0,), (4,)), fine) is None  # other dimension
    assert nested_index(fine, coarse) is None  # finer than the grid it is looked up in
    # 3 divides 6, but a spacing a third as wide need not hit the coarse nodes bit for bit
    assert nested_index(GridSpec((0.0, -1.0), (1.0, 2.0), (8, 2)), fine) is None
    # a last node of -0.0 is not one of 0.0
    assert nested_index(GridSpec((-1.0,), (-0.0,), (2,)), GridSpec((-1.0,), (0.0,), (4,))) is None


def _random_box(rng) -> tuple:
    """lo < hi drawn over the whole float range: magnitudes from 1e-300 to
    1e300, either sign, and extents from a few ulps of lo up to both ends'
    own size."""
    while True:
        a, b = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300) for _ in range(2))
        if rng.random() < 0.3:  # a narrow box around a
            b = a + abs(a) * 10.0 ** rng.uniform(-15, 0)
        lo, hi = min(a, b), max(a, b)
        if lo < hi and np.isfinite(hi - lo):
            return lo, hi


def test_grid_axes_are_linspace_bit_for_bit_and_refined_levels_nest():
    """GridSpec.axes does np.linspace's arithmetic, and every node of a grid is
    a node of the grid refined by 2^j, bit for bit, on random boxes and cell
    counts (derandomized), down to a finest spacing of the smallest normal
    float."""
    rng = np.random.default_rng(1515)
    tiny = np.finfo(float).tiny
    boxes = [(*_random_box(rng), int(rng.integers(2, 200))) for _ in range(3000)]
    # finest spacings of exactly tiny, and a box one ulp wide
    boxes += [(0.0, 3 * 16 * tiny, 3), (-2 * 16 * tiny, 0.0, 2), (1.0, np.nextafter(1.0, 2.0), 2)]
    checked = 0
    for lo, hi, base in boxes:
        levels = []
        for j in range(5):
            try:
                levels.append(GridSpec((lo,), (hi,), (base * 2 ** j,)))
            except SynthError:  # a subnormal spacing
                assert (hi - lo) / (base * 2 ** j) < tiny
                break
        if not levels:
            continue
        for g in levels:
            (ax,) = g.axes()
            assert ax.tobytes() == np.linspace(lo, hi, g.cells[0] + 1).tobytes()
        finest = levels[-1]
        for g in levels:
            idx = nested_index(g, finest)
            assert finest.points()[idx].tobytes() == g.points().tobytes(), (lo, hi, g.cells)
            checked += 1
    assert checked > 10000


def test_grid_dimension_mismatch_raises():
    m = extremal()
    d = gradient_drive(3, "x1 + x2 + x3")
    with pytest.raises(SynthError):
        synthesize(m, d, prefer_type1(), GridSpec((0, 0), (1, 1), (4, 4)))


def test_one_row_matches_the_same_row_of_a_batch(rng):
    m = shallow_water()
    d = shallow_vortex(1.0)
    pts = np.vstack([rng.uniform(-1.2, 1.2, (40, 2)), [[0.3, 0.2]]])
    batch = synthesize_at_points(m, d, prefer_type1(), pts)
    for i in (0, 17, len(pts) - 1):
        one = synthesize_at_points(m, d, prefer_type1(), pts[i][None])
        np.testing.assert_array_equal(one.w[0], batch.w[i])
        np.testing.assert_array_equal(one.Q[0], batch.Q[i])
        np.testing.assert_array_equal(one.xi[0], batch.xi[i])
        assert one.regime[0] == batch.regime[i]
        assert one.branch_id[0] == batch.branch_id[i]
        assert one.flags[0] == batch.flags[i]


def test_determinism_bitwise(rng):
    m = shallow_water()
    d = shallow_vortex(2.0)
    pts = rng.uniform(-2, 2, (500, 2))
    a = synthesize_at_points(m, d, prefer_type2(allow_nonphysical=True), pts)
    b = synthesize_at_points(m, d, prefer_type2(allow_nonphysical=True), pts)
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.flags, b.flags)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.9, allow_nan=False), st.floats(0, 2 * np.pi, allow_nan=False))
def test_vortex_field_speed_is_radius_over_sqrtR(t, theta):
    R = 1.0
    m = shallow_water()
    d = shallow_vortex(R)
    r = np.sqrt(t)
    pts = np.array([[r * np.cos(theta), r * np.sin(theta)]])
    policy = prefer_type1() if t < 2 / 3 else prefer_type2()
    sol = synthesize_at_points(m, d, policy, pts)
    if sol.branch_id[0] != 0:
        assert np.linalg.norm(sol.w[0]) == pytest.approx(r / np.sqrt(R), rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# block synthesis against one call on the whole grid

PER_POINT = ("points", "w", "Q", "xi", "regime", "branch_id", "flags")


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block, cells", [(7, 12), (1000, None)])
def test_block_synthesis_equals_one_call_on_the_whole_grid_bit_for_bit(monkeypatch, block, cells):
    """Every built-in field example, on its shipped grid with blocks of 1000
    nodes and on a 12-cell grid with blocks of 7, for one worker and two: each
    block is written into its own rows and the values do not depend on the
    partition."""
    from streamfields import config as cfgmod, synth as synthmod

    split = 0
    for name, spec in sorted(cfgmod.EXAMPLES.items()):
        if "forms" in spec:
            continue
        cfg = cfgmod.example_config(name)
        grid = cfgmod.build_grid(cfg)
        if cells is not None:
            grid = GridSpec(grid.lo, grid.hi, (cells,) * grid.dim)
        model, d = cfgmod.build_model(cfg), cfgmod.build_drive(cfg)
        policy, tol = cfgmod.build_policy(cfg, grid.dim), cfgmod.build_tol(cfg)
        want = synthesize_at_points(model, d, policy, grid.points(), tol=tol, grid=grid)
        split += grid.npoints() > block
        monkeypatch.setattr(synthmod, "SYNTH_BLOCK", block)
        for workers in (1, 2):
            got = synthesize(model, d, policy, grid, tol=tol, workers=workers)
            assert got.grid == grid and got.tol == tol
            for attr in PER_POINT:
                assert _same_bits(getattr(got, attr), getattr(want, attr)), (name, workers, attr)
        monkeypatch.undo()
    assert split >= 9  # all but unit-density's 289 nodes at blocks of 1000


def test_a_grid_of_one_block_is_one_call(monkeypatch):
    """A larger grid is cut into the same blocks for any worker count."""
    from streamfields import synth as synthmod

    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[3]))
        return synthesize_at_points(*args, **kwargs)

    monkeypatch.setattr(synthmod, "synthesize_at_points", counted)
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (9, 9))
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 100)
    for workers in (1, 2):
        synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid, workers=workers)
    assert calls == [100, 100]
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 40)
    for workers in (1, 2):
        calls.clear()
        synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid, workers=workers)
        assert sorted(calls) == [20, 40, 40]


def test_an_error_in_a_block_reaches_the_caller(monkeypatch):
    from streamfields import synth as synthmod

    def fails_on_the_tail(model, d, policy, pts, **kwargs):
        if len(pts) < synthmod.SYNTH_BLOCK:
            raise SynthError("tail block")
        return synthesize_at_points(model, d, policy, pts, **kwargs)

    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 40)
    monkeypatch.setattr(synthmod, "synthesize_at_points", fails_on_the_tail)
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (9, 9))
    for workers in (1, 2):
        with pytest.raises(SynthError, match="tail block"):
            synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid, workers=workers)
