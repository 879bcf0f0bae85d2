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


def test_gamma0_needs_q_above_eps_rho():
    """rho(Q) = Q vanishes only as Q does, where w -> 0 continuously: a point
    with 0 < Q <= eps_rho and rho = Q (so |rho| < eps_rho) is not on Gamma0.
    Shallow water's rho = 1 - Q/2 vanishes at Q = 2, and the points of branch
    2 where |rho| < eps_rho are."""
    from streamfields import custom

    tol = Tolerances()
    q = np.array([1e-10, 1e-9, 1e-8, 1e-7, 5e-7, tol.eps_rho])
    # f = x1^2: xi = 4 x1^2 = phi(Q) = Q^3
    pts = np.c_[np.sqrt(q ** 3) / 2, np.zeros_like(q)]
    sol = synthesize_at_points(custom("Q", q_max=10.0), scalar_drive("x1^2"), prefer_type1(),
                               pts, tol)
    np.testing.assert_allclose(sol.Q, q, rtol=1e-9)
    assert (sol.branch_id == 1).all() and (sol.Q > 0).all()
    assert (np.abs(sol.Q) < tol.eps_rho).sum() == 5
    assert not (sol.flags & FLAG_GAMMA0).any()

    # f = x1^2 + x2^2: |a| = 2 r, and branch 2 sends xi -> 0 to Q -> 2
    r = np.array([1e-8, 7e-8, 3e-7])
    sol = synthesize_at_points(shallow_water(), scalar_drive("x1^2 + x2^2"), single_branch(2),
                               np.c_[r, np.zeros_like(r)], tol)
    rho = shallow_water().rho(sol.Q)
    assert (sol.branch_id == 2).all() and (tol.rho_zero <= rho).all() and (rho < tol.eps_rho).all()
    assert (sol.flags & FLAG_GAMMA0).all()


def test_an_error_inside_a_band_reaches_the_caller_unchanged():
    from streamfields import synth

    grid = GridSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), cells=(300, 300))  # two bands on two workers

    def band(slabs):
        if slabs[0][0] > 0:
            raise RuntimeError("inside a band")

    with pytest.raises(RuntimeError, match="inside a band"):
        synth.walk(grid, 2, band)


def test_gamma_g_needs_a_nonzero_laplacian():
    """A critical point of the drive is on Gamma_G only where the Laplacian of
    f is not zero: x1^2 + x2^2 (Laplacian 4) flags its one grid node at the
    origin, x1^2 - x2^2 (Laplacian 0) flags none."""
    grid = GridSpec(lo=(-1.0, -1.0), hi=(1.0, 1.0), cells=(4, 4))
    origin = int(np.flatnonzero((grid.points() == 0.0).all(axis=1))[0])
    for f, flagged in (("x1^2 + x2^2", [origin]), ("x1^2 - x2^2", [])):
        sol = synthesize(shallow_water(), scalar_drive(f), prefer_type1(), grid)
        assert sol.xi[origin] == 0.0 and sol.flags[origin] & FLAG_DRIVE_UNDEFINED == 0
        assert np.flatnonzero(sol.flags & FLAG_GAMMA_G).tolist() == flagged, f


def test_undefined_drive_flag():
    m = extremal()
    d = scalar_drive("log(x1)")
    sol = synthesize_at_points(m, d, prefer_type1(), np.array([[-1.0, 0.5]]))
    assert sol.flags[0] & FLAG_DRIVE_UNDEFINED
    assert sol.branch_id[0] == 0
    assert np.isnan(sol.w[0]).all()


def test_each_zero_and_pole_of_rho_carries_its_flags():
    """Three points where only one condition of _assemble sets a flag:
    extremal rho = |1 - Q|^(-1/2) at Q = 1 (xi = 1.024e17 rounds psi to 1),
    a pole with a finite Q, is on gamma_inf and, phi' not being finite
    there, on gamma_s; rho = sqrt(1 - Q) within 1e-12 of Q = 1 has
    |rho| < eps_rho but phi' = -1, so it is on gamma_s only as the zero set
    of rho is; rho = Q^2 at Q < eps_rho has |rho| < rho_zero, a hard zero
    of rho with Q > q_zero, which alone puts it on gamma_0."""
    from streamfields import custom

    tol, at = Tolerances(), np.array([[0.1, 0.2]])
    sol = synthesize_at_points(extremal(), gradient_drive(2, "3.2e8 * x1"), single_branch(1), at)
    assert sol.Q[0] == 1.0 and sol.branch_id[0] == 1
    assert sol.flags[0] == FLAG_GAMMA_INF | FLAG_GAMMA_S

    root = custom("sqrt(1 - Q)", q_max=1.0, name="root")
    sol = synthesize_at_points(root, gradient_drive(2, "3e-7 * x1"), single_branch(2), at)
    assert root.rho(sol.Q)[0] < tol.eps_rho and abs(root.phi_prime(sol.Q)[0] + 1.0) < 1e-6
    assert sol.flags[0] == FLAG_GAMMA0 | FLAG_GAMMA_S

    square = custom("Q^2", q_max=1.0, name="square")
    sol = synthesize_at_points(square, gradient_drive(2, "1e-17 * x1"), single_branch(1), at)
    assert tol.q_zero < sol.Q[0] < tol.eps_rho and square.rho(sol.Q)[0] < tol.rho_zero
    assert sol.flags[0] & FLAG_GAMMA0


def test_a_failed_numeric_psi_is_outside_omega(monkeypatch):
    """A point whose branch admits its xi but whose inverse comes out NaN is
    demoted: no branch, outside_omega_f, an undefined regime and w."""
    from streamfields.density import PhiBranch

    psi = PhiBranch.psi
    monkeypatch.setattr(PhiBranch, "psi", lambda self, xi, snap=0.0: np.where(
        np.arange(np.size(xi)) % 2 == 1, np.nan, psi(self, xi, snap)))
    pts = np.c_[np.linspace(0.5, 0.9, 6), np.linspace(0.6, 0.2, 6)]
    sol = synthesize_at_points(shallow_water(), shallow_vortex(1.0), prefer_type1(), pts)
    assert (sol.branch_id[::2] != 0).all() and (sol.regime[::2] != 0).all()
    assert (sol.branch_id[1::2] == 0).all() and (sol.regime[1::2] == 0).all()
    assert (sol.flags[1::2] == FLAG_OUTSIDE_OMEGA).all()
    assert np.isnan(sol.w[1::2]).all()


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
            nested = finest.points()[::finest.cells[0] // g.cells[0]]
            assert nested.tobytes() == g.points().tobytes(), (lo, hi, g.cells)
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


@pytest.mark.parametrize("block, cells", [(7, 12), (2 * 13, 12), (7 * 13, 12), (1000, None)])
def test_block_synthesis_equals_one_call_on_the_whole_grid_bit_for_bit(monkeypatch, block, cells):
    """Every built-in field example, on its shipped grid with blocks of 1000
    nodes and on a 12-cell grid with blocks of 7 (a row cut into blocks), 26
    and 91 (slabs of 2 and 7 rows of 13 nodes in 2-D): each slab is written
    into its own rows and the values do not depend on the partition."""
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
        want = synthesize_at_points(model, d, policy, grid.points(), tol=tol)
        split += grid.npoints() > block
        monkeypatch.setattr(synthmod, "SYNTH_BLOCK", block)
        got = synthesize(model, d, policy, grid, tol=tol)
        assert got.grid == grid and got.tol == tol
        for attr in PER_POINT:
            assert _same_bits(getattr(got, attr), getattr(want, attr)), (name, attr)
        monkeypatch.undo()
    assert split >= 9  # all but unit-density's 289 nodes at blocks of 1000


def test_a_grid_of_one_block_is_one_call(monkeypatch):
    """A larger grid is synthesized in blocks of at most SYNTH_BLOCK nodes,
    in order: 10 rows of 10 nodes in blocks of 40 are calls of 40, 40 and 20
    nodes."""
    from streamfields import synth as synthmod

    calls = []

    def counted(*args, **kwargs):
        calls.append((args[3][0, 0], len(args[3])))
        return synthesize_at_points(*args, **kwargs)

    monkeypatch.setattr(synthmod, "synthesize_at_points", counted)
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (9, 9))
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 100)
    synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid)
    assert [n for _, n in calls] == [100]
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 40)
    calls.clear()
    synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid)
    assert calls == sorted(calls) and [n for _, n in calls] == [40, 40, 20]  # in row order


def test_an_error_in_a_block_reaches_the_caller(monkeypatch):
    from streamfields import synth as synthmod

    def fails_on_the_tail(model, d, policy, pts, **kwargs):
        if len(pts) < synthmod.SYNTH_BLOCK:
            raise SynthError("tail block")
        return synthesize_at_points(model, d, policy, pts, **kwargs)

    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 40)
    monkeypatch.setattr(synthmod, "synthesize_at_points", fails_on_the_tail)
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (9, 9))
    with pytest.raises(SynthError, match="tail block"):
        synthesize(shallow_water(), shallow_vortex(1.0), prefer_type1(), grid)


def _walked(monkeypatch, grid: GridSpec, workers: int) -> tuple:
    """(the (top, end) slabs walk hands each band, in band order; the pools it
    opens, as their max_workers), having checked that each band's slabs are
    synth.slabs of its rows and that one band's are synth.slabs(grid)."""
    from concurrent.futures import ThreadPoolExecutor

    from streamfields import synth as synthmod

    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(synthmod, "ThreadPoolExecutor", pool)
    bands = {}
    synthmod.walk(grid, workers, lambda slabs: bands.__setitem__(slabs[0][0], slabs))
    for top, slabs in bands.items():
        assert slabs == synthmod.slabs(grid, top, slabs[-1][1])
    if len(bands) == 1:
        assert bands[0] == synthmod.slabs(grid)
    return [bands[top] for top in sorted(bands)], pools


def test_walk_cuts_equal_bands_of_whole_rows(monkeypatch):
    """A 257^2 grid, 66,049 nodes or just over one block of 65,536, is two
    bands of 128 and 129 rows on two workers, not a block and 513 nodes;
    a slab is at most 255 rows of 257 nodes, the rows that fit a block."""
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (256, 256))
    # rows longer than a block are slabs of one row
    wide = GridSpec((-1.0, -1.0), (1.0, 1.0), (2, 70000))
    assert _walked(monkeypatch, grid, 2) == ([[(0, 128)], [(128, 257)]], [2])
    assert _walked(monkeypatch, grid, 1) == ([[(0, 255), (255, 257)]], [])
    assert _walked(monkeypatch, wide, 1)[0] == [[(0, 1), (1, 2), (2, 3)]]
    assert _walked(monkeypatch, wide, 2) == ([[(0, 1)], [(1, 2), (2, 3)]], [2])


def test_walk_runs_no_more_bands_than_rows_or_blocks(monkeypatch):
    """However many workers are asked for, a grid of one block runs on the
    calling thread, and a grid of more blocks than rows on one thread per
    row: the thread count is bounded by the grid."""
    from streamfields import synth as synthmod

    tiny = GridSpec((-1.0, -1.0), (1.0, 1.0), (2, 2))
    assert _walked(monkeypatch, tiny, 10 ** 6) == ([[(0, 3)]], [])
    assert _walked(monkeypatch, tiny, 0) == ([[(0, 3)]], [])  # as for one worker
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 2)
    assert _walked(monkeypatch, tiny, 10 ** 6) == ([[(0, 1)], [(1, 2)], [(2, 3)]], [3])


@pytest.mark.parametrize("halo", [0, 1, 2])
@pytest.mark.parametrize("height", [1, 2, 7])
@pytest.mark.parametrize("start, stop", [(0, 13), (0, 9), (4, 13), (4, 9), (1, 12)])
def test_stitched_hands_out_every_row_once_with_its_halo(halo, height, start, stop):
    """synth.stitched on chunks of `height` rows of a stream of rows start to
    stop - 1 of a 13-row grid hands out every row of the stream once, in
    order, but the stream's first and last `halo` rows where they are not
    the grid's edge; each window holds its rows and `halo` rows on each side
    (or the grid's edge), equal to the whole arrays' rows bit for bit and
    still so once the stream has ended; with a halo of 0 each chunk is its
    window, its arrays not copied."""
    from streamfields import synth as synthmod

    rows, row = 13, 3
    rng = np.random.default_rng(height + 10 * halo)
    whole = [rng.normal(size=(rows * row, 2)), rng.random(rows * row) < 0.5,
             np.arange(rows * row, dtype=np.int32)]
    cuts = list(range(start, stop, height)) + [stop]
    chunks = [(top, end, [a[top * row:end * row].copy() for a in whole])
              for top, end in zip(cuts, cuts[1:])]
    windows = list(synthmod.stitched(iter(chunks), rows, row, halo))
    first = start if start == 0 else start + halo
    last = stop if stop == rows else stop - halo
    assert [w[1] for w in windows] == [first] + [w[2] for w in windows[:-1]]
    assert windows[-1][2] == last and all(w[1] < w[2] for w in windows)
    for lo, top, end, arrays in windows:
        hi = lo + len(arrays[0]) // row
        assert (lo, hi) == (max(top - halo, 0), min(end + halo, rows)), (lo, top, end, hi)
        for got, want in zip(arrays, whole):
            assert got.dtype == want.dtype and got.tobytes() == want[lo * row:hi * row].tobytes()
    if halo == 0:
        assert [w[:3] for w in windows] == [(top, top, end) for top, end, _ in chunks]
        assert all(w[3][k] is c[2][k] for w, c in zip(windows, chunks) for k in range(3))


# ---------------------------------------------------------------------------
# synthesis from first-order drive jets


def _full_order_and_first_order(monkeypatch, model, d, policy, grid, tol=None):
    """The solution from a full-order batch, and the synthesis path's, with
    the (order, points) of each drive batch that path made."""
    from streamfields import synth

    full = synth._solve(model, d, policy, grid.points(), tol, order=2)[0]
    calls = []

    def spy(d, points, order=2, real=synth.drive_batch):
        calls.append((order, len(points)))
        return real(d, points, order)

    monkeypatch.setattr(synth, "drive_batch", spy)
    got = synthesize(model, d, policy, grid, tol)
    monkeypatch.undo()
    return full, got, calls


def _assert_same_solution(got, want, label):
    for name in ("w", "Q", "xi", "regime", "branch_id", "flags"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f"{label}: {name}"


def _example_names():
    from streamfields import config
    return sorted(config.EXAMPLES)


@pytest.mark.parametrize("name", _example_names())
def test_first_order_synthesis_is_the_full_order_one_on_every_example(monkeypatch, name):
    from streamfields import config

    cfg = config.example_config(name)
    grid = config.build_grid(cfg)
    d = config.build_drive(cfg)
    full, got, calls = _full_order_and_first_order(
        monkeypatch, config.build_model(cfg), d, config.build_policy(cfg, grid.dim), grid,
        config.build_tol(cfg))
    _assert_same_solution(got, full, name)
    # every node once at order 1; again at order 2 only the rows that pass
    # cannot settle: here at most the origin of a vortex grid
    assert sum(n for order, n in calls if order == 1) == grid.npoints()
    assert sum(n for order, n in calls if order == 2) <= 1


PLANAR = GridSpec((-1.0, -1.0), (1.0, 1.0), (24, 24))  # through the origin and x1 = 0


@pytest.mark.parametrize("f, redone", [
    # zero gradient at the origin, where only order 2 sees the argument move;
    # a = 0 on the negative x1 axis, where _assemble reads the Laplacian
    ("x1 + sqrt(x1^2 + x2^2)", 13),
    ("(x1^2 + x2^2)^0.75", 1),
    ("abs(x1) * x2", 25),
    ("log(x1)", 13 * 25),
    ("x1^2*x2 - x2^3/3 + x1", 0),
])
def test_first_order_synthesis_is_the_full_order_one_at_singular_drives(monkeypatch, f, redone):
    for model, policy in ((shallow_water(), prefer_type1(allow_nonphysical=True)),
                          (extremal(), prefer_type2()), (caustic(0.5), prefer_type1())):
        full, got, calls = _full_order_and_first_order(monkeypatch, model, scalar_drive(f),
                                                       policy, PLANAR)
        _assert_same_solution(got, full, f"{f} {model.kind}")
        assert [c for c in calls if c[0] == 2] == ([(2, redone)] if redone else []), f
    # gradient drive: its full order reads the same potential's Hessian diagonal
    full, got, _ = _full_order_and_first_order(monkeypatch, shallow_water(), gradient_drive(2, f),
                                               prefer_type1(allow_nonphysical=True), PLANAR)
    _assert_same_solution(got, full, f"gradient {f}")


def test_first_order_synthesis_is_the_full_order_one_on_skew_and_raw_drives(monkeypatch):
    from streamfields import raw_drive, skew_drive

    skew = skew_drive(3, {(1, 2): "x3*sqrt(x1^2 + x2^2)", (1, 3): "abs(x2)*x1^2",
                          (2, 3): "(x1^2 + x3^2)^0.75"})
    raw = raw_drive(2, ("-x2/(x1^2+x2^2)", "x1/(x1^2+x2^2)"), "divergence_free",
                    ((0.5, 0.5), (1.5, 1.5)))
    for d, grid in ((skew, GridSpec((-1.0,) * 3, (1.0,) * 3, (8, 8, 8))), (raw, PLANAR)):
        full, got, calls = _full_order_and_first_order(
            monkeypatch, shallow_water(), d, prefer_type1(allow_nonphysical=True), grid)
        _assert_same_solution(got, full, type(d).__name__)
        assert calls[0] == (1, grid.npoints()) and 0 < calls[1][1] < grid.npoints() // 4


# ---------------------------------------------------------------------------
# branch selection: one loop over _candidates against the three-mode original


def _oracle_select_branches(model, policy, pts, xi, usable, tol):
    """Branch selection written once per policy mode, as it was before the
    one loop over synth._candidates (region predicates read no parameters)."""
    from streamfields import expr as exprmod
    from streamfields.synth import _branch_snap, _resolve_branch

    sel = np.zeros(xi.shape[0], dtype=np.int32)
    all_branches = model.branches()
    if policy.mode in ("prefer_type1", "prefer_type2"):
        admitted = [b for b in all_branches if policy.allow_nonphysical or not b.nonphysical]
        want_first = policy.mode == "prefer_type1"
        ordered = [b for b in admitted if b.elliptic == want_first] + \
                  [b for b in admitted if b.elliptic != want_first]
        for b in ordered:
            take = usable & (sel == 0) & b.admits(xi, _branch_snap(b, tol))
            sel[take] = b.index
        return sel
    if policy.mode == "single_branch":
        if policy.branch_id is None:
            raise SynthError("single_branch policy needs a branch_id")
        b = _resolve_branch(model, policy, policy.branch_id)
        take = usable & b.admits(xi, _branch_snap(b, tol))
        sel[take] = b.index
        return sel
    if policy.mode == "region_map":
        if policy.default_id is None:
            raise SynthError("region_map policy needs a default branch id")
        _resolve_branch(model, policy, policy.default_id)
        choice = np.full(xi.shape[0], policy.default_id, dtype=np.int32)
        assigned = np.zeros(xi.shape[0], dtype=bool)
        for pred, bid in policy.regions:
            _resolve_branch(model, policy, bid)
            vals = exprmod.eval_values(pred, pts)
            m = ~assigned & (vals > 0.0)
            choice[m] = bid
            assigned |= m
        for bid in np.unique(choice):
            b = _resolve_branch(model, policy, int(bid))
            lanes = usable & (choice == bid) & b.admits(xi, _branch_snap(b, tol))
            sel[lanes] = bid
        return sel
    raise SynthError(f"unknown policy mode {policy.mode!r}")


def _same_selection(select, model, policy, pts, xi, usable, tol) -> np.ndarray:
    """select(...), synth._select_branches, asserted equal to the oracle bit
    for bit, or to raise the oracle's SynthError (None then)."""
    outcomes = []
    for select in (select, _oracle_select_branches):
        try:
            outcomes.append(select(model, policy, pts, xi, usable, tol))
        except SynthError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return None
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize("name", _example_names())
def test_one_selection_loop_is_the_three_mode_one_on_every_example(monkeypatch, name, block):
    """On the first synthesis block of every built-in example, the inputs
    _assemble hands _select_branches select the oracle's branches."""
    from streamfields import config, synth

    cfg = config.example_config(name)
    grid = config.build_grid(cfg)
    real, seen = synth._select_branches, []

    def spy(*args):
        seen.append(_same_selection(real, *args))
        return seen[-1]

    monkeypatch.setattr(synth, "_select_branches", spy)
    synthesize_at_points(config.build_model(cfg), config.build_drive(cfg),
                         config.build_policy(cfg, grid.dim),
                         grid.nodes(0, min(block, grid.npoints())), config.build_tol(cfg))
    assert len(seen) == 1 and seen[0] is not None


@pytest.mark.parametrize("allow", [False, True])
@pytest.mark.parametrize("policy", [
    # overlapping regions: the first positive predicate wins, the rest default
    lambda allow: region_map([("1 - (x1^2 + x2^2)", 1), ("2 - (x1^2 + x2^2)", 2), ("x1", 1)],
                             2, allow_nonphysical=allow),
    # a nonphysical default branch
    lambda allow: region_map([("2/3 - (x1^2 + x2^2)", 1), ("2 - (x1^2 + x2^2)", 2)], 3,
                             allow_nonphysical=allow),
    # a nonphysical region behind a missing one, and a missing default
    lambda allow: region_map([("x1", 3), ("x2", 9)], 1, allow_nonphysical=allow),
    lambda allow: region_map([("x1", 3)], 9, allow_nonphysical=allow),
    prefer_type1, prefer_type2,
    lambda allow: single_branch(3, allow), lambda allow: single_branch(9, allow),
])
def test_one_selection_loop_is_the_three_mode_one_on_every_policy(rng, policy, allow):
    """Shallow water (branch 3 nonphysical), with xi across and outside every
    branch image, NaN and unusable points: the same branches, or the same
    SynthError first."""
    from streamfields import synth

    model, tol = shallow_water(), Tolerances()
    n = 4000
    pts = rng.uniform(-1.6, 1.6, (n, 2))
    xi = rng.uniform(-0.05, 0.6, n)
    xi[::97] = 8.0 / 27.0  # the fold value every branch image shares
    xi[::101] = np.nan
    usable = rng.random(n) > 0.1
    sel = _same_selection(synth._select_branches, model, policy(allow), pts, xi, usable, tol)
    if sel is not None:
        assert not sel[~usable].any() and len(np.unique(sel)) > 1
