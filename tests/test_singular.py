import numpy as np
import pytest

from streamfields import (
    GridSpec,
    SingularError,
    classify,
    extremal,
    prefer_type1,
    region_map,
    scalar_drive,
    shallow_vortex,
    shallow_water,
)
from streamfields.singular import classify_solution, sonic_contour
from streamfields.synth import synthesize_at_points


def vortex_report(R=1.0, cells=48, lim=1.1):
    m = shallow_water()
    d = shallow_vortex(R)
    g = GridSpec((-lim, -lim), (lim, lim), (cells, cells))
    policy = region_map(
        [(f"2*{R}/3 - (x1^2 + x2^2)", 1), (f"2*{R} - (x1^2 + x2^2)", 2)],
        default_id=3, dim=2, allow_nonphysical=True)
    return classify(m, d, policy, g)


def hausdorff_to_circle(points: np.ndarray, radius: float) -> float:
    """Symmetric Hausdorff distance between a point set and a circle."""
    r = np.sqrt((points**2).sum(axis=1))
    d_pts = np.abs(r - radius).max()
    th = np.linspace(0, 2 * np.pi, 2001)
    circ = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    d2 = ((circ[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    d_circ = np.sqrt(d2.min(axis=1)).max()
    return max(d_pts, d_circ)


def test_masks_partition_matches_flags():
    rep = vortex_report()
    sol = rep.solution
    shape = rep.grid.shape()
    assert rep.gamma_0.shape == shape
    # gamma_0 is contained in gamma_s
    assert not (rep.gamma_0 & ~rep.gamma_s).any()
    # every grid point is synthesized on this configuration
    assert not rep.omega_f_complement.any()
    assert sol.defined.all()


def test_sonic_contour_tracks_the_fold_circle():
    """The inner component of the phi'-zero set is the fold circle t = 2R/3;
    resolve it to within two grid spacings."""
    for R, lim, cells in ((1.0, 1.1, 48), (4.0, 3.0, 64)):
        rep = vortex_report(R=R, cells=cells, lim=lim)
        h = 2 * lim / cells
        verts = np.concatenate([np.asarray(p) for p in rep.sonic_contour], axis=0)
        r = np.sqrt((verts**2).sum(axis=1))
        r_fold = np.sqrt(2 * R / 3)
        r_outer = np.sqrt(2 * R)
        inner = verts[r < 0.5 * (r_fold + r_outer)]
        assert len(inner) > 40
        assert hausdorff_to_circle(inner, r_fold) < 2 * h


def test_sonic_zero_set_includes_the_rho_zero_circle():
    """phi' also vanishes where rho does (t = 2R); that second circle is part
    of the sonic zero set whenever the grid reaches it."""
    rep = vortex_report(R=1.0, cells=64, lim=1.6)
    verts = np.concatenate([np.asarray(p) for p in rep.sonic_contour], axis=0)
    r = np.sqrt((verts**2).sum(axis=1))
    outer = verts[r > 1.2]
    assert len(outer) > 20
    assert np.abs(np.sqrt((outer**2).sum(axis=1)) - np.sqrt(2.0)).max() < 0.1


def test_marching_squares_on_a_line():
    """Oracle: phi' of the extremal density along branch 1 is positive, so a
    sign-definite field yields no contour; a manufactured crossing does."""
    m = extremal()
    d = scalar_drive("x1 * x2 + 2")
    g = GridSpec((0.1, 0.1), (1.0, 1.0), (16, 16))
    rep = classify(m, d, prefer_type1(), g)
    assert rep.sonic_contour == []


def test_classify_off_a_grid_gives_one_entry_per_point_and_no_contour():
    """A solution on no grid (a slab of rows, as the singular command
    classifies) gets one mask entry per point, its grid solution's entries."""
    whole = vortex_report(cells=20)
    sol = whole.solution
    rep = classify_solution(synthesize_at_points(sol.model, sol.drive, sol.policy, sol.points))
    g = whole.grid
    assert rep.grid is None and rep.sonic_contour == [] and whole.sonic_contour
    for name in ("omega_f_complement", "gamma_0", "gamma_s", "gamma_inf", "gamma_g",
                 "sonic_values"):
        got, want = getattr(rep, name), getattr(whole, name)
        assert got.shape == (g.npoints(),) and got.tobytes() == want.tobytes(), name
    with pytest.raises(SingularError):
        sonic_contour(GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2)), np.zeros((3, 3, 3)))


def test_gamma_inf_on_caustic_small_q():
    """Caustic rho blows up as Q -> 0+: illuminated-branch points with xi near
    tau^2 land close to Q = 0 where 1/rho -> 0; the hard zero-Q nodes are the
    gamma_inf candidates."""
    from streamfields import caustic, prefer_type2

    tau = 1.0
    m = caustic(tau)
    d = scalar_drive("(x1^2 + x2^2)/2")  # xi = t^2 -> 1 at r = 1
    g = GridSpec((0.2, 0.2), (1.3, 1.3), (32, 32))
    rep = classify(m, d, prefer_type2(), g)
    sol = rep.solution
    on = sol.branch_id != 0
    assert on.any()
    # w stays finite wherever synthesized
    assert np.isfinite(sol.w[on]).all()
