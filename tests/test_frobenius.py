import numpy as np
import pytest

from streamfields import (
    FormDrive,
    FrobeniusError,
    GridSpec,
    Tolerances,
    born_infeld,
    coulomb,
    curl_residual_grid,
    extremal,
    gradient_drive,
    kform,
    minor_defect_with,
    prefer_type1,
    prefer_type2,
    raw_drive,
    recover_eta,
    scalar_drive,
    shallow_vortex,
    shallow_water,
    single_branch,
    skew_drive,
    synthesize,
    synthesize_at_points,
    witness_2d,
    witness_gradient,
    witness_nd,
)
from streamfields.frobenius import WitnessMismatch, resolve_witness

from conftest import old_closure_residual, old_curl_max, old_max_minor, old_wedge

WTOL = Tolerances(eps_phi_prime=1e-3)


def annulus_points(rng, n, r_lo, r_hi):
    r = np.sqrt(rng.uniform(r_lo**2, r_hi**2, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def test_vortex_witness_matches_log_gradient(rng):
    """G = grad(log t) = (2x/t, 2y/t) for the rigid vortex, any R."""
    for R in (1.0, 4.0):
        m = shallow_water()
        d = shallow_vortex(R)
        pts = annulus_points(rng, 400, 0.35 * np.sqrt(R), 0.7 * np.sqrt(R))
        sol = synthesize_at_points(m, d, prefer_type1(), pts, tol=WTOL)
        wit = witness_2d(sol)
        t = (pts**2).sum(axis=1)
        want = 2.0 * pts / t[:, None]
        ok = wit.defined
        assert ok.sum() > 300
        assert np.abs(wit.G[ok] - want[ok]).max() < 1e-9
        assert np.nanmax(wit.defining_residual[ok]) < 1e-9


def test_vortex_witness_independent_of_R_and_branch(rng):
    """The same G works on the supercritical annulus through branch 2."""
    R = 4.0
    m = shallow_water()
    d = shallow_vortex(R)
    pts = annulus_points(rng, 300, 1.05 * np.sqrt(2 * R / 3), 0.95 * np.sqrt(2 * R))
    sol = synthesize_at_points(m, d, prefer_type2(), pts, tol=WTOL)
    wit = witness_2d(sol)
    t = (pts**2).sum(axis=1)
    ok = wit.defined
    assert ok.sum() > 200
    assert np.abs(wit.G[ok] - 2.0 * pts[ok] / t[ok, None]).max() < 1e-9


def test_rescaled_candidate_fails_by_a_computable_margin(rng):
    """A candidate G' = G / sqrt(R) is wrong for R != 1: at t = 1 the minor
    defect must be at least half of |2/sqrt(R) - 2/R| (measured: exactly 0.5
    at R = 4)."""
    R = 4.0
    m = shallow_water()
    d = shallow_vortex(R)
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)  # t = 1
    sol = synthesize_at_points(m, d, prefer_type1(), pts, tol=WTOL)
    t = (pts**2).sum(axis=1)
    G_bad = 2.0 * pts / (t * np.sqrt(R))[:, None]
    defect = minor_defect_with(sol, G_bad)
    bound = 0.5 * abs(2.0 / np.sqrt(R) - 2.0 / R)
    assert np.nanmax(defect) >= bound
    assert np.nanmax(defect) == pytest.approx(0.5, abs=1e-9)
    # while the true G passes at the same points
    G_good = 2.0 * pts / t[:, None]
    assert np.nanmax(minor_defect_with(sol, G_good)) < 1e-9


def test_2d_scalar_reduction_is_exact(rng):
    """In two dimensions the least-squares witness collapses to the closed
    form g = laplacian(f) * grad(f) / xi; both paths agree to rounding."""
    from streamfields import drive_batch
    from streamfields.frobenius import _core

    d = scalar_drive("sin(x1)*x2^2 + exp(x1/2)")
    m = extremal()
    pts = rng.uniform(0.2, 1.0, (200, 2))
    sol = synthesize_at_points(m, d, single_branch(1), pts, tol=WTOL)
    wit = witness_2d(sol)
    batch = drive_batch(d, pts)
    grad_f = np.stack([batch.a[:, 1], -batch.a[:, 0]], axis=1)
    g = batch.laplacian_f[:, None] * grad_f / batch.xi[:, None]
    # _core's g is the drive-level piece before the density correction
    core = _core("minor", sol, batch)
    ok = wit.defined
    assert ok.sum() > 150 and np.array_equal(core.defined, ok)
    np.testing.assert_allclose(core.g[ok], g[ok], rtol=0, atol=1e-12)


def test_born_infeld_fundamental_witness_closed_form(rng):
    """G = 2 x / (r^2 (1 +- r^4)) for the inverse-square gradient drive."""
    m = born_infeld()
    d = coulomb()
    rng_pts = rng.uniform(0.7, 1.5, (200, 3))
    sol = synthesize_at_points(m, d, single_branch(1), rng_pts, tol=WTOL)
    wit = witness_gradient(sol)
    r2 = (rng_pts**2).sum(axis=1)
    want = 2.0 * rng_pts / (r2 * (1.0 + r2**2))[:, None]
    ok = wit.defined
    assert ok.sum() > 150
    assert np.abs(wit.G[ok] - want[ok]).max() < 1e-8
    assert np.nanmax(wit.defining_residual[ok]) < 1e-8

    inner = rng.uniform(0.25, 0.45, (150, 3))
    sol2 = synthesize_at_points(m, d, single_branch(2), inner, tol=WTOL)
    wit2 = witness_gradient(sol2)
    r2 = (inner**2).sum(axis=1)
    want2 = 2.0 * inner / (r2 * (1.0 - r2**2))[:, None]
    ok2 = wit2.defined
    assert ok2.sum() > 100
    assert np.abs(wit2.G[ok2] - want2[ok2]).max() < 1e-8


def test_axisymmetric_3d_solvability_is_tiny(rng):
    """Gradient drives with radial symmetry admit an exact wedge solution."""
    m = born_infeld()
    d = gradient_drive(3, "1/sqrt(x1^2 + x2^2 + x3^2)")
    pts = rng.uniform(0.6, 1.4, (100, 3))
    sol = synthesize_at_points(m, d, single_branch(1), pts, tol=WTOL)
    wit = witness_gradient(sol)
    assert np.nanmax(wit.solvability_residual) < 1e-12


def test_abc_flow_has_genuine_obstruction(rng):
    """The ABC velocity field is divergence free but not integrable in the
    restricted sense: its wedge system has an O(1) residual."""
    box = ((0.0, 0.0, 0.0), (2 * np.pi, 2 * np.pi, 2 * np.pi))
    d = raw_drive(
        3,
        ("sin(x3) + cos(x2)", "sin(x1) + cos(x3)", "sin(x2) + cos(x1)"),
        "divergence_free",
        box,
    )
    m = extremal()
    pts = np.random.default_rng(11).uniform(0.5, 5.5, (300, 3))
    sol = synthesize_at_points(m, d, single_branch(1), pts, tol=WTOL)
    wit = witness_nd(sol)
    assert np.nanmax(wit.solvability_residual) > 1.0


def annulus_witness(cells=312, lim=1.35, tol=WTOL):
    m = shallow_water()
    d = shallow_vortex(1.0)
    g = GridSpec((-lim, -lim), (lim, lim), (cells, cells))
    sol = synthesize(m, d, prefer_type2(allow_nonphysical=True), g, tol=tol)
    wit = witness_2d(sol)
    pts = sol.points
    t = (pts**2).sum(axis=1).reshape(g.shape())
    mask = (t >= 1.0) & (t <= 1.8)
    return wit, g, mask


def test_recover_eta_on_the_shooting_annulus():
    wit, g, mask = annulus_witness()
    rec = recover_eta(wit, mask=mask)
    assert rec.curl_gate < 1e-6
    assert rec.loop_max < 1e-5
    assert rec.post_residual < 1e-5
    # eta is log(t) up to the anchor constant
    pts = g.points().reshape(g.shape() + (2,))
    t = (pts**2).sum(axis=-1)
    dev = rec.eta[rec.mask] - np.log(t[rec.mask])
    assert dev.max() - dev.min() < 1e-8


def test_recover_eta_counts_the_nodes_it_cannot_reach():
    """The spanning tree grows from one anchor, so a mask of two disjoint
    annuli leaves the component without the anchor at eta = NaN, and says how
    many nodes that is."""
    wit, g, _ = annulus_witness(cells=96)
    pts = g.points().reshape(g.shape() + (2,))
    t = (pts**2).sum(axis=-1)
    inner = (t >= 1.0) & (t <= 1.3)
    outer = (t >= 1.5) & (t <= 1.8)
    for anchor in (None, (1.05, 0.0), (1.3, 0.0)):
        rec = recover_eta(wit, mask=inner | outer, anchor=anchor)
        other = outer if inner[rec.anchor] else inner
        assert rec.unreached == (rec.mask & other).sum() > 0
        assert np.isnan(rec.eta[other]).all()
        assert np.isfinite(rec.eta[rec.mask & ~other]).all()


def test_recover_eta_deterministic():
    wit, g, mask = annulus_witness(cells=128)
    r1 = recover_eta(wit, mask=mask)
    r2 = recover_eta(wit, mask=mask)
    np.testing.assert_array_equal(r1.eta, r2.eta)
    assert r1.curl_gate == r2.curl_gate and r1.loop_max == r2.loop_max


WITNESS_ARRAYS = ("G", "defining_residual", "solvability_residual", "defined")


def _assert_same_witness(got, want):
    for name in WITNESS_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_recover_eta_in_blocks_of_seven_points_is_bit_for_bit_the_same(monkeypatch):
    """The field goes through in blocks of synth.SYNTH_BLOCK points, and the
    witness and the Gauss points of eta recovery in blocks of expr.BLOCK_ROWS
    points; blocks of 7 points, and of 1, 2 and 7 grid rows, change no bit
    of the witness, its curl residual or eta, on the 64^2 annulus (minor
    kind) and a 10^3-cell grid (divergence kind).  The witness is _core's G
    of one whole-grid drive batch."""
    from streamfields import drive_batch, expr, synth as synthmod
    from streamfields.frobenius import _core

    whole, jets = synthmod.SYNTH_BLOCK, expr.BLOCK_ROWS
    for build, tol in ((lambda: annulus_witness(cells=64), 1e-6), (_bi_witness_3d, 1e-3)):
        monkeypatch.setattr(synthmod, "SYNTH_BLOCK", whole)
        monkeypatch.setattr(expr, "BLOCK_ROWS", jets)
        wit, g, mask = build()
        want = recover_eta(wit, mask=mask, tol_conservative=tol)
        core = _core(wit.kind, wit.solution, drive_batch(wit.solution.drive, g.points()))
        assert core.G.tobytes() == wit.G.tobytes()
        assert wit.defined.any() and np.isfinite(core.g[wit.defined]).all()
        row = g.npoints() // g.shape()[0]
        for block in (7, row, 2 * row, 7 * row):
            monkeypatch.setattr(synthmod, "SYNTH_BLOCK", block)
            monkeypatch.setattr(expr, "BLOCK_ROWS", block)
            bwit, _, _ = build()
            assert bwit.solution.w.tobytes() == wit.solution.w.tobytes()
            got = recover_eta(bwit, mask=mask, tol_conservative=tol)
            _assert_same_witness(bwit, wit)
            assert curl_residual_grid(bwit).tobytes() == curl_residual_grid(wit).tobytes()
            assert np.array_equal(got.eta.view(np.uint64), want.eta.view(np.uint64)), block
            assert np.isfinite(got.eta).sum() > 1000
            assert (got.anchor, got.unreached) == (want.anchor, want.unreached)
            assert (got.curl_gate, got.loop_max, got.post_residual) == \
                (want.curl_gate, want.loop_max, want.post_residual)


def test_fourth_order_slabs_are_the_whole_grid_bit_for_bit(monkeypatch):
    """curl_residual_grid (synth.stitched, 2 halo rows) and _post_exactness
    (2 halo rows) run on synth.slabs of 1, 2 and 7 rows, and give the old whole-grid curl_max
    of G and the maximum of the old whole-grid closure_residual of e^(-eta) w
    (conftest's oracles) over the nodes with a full stencil inside the mask,
    bit for bit, on the 64^2 annulus (minor kind) and a 10^3-cell grid
    (divergence kind)."""
    from streamfields import frobenius as frobmod, synth as synthmod
    from streamfields.verify import interior

    for build, tol in ((lambda: annulus_witness(cells=64), 1e-6), (_bi_witness_3d, 1e-3)):
        wit, g, mask = build()
        rec = recover_eta(wit, mask=mask, tol_conservative=tol)
        shape, h = g.shape(), g.spacing()
        with np.errstate(all="ignore"):
            curl = old_curl_max([wit.G[:, k].reshape(shape) for k in range(g.dim)], h, 4)
            vals = old_closure_residual(wit.solution.w, rec.eta, wit.kind, h, 4)
        vals = vals[interior(rec.mask & np.isfinite(rec.eta), 2)]
        post = max(0.0, float(np.nanmax(vals))) if vals.size else 0.0
        assert vals.size > 100 and post == rec.post_residual > 0.0
        row = g.npoints() // shape[0]
        for height in (1, 2, 7):
            monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * row)
            assert len(synthmod.slabs(g)) == -(-shape[0] // height)
            assert curl_residual_grid(wit).tobytes() == curl.tobytes(), height
            source = frobmod.EtaSource(wit.kind, g, wit.solution.w, None, None, None)
            assert frobmod._post_exactness(source, rec.mask, rec.eta) == post, height


def _old_defect(kind, core, G):
    """The analytic defining defect as frobenius._defect computed it: whole
    antisymmetric stacks for minor systems (conftest's old_wedge and
    old_max_minor)."""
    a, rho_c, glr = core.a, core.rho_c, core.glr
    with np.errstate(all="ignore"):
        w = a / rho_c[:, None]
        if kind == "minor":
            curl_w = core.M / rho_c[:, None, None] - old_wedge(glr, w)
            defect = old_max_minor(curl_w - old_wedge(G, w))
        else:
            div_w = (core.div_a - np.einsum("ni,ni->n", a, glr)) / rho_c
            defect = np.abs(div_w - np.einsum("ni,ni->n", G, w))
    return np.where(core.defined, defect, np.nan)


def test_analytic_defects_are_the_old_whole_stack_formulas(rng):
    """The defining defect, the solvability wedge and minor_defect_with, each
    through verify.wedge_defect, equal frobenius's old whole-stack formulas
    on the 2-D annulus and a 3-D ABC flow (minor kind, one pair and three)
    and on a 3-D gradient drive (divergence kind)."""
    from streamfields import drive_batch
    from streamfields.frobenius import _core

    box = ((0.0,) * 3, (2 * np.pi,) * 3)
    abc = raw_drive(3, ("sin(x3) + cos(x2)", "sin(x1) + cos(x3)", "sin(x2) + cos(x1)"),
                    "divergence_free", box)
    abc_sol = synthesize_at_points(extremal(), abc, single_branch(1),
                                   rng.uniform(0.5, 5.5, (300, 3)), tol=WTOL)
    cases = [annulus_witness(cells=48)[0], witness_nd(abc_sol), _bi_witness_3d()[0]]
    for wit in cases:
        sol = wit.solution
        core = _core(wit.kind, sol, drive_batch(sol.drive, sol.points))
        want = _old_defect(wit.kind, core, core.G)
        assert np.isfinite(want).sum() > 100
        np.testing.assert_array_equal(wit.defining_residual, want)
        if wit.kind == "minor":
            with np.errstate(all="ignore"):
                wedge = old_max_minor(core.M - old_wedge(core.g, core.a))
            np.testing.assert_array_equal(wit.solvability_residual,
                                          np.where(core.defined, wedge, np.nan))
            G = wit.G + rng.normal(size=wit.G.shape)
            np.testing.assert_array_equal(minor_defect_with(sol, G), _old_defect("minor", core, G))
        else:
            assert np.array_equal(wit.solvability_residual,
                                  np.where(core.defined, 0.0, np.nan), equal_nan=True)


def test_no_witness_drive_batch_takes_more_than_a_synthesis_block(monkeypatch):
    """_build, minor_defect_with and the eta evaluator hand drive_batch at
    most expr.BLOCK_ROWS points a call, the jets' own pass size, which is
    less than a synthesis block."""
    from streamfields import expr, frobenius as frobmod, synth as synthmod

    assert expr.BLOCK_ROWS < synthmod.SYNTH_BLOCK
    whole, _, mask = annulus_witness(cells=48)
    sol = whole.solution
    monkeypatch.setattr(expr, "BLOCK_ROWS", 300)
    sizes = []
    for module in (synthmod, frobmod):
        def counted(d, points, order=2, real=module.drive_batch):
            sizes.append(len(points))
            return real(d, points, order)
        monkeypatch.setattr(module, "drive_batch", counted)
    wit = witness_2d(sol)
    assert len(sizes) == -(-len(sol.Q) // 300)
    minor_defect_with(sol, wit.G)
    recover_eta(wit, mask=mask, tol_conservative=1e-3)
    assert len(sizes) > 2 * -(-len(sol.Q) // 300) + 2
    assert max(sizes) <= 300


def test_edge_integrals_in_blocks_are_one_whole_array_call_bit_for_bit(monkeypatch):
    """_edge_integrals walks its edges in blocks of expr.BLOCK_ROWS // 2, so
    no evaluator call takes more than expr.BLOCK_ROWS Gauss points (two for
    a block of one), and the integrals, with end points from the grid axes,
    are those of one evaluator call on every Gauss point of the edges' rows
    of GridSpec.points(), bit for bit."""
    from streamfields import expr
    from streamfields.frobenius import _edge_integrals, _spanning_tree

    wit, g, mask = annulus_witness(cells=24)
    mask &= wit.defined.reshape(mask.shape)
    edges, _, _ = _spanning_tree(mask, tuple(int(i) for i in np.argwhere(mask)[0]))
    seg = g.points()[edges]
    starts, ends = seg[:, 0], seg[:, 1]
    mid, half = 0.5 * (starts + ends), 0.5 * (ends - starts)
    off = half / np.sqrt(3.0)
    gv = wit.evaluator(np.concatenate([mid - off, mid + off], axis=0))
    want = np.einsum("ei,ei->e", gv[:len(edges)] + gv[len(edges):], half)
    assert len(edges) > 100 and np.isfinite(want).all()
    for block in (1, 7, 64):
        monkeypatch.setattr(expr, "BLOCK_ROWS", block)
        calls = []

        def evaluator(qpts):
            calls.append(len(qpts))
            return wit.evaluator(qpts)

        got = _edge_integrals(evaluator, g, edges)
        assert got.tobytes() == want.tobytes(), block
        assert max(calls) <= max(block, 2) and sum(calls) == 2 * len(edges)


def test_eta_recovery_evaluates_the_drive_once_per_quadrature_point(monkeypatch):
    """The Gauss and loop-rectangle points are synthesized once, and the
    witness reads the drive batch that synthesis evaluated."""
    from streamfields import frobenius as frobmod, synth as synthmod

    wit, g, mask = annulus_witness(cells=96)
    requested, received = [], []
    for module in (synthmod, frobmod):
        def counted(d, points, order=2, real=module.drive_batch):
            requested.append(len(points))
            return real(d, points, order)
        monkeypatch.setattr(module, "drive_batch", counted)
    evaluator = wit.evaluator

    def counting(points):
        received.append(len(points))
        return evaluator(points)

    wit.evaluator = counting
    recover_eta(wit, mask=mask)
    assert sum(requested) == sum(received) > 0


def test_non_conservative_witness_is_rejected():
    """A manufactured swirl G fails the conservative gate with a located
    error instead of silently integrating."""
    wit, g, mask = annulus_witness(cells=96)
    pts = wit.solution.points
    swirl = 0.5 * np.stack([-pts[:, 1], pts[:, 0]], axis=1)
    wit.G = wit.G + swirl  # curl(swirl) = 1 everywhere
    with pytest.raises(FrobeniusError, match="conservative"):
        recover_eta(wit, mask=mask)


def test_multivalued_witness_shows_up_in_post_residual():
    """The point-vortex swirl is curl free away from the origin, so neither
    the stencil gate nor rectangle loops inside an annulus can reject it; the
    exactness post-check is what exposes the monodromy seam."""
    wit, g, mask = annulus_witness(cells=96)

    def swirl_at(pts):
        t = np.maximum((pts**2).sum(axis=1), 1e-12)
        return 0.5 * np.stack([-pts[:, 1], pts[:, 0]], axis=1) / t[:, None]

    base = wit.evaluator
    wit.G = wit.G + swirl_at(wit.solution.points)
    wit.evaluator = lambda pts: base(pts) + swirl_at(pts)
    rec = recover_eta(wit, mask=mask)
    assert rec.curl_gate < 1e-6  # locally conservative: gate is blind
    assert rec.loop_max < 1e-5  # no rectangle in the annulus wraps the hole
    assert rec.post_residual > 1e-3  # but eta cannot be single valued


def test_curl_residual_has_stencil_margins():
    wit, g, mask = annulus_witness(cells=64)
    curl = curl_residual_grid(wit)
    assert curl.shape == g.shape()
    assert np.isnan(curl[0, :]).all() and np.isnan(curl[:, 1]).all()


def test_zero_witness_recovers_constant_eta():
    """A curl-free drive on the unit-density model gives G = 0 and eta = 0."""
    from streamfields import custom

    m = custom("1", q_max=25.0, name="unit")
    d = gradient_drive(2, "x1 + 2*x2")
    g = GridSpec((0.0, 0.0), (1.0, 1.0), (24, 24))
    sol = synthesize(m, d, prefer_type1(), g)
    wit = witness_gradient(sol)
    rec = recover_eta(wit)
    assert np.nanmax(np.abs(wit.G)) == 0.0
    assert np.nanmax(np.abs(rec.eta)) == 0.0
    assert rec.post_residual < 1e-12


def test_witness_choice_follows_the_drive_type():
    box2 = ((0.2, 0.2), (0.8, 0.8))
    box3 = ((0.2, 0.2, 0.2), (0.8, 0.8, 0.8))
    # drive -> the witnesses it admits; "auto" takes the first
    cases = [
        (scalar_drive("x1^2 * x2"), ["2d", "nd"]),
        (gradient_drive(2, "x1 * x2"), ["gradient"]),
        (coulomb(), ["gradient"]),
        (skew_drive(3, {(1, 2): "x3 / 4", (2, 3): "x1 / 4"}), ["nd"]),
        (raw_drive(2, ["-x2", "x1"], "divergence_free", box2), ["2d", "nd"]),
        (raw_drive(2, ["x1", "x2"], "curl_free", box2), ["gradient", "nd"]),
        (raw_drive(3, ["x2", "x3", "x1"], "divergence_free", box3), ["nd"]),
        (FormDrive(kform(2, 0, {(): "x1^2*x2^3/8"})), []),
    ]
    for d, admitted in cases:
        if admitted:
            assert resolve_witness("auto", d) == admitted[0]
        else:
            with pytest.raises(WitnessMismatch, match="does not apply .*; no witness does"):
                resolve_witness("auto", d)
        for choice in ("2d", "gradient", "nd", "curl"):
            if choice in admitted:
                assert resolve_witness(choice, d) == choice
            else:
                with pytest.raises(WitnessMismatch, match="does not apply"):
                    resolve_witness(choice, d)
    assert issubclass(WitnessMismatch, FrobeniusError)


def test_a_witness_of_a_form_synthesis_is_a_witness_mismatch():
    """No witness applies to a form's drive: each one refuses a form
    synthesis with WitnessMismatch, a config error, before reading its drive."""
    sol = synthesize(shallow_water(), FormDrive(kform(2, 0, {(): "x1^2*x2^3/8"})), prefer_type1(),
                     GridSpec((0.2, 0.2), (0.6, 0.6), (8, 8)))
    for witness in (witness_2d, witness_nd, witness_gradient):
        with pytest.raises(WitnessMismatch, match="FormDrive drive of dimension 2; no witness"):
            witness(sol)


# ---------------------------------------------------------------------------
# the frontier-sweep spanning tree against the queue search it replaced


def _oracle_tree(mask, start):
    """Breadth-first tree by a first-in-first-out queue: (edges, seen)."""
    from collections import deque

    shape = mask.shape
    tree = []
    seen = np.zeros(shape, dtype=bool)
    seen[start] = True
    queue = deque([start])
    while queue:
        idx = queue.popleft()
        for axis in range(len(shape)):
            for step in (1, -1):
                jdx = list(idx)
                jdx[axis] += step
                if not (0 <= jdx[axis] < shape[axis]):
                    continue
                jdx = tuple(jdx)
                if seen[jdx] or not mask[jdx]:
                    continue
                seen[jdx] = True
                tree.append((idx, jdx))
                queue.append(jdx)
    flat = np.array([[np.ravel_multi_index(p, shape), np.ravel_multi_index(q, shape)]
                     for p, q in tree], dtype=np.intp).reshape(-1, 2)
    return flat, seen


def _oracle_eta(witness, rec):
    """eta by the queue-search tree and one addition per edge, in tree order."""
    from streamfields.frobenius import _edge_integrals

    edges, seen = _oracle_tree(rec.mask, rec.anchor)
    eta = np.full(rec.mask.shape, np.nan)
    eta[rec.anchor] = 0.0
    flat_eta = eta.reshape(-1)
    if len(edges):
        increments = _edge_integrals(witness.evaluator, witness.solution.grid, edges)
        for (p, q), inc in zip(edges, increments):
            flat_eta[q] = flat_eta[p] + inc
    return eta, int((rec.mask & ~seen).sum())


def _random_masks(rng, shape):
    """Random masks of several densities, one cut into pieces by empty planes,
    and a one-node mask."""
    masks = [rng.random(shape) < p for p in (0.55, 0.7, 0.9, 1.0)]
    cut = rng.random(shape) < 0.95
    for axis, size in enumerate(shape):
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(size // 3, size // 3 + 1)
        cut[tuple(sl)] = False
    one = np.zeros(shape, dtype=bool)
    one[tuple(s // 2 for s in shape)] = True
    return masks + [cut, one]


@pytest.mark.parametrize("shape", [(1,), (7,), (23, 31), (40, 40), (9, 11, 10), (6, 5, 7, 4)])
def test_spanning_tree_is_the_queue_search_tree_edge_for_edge(shape):
    from streamfields.frobenius import _spanning_tree

    rng = np.random.default_rng(sum(shape))
    for mask in _random_masks(rng, shape):
        cand = np.argwhere(mask)
        if not len(cand):
            continue
        for start in (cand[0], cand[len(cand) // 2], cand[-1]):
            start = tuple(int(i) for i in start)
            want, want_seen = _oracle_tree(mask, start)
            got, sizes, seen = _spanning_tree(mask, start)
            assert got.shape == want.shape and sum(sizes) == len(got)
            assert np.array_equal(got, want)
            assert np.array_equal(seen, want_seen)
            # every parent of a layer was reached before that layer
            reached = {np.ravel_multi_index(start, shape)}
            for layer in np.split(got, np.cumsum(sizes)[:-1]):
                assert set(layer[:, 0].tolist()) <= reached
                reached |= set(layer[:, 1].tolist())


def _bi_witness_3d(cells=10):
    g = GridSpec((0.7, 0.7, 0.7), (1.5, 1.5, 1.5), (cells,) * 3)
    sol = synthesize(born_infeld(), coulomb(), single_branch(1), g, tol=WTOL)
    return witness_gradient(sol), g, np.ones(g.shape(), dtype=bool)


@pytest.mark.parametrize("dim", [2, 3])
def test_recover_eta_equals_the_queue_search_bit_for_bit(dim):
    """eta, the anchor and the unreached count are those of the queue-search
    tree with one addition per edge, on random masks (several components
    among them) and with and without an anchor point."""
    wit, g, region = annulus_witness(cells=64) if dim == 2 else _bi_witness_3d()
    rng = np.random.default_rng(130 + dim)
    lo, hi = np.asarray(g.lo, dtype=float), np.asarray(g.hi, dtype=float)
    unreached_counts = []
    for mask in _random_masks(rng, g.shape())[2:-1]:  # dense enough for a long tree
        mask &= region
        for anchor in (None, tuple(lo + (hi - lo) * rng.random(dim))):
            # a coarse grid: the gate sees the stencil's own error, not the witness's
            rec = recover_eta(wit, mask=mask, anchor=anchor, tol_conservative=1e-3)
            want, unreached = _oracle_eta(wit, rec)
            assert np.array_equal(rec.eta.view(np.uint64), want.view(np.uint64))
            assert rec.unreached == unreached
            assert np.isfinite(rec.eta).sum() > 20
            unreached_counts.append(unreached)
    assert max(unreached_counts) > 0  # some masks fall apart into several pieces


def test_assembly_and_the_witness_core_test_the_q_domain_once_each(monkeypatch, rng):
    """_assemble and _core each take rho and rho' from one rho_and_prime
    call: a block of the witness evaluator is two domain tests, not four."""
    from streamfields import frobenius, synth
    from streamfields.density import DensityModel

    sol = synthesize_at_points(shallow_water(), shallow_vortex(1.0), prefer_type1(),
                               annulus_points(rng, 50, 0.35, 0.7), tol=WTOL)
    wit = witness_2d(sol)
    seen = []

    def spy(name, real):
        def call(*args):
            seen.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(DensityModel, "in_domain", spy("in_domain", DensityModel.in_domain))
    monkeypatch.setattr(synth, "_assemble", spy("_assemble", synth._assemble))
    monkeypatch.setattr(frobenius, "_core", spy("_core", frobenius._core))
    G = wit.evaluator(annulus_points(rng, 30, 0.35, 0.7))
    assert seen == ["_assemble", "in_domain", "_core", "in_domain"]
    assert np.isfinite(G).all()
