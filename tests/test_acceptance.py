"""End-to-end acceptance checks, one per advertised behavior.

Each test prints a single PASS/FAIL line (visible with `pytest -s`); the
pytest verdicts themselves mirror the same eleven lines under `-v`.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from streamfields import (
    FormDrive,
    GridSpec,
    MASK_BITS,
    Tolerances,
    born_infeld,
    caustic,
    classify,
    codifferential_residual,
    config as cfgmod,
    convergence_study,
    coulomb,
    custom,
    divergence_residual,
    drive_batch,
    extremal,
    gradient_drive,
    kform,
    minor_defect_with,
    minor_residual,
    multi_indices,
    prefer_type1,
    prefer_type2,
    radial_log,
    recover_eta,
    region_map,
    scalar_drive,
    shallow_vortex,
    shallow_water,
    single_branch,
    star_sign,
    synthesize,
    synthesize_at_points,
    synthesize_form,
    witness_2d,
    witness_gradient,
)
from streamfields import expr as exprmod
from streamfields import forms as formsmod
from streamfields.drive import coord_names

WTOL = Tolerances(eps_phi_prime=1e-3)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {text}")
        raise
    print(f"[criterion {num:02d}] PASS  {text}")


def interior(interval, count=200, span_cap=50.0):
    lo, hi = interval.lo, interval.hi
    if not np.isfinite(hi):
        hi = lo + span_cap
    pad = 1e-3 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


def ring_points(rng, n, r_lo, r_hi, dim=2):
    r = r_lo + (r_hi - r_lo) * rng.random(n)
    v = rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * r[:, None]


def vortex_setup(R, lim, cells):
    model = shallow_water()
    d = shallow_vortex(R)
    policy = region_map(
        [(f"2*{R}/3 - (x1^2 + x2^2)", 1), (f"2*{R} - (x1^2 + x2^2)", 2)],
        default_id=3, dim=2, allow_nonphysical=True)
    grid = GridSpec((-lim, -lim), (lim, lim), (cells, cells))
    return model, d, policy, grid


# ---------------------------------------------------------------------------


def test_criterion_01_shallow_branch_geometry():
    with criterion(1, "shallow branch boundaries {2/3, 2}; fold value (2/3)^3"):
        m = shallow_water()
        bs = m.branches()
        assert len(bs) == 3
        assert bs[0].q_interval.lo == 0.0
        assert bs[0].q_interval.hi == 2.0 / 3.0
        assert bs[1].q_interval.lo == 2.0 / 3.0
        assert bs[1].q_interval.hi == 2.0
        assert bs[2].q_interval.lo == 2.0
        assert not np.isfinite(bs[2].q_interval.hi)
        assert abs(m.phi(2.0 / 3.0) - (2.0 / 3.0) ** 3) <= 1e-15


def test_criterion_02_inverse_round_trips():
    with criterion(2, "psi/phi round-trips 1e-10 on 200 samples; bisection oracle"):
        models = (shallow_water(), extremal(), caustic(1.5), born_infeld())
        for m in models:
            for b in m.branches():
                qs = interior(b.q_interval)
                back = b.psi(m.phi(qs))
                assert (np.abs(back - qs) / np.maximum(1.0, np.abs(qs))).max() <= 1e-10
                xis = interior(b.image)
                fwd = m.phi(b.psi(xis))
                assert (np.abs(fwd - xis) / np.maximum(1.0, np.abs(xis))).max() <= 1e-10

        # closed-form shallow inverses against pure bisection
        m = shallow_water()
        for b in m.branches():
            for xi in interior(b.image, count=25):
                lo, hi = b.q_interval.lo, b.q_interval.hi
                if not np.isfinite(hi):
                    hi = max(2.0 * lo + 1.0, 1.0)
                    while (m.phi(hi) - xi) * (m.phi(lo + 1e-13) - xi) > 0 and hi < 1e12:
                        hi *= 2.0
                a, bq = lo, hi
                fa = m.phi(a + 1e-13) - xi
                for _ in range(200):
                    mid = 0.5 * (a + bq)
                    fm = m.phi(mid) - xi
                    if np.isnan(fm) or (fm > 0) != (fa > 0):
                        bq = mid
                    else:
                        a, fa = mid, fm
                oracle = 0.5 * (a + bq)
                got = float(b.psi(np.array([xi]))[0])
                assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_criterion_03_extremal_closed_forms():
    with criterion(3, "20 random stream polynomials match both closed forms to 1e-12"):
        m = extremal()
        rng = np.random.default_rng(20240817)
        for trial in range(20):
            c = [float(v) for v in rng.uniform(-1.0, 1.0, 7)]
            text = (f"{c[0]!r}*x1^3 + {c[1]!r}*x1^2*x2 + {c[2]!r}*x1*x2^2 + "
                    f"{c[3]!r}*x2^3 + {c[4]!r}*x1^2 + {c[5]!r}*x1*x2 + {c[6]!r}*x2^2")
            d = scalar_drive(text)
            pts = rng.uniform(-1.0, 1.0, (150, 2))
            batch = drive_batch(d, pts)

            s1 = synthesize_at_points(m, d, single_branch(1), pts)
            ok1 = s1.branch_id == 1
            want1 = batch.a[ok1] / np.sqrt(1.0 + batch.xi[ok1])[:, None]
            assert ok1.sum() > 100
            assert np.abs(s1.w[ok1] - want1).max() < 1e-12

            s2 = synthesize_at_points(m, d, single_branch(2), pts)
            ok2 = (s2.branch_id == 2) & (batch.xi > 1.002)
            if ok2.sum():
                want2 = batch.a[ok2] / np.sqrt(batch.xi[ok2] - 1.0)[:, None]
                assert np.abs(s2.w[ok2] - want2).max() < 1e-12


def test_criterion_04_patched_extremal_field():
    with criterion(4, "patched field equals closed form; one-sided seam diffs < 5h"):
        m = extremal()
        d = radial_log()
        policy = region_map([("1 - sqrt(x1^2 + x2^2)", 2)], default_id=1, dim=2)
        rng = np.random.default_rng(11)
        pts = np.concatenate([
            ring_points(rng, 300, 0.3, 0.95),
            ring_points(rng, 300, 1.05, 1.8),
        ])
        sol = synthesize_at_points(m, d, policy, pts)
        r = np.sqrt((pts ** 2).sum(axis=1))
        tang = np.stack([-pts[:, 1], pts[:, 0]], axis=1) / r[:, None]
        s = r - 1.0
        amp = np.where(r < 1.0, 1.0 / np.sqrt(1.0 - s ** 2), 1.0 / np.sqrt(1.0 + s ** 2))
        assert (sol.branch_id == np.where(r < 1.0, 2, 1)).all()
        assert np.abs(sol.w - amp[:, None] * tang).max() < 1e-12

        theta = 0.37
        e = np.array([math.cos(theta), math.sin(theta)])
        w0 = np.array([-e[1], e[0]])  # both branch limits at r = 1
        # the drive itself is singular on the seam, so probe just off it
        wp = synthesize_at_points(m, d, policy, (1 + 1e-4) * e[None, :]).w[0]
        wm = synthesize_at_points(m, d, policy, (1 - 1e-4) * e[None, :]).w[0]
        assert np.abs(wp - wm).max() < 1e-6
        for h in (1.0 / 64.0, 1.0 / 128.0):
            wph = synthesize_at_points(m, d, policy, (1 + h) * e[None, :]).w[0]
            wmh = synthesize_at_points(m, d, policy, (1 - h) * e[None, :]).w[0]
            d_plus = (wph - w0) / h
            d_minus = (w0 - wmh) / h
            assert np.abs(d_plus - d_minus).max() < 5 * h


def test_criterion_05_shallow_vortex_three_branches():
    with criterion(5, "vortex w=(-y,x)/sqrt(R); sonic circle < 2h; witness and erratum"):
        rng = np.random.default_rng(5)
        for R, lim, cells in ((1.0, 1.1, 64), (4.0, 3.0, 64)):
            model, d, policy, grid = vortex_setup(R, lim, cells)
            sol = synthesize(model, d, policy, grid)
            keep = sol.defined & ((sol.flags & MASK_BITS) == 0)
            assert {1, 2, 3} <= set(sol.branch_id[keep].tolist())
            want = np.stack([-sol.points[:, 1], sol.points[:, 0]], axis=1) / np.sqrt(R)
            assert np.abs(sol.w[keep] - want[keep]).max() < 1e-10

            # sonic contour against the fold circle t = 2R/3
            rep = classify(model, d, policy, grid)
            h = 2 * lim / cells
            verts = np.concatenate([np.asarray(p) for p in rep.sonic_contour], axis=0)
            rv = np.sqrt((verts ** 2).sum(axis=1))
            r_fold = math.sqrt(2 * R / 3)
            inner = verts[rv < 0.5 * (r_fold + math.sqrt(2 * R))]
            d_pts = np.abs(np.sqrt((inner ** 2).sum(axis=1)) - r_fold).max()
            th = np.linspace(0, 2 * np.pi, 2001)
            circ = r_fold * np.stack([np.cos(th), np.sin(th)], axis=1)
            d_circ = np.sqrt(((circ[:, None, :] - inner[None, :, :]) ** 2)
                             .sum(axis=2).min(axis=1)).max()
            assert max(d_pts, d_circ) < 2 * h

            # witness G = (2x/t, 2y/t) on a subcritical annulus
            apts = ring_points(rng, 300, 0.35 * math.sqrt(R), 0.7 * math.sqrt(R))
            asol = synthesize_at_points(model, d, prefer_type1(), apts, tol=WTOL)
            t = (apts ** 2).sum(axis=1)
            G_true = 2.0 * apts / t[:, None]
            defect = minor_defect_with(asol, G_true)
            assert np.nanmax(defect) < 1e-9

        # erratum: the rescaled G = (2x/t, 2y/t)/sqrt(R) fails at t=1 for R=4
        R = 4.0
        model, d, _, _ = vortex_setup(R, 3.0, 64)
        th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        cpts = np.stack([np.cos(th), np.sin(th)], axis=1)
        csol = synthesize_at_points(model, d, prefer_type1(), cpts, tol=WTOL)
        bad = minor_defect_with(csol, 2.0 * cpts / math.sqrt(R))
        bound = 0.5 * abs(2.0 / math.sqrt(R) - 2.0 / R)
        assert np.nanmin(bad) >= bound - 1e-12


def test_criterion_06_caustic_both_branches_and_zero_case():
    with criterion(6, "caustic branches match closed forms 1e-12; w = 0 at xi = tau^2"):
        rng = np.random.default_rng(6)
        d = scalar_drive("x1^2 * x2^3")
        for tau, lo, hi, policy, shadow in (
                (1.0, 0.3, 1.3, prefer_type1(), True),
                (2.0, 0.4, 0.85, prefer_type2(), False)):
            m = caustic(tau)
            pts = rng.uniform(lo, hi, (400, 2))
            sol = synthesize_at_points(m, d, policy, pts)
            batch = drive_batch(d, pts)
            ok = sol.defined & ((sol.flags & MASK_BITS) == 0)
            assert ok.sum() > 350
            if shadow:
                scale = np.sqrt((batch.xi + tau ** 2) / batch.xi)
            else:
                scale = np.sqrt((tau ** 2 - batch.xi) / batch.xi)
            want = batch.a * scale[:, None]
            assert np.abs(sol.w[ok] - want[ok]).max() < 1e-12

        # xi = tau^2 exactly: the illuminated branch hits Q = 0, where the
        # alternate unit(a)*sqrt(Q) formula returns an exact zero field
        m = caustic(1.0)
        d_unit = scalar_drive("x1")  # |grad f|^2 = 1 everywhere, bitwise
        zpts = np.array([[0.2, 0.4], [0.7, -0.1]])
        zsol = synthesize_at_points(m, d_unit, prefer_type2(), zpts)
        assert (zsol.branch_id == 2).all()
        assert (zsol.Q == 0.0).all()
        assert np.array_equal(zsol.w, np.zeros_like(zsol.w))


def test_criterion_07_born_infeld_fundamental():
    with criterion(7, "BI fundamental solution, minus-branch blow-up, G defect"):
        m = born_infeld()
        d = coulomb()
        rng = np.random.default_rng(7)
        pts = np.concatenate([
            ring_points(rng, 300, 0.2, 0.9, dim=3),
            ring_points(rng, 300, 1.1, 3.0, dim=3),
        ])
        r = np.linalg.norm(pts, axis=1)
        plus = synthesize_at_points(m, d, single_branch(1), pts)
        want_p = -pts / (r * np.sqrt(r ** 4 + 1.0))[:, None]
        assert plus.defined.all()
        assert np.abs(plus.w - want_p).max() < 1e-12

        inner = pts[r < 1.0]
        ri = np.linalg.norm(inner, axis=1)
        minus = synthesize_at_points(m, d, single_branch(2), inner)
        want_m = -inner / (ri * np.sqrt(1.0 - ri ** 4))[:, None]
        assert minus.defined.all()
        assert np.abs(minus.w - want_m).max() < 1e-12

        # |w| grows without bound as |grad f|^2 -> 1 from inside
        for eps in (1e-5, 1e-8):
            p = np.array([[1.0 - eps, 0.0, 0.0]])
            s = synthesize_at_points(m, d, single_branch(2), p)
            assert np.linalg.norm(s.w[0]) > 100.0

        wit = witness_gradient(plus)
        assert np.nanmax(wit.defining_residual) < 1e-8


def test_criterion_08_residual_convergence_all_examples():
    with criterion(8, "divergence/minor residual order in [1.8, 2.2] (or rounding floor)"):
        bases = {
            "shallow-vortex": (48, 48),
            "shallow-vortex-r4": (48, 48),
            "shallow-annulus-eta": (48, 48),
            "extremal-patching": (192, 192),
            "extremal-patching-study": (32, 32),
            "caustic-tau1": (48, 48),
            "caustic-tau2": (48, 48),
            "born-infeld-fund": (24, 24, 24),
            "born-infeld-fund-minus": (24, 24, 24),
            "unit-density": (16, 16),
        }
        for name, cells in bases.items():
            cfg = cfgmod.example_config(name)
            vs = cfgmod.verify_section(cfg)
            kinds = [k for k in vs["residuals"] if k in ("divergence", "minor")]
            assert kinds, name
            base = cfgmod.build_grid(cfg)
            model = cfgmod.build_model(cfg)
            drive = cfgmod.build_drive(cfg)
            policy = cfgmod.build_policy(cfg, base.dim)
            tol = cfgmod.build_tol(cfg)
            pred = None
            if vs.get("mask"):
                e = exprmod.parse(vs["mask"], coord_names(base.dim))
                pred = lambda p: exprmod.eval_jets(e, p).val > 0.0

            def make(grid):
                sol = synthesize(model, drive, policy, grid, tol=tol)
                fn = divergence_residual if kinds[0] == "divergence" else minor_residual
                return fn(sol, mask=pred)

            grids = [GridSpec(base.lo, base.hi, tuple(c * 2 ** i for c in cells))
                     for i in range(3)]
            rep = convergence_study(make, grids)
            assert rep.at_floor or 1.8 < rep.order < 2.2, (name, rep.order)


def test_criterion_09_forms_reductions():
    with criterion(9, "forms/vector agreement; star and d laws; 4d codifferential order"):
        rng = np.random.default_rng(9)

        # (n,k) = (2,1): the 1-form synthesis is the plane vector synthesis
        m2 = shallow_water()
        pts2 = rng.uniform(0.2, 0.8, (1000, 2))
        text = "x1^2 * x2^3 / 8"
        fsol = synthesize_form(m2, kform(2, 0, {(): text}), prefer_type1(), pts2)
        vsol = synthesize_at_points(m2, scalar_drive(text), prefer_type1(), pts2)
        ok = fsol.defined & vsol.defined
        assert ok.sum() > 900
        omega2 = formsmod.omega_values(fsol).coeffs
        w_form = np.stack([omega2[(1,)], omega2[(2,)]], axis=1)
        assert np.abs(w_form[ok] - vsol.w[ok]).max() < 1e-10

        # (n,k) = (3,2): the 2-form carries the gradient-drive field
        m3 = extremal()
        pts3 = rng.uniform(-0.9, 0.9, (1000, 3))
        text3 = "x1*x2*x3 + sin(x1) - x2^2/3"
        f3 = synthesize_form(m3, kform(3, 0, {(): text3}), single_branch(1), pts3)
        v3 = synthesize_at_points(m3, gradient_drive(3, text3), single_branch(1), pts3)
        ok = f3.defined & v3.defined
        assert ok.sum() > 900
        omega3 = formsmod.omega_values(f3).coeffs
        assert np.abs(omega3[(2, 3)][ok] - v3.w[ok, 0]).max() < 1e-10
        assert np.abs(omega3[(1, 3)][ok] + v3.w[ok, 1]).max() < 1e-10
        assert np.abs(omega3[(1, 2)][ok] - v3.w[ok, 2]).max() < 1e-10

        # star involution sign law and d(d(.)) = 0
        for n in range(1, 5):
            for k in range(0, n + 1):
                for idx in multi_indices(n, k):
                    comp, s1 = star_sign(idx, n)
                    back, s2 = star_sign(comp, n)
                    assert back == idx and s1 * s2 == (-1) ** (k * (n - k))
        a3 = kform(3, 1, {(1,): "x2*x3^2", (2,): "cos(x1*x3)", (3,): "x1^2 - x2^3"})
        dd = formsmod.exterior_d(formsmod.exterior_d(a3, rng.uniform(-1, 1, (60, 3))))
        for col in dd.coeffs.values():
            assert np.abs(col).max() < 1e-12

        # n=4, k=2: delta(rho omega) residual converges at second order
        m4 = born_infeld()
        f4 = kform(4, 1, {(1,): "x2 + x2*x3^3/6 + x4^2/2",
                          (3,): "x4 + x1*x4^2/5 + x2^2/3"})

        def make(grid):
            fs = synthesize(m4, FormDrive(f4), single_branch(1), grid)
            return codifferential_residual(fs)

        grids = [GridSpec((0.2,) * 4, (0.8,) * 4, (c,) * 4) for c in (8, 16, 32)]
        rep = convergence_study(make, grids)
        assert not rep.at_floor
        assert 1.8 < rep.order < 2.2


def test_criterion_10_integrating_factor_on_annulus():
    with criterion(10, "recover_eta: curl gate < 1e-6 and exp(-eta) w closure < 1e-5"):
        m = shallow_water()
        d = shallow_vortex(1.0)
        grid = GridSpec((-1.35, -1.35), (1.35, 1.35), (96, 96))
        sol = synthesize(m, d, prefer_type2(allow_nonphysical=True), grid, tol=WTOL)
        wit = witness_2d(sol)
        t = (sol.points ** 2).sum(axis=1).reshape(grid.shape())
        mask = (t >= 1.0) & (t <= 1.8)
        rec = recover_eta(wit, mask=mask)
        assert rec.curl_gate < 1e-6
        assert rec.post_residual < 1e-5


def test_criterion_11_property_suite():
    with criterion(11, "gamma_0 in gamma_s; normalized-field density independence; "
                       "primary/alternate agreement; determinism"):
        # mask inclusion across three very different runs
        runs = [
            vortex_setup(1.0, 1.1, 48)[0:4],
            (caustic(1.0), scalar_drive("x1^2 * x2^3"), prefer_type1(),
             GridSpec((0.3, 0.3), (1.3, 1.3), (48, 48))),
            (custom("sqrt(Q)", q_max=9.0, name="sqrt"), scalar_drive("x1^2 + x2^2"),
             prefer_type1(), GridSpec((-0.5, -0.5), (0.5, 0.5), (32, 32))),
        ]
        for m, d, policy, grid in runs:
            rep = classify(m, d, policy, grid)
            assert not (rep.gamma_0 & ~rep.gamma_s).any()

        # normalized field is the normalized drive, independent of the density
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.25, 0.75, (400, 2))
        d = scalar_drive("x1^2 * x2^3 / 8")
        batch = drive_batch(d, pts)
        unit_a = batch.a / np.sqrt(batch.xi)[:, None]
        for m in (shallow_water(), extremal(), born_infeld(), custom("1", q_max=16.0)):
            sol = synthesize_at_points(m, d, prefer_type1(), pts)
            ok = sol.defined & (sol.Q > 1e-12)
            assert ok.sum() > 300
            unit_w = sol.w[ok] / np.sqrt(sol.Q[ok])[:, None]
            # 1e-10 leaves room for the tabulated inverse of the custom model
            assert np.abs(unit_w - unit_a[ok]).max() < 1e-10

        # primary a/rho vs alternate unit(a) sqrt(Q) wherever rho is regular
        m = caustic(1.0)
        d = scalar_drive("x1^2 * x2^3")
        cpts = rng.uniform(0.4, 1.2, (300, 2))
        sol = synthesize_at_points(m, d, prefer_type1(), cpts)
        cb = drive_batch(d, cpts)
        ok = sol.branch_id != 0
        strong = ok & (np.abs(m.rho(sol.Q)) > 1e-6)
        alt = cb.a / np.sqrt(cb.xi)[:, None] * np.sqrt(sol.Q)[:, None]
        assert np.abs(sol.w[strong] - alt[strong]).max() < 1e-9

        # bitwise determinism of repeated synthesis
        model, d, policy, grid = vortex_setup(1.0, 1.1, 48)
        s1 = synthesize(model, d, policy, grid)
        s2 = synthesize(model, d, policy, grid)
        assert s1.w.tobytes() == s2.w.tobytes()
        assert s1.Q.tobytes() == s2.Q.tobytes()
        assert np.array_equal(s1.flags, s2.flags)
        assert np.array_equal(s1.branch_id, s2.branch_id)
