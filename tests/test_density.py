import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import (
    DensityError,
    born_infeld,
    caustic,
    custom,
    extremal,
    shallow_water,
)

ALL_MODELS = [extremal(), born_infeld(), shallow_water(), caustic(1.5)]


def bisect_phi(model, branch, xi, iters=200):
    """Independent inverse of phi on a monotone branch by pure bisection."""
    lo, hi = branch.q_interval.lo, branch.q_interval.hi
    if not np.isfinite(hi):
        hi = max(2.0 * lo + 1.0, 1.0)
        while (model.phi(hi) - xi) * (model.phi(lo + 1e-13) - xi) > 0 and hi < 1e12:
            hi *= 2.0
    a, b = lo, hi
    fa = model.phi(a if branch.q_interval.lo_closed else a + 1e-13) - xi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = model.phi(mid) - xi
        if np.isnan(fm):
            b = mid
            continue
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def interior_samples(branch, count=200):
    lo, hi = branch.image.lo, branch.image.hi
    if not np.isfinite(hi):
        hi = lo + 50.0
    pad = 1e-3 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


def test_shallow_branch_boundaries_exact():
    m = shallow_water()
    bs = m.branches()
    assert len(bs) == 3
    assert bs[0].q_interval.lo == 0.0
    assert bs[0].q_interval.hi == 2.0 / 3.0
    assert bs[1].q_interval.lo == 2.0 / 3.0
    assert bs[1].q_interval.hi == 2.0
    assert bs[2].q_interval.lo == 2.0
    fold = m.phi(2.0 / 3.0)
    assert abs(fold - (2.0 / 3.0) ** 3) <= 1e-15


def test_shallow_branch_types_and_images():
    m = shallow_water()
    b1, b2, b3 = m.branches()
    assert b1.orientation == "type1" and b1.elliptic
    assert b2.orientation == "type2"
    assert b3.orientation == "type1" and b3.nonphysical
    assert b1.image.lo == 0.0 and b1.image.hi == pytest.approx((2 / 3) ** 3)
    assert b2.image.lo == 0.0 and b2.image.hi == pytest.approx((2 / 3) ** 3)
    assert not np.isfinite(b3.image.hi)


def test_extremal_branch_maps_are_exact_closed_forms():
    m = extremal()
    b1, b2 = m.branches()
    xi = np.linspace(0.0, 9.0, 101)
    np.testing.assert_allclose(b1.psi(xi), xi / (xi + 1.0), rtol=1e-15, atol=1e-15)
    xi2 = np.linspace(1.0 + 1e-6, 9.0, 101)
    np.testing.assert_allclose(b2.psi(xi2), xi2 / (xi2 - 1.0), rtol=1e-13, atol=0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_psi_phi_round_trip_on_every_branch(model):
    for branch in model.branches():
        xi = interior_samples(branch)
        q = branch.psi(xi)
        assert np.isfinite(q).all()
        back = model.phi(q)
        np.testing.assert_allclose(back, xi, rtol=1e-10, atol=1e-12)
        # and the other direction, q -> phi -> psi
        qlo, qhi = branch.q_interval.lo, branch.q_interval.hi
        if not np.isfinite(qhi):
            qhi = qlo + 25.0
        qs = np.linspace(qlo + 1e-3 * (qhi - qlo), qhi - 1e-3 * (qhi - qlo), 200)
        q2 = branch.psi(model.phi(qs))
        np.testing.assert_allclose(q2, qs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_branch_inverse_agrees_with_bisection_oracle(model):
    for branch in model.branches():
        xi = interior_samples(branch, count=25)
        q = branch.psi(xi)
        for x, qq in zip(xi, q):
            oracle = bisect_phi(model, branch, x)
            assert qq == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_caustic_kink_has_undefined_slope():
    tau = 1.5
    m = caustic(tau)
    assert np.isnan(m.rho_and_prime(tau**2)[1])
    # but rho itself is continuous (and zero) at the kink
    assert m.rho(tau**2) == pytest.approx(0.0, abs=1e-12)


def test_caustic_branch_geometry():
    tau = 2.0
    m = caustic(tau)
    b1, b2 = m.branches()
    assert b1.label == "shadow" and b2.label == "illuminated"
    xi = np.linspace(0.5, 3.5, 41)
    np.testing.assert_allclose(b1.psi(xi), xi + tau**2, rtol=1e-15)
    np.testing.assert_allclose(b2.psi(xi), tau**2 - xi, rtol=1e-15)
    # illuminated image is closed at both ends
    assert b2.image.lo_closed and b2.image.hi_closed
    assert b2.image.lo == 0.0 and b2.image.hi == tau**2


def test_born_infeld_rho_formula():
    m = born_infeld()
    q = np.array([0.25, 0.5, 2.0, 5.0])
    np.testing.assert_allclose(m.rho(q), 1.0 / np.sqrt(np.abs(1.0 - q)), rtol=1e-15)


def test_custom_matches_shallow():
    m = custom("1 - Q/2", q_max=16.0, name="shallow-clone")
    ref = shallow_water()
    q = np.linspace(0.05, 7.0, 53)
    np.testing.assert_allclose(m.rho(q), ref.rho(q), rtol=1e-12)
    np.testing.assert_allclose(m.phi_prime(q), ref.phi_prime(q), rtol=1e-11, atol=1e-12)
    assert len(m.branches()) == 3
    # numeric branch boundaries land on the analytic fold
    bs = m.branches()
    assert bs[0].q_interval.hi == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert bs[1].q_interval.hi == pytest.approx(2.0, abs=1e-6)


def test_custom_rejects_non_q_expressions():
    with pytest.raises(DensityError):
        custom("1 - x1/2")
    with pytest.raises(DensityError):
        custom("1 - Q/2", q_min=-1.0)
    # with q_max unset, the refusal names the horizon the sampler put in its place
    with pytest.raises(DensityError, match=r"unset: the sampler's default horizon 1e6\) must "
                                           r"exceed q_min = 2000000\.0"):
        custom("1", q_min=2e6)


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, (2 / 3) ** 3 - 1e-6))
def test_shallow_roots_straddle_the_fold(xi):
    m = shallow_water()
    b1, b2, _ = m.branches()
    q1 = float(b1.psi(np.array([xi]))[0])
    q2 = float(b2.psi(np.array([xi]))[0])
    assert 0.0 <= q1 < 2.0 / 3.0 < q2 < 2.0
    assert m.phi(q1) == pytest.approx(xi, rel=1e-9, abs=1e-12)
    assert m.phi(q2) == pytest.approx(xi, rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99))
def test_extremal_phi_prime_sign_matches_type(q):
    m = extremal()
    assert m.phi_prime(q) > 0  # type1 region
    assert m.phi_prime(q + 1.0 + 0.5) < 0 or m.phi_prime(q + 1.0 + 0.5) != 0


# ---------------------------------------------------------------------------
# custom-density branch detection against the per-sample state machine it
# replaced (kept verbatim below as the oracle)


def _oracle_bisect_scalar(fn, a, b, fa, fb):
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = fn(m)
        if not np.isfinite(fm):
            break
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def _oracle_bisect_defined(defined_fn, a, b):
    for _ in range(120):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if defined_fn(m):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _oracle_detect_branches(qs, dphi, rvals, phi_arr, dphi_arr, open_end, name):
    import math

    from streamfields.density import Interval, PhiBranch, _numeric_inverse

    _INF = math.inf
    defined = np.isfinite(dphi)
    if not np.any(defined):
        raise DensityError(f"custom density {name!r}: phi' undefined at every sample")

    def dphi_scalar(q):
        return float(dphi_arr(np.asarray([q]))[0])

    def defined_scalar(q):
        return bool(np.isfinite(dphi_arr(np.asarray([q]))[0]))

    runs = []
    start = None
    for i, d in enumerate(defined):
        if d and start is None:
            start = i
        elif not d and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(qs) - 1))

    pieces = []
    for r0, r1 in runs:
        if r1 - r0 < 8:
            continue
        lo_q = qs[r0]
        lo_closed = r0 == 0
        if r0 > 0:
            lo_q = _oracle_bisect_defined(defined_scalar, qs[r0], qs[r0 - 1])
            lo_closed = False
        seg_start = lo_q
        seg_sign = math.copysign(1.0, dphi[r0]) if dphi[r0] != 0.0 else 0.0
        count = 0
        for i in range(r0, r1):
            s_next = math.copysign(1.0, dphi[i + 1]) if dphi[i + 1] != 0.0 else 0.0
            count += 1
            if s_next != 0.0 and seg_sign == 0.0:
                seg_sign = s_next
            elif s_next != 0.0 and s_next != seg_sign:
                root = _oracle_bisect_scalar(dphi_scalar, qs[i], qs[i + 1], seg_sign, dphi[i + 1])
                if count >= 8:
                    pieces.append((seg_start, root, lo_closed and seg_start == qs[r0], False, seg_sign))
                seg_start, seg_sign, lo_closed, count = root, s_next, False, 0
        hi_q = qs[r1]
        hi_closed = r1 == len(qs) - 1 and not open_end
        if r1 < len(qs) - 1:
            hi_q = _oracle_bisect_defined(defined_scalar, qs[r1], qs[r1 + 1])
            hi_closed = False
        if count >= 8:
            pieces.append((seg_start, hi_q if not (r1 == len(qs) - 1 and open_end) else _INF,
                           lo_closed, hi_closed if not (r1 == len(qs) - 1 and open_end) else False,
                           seg_sign))

    if not pieces:
        raise DensityError(f"custom density {name!r}: no sign-definite phi' interval found")

    out = []
    for idx, (qa, qb, lo_c, hi_c, sign) in enumerate(pieces, start=1):
        increasing = sign > 0.0
        fa = float(phi_arr(np.asarray([qa]))[0])
        if not np.isfinite(fa):
            fa = float(phi_arr(np.asarray([qa + 1e-12 * max(1.0, abs(qa))]))[0])
        if np.isfinite(qb):
            fb = float(phi_arr(np.asarray([qb]))[0])
            if not np.isfinite(fb):
                fb = float(phi_arr(np.asarray([qb - 1e-12 * max(1.0, abs(qb))]))[0])
        else:
            fb = _INF if increasing else 0.0
        im_lo, im_hi = (fa, fb) if increasing else (fb, fa)
        image = Interval(
            im_lo, im_hi,
            lo_closed=(lo_c if increasing else hi_c) and np.isfinite(im_lo),
            hi_closed=(hi_c if increasing else lo_c) and np.isfinite(im_hi),
        )
        mid = qa + 0.5 * (min(qb, qa + 10.0) - qa)
        rho_mid = rvals[np.searchsorted(qs, mid).clip(0, len(qs) - 1)]
        out.append(
            PhiBranch(
                index=idx,
                label=f"numeric_{idx}",
                orientation="type1" if increasing else "type2",
                q_interval=Interval(qa, qb, lo_c, hi_c),
                image=image,
                nonphysical=bool(np.isfinite(rho_mid) and rho_mid < 0.0),
                snap_lo=np.isfinite(image.lo) and np.isfinite(qb if not increasing else qa),
                snap_hi=np.isfinite(image.hi) and np.isfinite(qa if not increasing else qb),
                psi_fn=_numeric_inverse(phi_arr, dphi_arr, qa, qb, increasing),
            )
        )
    return out


def _oracle_custom_branches(rho_expr, q_min=0.0, q_max=None):
    """The branches the sample-by-sample detector finds for custom(rho_expr)."""
    from streamfields import expr as exprmod
    from streamfields.density import _sample_grid

    e = exprmod.parse(rho_expr, ("Q",))

    def rho_and_prime(q):
        jets = exprmod.eval_jets(e, q.reshape(-1, 1))
        r = np.where(jets.bad, np.nan, jets.val)
        rp = np.where(jets.bad, np.nan, jets.grad[:, 0])
        return r.reshape(q.shape), rp.reshape(q.shape)

    def phi_arr(q):
        q = np.asarray(q, dtype=float)
        r, _ = rho_and_prime(q)
        with np.errstate(all="ignore"):
            return q * r * r

    def dphi_arr(q):
        q = np.asarray(q, dtype=float)
        r, rp = rho_and_prime(q)
        with np.errstate(all="ignore"):
            return r * (r + 2.0 * q * rp)

    qs = _sample_grid(q_min, q_max if q_max is not None else 1e6, 4096)
    with np.errstate(all="ignore"):
        dphi = dphi_arr(qs)
        rvals, _ = rho_and_prime(qs)
    return _oracle_detect_branches(qs, dphi, rvals, phi_arr, dphi_arr,
                                   open_end=q_max is None, name="oracle")


# (rho, q_min, q_max): folds, exact zeros of phi' (first, last and a whole
# stretch of samples), undefined gaps and short defined runs, q_min > 0, open
# and closed ends, ~30-branch oscillations, definedness edges near Q = 0, and
# phi = (Q-1)^3/3 - d (Q-1)^2/2 + 1, whose piece between the roots 1 and 1 + d
# of phi' spans 8 samples (kept) at d = 0.0036 and 7 (dropped) at d = 0.0030
ORACLE_LAWS = [
    ("sqrt(((Q-1)^3/3 - 0.0036*(Q-1)^2/2 + 1)/Q)", 0.1, 4.0),
    ("sqrt(((Q-1)^3/3 - 0.0030*(Q-1)^2/2 + 1)/Q)", 0.1, 4.0),
    ("1", 0.0, 16.0),
    ("1", 0.0, None),
    ("1 - Q/2", 0.0, 16.0),
    ("1 - Q/2", 0.0, None),
    ("1 - Q/2", 0.0, 2.0),
    ("1 - Q/2", 0.5, 8.0),
    ("1 - Q", 0.0, 1.0),
    ("Q", 0.0, 5.0),
    ("Q - 1", 1.0, 9.0),
    ("(abs(1 - Q) + 1 - Q)/2 + (abs(Q - 2) + Q - 2)/2", 0.0, 6.0),
    ("1/sqrt(abs(1 - Q))", 0.0, None),
    ("sqrt(abs(1 - 2.25/Q))", 0.0, 20.0),
    ("sqrt((Q - 1)*(Q - 2))", 0.0, 10.0),
    ("sqrt(-(Q - 1)*(Q - 1.002)*(Q - 2)*(Q - 3))", 0.0, 10.0),
    ("sqrt(1 - Q)", 0.0, None),
    ("log(Q - 1)", 0.0, 30.0),
    ("log(Q)", 0.0, 10.0),
    ("1/Q", 0.0, 10.0),
    ("sqrt(Q)", 0.0, 10.0),
    ("exp(-Q)", 0.0, None),
    ("exp(Q)", 0.0, None),
    ("1/sqrt(1 + Q) + Q/10", 0.1, None),
    ("cos(Q)", 0.0, 12.0),
    ("2 + sin(Q)", 0.0, 100.0),
    ("2 + sin(3*Q)", 0.2, 30.0),
    ("Q^2 - 3*Q + 1", 0.0, 8.0),
]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same_interval(a, b):
    return (_bits([a.lo, a.hi]) == _bits([b.lo, b.hi])
            and bool(a.lo_closed) is bool(b.lo_closed) and bool(a.hi_closed) is bool(b.hi_closed))


@pytest.mark.parametrize("rho,q_min,q_max", ORACLE_LAWS, ids=lambda v: str(v))
def test_custom_branches_match_the_per_sample_oracle_bit_for_bit(rho, q_min, q_max):
    got = custom(rho, q_min=q_min, q_max=q_max).branches()
    want = _oracle_custom_branches(rho, q_min, q_max)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.label, g.orientation) == (w.index, w.label, w.orientation)
        assert _same_interval(g.q_interval, w.q_interval)
        assert _same_interval(g.image, w.image)
        assert (bool(g.nonphysical), bool(g.snap_lo), bool(g.snap_hi)) == (
            bool(w.nonphysical), bool(w.snap_lo), bool(w.snap_hi))
        hi = w.image.hi if np.isfinite(w.image.hi) else w.image.lo + 10.0 * (1.0 + abs(w.image.lo))
        xi = np.linspace(w.image.lo, hi, 257)
        assert _bits(g.psi(xi)) == _bits(w.psi(xi))


def test_oracle_laws_cover_the_cases_they_name():
    by_law = {(r, lo, hi): _oracle_custom_branches(r, lo, hi) for r, lo, hi in ORACLE_LAWS}
    counts = [len(bs) for bs in by_law.values()]
    assert max(counts) >= 30  # oscillating law
    ivs = [b.q_interval for bs in by_law.values() for b in bs]
    assert any(not iv.lo_closed and 0.0 < iv.lo < 1e-40 for iv in ivs)  # log(Q) edge near 0
    assert any(np.isinf(iv.hi) for iv in ivs) and any(iv.hi_closed for iv in ivs)
    assert any(b.nonphysical for bs in by_law.values() for b in bs)
    assert counts[:2] == [3, 2]  # the 8-sample piece is a branch, the 7-sample one is not


def test_custom_phi_prime_of_pure_rounding_noise_is_refused():
    # rho = Q^(-1/2) makes phi = 1: every phi' sample is rounding noise
    with pytest.raises(DensityError, match="no sign-definite"):
        custom("1/sqrt(Q)", q_max=10.0)


def test_custom_branch_ends_at_the_root_of_phi_prime_not_past_it():
    # phi = Q rho^2 is flat (phi' = 0) on [1, 2] and rises beyond 2: the type2
    # branch from the fold at 1/3 runs into the flat stretch and must end
    # where phi' is still 0, not at a sample past Q = 2 where phi' > 0
    model = custom("(abs(1 - Q) + 1 - Q)/2 + (abs(Q - 2) + Q - 2)/2", q_max=6.0)
    (branch,) = [b for b in model.branches() if b.orientation == "type2"]
    hi = branch.q_interval.hi
    assert hi <= 2.0
    assert model.phi_prime(np.array([hi]))[0] <= 0.0


def test_custom_branch_ends_cost_bisection_steps_not_roots(monkeypatch):
    """Every root of phi' is bisected in one array bisection (and every
    definedness edge in another), so ten times the roots cost the same number
    of jet evaluations: one per step of the slowest bracket."""
    from streamfields import expr as exprmod

    calls = []
    eval_jets = exprmod.eval_jets

    def counted(*args, **kwargs):
        calls.append(1)
        return eval_jets(*args, **kwargs)

    monkeypatch.setattr(exprmod, "eval_jets", counted)
    per_law = {}
    for rho in ("2+sin(3*Q)", "2+sin(30*Q)"):
        calls.clear()
        per_law[rho] = (len(custom(rho, q_min=0.2, q_max=30.0).branches()), len(calls))
    (few, calls_few), (many, calls_many) = per_law.values()
    assert many >= 9 * few
    assert calls_many == calls_few
    # 3 calls to check rho', 1 on the samples, one per bisection step (at most
    # 200), 1 for phi at the branch ends: fewer than one call per root
    assert calls_many <= 3 + 1 + 200 + 1 < many


def test_custom_rho_reads_values_only_and_rho_prime_first_order_jets(monkeypatch):
    """rho is an order-0 pass, so a kink leaves it defined; rho' an order-1
    pass, undefined where the derivative fails."""
    from streamfields import expr as exprmod

    model = custom("2 + abs(Q - 1)", q_max=4.0)
    orders = []
    real = exprmod.eval_jets

    def spy(e, points, params=None, order=2):
        orders.append(order)
        return real(e, points, params, order)

    monkeypatch.setattr(exprmod, "eval_jets", spy)
    q = np.array([0.5, 1.0, 3.0])
    np.testing.assert_array_equal(model.rho(q), [2.5, 2.0, 4.0])
    assert orders == [0]
    r, rp = model.rho_and_prime(q)
    np.testing.assert_array_equal(r, [2.5, 2.0, 4.0])
    np.testing.assert_array_equal(rp, [-1.0, np.nan, 1.0])
    assert orders == [0, 0, 1]


@pytest.mark.parametrize("model", [
    extremal(), born_infeld(), shallow_water(), caustic(1.0), caustic(2.0),
    custom("2 + abs(Q - 1)", q_max=4.0), custom("1"),
], ids=["extremal", "born_infeld", "shallow_water", "caustic1", "caustic2", "kink", "one"])
def test_rho_and_prime_and_phi_prime_match_their_oracle_bit_for_bit(model):
    """rho_and_prime is (rho, rho_prime_fn masked by the domain), and phi'
    the product rho (rho + 2 Q rho') of those arrays, NaN positions and the
    sign of zero included: at NaN, +-inf, Q < 0, -0.0, the extremal pole
    Q = 1, the caustic kinks Q = tau^2 = 1 and 4, and Q beyond q_max = 4."""
    q = np.array([np.nan, -np.inf, np.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 2.0 / 3.0, 1.0,
                  1.0 + 1e-15, 2.0, 3.5, 4.0, 4.5, 1e6, 1e300])
    with np.errstate(all="ignore"):
        rp_fn = model.rho_prime_fn(q)
    r, rp = model.rho_and_prime(q)
    want_rp = np.where(model.in_domain(q), rp_fn, np.nan)
    assert _bits(r) == _bits(model.rho(q))
    assert _bits(rp) == _bits(want_rp)
    with np.errstate(all="ignore"):
        want_phi = r * (r + 2.0 * q * rp)
    assert _bits(model.phi_prime(q)) == _bits(want_phi)
    # rho' is NaN outside the domain even where rho_prime_fn is finite there
    # (the extremal and shallow-water laws at Q < 0, the kink law past q_max)
    assert np.isnan(rp[~model.in_domain(q)]).all()
