import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import (
    FormError,
    FormValues,
    GridSpec,
    Tolerances,
    codifferential,
    codifferential_sign,
    custom,
    evaluate_form,
    exterior_d,
    extremal,
    gamma_witness,
    gradient_drive,
    hodge_star,
    insert_sign,
    kform,
    multi_indices,
    prefer_type1,
    scalar_drive,
    shallow_water,
    single_branch,
    star_sign,
    synthesize_at_points,
    synthesize_form,
    synthesize_form_closed,
    wedge_1form,
    witness_2d,
)
from streamfields import expr as exprmod
from streamfields import forms
from streamfields import verify as verifymod


def _parity_by_det(seq):
    """Permutation parity oracle via the determinant of the permutation matrix."""
    m = np.zeros((len(seq), len(seq)))
    for row, val in enumerate(seq):
        m[row, val] = 1.0
    return int(round(np.linalg.det(m)))


def _random_values(rng, n, k, npts=17):
    coeffs = {key: rng.standard_normal(npts) for key in multi_indices(n, k)}
    return FormValues(n=n, k=k, coeffs=coeffs, grads=None,
                      bad=np.zeros(npts, dtype=bool))


def test_multi_index_basis():
    for n in range(1, 5):
        for k in range(0, n + 1):
            keys = multi_indices(n, k)
            assert len(keys) == math.comb(n, k)
            assert keys == sorted(keys)
            assert all(tuple(sorted(set(key))) == key for key in keys)
    assert multi_indices(3, 0) == [()]
    assert multi_indices(3, 3) == [(1, 2, 3)]


def test_star_sign_matches_permutation_parity():
    for n in range(1, 5):
        for k in range(0, n + 1):
            for idx in multi_indices(n, k):
                comp, sgn = star_sign(idx, n)
                assert tuple(sorted(idx + comp)) == tuple(range(1, n + 1))
                assert sgn == _parity_by_det([i - 1 for i in idx + comp])


def test_star_involution_sign():
    for n in range(1, 5):
        for k in range(0, n + 1):
            want = (-1) ** (k * (n - k))
            for idx in multi_indices(n, k):
                comp, s1 = star_sign(idx, n)
                back, s2 = star_sign(comp, n)
                assert back == idx
                assert s1 * s2 == want


def test_hodge_star_numeric_involution(rng):
    for n in range(1, 5):
        for k in range(0, n + 1):
            vals = _random_values(rng, n, k)
            twice = hodge_star(hodge_star(vals))
            sgn = (-1) ** (k * (n - k))
            for key, col in vals.coeffs.items():
                assert np.array_equal(twice.coeffs[key], sgn * col)


def test_insert_sign_basics():
    assert insert_sign(1, (1, 2))[1] == 0
    assert insert_sign(1, (2, 3)) == ((1, 2, 3), 1)
    assert insert_sign(2, (1, 3)) == ((1, 2, 3), -1)
    assert insert_sign(4, (1, 3)) == ((1, 3, 4), 1)
    assert insert_sign(3, ()) == ((3,), 1)


def test_dd_is_zero(rng):
    pts2 = rng.uniform(-1.0, 1.0, (60, 2))
    f = kform(2, 0, {(): "sin(x1)*x2^2 + exp(x1*x2)/5"})
    dd = exterior_d(exterior_d(f, pts2))
    assert np.abs(dd.coeffs[(1, 2)]).max() < 1e-12

    pts3 = rng.uniform(-1.0, 1.0, (60, 3))
    a = kform(3, 1, {(1,): "x2*x3^2", (2,): "cos(x1*x3)", (3,): "x1^2 - x2^3"})
    dd = exterior_d(exterior_d(a, pts3))
    for col in dd.coeffs.values():
        assert np.abs(col).max() < 1e-12


def test_codifferential_is_negative_divergence_2d(rng):
    pts = rng.uniform(-1.0, 1.0, (80, 2))
    omega = kform(2, 1, {(1,): "x1^2*x2 + sin(x2)", (2,): "exp(x1/2) - x2^3"})
    delta = codifferential(omega, pts)
    names = ("x1", "x2")
    div = (exprmod.eval_jets(exprmod.parse("x1^2*x2 + sin(x2)", names), pts, {}).grad[:, 0]
           + exprmod.eval_jets(exprmod.parse("exp(x1/2) - x2^3", names), pts, {}).grad[:, 1])
    assert delta.k == 0
    assert np.abs(delta.coeffs[()] + div).max() < 1e-12


def test_codifferential_sign_table():
    # delta = (-1)^(n(k+1)+1) * d * ; even n gives -1 for every k
    for k in range(1, 5):
        assert codifferential_sign(2, k) == -1
        assert codifferential_sign(4, k) == -1
    assert codifferential_sign(3, 1) == -1
    assert codifferential_sign(3, 2) == 1


def test_form_validation_errors():
    with pytest.raises(FormError):
        kform(5, 1, {(1,): "x1"})
    with pytest.raises(FormError):
        kform(2, 3, {})
    with pytest.raises(FormError):
        kform(2, 1, {(3,): "x1"})
    with pytest.raises(FormError):
        kform(2, 1, {(1, 1): "x1"})
    with pytest.raises(FormError):
        evaluate_form(kform(2, 1, {(1,): "x1"}), np.zeros((4, 3)))
    with pytest.raises(FormError):
        codifferential(kform(2, 0, {(): "x1"}), np.zeros((4, 2)))


def test_reduction_matches_vector_synthesis_2d():
    """In two dimensions the 1-form synthesis from a stream function is the
    rotated-gradient vector construction, component for component."""
    model = shallow_water()
    policy = prefer_type1()
    xs = np.linspace(0.2, 0.8, 16)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    text = "x1^2 * x2^3 / 8"

    fsol = synthesize_form(model, kform(2, 0, {(): text}), policy, pts)
    vsol = synthesize_at_points(model, scalar_drive(text), policy, pts)

    w_form = np.stack([fsol.omega.coeffs[(1,)], fsol.omega.coeffs[(2,)]], axis=1)
    ok = fsol.defined & vsol.defined
    assert ok.sum() > 200
    assert np.abs(w_form[ok] - vsol.w[ok]).max() == 0.0
    assert np.array_equal(fsol.flags, vsol.flags)
    assert np.array_equal(fsol.branch_id, vsol.branch_id)
    assert np.array_equal(fsol.regime, vsol.regime)


def test_duality_3d_components(rng):
    """The 2-form built from a scalar stream function in 3d carries the
    gradient-drive vector field through the star pairing with signs
    (+w1, -w2, +w3) on (dx23, dx13, dx12)."""
    model = extremal()
    policy = single_branch(1)
    pts = rng.uniform(-0.9, 0.9, (1000, 3))
    text = "x1*x2*x3 + sin(x1) - x2^2/3"

    fsol = synthesize_form(model, kform(3, 0, {(): text}), policy, pts)
    vsol = synthesize_at_points(model, gradient_drive(3, text), policy, pts)

    ok = fsol.defined & vsol.defined
    assert ok.sum() > 900
    assert np.abs(fsol.omega.coeffs[(2, 3)][ok] - vsol.w[ok, 0]).max() < 1e-10
    assert np.abs(fsol.omega.coeffs[(1, 3)][ok] + vsol.w[ok, 1]).max() < 1e-10
    assert np.abs(fsol.omega.coeffs[(1, 2)][ok] - vsol.w[ok, 2]).max() < 1e-10


def test_wedge_system_square_4d(rng):
    """For 2-forms in 4d the coefficient system for the witness 1-form is
    square; away from decomposable data it solves with zero residual."""
    model = extremal()
    policy = single_branch(1)
    pts = rng.uniform(0.3, 0.9, (200, 4))
    f = kform(4, 1, {(1,): "x2 + x2*x3^2/4", (3,): "x4 + x1*x4^2/5"})

    fsol = synthesize_form(model, f, policy, pts)
    wit = gamma_witness(model, f, fsol)

    ok = wit.defined & ~wit.rank_deficient
    assert ok.sum() > 180
    assert np.nanmax(wit.defect[ok]) < 1e-8
    assert np.abs(wit.frobenius_defect[ok]).max() < 1e-8


def test_gamma_matches_vector_witness_2d():
    model = shallow_water()
    policy = prefer_type1()
    xs = np.linspace(0.25, 0.75, 14)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    text = "x1^2 * x2^3 / 8"

    f = kform(2, 0, {(): text})
    fsol = synthesize_form(model, f, policy, pts)
    gw = gamma_witness(model, f, fsol)

    d = scalar_drive(text)
    vsol = synthesize_at_points(model, d, policy, pts)
    vw = witness_2d(vsol)

    ok = gw.defined & np.isfinite(vw.G).all(axis=1)
    assert ok.sum() > 150
    assert np.abs(gw.Gamma[ok] - vw.G[ok]).max() < 1e-12


def test_gamma_vanishes_for_harmonic_stream_at_unit_density():
    """Harmonic stream function and constant density leave nothing for the
    witness to correct: the least-squares system has a zero right side."""
    model = custom("1", q_min=0.0, q_max=16.0)
    policy = single_branch(1)
    xs = np.linspace(0.2, 0.9, 12)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    f = kform(2, 0, {(): "x1^2 - x2^2"})

    fsol = synthesize_form(model, f, policy, pts)
    gw = gamma_witness(model, f, fsol)
    ok = gw.defined
    assert ok.sum() > 100
    assert np.abs(gw.Gamma[ok]).max() < 1e-10


def test_closed_form_synthesis_checks_closure(rng):
    model = shallow_water()
    policy = prefer_type1()
    pts = rng.uniform(0.2, 0.8, (100, 2))
    box = (np.array([0.2, 0.2]), np.array([0.8, 0.8]))

    with pytest.raises(FormError, match="not closed"):
        synthesize_form_closed(model, kform(2, 1, {(1,): "x2"}), policy, pts, box)

    # alpha = d(x1^2 x2^3 / 8) written out by hand is closed and must
    # reproduce the stream-function synthesis exactly
    alpha = kform(2, 1, {(1,): "x1 * x2^3 / 4", (2,): "3 * x1^2 * x2^2 / 8"})
    csol = synthesize_form_closed(model, alpha, policy, pts, box)
    fsol = synthesize_form(model, kform(2, 0, {(): "x1^2 * x2^3 / 8"}), policy, pts)
    ok = csol.defined & fsol.defined
    assert ok.sum() > 80
    for key in csol.omega.coeffs:
        assert np.abs(csol.omega.coeffs[key][ok] - fsol.omega.coeffs[key][ok]).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=10_000))
def test_wedge_with_same_one_form_twice_kills(n, k, seed):
    rng = np.random.default_rng(seed)
    if k > n:
        k = n
    beta = _random_values(rng, n, k, npts=9)
    g = rng.standard_normal((9, n))
    twice = wedge_1form(g, wedge_1form(g, beta))
    for col in twice.coeffs.values():
        assert np.abs(col).max() < 1e-12


# ---------------------------------------------------------------------------
# the sign-table kernel against the loops it replaced, written out by hand


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.uint64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _oracle_d_values(values):
    n, k = values.n, values.k
    out = {key: np.zeros(values.bad.shape[0]) for key in multi_indices(n, k + 1)}
    for key, grad in values.grads.items():
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                out[new] = out[new] + sgn * grad[:, i - 1]
    return out


def _oracle_exterior_d(form, pts):
    n, k = form.n, form.k
    npts = pts.shape[0]
    bad = np.zeros(npts, dtype=bool)
    out = {key: np.zeros(npts) for key in multi_indices(n, k + 1)}
    outg = {key: np.zeros((npts, n)) for key in multi_indices(n, k + 1)}
    for key, e in form.coeffs.items():
        jet = exprmod.eval_jets(e, pts, {})
        bad |= jet.bad
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                out[new] = out[new] + sgn * jet.grad[:, i - 1]
                outg[new] = outg[new] + sgn * jet.hess[:, i - 1, :]
    for key in out:
        out[key][bad] = np.nan
        outg[key][bad] = np.nan
    return out, outg


def _oracle_wedge_1form(gamma, beta):
    n, k = beta.n, beta.k
    out = {key: np.zeros(beta.bad.shape[0]) for key in multi_indices(n, k + 1)}
    for key, vals in beta.coeffs.items():
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                out[new] = out[new] + sgn * gamma[:, i - 1] * vals
    return out


def _oracle_gamma_system(star_df, d_star):
    n, k = star_df.n, star_df.k
    npts = star_df.bad.shape[0]
    rows = multi_indices(n, k + 1)
    A = np.zeros((npts, len(rows), n))
    for key, vals in star_df.coeffs.items():
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                A[:, rows.index(new), i - 1] += sgn * vals
    b = np.stack([d_star.coeffs[r] for r in rows], axis=1) if rows else np.zeros((npts, 0))
    return A, b


def _oracle_codifferential_residual(fsol, grid):
    shape, h = grid.shape(), grid.spacing()
    n, k = fsol.n, fsol.k
    with np.errstate(all="ignore"):
        coeffs = {key: fsol.rho_c * vals for key, vals in fsol.omega.coeffs.items()}
    starred = hodge_star(FormValues(n=n, k=k, coeffs=coeffs, grads=None, bad=fsol.omega.bad))
    d_coeffs = {key: np.zeros(shape) for key in multi_indices(n, n - k + 1)}
    for key, vals in starred.coeffs.items():
        v = vals.reshape(shape)
        for i in range(1, n + 1):
            new, sgn = insert_sign(i, key)
            if sgn:
                d_coeffs[new] = d_coeffs[new] + sgn * verifymod.stencil(v, i - 1, h[i - 1], 2)
    dsf = FormValues(n=n, k=n - k + 1,
                     coeffs={key: vals.reshape(-1) for key, vals in d_coeffs.items()},
                     grads=None, bad=fsol.omega.bad)
    result = hodge_star(dsf)
    sgn = codifferential_sign(n, k)
    worst = np.zeros(shape)
    for vals in result.coeffs.values():
        worst = np.maximum(worst, np.abs(sgn * vals.reshape(shape)))
    return verifymod._report("CodifferentialDefect", grid, worst, verifymod._excluded(fsol, grid))


def _awkward(rng, shape):
    """Normal samples with NaN, 0.0 and -0.0 planted among them."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    picks = rng.permutation(flat.size)[:3 * max(1, flat.size // 10)]
    thirds = np.array_split(picks, 3)
    flat[thirds[0]] = np.nan
    flat[thirds[1]] = 0.0
    flat[thirds[2]] = -0.0
    return out


DEGREES = [(n, k) for n in range(2, 5) for k in range(0, n + 1)]


@pytest.mark.parametrize("n, k", DEGREES)
def test_kernel_d_of_values_matches_the_hand_loop(rng, n, k):
    npts = 40
    values = FormValues(n=n, k=k, coeffs={key: _awkward(rng, npts) for key in multi_indices(n, k)},
                        grads={key: _awkward(rng, (npts, n)) for key in multi_indices(n, k)},
                        bad=np.zeros(npts, dtype=bool))
    got = exterior_d(values)
    want = _oracle_d_values(values)
    assert got.k == k + 1
    assert list(got.coeffs) == list(want)
    for key in want:
        assert _same_bits(got.coeffs[key], want[key])


@pytest.mark.parametrize("n, k", DEGREES)
def test_kernel_symbolic_d_matches_the_hand_loop(rng, n, k):
    # poles and branch cuts of log, sqrt and 1/x at 0, -0.0 and below 0
    pts = rng.uniform(-1.0, 1.0, (30, n))
    pts[:4] = 0.0
    pts[4:8] = -0.0
    pts[8:12, 0] = 0.0
    texts = ["log(x1) * x2", "sqrt(x2) + x1^3", "1 / x1 - x2^2", "x1 * x2 * sin(x2)",
             "exp(x1) / x2"]
    keys = multi_indices(n, k)
    form = kform(n, k, {key: texts[j % len(texts)] for j, key in enumerate(keys)})
    got = exterior_d(form, pts)
    assert got.k == k + 1
    if k == n:
        assert got.coeffs == {}
        return
    want, wantg = _oracle_exterior_d(form, pts)
    assert list(got.coeffs) == list(want)
    for key in want:
        assert _same_bits(got.coeffs[key], want[key])
        assert _same_bits(got.grads[key], wantg[key])


@pytest.mark.parametrize("n, k", DEGREES)
def test_kernel_wedge_matches_the_hand_loop(rng, n, k):
    npts = 40
    beta = FormValues(n=n, k=k, coeffs={key: _awkward(rng, npts) for key in multi_indices(n, k)},
                      grads=None, bad=np.zeros(npts, dtype=bool))
    gamma = _awkward(rng, (npts, n))
    got = wedge_1form(gamma, beta)
    want = _oracle_wedge_1form(gamma, beta)
    assert got.k == k + 1
    assert list(got.coeffs) == list(want)
    for key in want:
        assert _same_bits(got.coeffs[key], want[key])


def test_wedge_and_d_of_a_top_form_have_degree_n_plus_one(rng):
    for n in range(2, 5):
        top = multi_indices(n, n)
        beta = FormValues(n=n, k=n, coeffs={top[0]: rng.standard_normal(5)}, grads=None,
                          bad=np.zeros(5, dtype=bool))
        wedged = wedge_1form(rng.standard_normal((5, n)), beta)
        assert wedged.k == n + 1
        assert wedged.coeffs == {}
        assert wedged.as_matrix().shape == (5, 0)
        pts = rng.uniform(0.2, 0.8, (5, n))
        assert exterior_d(kform(n, n, {top[0]: "x1 * x2"}), pts).k == n + 1
        assert exterior_d(evaluate_form(kform(n, n, {top[0]: "x1"}), pts)).k == n + 1


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 5) for k in range(0, n)])
def test_kernel_gamma_system_matches_the_hand_loop(rng, n, k):
    # the witness solves only at points where *df is defined; there the
    # columns dx_j ^ *df and the right side d*df are the old matrix, bit for bit
    npts = 40
    bad = np.zeros(npts, dtype=bool)
    bad[:5] = True
    coeffs = {}
    for key in multi_indices(n, k):
        vals = _awkward(rng, npts)
        vals[5:] = np.where(np.isnan(vals[5:]), -0.0, vals[5:])
        vals[bad] = np.nan
        coeffs[key] = vals
    star_df = FormValues(n=n, k=k, coeffs=coeffs, grads=None, bad=bad)
    d_star = FormValues(n=n, k=k + 1, bad=bad, grads=None,
                        coeffs={key: _awkward(rng, npts) for key in multi_indices(n, k + 1)})
    A_old, b_old = _oracle_gamma_system(star_df, d_star)
    A_new = np.stack([wedge_1form(e_j, star_df).as_matrix() for e_j in np.eye(n)], axis=2)
    assert _same_bits(A_new[~bad], A_old[~bad])
    assert _same_bits(d_star.as_matrix(), b_old)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 5) for k in range(1, n + 1)])
def test_codifferential_residual_matches_the_hand_loop(rng, n, k):
    grid = GridSpec((0.0,) * n, (1.0,) * n, ({2: 16, 3: 8, 4: 5}[n],) * n)
    npts = grid.npoints()
    omega = FormValues(n=n, k=k, grads=None, bad=np.zeros(npts, dtype=bool),
                       coeffs={key: _awkward(rng, npts) for key in multi_indices(n, k)})
    rho_c = np.abs(_awkward(rng, npts)) + 0.5
    defined = rng.random(npts) > 0.05
    fsol = SimpleNamespace(grid=grid, n=n, k=k, omega=omega, rho_c=rho_c, defined=defined,
                           flags=np.zeros(npts, dtype=np.int64))
    got = verifymod.codifferential_residual(fsol)
    want = _oracle_codifferential_residual(fsol, grid)
    assert got.to_json_dict() == want.to_json_dict()


# ---------------------------------------------------------------------------
# the batched Gamma solve against the per-point lstsq loop it replaced


def _oracle_least_squares(A, b, usable):
    npts, _, n = A.shape
    Gamma1 = np.full((npts, n), np.nan)
    defect = np.full(npts, np.nan)
    rank_def = np.zeros(npts, dtype=bool)
    for p in range(npts):
        if not usable[p]:
            continue
        sol_p, _, rank, _ = np.linalg.lstsq(A[p], b[p], rcond=None)
        Gamma1[p] = sol_p
        defect[p] = float(np.linalg.norm(A[p] @ sol_p - b[p]))
        rank_def[p] = rank < min(A.shape[1:])
    return Gamma1, defect, rank_def


def _random_stream_form(rng, n, k):
    texts = {}
    for key in multi_indices(n, k):
        i, j, l = (int(v) for v in rng.integers(1, n + 1, 3))
        c = rng.uniform(-1.0, 1.0, 3)
        texts[key] = f"{c[0]:.4f}*x{i}*x{j}^2 + {c[1]:.4f}*x{l} + {c[2]:.4f}*x{j}^3/3"
    return kform(n, k, texts)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 5) for k in range(0, n)])
def test_gamma_witness_matches_the_per_point_lstsq(rng, n, k):
    model = extremal()
    pts = rng.uniform(0.3, 0.9, (120, n))
    f = _random_stream_form(rng, n, k)
    fsol = synthesize_form(model, f, single_branch(1), pts)
    wit = gamma_witness(model, f, fsol)
    A = np.stack([wedge_1form(e_j, fsol.star_df).as_matrix() for e_j in np.eye(n)], axis=2)
    usable = ~fsol.star_df.bad & (fsol.xi > fsol.tol.eps_grad ** 2)
    assert usable.sum() > 100
    d_star_df = forms._d_values(fsol.star_df)
    Gamma1, defect, rank_def = _oracle_least_squares(A, d_star_df.as_matrix(), usable)
    assert _same_bits(wit.Gamma1, Gamma1)
    assert _same_bits(wit.defect, defect)
    assert np.array_equal(wit.rank_deficient, rank_def)
    # the rule the gamma_witness docstring states: only a 1-form omega in n >= 3
    # leaves the wedge system rank deficient (random 2-forms in 4d are not decomposable)
    assert fsol.k == n - k - 1
    assert np.array_equal(rank_def[usable], np.full(usable.sum(), fsol.k == 1 and n >= 3))


def test_gamma_least_squares_matches_lstsq_on_rank_deficient_and_unusable_rows(rng):
    from streamfields.forms import _least_squares

    for m, n in [(1, 2), (2, 2), (3, 3), (4, 4), (6, 4), (5, 3)]:
        A = rng.standard_normal((40, m, n))
        b = rng.standard_normal((40, m))
        A[0] = 0.0  # rank 0
        A[1] = np.outer(rng.standard_normal(m), rng.standard_normal(n))  # rank 1
        A[2, :, -1] = A[2, :, 0]  # two equal columns
        A[3, :, 0] = 1e-17 * A[3, :, 1]  # a column below lstsq's rcond
        b[4] = 0.0
        b[5] = np.nan  # lstsq returns NaN here without raising
        usable = rng.random(40) > 0.2
        usable[:6] = True
        got = _least_squares(A, b, usable)
        want = _oracle_least_squares(A, b, usable)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert got[2][0] and (got[2][1] or min(m, n) == 1)
        assert (got[2][2] and got[2][3]) or m < n
        none = _least_squares(A, b, np.zeros(40, dtype=bool))
        assert np.isnan(none[0]).all() and np.isnan(none[1]).all() and not none[2].any()
        assert none[0].shape == (40, n)


def test_gamma_least_squares_with_b_near_the_double_limit_warns_nothing(rng):
    """A usable row whose b is finite but overflows the residual gives the
    per-point lstsq bits, an infinite defect, and no RuntimeWarning."""
    import warnings

    from streamfields.forms import _least_squares

    A = rng.standard_normal((6, 5, 3))
    b = rng.standard_normal((6, 5))
    b[2, 1] = 1e308
    usable = np.ones(6, dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _least_squares(A, b, usable)
    with np.errstate(all="ignore"):
        want = _oracle_least_squares(A, b, usable)
    assert np.isinf(got[1][2]) and np.isfinite(np.delete(got[1], 2)).all()
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gamma_least_squares_raises_on_a_non_finite_matrix_entry_as_lstsq_does(rng, bad):
    from streamfields.forms import _least_squares

    A = rng.standard_normal((10, 3, 3))
    b = rng.standard_normal((10, 3))
    A[7, 1, 2] = bad
    usable = np.ones(10, dtype=bool)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(A[7], b[7], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        _least_squares(A, b, usable)
    usable[7] = False  # a point that is not solved cannot fail
    assert np.isfinite(_least_squares(A, b, usable)[0][usable]).all()


_INFINITE_ENTRY_SCRIPT = """
import sys
import numpy as np
from streamfields.forms import _least_squares

rng = np.random.default_rng(5)
A, b = rng.standard_normal((30, 5, 3)), rng.standard_normal((30, 5))
A[4, 0, 0] = np.inf
try:
    _least_squares(A, b, np.ones(30, dtype=bool))
except np.linalg.LinAlgError:
    print("raised")
A[4, 0, 0], b[4, 0] = 0.5, np.inf
np.savez(sys.argv[1], A=A, b=b, x=_least_squares(A, b, np.ones(30, dtype=bool))[0])
"""


def test_gamma_least_squares_with_an_infinite_entry_ends_in_bounded_time(tmp_path):
    # An inf in a 5x3 A sends gelsd, and np.linalg.lstsq, into a loop that
    # never ends; the solve runs in a subprocess, so a hang fails the timeout.
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "solved.npz"
    proc = subprocess.run([sys.executable, "-c", _INFINITE_ENTRY_SCRIPT, str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"]
    # an infinite b is solved as lstsq solves it: row 4 is NaN, every other
    # row is the per-row lstsq bit for bit
    got = np.load(out)
    want = _oracle_least_squares(got["A"], got["b"], np.ones(30, dtype=bool))[0]
    assert np.isnan(got["x"][4]).all()
    assert _same_bits(got["x"], want)


def test_gamma_least_squares_without_the_private_gelsd_name_is_bit_for_bit_the_same(
        rng, monkeypatch):
    """A numpy that moves numpy.linalg._umath_linalg.lstsq gets the per-point
    np.linalg.lstsq loop, with the same bits and the same LinAlgError."""
    import sys

    from streamfields.forms import _least_squares

    cases = []
    for m, n in [(1, 2), (3, 3), (6, 4), (5, 3)]:
        A = rng.standard_normal((30, m, n))
        b = rng.standard_normal((30, m))
        A[0] = 0.0
        A[1, :, -1] = A[1, :, 0]
        b[2] = np.nan
        A[3, :, 0] = A[3, :, 1] + 1e-9 * rng.standard_normal(m)  # above lstsq's rcond
        usable = rng.random(30) > 0.2
        usable[:4] = True
        cases.append((A, b, usable, _least_squares(A, b, usable)))
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    with pytest.raises(ImportError):
        from numpy.linalg._umath_linalg import lstsq  # noqa: F401
    for A, b, usable, want in cases:
        got = _least_squares(A, b, usable)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert np.array_equal(got[2], want[2]) and got[2].dtype == want[2].dtype
    A = rng.standard_normal((10, 3, 3))
    A[7, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _least_squares(A, rng.standard_normal((10, 3)), np.ones(10, dtype=bool))
