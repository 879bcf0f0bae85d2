import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import (
    FormError,
    FormValues,
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
    vw = witness_2d(vsol, pts)

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
