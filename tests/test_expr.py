import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfields import drive, expr
from conftest import fd_value_grad_hess

X2 = ("x1", "x2")


def ev(text, pts, variables=X2, params=None):
    e = expr.parse(text, variables, tuple(params) if params else ())
    return expr.eval_jets(e, np.atleast_2d(np.asarray(pts, dtype=float)), params)


def test_arithmetic_values():
    jets = ev("x1^2 + 3*x2 - 1/2", [[2.0, 5.0]])
    assert jets.val[0] == pytest.approx(4 + 15 - 0.5, abs=0)
    assert not jets.bad[0]


def test_power_is_right_associative():
    jets = ev("2^3^2 + 0*x1", [[0.0, 0.0]])
    assert jets.val[0] == 512.0


def test_unary_minus_binds_looser_than_power():
    jets = ev("-x1^2", [[3.0, 0.0]])
    assert jets.val[0] == -9.0


def test_aliases_map_to_numbered_coordinates():
    a = ev("x^2 + y", [[3.0, 4.0]])
    b = ev("x1^2 + x2", [[3.0, 4.0]])
    assert a.val[0] == b.val[0] == 13.0


def test_alias_z_needs_three_variables():
    e = expr.parse("z + x", ("x1", "x2", "x3"))
    jets = expr.eval_jets(e, np.array([[1.0, 2.0, 3.0]]))
    assert jets.val[0] == 4.0
    with pytest.raises(expr.ExpressionError):
        expr.parse("z", X2)


def test_unknown_symbols_rejected():
    with pytest.raises(expr.ExpressionError):
        expr.parse("x1 + q", X2)
    with pytest.raises(expr.ExpressionError):
        expr.parse("foo(x1)", X2)
    with pytest.raises(expr.ExpressionError):
        expr.parse("x1 + ", X2)


def test_parameters_are_substituted():
    jets = ev("a*x1 + b", [[2.0, 0.0]], params={"a": 3.0, "b": 1.5})
    assert jets.val[0] == 7.5


def test_jets_against_fd_oracle(rng):
    cases = [
        "sin(x1)*cos(x2)",
        "exp(x1*x2/4)",
        "x1^3 - 2*x1*x2^2 + x2",
        "log(2 + x1^2 + x2^2)",
        "sqrt(1 + x1^2) / (2 + x2^2)",
        "cos(x1) / (2 + sin(x2))",
    ]
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    for text in cases:
        e = expr.parse(text, X2)
        jets = expr.eval_jets(e, pts)

        def fn(p):
            return expr.eval_jets(e, p).val

        val, grad, hess = fd_value_grad_hess(fn, pts)
        assert not jets.bad.any()
        np.testing.assert_allclose(jets.val, val, rtol=0, atol=1e-12)
        np.testing.assert_allclose(jets.grad, grad, rtol=0, atol=5e-7)
        np.testing.assert_allclose(jets.hess, hess, rtol=0, atol=5e-5)


def test_bad_points_flagged_not_raised():
    jets = ev("sqrt(x1)", [[-1.0, 0.0], [4.0, 0.0]])
    assert jets.bad[0] and not jets.bad[1]
    assert jets.val[1] == 2.0
    jets = ev("log(x1)", [[0.0, 0.0]])
    assert jets.bad[0]
    jets = ev("1/x1", [[0.0, 0.0]])
    assert jets.bad[0]


def test_abs_kink_is_usable_off_zero():
    jets = ev("abs(x1)", [[-2.0, 0.0], [3.0, 0.0]])
    assert jets.val.tolist() == [2.0, 3.0]
    assert jets.grad[:, 0].tolist() == [-1.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    x=st.floats(-2, 2, allow_nan=False),
    y=st.floats(-2, 2, allow_nan=False),
)
def test_polynomial_matches_direct_arithmetic(a, b, x, y):
    e = expr.parse("a*x1^2 + b*x2 + x1*x2", X2, ("a", "b"))
    jets = expr.eval_jets(e, np.array([[x, y]]), {"a": a, "b": b})
    want = a * x**2 + b * y + x * y
    assert jets.val[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert jets.grad[0, 0] == pytest.approx(2 * a * x + y, rel=1e-12, abs=1e-12)
    assert jets.grad[0, 1] == pytest.approx(b + x, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
def test_round_trip_through_str(p, x):
    e = expr.parse("sin(x1)^2 + p*cos(x1)", ("x1",), ("p",))
    e2 = expr.parse(str(e), ("x1",), ("p",))
    v1 = expr.eval_jets(e, np.array([[x]]), {"p": p}).val[0]
    v2 = expr.eval_jets(e2, np.array([[x]]), {"p": p}).val[0]
    assert v1 == pytest.approx(v2, rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# The recursive evaluator the tape replaced, kept as the oracle: it walks the
# tree on every call and builds dense (N, m, m) Hessians at every node.  The
# tape must agree with it bit for bit (int64 views) on every input.


@dataclass
class OracleJets:
    """The oracle's own point-major jets: val (N,), grad (N, m), hess (N, m, m), bad (N,)."""
    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    bad: np.ndarray


def _oracle_const(n, m, value):
    return OracleJets(np.full(n, value, dtype=float), np.zeros((n, m)), np.zeros((n, m, m)),
                         np.zeros(n, dtype=bool))


def _oracle_outer_sym(ga, gb):
    return ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]


def _oracle_chain(u, val, d1, d2, bad_extra=None):
    grad = d1[:, None] * u.grad
    hess = d1[:, None, None] * u.hess + d2[:, None, None] * (u.grad[:, :, None] * u.grad[:, None, :])
    bad = u.bad.copy()
    if bad_extra is not None:
        bad |= bad_extra
    return OracleJets(val, grad, hess, bad)


def _oracle_contains_var(node):
    if isinstance(node, expr.Var):
        return True
    if isinstance(node, expr.Unary):
        return _oracle_contains_var(node.arg)
    if isinstance(node, expr.Binary):
        return _oracle_contains_var(node.left) or _oracle_contains_var(node.right)
    return False


def _oracle_signed_pow(base, p, integral):
    if not integral:
        return np.power(np.where(base < 0, np.nan, base), p)
    mag = np.power(np.abs(base), p)
    odd = np.mod(np.abs(p), 2.0) == 1.0
    return mag * np.where((base < 0) & odd, -1.0, 1.0)


def _oracle_eval(node, pts, params):
    n, m = pts.shape
    if isinstance(node, expr.Const):
        return _oracle_const(n, m, node.value)
    if isinstance(node, expr.Param):
        if node.name not in params:
            raise KeyError(f"unbound parameter {node.name!r}")
        return _oracle_const(n, m, float(params[node.name]))
    if isinstance(node, expr.Var):
        out = _oracle_const(n, m, 0.0)
        out.val = pts[:, node.index].astype(float, copy=True)
        out.grad[:, node.index] = 1.0
        return out
    if isinstance(node, expr.Unary):
        u = _oracle_eval(node.arg, pts, params)
        if node.op == "neg":
            return OracleJets(-u.val, -u.grad, -u.hess, u.bad)
        if node.op == "sin":
            return _oracle_chain(u, np.sin(u.val), np.cos(u.val), -np.sin(u.val))
        if node.op == "cos":
            return _oracle_chain(u, np.cos(u.val), -np.sin(u.val), -np.cos(u.val))
        if node.op == "exp":
            ev = np.exp(u.val)
            return _oracle_chain(u, ev, ev, ev)
        if node.op == "log":
            bad = u.val <= 0.0
            return _oracle_chain(u, np.log(u.val), 1.0 / u.val, -1.0 / u.val**2, bad)
        if node.op == "sqrt":
            bad = u.val < 0.0
            at_zero = u.val == 0.0
            moving = np.abs(u.grad).sum(axis=1) + np.abs(u.hess).sum(axis=(1, 2)) > 0.0
            bad = bad | (at_zero & moving)
            sv = np.sqrt(np.where(u.val < 0, np.nan, u.val))
            d1 = 0.5 / sv
            d2 = -0.25 / (sv * u.val)
            out = _oracle_chain(u, sv, d1, d2, bad)
            if np.any(at_zero & ~moving):
                idx = at_zero & ~moving
                out.grad[idx] = 0.0
                out.hess[idx] = 0.0
            return out
        if node.op == "abs":
            bad = u.val == 0.0
            s = np.sign(u.val)
            return _oracle_chain(u, np.abs(u.val), s, np.zeros(n), bad)
        raise AssertionError(node.op)
    a = _oracle_eval(node.left, pts, params)
    if node.op == "^":
        return _oracle_pow(a, node, pts, params)
    b = _oracle_eval(node.right, pts, params)
    bad = a.bad | b.bad
    if node.op == "+":
        return OracleJets(a.val + b.val, a.grad + b.grad, a.hess + b.hess, bad)
    if node.op == "-":
        return OracleJets(a.val - b.val, a.grad - b.grad, a.hess - b.hess, bad)
    if node.op == "*":
        val = a.val * b.val
        grad = a.val[:, None] * b.grad + b.val[:, None] * a.grad
        hess = (a.val[:, None, None] * b.hess + b.val[:, None, None] * a.hess
                + _oracle_outer_sym(a.grad, b.grad))
        return OracleJets(val, grad, hess, bad)
    if node.op == "/":
        bad = bad | (b.val == 0.0)
        val = a.val / b.val
        grad = (a.grad - val[:, None] * b.grad) / b.val[:, None]
        hess = (a.hess - val[:, None, None] * b.hess - _oracle_outer_sym(grad, b.grad)) / b.val[:, None, None]
        return OracleJets(val, grad, hess, bad)
    raise AssertionError(node.op)


def _oracle_pow(a, node, pts, params):
    b = _oracle_eval(node.right, pts, params)
    if not _oracle_contains_var(node.right):
        p = b.val
        p0 = p.flat[0] if p.size else 0.0
        if p0 == 0.0:
            out = _oracle_const(*pts.shape, 1.0)
            out.bad |= a.bad
            return out
        if p0 == 1.0:
            return a
        integral = float(p0).is_integer()
        bad = a.bad.copy()
        if not integral:
            bad |= a.val < 0.0
        val = np.power(np.abs(a.val), p) if integral else np.power(np.where(a.val < 0, np.nan, a.val), p)
        if integral:
            val = val * np.where((a.val < 0) & (int(p0) % 2 == 1), -1.0, 1.0)
        at_zero = a.val == 0.0
        if np.any(at_zero):
            bad |= at_zero & (p <= 0)
            if p0 < 2.0 and p0 != 1.0 and p0 > 0:
                moving = np.abs(a.grad).sum(axis=1) + np.abs(a.hess).sum(axis=(1, 2)) > 0.0
                bad |= at_zero & moving
        with np.errstate(all="ignore"):
            d1 = p * _oracle_signed_pow(a.val, p - 1.0, integral)
            d2 = p * (p - 1.0) * _oracle_signed_pow(a.val, p - 2.0, integral)
            d1 = np.where(at_zero & (p >= 2.0), 0.0, d1)
            d2 = np.where(at_zero & (p >= 3.0), 0.0, d2)
            d2 = np.where(at_zero & (p == 2.0), 2.0, d2)
        return _oracle_chain(a, val, d1, d2, bad)
    bad = a.bad | b.bad | (a.val <= 0.0)
    with np.errstate(all="ignore"):
        la = np.log(np.where(a.val <= 0, np.nan, a.val))
        val = np.exp(b.val * la)
        ga = a.grad / a.val[:, None]
        gl = b.grad * la[:, None] + b.val[:, None] * ga
        hl = (
            b.hess * la[:, None, None]
            + _oracle_outer_sym(b.grad, ga)
            + b.val[:, None, None] * (a.hess / a.val[:, None, None] - ga[:, :, None] * ga[:, None, :])
        )
        grad = val[:, None] * gl
        hess = val[:, None, None] * (hl + gl[:, :, None] * gl[:, None, :])
    return OracleJets(val, grad, hess, bad)


def oracle_jets(e, points, params=None):
    pts = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        out = _oracle_eval(e.root, pts, params or {})
        out.bad = out.bad | ~np.isfinite(out.val)
        out.bad |= ~np.isfinite(out.grad).all(axis=1)
        out.bad |= ~np.isfinite(out.hess).all(axis=(1, 2))
    return out


def _bits(x):
    """int64 view with every NaN as the one np.nan: numpy's loops give a NaN
    the sign of either operand depending on whether the element falls in the
    vector body or the scalar tail, so NaN bits follow the array position,
    not the formula (and callers replace values at bad points with NaN)."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def assert_same_bits(got, want, label=""):
    for name in ("val", "grad", "hess"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64, (label, name)
        np.testing.assert_array_equal(_bits(g), _bits(w), err_msg=f"{label} {name}")
    assert got.bad.dtype == want.bad.dtype == np.bool_, label
    np.testing.assert_array_equal(got.bad, want.bad, err_msg=f"{label} bad")


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0, np.inf, -np.inf, np.nan,
                    5e-324, -1e-300, 1e300, -1e300])


def sample_points(rng, n, lo, hi, special_share=0.2):
    """Uniform points in [lo, hi] with about special_share of the coordinates
    replaced by signed zeros, integers, halves, infinities, NaN and extremes."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    pick = rng.random(pts.shape) < special_share
    pts[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return pts


def shipped_expressions():
    """(label, Expression, params, lo, hi): every expression the built-in
    examples evaluate (drives, region predicates, masks, form coefficients,
    density laws), the built-in drive library, and one radial_class composition."""
    from streamfields import config, drive

    found = {}

    def add(label, e, params, lo, hi):
        found.setdefault((expr.to_string(e), e.variables), (label, e, dict(params), lo, hi))

    for name in sorted(config.EXAMPLES):
        cfg = config.example_config(name)
        grid = config.build_grid(cfg)
        lo, hi = grid.lo, grid.hi
        dim = len(lo)
        d = config.build_drive(cfg)
        drive_exprs = {"f": getattr(d, "f", None),
                       **{f"skew{k}": v for k, v in getattr(d, "entries", {}).items()},
                       **{f"alpha{i}": v for i, v in enumerate(getattr(d, "alpha", ()))}}
        for key, e in drive_exprs.items():
            if e is not None:
                add(f"{name}:drive.{key}", e, d.params, lo, hi)
        policy = config.build_policy(cfg, dim)
        for i, (pred, _) in enumerate(policy.regions):
            add(f"{name}:region{i}", pred, {}, lo, hi)
        for section in ("frobenius", "verify"):
            text = getattr(cfg, section).get("mask")
            if text:
                add(f"{name}:{section}.mask", expr.parse(text, drive.coord_names(dim)), {}, lo, hi)
        if cfg.forms:
            spec = config.build_form(cfg, dim)
            for key, e in spec.form.coeffs.items():
                add(f"{name}:forms{key}", e, spec.params, lo, hi)
        if cfg.density.get("rho"):
            q_max = cfg.density.get("q_max", 4.0)
            add(f"{name}:density.rho", expr.parse(cfg.density["rho"], ("Q",)), {}, (0.0,), (q_max,))
    box2, box3 = ((-2.0, -2.0), (2.0, 2.0)), ((-2.0,) * 3, (2.0,) * 3)
    add("RADIAL_LOG_F", drive.radial_log().f, {}, *box2)
    add("SHALLOW_VORTEX_F", drive.shallow_vortex(4.0).f, {"R": 4.0}, *box2)
    add("COULOMB_F", drive.coulomb().f, {}, *box3)
    add("radial_class", drive.radial_class("log(t) * sqrt(t)", "x^2 + 4*y^2").f, {}, *box2)
    return list(found.values())


SHIPPED = shipped_expressions()


def edge_expressions(m):
    """Domain edges over m variables: a is x1, b is the last variable."""
    names = tuple(f"x{i + 1}" for i in range(m))
    a, b = names[0], names[-1]
    texts = [
        f"sqrt({a})", f"abs({a})", f"log({a})", f"sqrt({a}*{b})", f"sqrt({a}^2)", f"sqrt(0*{a})",
        f"sqrt({a} - {a})", f"abs({a} - {a})", f"log({a} - {a})", f"-sqrt(-{b})",
        f"{a}^0", f"{a}^1", f"{a}^2", f"{a}^3", f"{a}^-1", f"{a}^-2", f"{a}^0.5", f"{a}^1.5",
        f"{a}^2.5", f"{a}^-0.5", f"(0*{a})^0.5", f"(0*{a})^1.5", f"(0*{a})^-1", f"({a}-{a})^2",
        f"(-2)^{a}", f"{a}^{b}", f"{a}^({b}/2)", f"(1+{a}^2)^{b}", f"2^{a}^{b}",
        f"{a}/0", f"0/{a}", f"{a}/{b}", f"{a}/({a}-{a})", f"-{a}/{b}^2",
        f"p^{a}", f"{a}^p", f"p*{a} + {b}/p", f"sqrt(p + {a})", f"log(p)*{b}",
        f"exp({a})*sin({b})/cos({a})", f"--{a}*-{b}", f"exp(-{a}^2 - {b}^2)",
        " * ".join(names) + f" + sin({' + '.join(names)})",
        f"sqrt({' + '.join(n + '^2' for n in names)})",
    ]
    return [expr.parse(t, names, ("p",)) for t in texts]


EDGE_PARAMS = (2.0, 0.5, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 3.0)
SMALL_BLOCK = 61
SIZES = (0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 7)


@pytest.mark.parametrize("label, e, params, lo, hi", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_tape_matches_the_recursive_oracle_on_shipped_expressions(monkeypatch, label, e, params, lo, hi):
    monkeypatch.setattr(expr, "BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(7)
    for n in SIZES:
        pts = sample_points(rng, n, lo, hi)
        assert_same_bits(expr.eval_jets(e, pts, params), oracle_jets(e, pts, params), f"{label} N={n}")


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_tape_matches_the_recursive_oracle_on_domain_edges(monkeypatch, m):
    monkeypatch.setattr(expr, "BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(11 + m)
    for e in edge_expressions(m):
        for p in EDGE_PARAMS:
            for n in SIZES:
                pts = sample_points(rng, n, [-3.0] * m, [3.0] * m, special_share=0.4)
                assert_same_bits(expr.eval_jets(e, pts, {"p": p}), oracle_jets(e, pts, {"p": p}),
                                 f"{expr.to_string(e)} p={p} N={n}")


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_tape_matches_the_recursive_oracle_at_the_default_block_size(m):
    B = expr.BLOCK_ROWS
    rng = np.random.default_rng(23 + m)
    exprs = [s[1:3] for s in SHIPPED if len(s[1].variables) == m and not s[0].endswith("mask")]
    exprs += [(e, {"p": 0.5}) for e in edge_expressions(m)[::7]]
    for e, params in exprs:
        for n in (B - 1, B, B + 1, 3 * B + 7):
            pts = sample_points(rng, n, [-2.0] * m, [2.0] * m, special_share=0.05)
            assert_same_bits(expr.eval_jets(e, pts, params), oracle_jets(e, pts, params),
                             f"{expr.to_string(e)} N={n}")


def _bits_but_nan_sign(x):
    """int64 view with only the sign of a NaN cleared."""
    return np.where(np.isnan(x), np.abs(x), x).view(np.int64)


@pytest.mark.parametrize("R", (4.0, -1.0, 0.0))
def test_passive_entries_evaluated_once_per_call_match_any_block_size(monkeypatch, R):
    """Passive entries, with no variable below them, are evaluated once at the
    block width and sliced per block: a short block width changes no bit,
    defined or not (log(-1), sqrt(0) under a moving factor, 1/0)."""
    texts = ["sqrt(R)*x1 + 4*R*x2 - 2*sqrt(R)", "log(R)*x1^2", "sqrt(R)*sqrt(x1)",
             "x2/(R - R) + x1", "(R - R)^0*x1 + sqrt(R)^1*x2", "x1^sqrt(R)",
             "2*sqrt(R) + 4*R", "1/(R - R)"]
    rng = np.random.default_rng(41)
    pts = sample_points(rng, 50, [-2.0, -2.0], [2.0, 2.0])
    for text in texts:
        e = expr.parse(text, X2, ("R",))
        whole = expr.eval_jets(e, pts, {"R": R})
        monkeypatch.setattr(expr, "BLOCK_ROWS", 7)
        blocked = expr.eval_jets(e, pts, {"R": R})
        monkeypatch.undo()
        for name in ("val", "grad", "hess"):
            np.testing.assert_array_equal(_bits_but_nan_sign(getattr(blocked, name)),
                                          _bits_but_nan_sign(getattr(whole, name)), err_msg=text)
        np.testing.assert_array_equal(blocked.bad, whole.bad, err_msg=text)


SIGNED_POW_BASES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2.2e-308, -1.0,
                             -2.5, 0.5, 3.0, 1.7976931348623157e308, -1.7976931348623157e308,
                             np.inf, -np.inf, np.nan, -np.nan])


@pytest.mark.parametrize("p0", (0.0, 1.0))
def test_signed_pow_of_exponent_zero_or_one_is_np_power(p0):
    p = np.full(SIGNED_POW_BASES.size, p0)
    mag = np.power(np.abs(SIGNED_POW_BASES), p)
    want = mag * np.where(SIGNED_POW_BASES < 0, -1.0, 1.0) if p0 == 1.0 else mag
    got = expr._signed_pow(SIGNED_POW_BASES, p, p0, True)
    np.testing.assert_array_equal(_bits_but_nan_sign(got), _bits_but_nan_sign(want))


def test_platform_pow_of_exponent_zero_and_one_is_exact():
    """The reference hashes were recorded with numpy's pow; _signed_pow gives
    x^0 and x^1 without it, which matches only where pow is exact there.  A
    NaN only has to stay a NaN: pow quiets the signaling ones of random bits."""
    rng = np.random.default_rng(97)
    y = rng.integers(-2 ** 63, 2 ** 63 - 1, 10 ** 6, dtype=np.int64, endpoint=True).view(np.float64)
    y[:SIGNED_POW_BASES.size] = SIGNED_POW_BASES
    with np.errstate(invalid="ignore"):
        for one in (1.0, np.ones(y.size)):
            np.testing.assert_array_equal(_bits(np.power(y, one)), _bits(y))
        for zero in (0.0, np.zeros(y.size)):
            assert (np.power(y, zero) == 1.0).all()


def test_tape_computes_each_repeated_subexpression_once():
    from streamfields.drive import RADIAL_LOG_F

    code = expr.parse(RADIAL_LOG_F, X2)._tape
    ops = [op for op, _, _ in code]
    assert ops.count("sqrt") == 1
    assert ops.count("abs") == 1
    assert len(code) == len(set(code))


def test_constants_keep_the_sign_of_zero_apart():
    product = expr.Binary("*", expr.Const(-0.0), expr.Var(0, "x1"))
    e = expr.Expression(expr.Binary("+", expr.Const(0.0), product), ("x1",))
    assert sum(op == "const" for op, _, _ in e._tape) == 2
    pts = np.array([[2.0], [-2.0]])
    assert_same_bits(expr.eval_jets(e, pts), oracle_jets(e, pts))


def test_unbound_parameter_raises_in_evaluation_order():
    e = expr.parse("x1 + b*a", ("x1",), ("a", "b"))
    with pytest.raises(KeyError, match="'b'"):
        expr.eval_jets(e, np.zeros((0, 1)))
    with pytest.raises(KeyError, match="'a'"):
        expr.eval_jets(e, np.zeros((3, 1)), {"b": 1.0})


def test_parse_bounds_the_depth_of_deep_expressions():
    limit = expr.MAX_DEPTH
    for shape in (lambda k: "-" * k + "x1",
                  lambda k: " + ".join(["x1"] * (k + 1)),
                  lambda k: "(" * k + "x1" + ")" * k,
                  lambda k: "sin(" * k + "x1" + ")" * k,
                  lambda k: "x1^" * k + "2"):
        expr.parse(shape(limit - 1), X2)
        for k in (limit, 200, 3000):
            with pytest.raises(expr.ExpressionError, match="nested deeper than"):
                expr.parse(shape(k), X2)


# ---------------------------------------------------------------------------
# property tests: random trees through to_string -> parse, and arbitrary text


def _trees(m):
    names = tuple(f"x{i + 1}" for i in range(m))
    leaves = st.one_of(
        st.sampled_from([expr.Var(i, name) for i, name in enumerate(names)]),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]).map(expr.Const),
        st.floats(0.0, 1e6, allow_nan=False).map(lambda v: expr.Const(abs(v))),
        st.just(expr.Param("p")),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(expr.Unary, st.sampled_from(expr.FUNCTIONS), kids),
        st.builds(expr.Binary, st.sampled_from("+-*/^"), kids, kids),
    ), max_leaves=10)


@st.composite
def _tree_cases(draw):
    m = draw(st.integers(1, 4))
    root = draw(_trees(m))
    coords = st.one_of(st.sampled_from(list(SPECIAL)), st.floats(-4.0, 4.0, allow_nan=False))
    pts = draw(st.lists(st.lists(coords, min_size=m, max_size=m), min_size=1, max_size=12))
    p = draw(st.one_of(st.sampled_from(EDGE_PARAMS), st.floats(-4.0, 4.0, allow_nan=False)))
    return root, tuple(f"x{i + 1}" for i in range(m)), np.array(pts, dtype=float), p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tree_cases())
def test_random_trees_round_trip_and_match_the_oracle(case):
    root, names, pts, p = case
    text = expr.to_string(expr.Expression(root, names, ("p",)))
    e = expr.parse(text, names, ("p",))
    assert e.root == root
    assert_same_bits(expr.eval_jets(e, pts, {"p": p}), oracle_jets(e, pts, {"p": p}), text)


def test_to_string_round_trips_parsed_trees_but_not_negative_constants():
    """`parse` reads "-1.0*x1" as neg(1.0) times x1, and that tree prints and
    parses back to itself.  A Const(-1.0) built in code prints as "(-1.0)*x1",
    comes back as neg(1.0), and its Hessian then reads -0.0 instead of 0.0."""
    pts = np.array([[2.0]])
    parsed = expr.parse("-1.0*x1", ("x1",))
    again = expr.parse(expr.to_string(parsed), ("x1",))
    assert again.root == parsed.root
    assert_same_bits(expr.eval_jets(again, pts), expr.eval_jets(parsed, pts), "parsed")

    built = expr.Expression(expr.Binary("*", expr.Const(-1.0), expr.Var(0, "x1")), ("x1",))
    text = expr.to_string(built)
    back = expr.parse(text, ("x1",))
    assert text == "(-1.0)*x1"
    assert back.root == parsed.root != built.root
    jb, jr = expr.eval_jets(built, pts), expr.eval_jets(back, pts)
    assert jb.val[0] == jr.val[0] == -2.0 and jb.grad[0, 0] == jr.grad[0, 0] == -1.0
    assert jb.hess[0, 0, 0] == jr.hess[0, 0, 0] == 0.0
    assert not np.signbit(jb.hess[0, 0, 0]) and np.signbit(jr.hess[0, 0, 0])


_EXPR_ALPHABET = "x1234yzpQ.eE+-*/^() sincoexplgqrtab_0"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.text(alphabet=_EXPR_ALPHABET, max_size=40), st.text(max_size=20)))
def test_parse_of_arbitrary_text_raises_only_expression_error(text):
    try:
        e = expr.parse(text, ("x1", "x2"), ("p",))
    except expr.ExpressionError:
        return
    again = expr.parse(expr.to_string(e), ("x1", "x2"), ("p",))
    assert again.root == e.root
    pts = np.array([[0.5, -1.0], [0.0, 2.0]])
    assert_same_bits(expr.eval_jets(e, pts, {"p": 1.5}), oracle_jets(e, pts, {"p": 1.5}), text)


# ---------------------------------------------------------------------------
# tape slots released after their last reader


def _live_bound(code, passive):
    """For each computed step i of the tape, the number of earlier computed
    entries still to be read at step i or later (the root is read at the end)."""
    last = {len(code) - 1: len(code)}
    for i, (op, a, b) in enumerate(code):
        if op not in ("const", "param", "var"):
            last[a] = i
            if b is not None:
                last[b] = i
    computed = [i for i in range(len(code)) if i not in passive]
    return {i: sum(1 for j in computed if j < i and last.get(j, -1) >= i) for i in computed}


@pytest.mark.parametrize("text, names", [(drive.RADIAL_LOG_F, X2), (drive.COULOMB_F, ("x1", "x2", "x3"))],
                         ids=["radial_log", "coulomb"])
def test_run_holds_only_the_live_slots_and_any_block_size_is_the_default_run(monkeypatch, text, names):
    e = expr.parse(text, names)
    rng = np.random.default_rng(53)
    pts = sample_points(rng, 50, [-2.0] * len(names), [2.0] * len(names))
    whole = expr.eval_jets(e, pts)
    monkeypatch.setattr(expr, "BLOCK_ROWS", 7)
    assert_same_bits(expr.eval_jets(e, pts), whole, "BLOCK_ROWS=7")
    monkeypatch.undo()

    code = e._tape
    passive = expr._passive_jets(code, {}, pts.shape[0], len(names), 2)
    bound = _live_bound(code, passive)
    outputs, held = [], []  # weak references to every computed value array; alive counts

    def spy(fn):
        def counted(*args):
            held.append(len({id(r()) for r in outputs if r() is not None}))
            out = fn(*args)
            outputs.append(weakref.ref(out[0]))
            return out
        return counted

    monkeypatch.setattr(expr, "_unary", spy(expr._unary))
    monkeypatch.setattr(expr, "_binary", spy(expr._binary))
    with np.errstate(all="ignore"):
        root = expr._run(code, passive, pts, expr._last_readers(code))
    monkeypatch.undo()
    assert len(held) == len(bound)
    assert held == [bound[i] for i in sorted(bound)]
    assert max(held) < len(held) - 2  # far fewer than every earlier entry
    np.testing.assert_array_equal(_bits(root[0]), _bits(whole.val))


# ---------------------------------------------------------------------------
# _pow_const: Python-float factors against the array-factor formulas


def _array_signed_pow(base, p, p0, integral):
    if not integral:
        return np.power(np.where(base < 0, np.nan, base), p)
    if p0 == 0.0:
        return np.ones(base.shape)
    mag = np.abs(base) if p0 == 1.0 else np.power(np.abs(base), p)
    return mag * np.where(base < 0, -1.0, 1.0) if abs(p0) % 2.0 == 1.0 else mag


def _array_pow_const(a, p):
    """The power rule with every factor an array, as before the Python-float factors."""
    av, ak = a[0], a[3]
    p0 = float(p[0])
    integral = p0.is_integer()
    bad = ak.copy()
    if not integral:
        bad |= av < 0.0
    val = _array_signed_pow(av, p, p0, integral)
    d1 = p * _array_signed_pow(av, p - 1.0, p0 - 1.0, integral)
    d2 = p * (p - 1.0) * _array_signed_pow(av, p - 2.0, p0 - 2.0, integral)
    at_zero = av == 0.0
    if np.any(at_zero):
        bad |= at_zero & (p <= 0)
        if 0 < p0 < 2.0:
            bad |= at_zero & expr._moving(a)
        d1 = np.where(at_zero & (p >= 2.0), 0.0, d1)
        d2 = np.where(at_zero & (p >= 3.0), 0.0, d2)
        d2 = np.where(at_zero & (p == 2.0), 2.0, d2)
    return expr._through(a, val, lambda: d1, lambda: d2, bad)


@pytest.mark.parametrize("p0", (-2.5, -2.0, -1.0, 0.5, 1.5, 2.0, 3.0, 4.0))
def test_pow_const_with_float_factors_is_the_array_factor_formula(p0):
    bases = np.concatenate((SIGNED_POW_BASES, [-3.0, -0.75, 1e-200, -1e-200, 7.5]))
    rng = np.random.default_rng(71)
    n = bases.size
    grad = rng.standard_normal((2, n))
    tri = rng.standard_normal((3, n))
    grad[:, ::3] = tri[:, ::3] = 0.0  # still points, where a zero base is not moving
    a = (bases, grad, tri, rng.random(n) < 0.1)
    p = np.full(n, p0)
    with np.errstate(all="ignore"):
        got, want = expr._pow_const(a, p), _array_pow_const(a, p)
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(_bits_but_nan_sign(g), _bits_but_nan_sign(w), err_msg=str(p0))
    np.testing.assert_array_equal(got[3], want[3])


# ---------------------------------------------------------------------------
# jets of the order the caller reads


def _hess_finite(jets):
    return np.isfinite(jets.hess_rows).all(axis=0)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_lower_orders_keep_the_value_and_gradient_bits_of_order_two(monkeypatch, m):
    """Every rule computes its value and gradient without reading a higher
    part, so order 0 and 1 give order 2's values everywhere and order 1 its
    gradient wherever order 1 is defined.  Order 1 refuses every zero under a
    sqrt or a power 0 < p < 2 (the rows the full order decides) and keeps a
    point where only the Hessian is not finite; order 0 is defined wherever
    order 1 is."""
    monkeypatch.setattr(expr, "BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(83 + m)
    texts = [expr.to_string(e) for e in edge_expressions(m)]
    texts += [f"log(x{m})", f"1/x1 + cos(x{m})", f"x1^-3 * exp(x{m}/4)", "x1^1e-300 + x1^2.0",
              f"abs(x{m} - 1) * sin(x1)", f"(x1 - x{m})^0.75"]
    roots = ("sqrt", "^0.5", "^1.5", "^0.75", "^(", "^p", "^1e-300")
    names = tuple(f"x{i + 1}" for i in range(m))
    for text in texts:
        e = expr.parse(text, names, ("p",))
        for p in (2.0, 0.5, -1.0, 0.0, np.nan):
            pts = sample_points(rng, 3 * SMALL_BLOCK + 7, [-3.0] * m, [3.0] * m, special_share=0.4)
            j0, j1, j2 = (expr.eval_jets(e, pts, {"p": p}, order=k) for k in (0, 1, 2))
            assert (j0.order, j1.order, j2.order) == (0, 1, 2)
            assert j0.grad_rows is None and j0.hess_rows is None and j1.hess_rows is None
            for j in (j0, j1):
                np.testing.assert_array_equal(_bits(j.val), _bits(j2.val), err_msg=text)
            ok = ~j1.bad
            np.testing.assert_array_equal(_bits(j1.grad_rows[:, ok]), _bits(j2.grad_rows[:, ok]),
                                          err_msg=text)
            assert not (j0.bad & ~j1.bad).any(), text
            assert not (j2.bad & ~j1.bad & _hess_finite(j2)).any(), text
            if not any(r in text for r in roots):
                assert not (j1.bad & ~j2.bad).any(), text


def test_order_one_leaves_zeros_under_a_root_to_the_full_order():
    """sqrt(x1^2 + x2^2) has zero gradient at the origin, and only its
    Hessian shows that the argument moves: order 1 refuses the point, as it
    does sqrt(0 * x1), which order 2 keeps (the argument is constant)."""
    at_origin = np.zeros((1, 2))
    for text, full_bad in (("x1 + sqrt(x1^2 + x2^2)", True), ("(x1^2 + x2^2)^0.75", True),
                           ("x1^1.5 + x2", True), ("sqrt(0*x1) + x2", False)):
        e = expr.parse(text, X2)
        assert [bool(expr.eval_jets(e, at_origin, order=k).bad[0]) for k in (0, 1, 2)] == \
            [False, True, full_bad], text


def test_order_zero_is_defined_where_only_a_derivative_fails():
    """Values only: abs at 0, sqrt of a moving 0 and a power 0 < p < 2 at 0
    are defined, and every domain rule of the value itself still holds."""
    pts = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]])
    cases = {  # text: (bad at order 0, bad at order 2)
        "abs(x1)": ([False, False, False], [True, True, False]),
        "sqrt(x1^2 + x2^2 - 1)": ([False, False, False], [True, True, True]),
        "x1^0.5 * x2": ([False, False, True], [True, True, True]),
        "(x1 + x2 - 1)^1.5": ([False, True, True], [True, True, True]),
        "log(x1)": ([True, True, True], [True, True, True]),
        "x2 / x1": ([True, True, False], [True, True, False]),
        "x1^-0.5": ([True, True, True], [True, True, True]),
        "x2^x1": ([False, True, True], [False, True, True]),
    }
    for text, (bad0, bad2) in cases.items():
        e = expr.parse(text, X2)
        j0 = expr.eval_jets(e, pts, order=0)
        assert (j0.bad.tolist(), expr.eval_jets(e, pts).bad.tolist()) == (bad0, bad2), text
        np.testing.assert_array_equal(expr.eval_values(e, pts), np.where(bad0, np.nan, j0.val))


def test_a_part_not_computed_raises_naming_the_order():
    e = expr.parse("x1 * x2", X2)
    pts = np.ones((3, 2))
    with pytest.raises(ValueError, match="order 0"):
        expr.eval_jets(e, pts, order=0).grad
    for k in (0, 1):
        with pytest.raises(ValueError, match=f"hess needs jets of order 2; .* order {k}"):
            expr.eval_jets(e, pts, order=k).hess
    assert expr.eval_jets(e, pts, order=1).grad.shape == (3, 2)
    with pytest.raises(ValueError, match="jet order must be 0, 1 or 2"):
        expr.eval_jets(e, pts, order=3)


def test_value_only_callers_are_defined_where_only_a_derivative_fails():
    """Region predicates (eval_values) and config masks read values only."""
    from streamfields import config

    pts = np.array([[0.0, 0.5], [0.5, 0.0], [-0.5, 0.0]])
    keep = config.mask_predicate("abs(x1) + sqrt(x2) - 0.25", 2)
    assert keep(pts).tolist() == [True, True, True]
    assert config.mask_predicate("log(x1)", 2)(pts + 0.75).tolist() == [False, True, False]
    vals = expr.eval_values(expr.parse("abs(x1) - sqrt(x2)", X2), pts)
    assert vals.tolist() == [-np.sqrt(0.5), 0.5, 0.5]
