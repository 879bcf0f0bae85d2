"""Density laws rho(Q), the fold map phi(Q) = Q rho^2(Q), and branch inversion.

phi is monotone only piecewise; each monotonicity piece is a PhiBranch carrying
its Q-interval, its image, and an inverse psi.  Increasing pieces (type1) give
the elliptic regime, decreasing pieces (type2) the hyperbolic one.  Built-in
models ship exact analytic inverses; custom densities get branches detected by
sign-sampling phi' and inverted numerically (bisection plus Newton polish).

Custom branch detection is one sweep over the sample signs of phi': runs of
defined phi' come from the edges of the defined mask, and a branch ends where a
sample's sign differs from the last nonzero sign before it in its run.  A
phi' sample within rounding of its two terms (PHI_PRIME_NOISE) counts as zero,
a piece of fewer than 8 samples or with no nonzero sample is no branch, and a
density left with no branch is refused (DensityError).  One array bisection
finds every definedness edge and another every root of phi', so phi' is
evaluated once per step of the slowest bracket, not once per root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as exprmod


class DensityError(ValueError):
    pass


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def contains_array(self, x, lo_snap: float = 0.0, hi_snap: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo_ok = (x >= self.lo) if self.lo_closed else (x > self.lo)
        hi_ok = (x <= self.hi) if self.hi_closed else (x < self.hi)
        # snap forgives an open/overshot endpoint within tolerance (fold values)
        if lo_snap > 0.0 and np.isfinite(self.lo):
            lo_ok = lo_ok | (np.abs(x - self.lo) <= lo_snap)
        if hi_snap > 0.0 and np.isfinite(self.hi):
            hi_ok = hi_ok | (np.abs(x - self.hi) <= hi_snap)
        return lo_ok & hi_ok & ~np.isnan(x)

    def __str__(self) -> str:
        return f"{'[' if self.lo_closed else '('}{self.lo:g}, {self.hi:g}{']' if self.hi_closed else ')'}"


@dataclass(frozen=True, eq=False)
class PhiBranch:
    """One monotone piece of phi with its inverse."""

    index: int  # 1-based position in the model's branch list
    label: str
    orientation: str  # "type1" (phi' > 0, elliptic) or "type2" (phi' < 0, hyperbolic)
    q_interval: Interval
    image: Interval
    nonphysical: bool = False
    # snapping is only sound where the matching Q endpoint is finite
    snap_lo: bool = False
    snap_hi: bool = False
    psi_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(repr=False, default=None)

    @property
    def elliptic(self) -> bool:
        return self.orientation == "type1"

    def admits(self, xi, snap: float = 0.0) -> np.ndarray:
        return self.image.contains_array(
            xi, snap if self.snap_lo else 0.0, snap if self.snap_hi else 0.0
        )

    def psi(self, xi, snap: float = 0.0) -> np.ndarray:
        """Invert phi on this branch; NaN where xi lies outside the (snapped) image."""
        xi = np.asarray(xi, dtype=float)
        ok = self.admits(xi, snap)
        out = np.full(xi.shape, np.nan)
        if np.any(ok):
            xin = np.clip(xi[ok], self.image.lo, self.image.hi)
            with np.errstate(all="ignore"):
                q = self.psi_fn(xin)
            out[ok] = np.clip(q, self.q_interval.lo, self.q_interval.hi)
        return out


@dataclass(frozen=True, eq=False)
class DensityModel:
    kind: str  # extremal | born_infeld | shallow_water | caustic | custom
    q_domain: tuple[Interval, ...]
    params: dict = field(default_factory=dict)
    rho_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    rho_prime_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    branch_list: tuple[PhiBranch, ...] = field(repr=False, default=())

    def in_domain(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        ok = np.zeros(q.shape, dtype=bool)
        for iv in self.q_domain:
            ok |= iv.contains_array(q)
        return ok

    def rho(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        with np.errstate(all="ignore"):
            r = self.rho_fn(q)
        return np.where(self.in_domain(q), r, np.nan)

    def rho_prime(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        with np.errstate(all="ignore"):
            rp = self.rho_prime_fn(q)
        return np.where(self.in_domain(q), rp, np.nan)

    def phi(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        with np.errstate(all="ignore"):
            return q * self.rho(q) ** 2

    def phi_prime(self, q, r=None) -> np.ndarray:
        """phi'(Q) = rho (rho + 2 Q rho'); ``r``, if given, is the caller's
        rho(q), so rho is not evaluated a second time."""
        q = np.asarray(q, dtype=float)
        r = self.rho(q) if r is None else r
        rp = self.rho_prime(q)
        with np.errstate(all="ignore"):
            return r * (r + 2.0 * q * rp)

    def branches(self) -> list[PhiBranch]:
        return list(self.branch_list)


# ---------------------------------------------------------------------------
# built-in models

_INF = math.inf


def extremal(kind: str = "extremal") -> DensityModel:
    """rho(Q) = |1-Q|^(-1/2): two branches split at the pole Q=1."""

    def rho(q):
        return np.abs(1.0 - q) ** -0.5

    def rho_prime(q):
        return 0.5 * np.sign(1.0 - q) * np.abs(1.0 - q) ** -1.5

    b1 = PhiBranch(
        index=1,
        label="elliptic",
        orientation="type1",
        q_interval=Interval(0.0, 1.0, True, False),
        image=Interval(0.0, _INF, True, False),
        psi_fn=lambda xi: xi / (xi + 1.0),
    )
    b2 = PhiBranch(
        index=2,
        label="hyperbolic",
        orientation="type2",
        q_interval=Interval(1.0, _INF, False, False),
        image=Interval(1.0, _INF, False, False),
        psi_fn=lambda xi: xi / (xi - 1.0),
    )
    return DensityModel(
        kind=kind,
        q_domain=(Interval(0.0, 1.0, True, False), Interval(1.0, _INF, False, False)),
        rho_fn=rho,
        rho_prime_fn=rho_prime,
        branch_list=(b1, b2),
    )


def born_infeld() -> DensityModel:
    return extremal(kind="born_infeld")


SHALLOW_FOLD_XI = (2.0 / 3.0) ** 3  # phi(2/3), the shared fold value


def _shallow_trig_root(xi: np.ndarray, k: int) -> np.ndarray:
    # roots of Q^3 - 4Q^2 + 4Q - 4 xi = 0 for xi in [0, (2/3)^3]
    c = np.clip(6.75 * xi - 1.0, -1.0, 1.0)
    ang = np.arccos(c) / 3.0 - 2.0 * np.pi * k / 3.0
    return 4.0 / 3.0 + (4.0 / 3.0) * np.cos(ang)


def _shallow_root_upper(xi: np.ndarray) -> np.ndarray:
    # third branch: trig part up to the fold, single Cardano root beyond it
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    low = xi <= SHALLOW_FOLD_XI
    if np.any(low):
        out[low] = _shallow_trig_root(xi[low], 0)
    if np.any(~low):
        x = xi[~low]
        half_q = 8.0 / 27.0 - 2.0 * x  # depressed cubic u^3 - (4/3)u + q
        disc = half_q**2 - 64.0 / 729.0
        s = np.sqrt(disc)
        # -half_q > 0 here, so t1 has no cancellation; the small cube root
        # follows from the product t1*t2 = 4/9 (cbrt(-half_q - s) cancels badly
        # once xi is large)
        t1 = np.cbrt(-half_q + s)
        out[~low] = t1 + (4.0 / 9.0) / t1 + 4.0 / 3.0
    return out


def shallow_water() -> DensityModel:
    """rho(Q) = 1 - Q/2: folds at Q=2/3 and Q=2 (rho<0 beyond, kept but flagged)."""

    def rho(q):
        return 1.0 - 0.5 * q

    def rho_prime(q):
        return np.full(np.shape(q), -0.5)

    b1 = PhiBranch(
        index=1,
        label="tranquil",
        orientation="type1",
        q_interval=Interval(0.0, 2.0 / 3.0, True, False),
        image=Interval(0.0, SHALLOW_FOLD_XI, True, False),
        snap_hi=True,
        psi_fn=lambda xi: _shallow_trig_root(xi, 2),
    )
    b2 = PhiBranch(
        index=2,
        label="shooting",
        orientation="type2",
        q_interval=Interval(2.0 / 3.0, 2.0, False, False),
        image=Interval(0.0, SHALLOW_FOLD_XI, False, False),
        snap_lo=True,
        snap_hi=True,
        psi_fn=lambda xi: _shallow_trig_root(xi, 1),
    )
    b3 = PhiBranch(
        index=3,
        label="nonphysical",
        orientation="type1",
        q_interval=Interval(2.0, _INF, False, False),
        image=Interval(0.0, _INF, False, False),
        nonphysical=True,
        snap_lo=True,
        psi_fn=_shallow_root_upper,
    )
    return DensityModel(
        kind="shallow_water",
        q_domain=(Interval(0.0, _INF, True, False),),
        rho_fn=rho,
        rho_prime_fn=rho_prime,
        branch_list=(b1, b2, b3),
    )


def caustic(tau: float) -> DensityModel:
    """rho(Q) = sqrt(|1 - tau^2/Q|): kink at Q = tau^2, Q=0 excluded."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DensityError(f"caustic requires tau > 0, got {tau!r}")
    t2 = tau * tau

    def rho(q):
        return np.sqrt(np.abs(q - t2) / q)

    def rho_prime(q):
        r = np.sqrt(np.abs(q - t2) / q)
        out = np.sign(q - t2) * t2 / (2.0 * r * q * q)
        return np.where(q == t2, np.nan, out)

    b1 = PhiBranch(
        index=1,
        label="shadow",
        orientation="type1",
        q_interval=Interval(t2, _INF, True, False),
        image=Interval(0.0, _INF, True, False),
        psi_fn=lambda xi: xi + t2,
    )
    # the image is taken closed at tau^2: psi -> 0 there and w = 0 by the
    # alternate formula, even though Q=0 itself is outside the rho domain
    b2 = PhiBranch(
        index=2,
        label="illuminated",
        orientation="type2",
        q_interval=Interval(0.0, t2, False, True),
        image=Interval(0.0, t2, True, True),
        psi_fn=lambda xi: t2 - xi,
    )
    return DensityModel(
        kind="caustic",
        q_domain=(Interval(0.0, _INF, False, False),),
        params={"tau": float(tau)},
        rho_fn=rho,
        rho_prime_fn=rho_prime,
        branch_list=(b1, b2),
    )


# ---------------------------------------------------------------------------
# custom densities: expression-backed rho with numeric branch machinery

SAMPLES_PER_DECADE = 4096
# |phi'| at or below this many ulps of rho (|rho| + |2 Q rho'|) is rounding
PHI_PRIME_NOISE = 16.0 * np.finfo(float).eps


def _bisect(side, a, b, steps: int) -> np.ndarray:
    """Final midpoints of the brackets [a, b], bisected at once.  side(m, k) is,
    at the midpoints m of the live brackets k, 1 where m replaces a, -1 where it
    replaces b, 0 to stop; a bracket also stops when its midpoint is an end."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(a.size)
    for _ in range(steps):
        m = 0.5 * (a[live] + b[live])
        moved = (m != a[live]) & (m != b[live])
        live, m = live[moved], m[moved]
        if live.size == 0:
            break
        s = side(m, live)
        a[live[s > 0]] = m[s > 0]
        b[live[s < 0]] = m[s < 0]
        live = live[s != 0]
    return 0.5 * (a + b)


def _numeric_inverse(phi_fn, dphi_fn, qa: float, qb: float, increasing: bool):
    """Bracketed bisection + Newton polish on phi(Q) = xi over [qa, qb]."""

    def solve(xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        scale = max(abs(qa), 1.0)
        lo = np.full(xi.shape, qa)
        flo = phi_fn(lo)
        if np.any(~np.isfinite(flo)):
            lo = np.where(np.isfinite(flo), lo, qa + 1e-14 * scale)
        if np.isfinite(qb):
            hi = np.full(xi.shape, qb)
            fhi = phi_fn(hi)
            if np.any(~np.isfinite(fhi)):
                hi = np.where(np.isfinite(fhi), hi, qb - 1e-14 * max(abs(qb), 1.0))
        else:
            hi = np.full(xi.shape, max(qa, 0.0) + scale)
            for _ in range(600):
                fhi = phi_fn(hi)
                short = (fhi < xi) if increasing else (fhi > xi)
                short &= np.isfinite(fhi)
                if not np.any(short):
                    break
                hi = np.where(short, hi * 2.0, hi)

        def side(m, k):  # m replaces lo where phi(m) is finite and short of xi
            fm = phi_fn(m)
            return np.where(np.isfinite(fm) & ((fm < xi[k]) if increasing else (fm > xi[k])), 1, -1)

        q = _bisect(side, lo, hi, 48)
        for _ in range(3):
            f = phi_fn(q) - xi
            d = dphi_fn(q)
            with np.errstate(all="ignore"):
                step = f / d
            step = np.where(np.isfinite(step), step, 0.0)
            q = np.clip(q - step, lo, hi)
        return q

    return solve


def custom(
    rho_expr,
    q_min: float = 0.0,
    q_max: Optional[float] = None,
    name: str = "custom",
) -> DensityModel:
    """Density from an expression in Q; branches found by sampling phi' signs."""
    try:
        e = exprmod.parse(rho_expr, ("Q",)) if isinstance(rho_expr, str) else rho_expr
    except exprmod.ExpressionError as exc:
        raise DensityError(f"custom density expression: {exc}") from exc
    if e.variables != ("Q",):
        raise DensityError("custom density must be an expression in the single variable Q")

    def rho_and_prime(q: np.ndarray):
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

    if q_min < 0.0:
        raise DensityError("q_min must be >= 0")
    horizon = q_max if q_max is not None else 1e6
    # the sampler spans decades from min(1e-6, horizon * 1e-6) up to the horizon
    if not (horizon > q_min and 1e-300 < horizon < 1e300):
        what = "q_max" if q_max is not None else "q_max (unset: the sampler's default horizon 1e6)"
        raise DensityError(f"{what} must exceed q_min = {q_min!r} and lie in (1e-300, 1e300), "
                           f"got {horizon!r}")

    _spot_check_c1(rho_and_prime, q_min, horizon, name)

    qs = _sample_grid(q_min, horizon, SAMPLES_PER_DECADE)
    rvals, rp = rho_and_prime(qs)
    with np.errstate(all="ignore"):
        slope = 2.0 * qs * rp
        dphi = rvals * (rvals + slope)  # dphi_arr(qs), bit for bit
        # phi' within rounding of its two terms has no sign
        noise = np.abs(dphi) <= PHI_PRIME_NOISE * np.abs(rvals) * (np.abs(rvals) + np.abs(slope))
    sign = np.where(np.isfinite(dphi), np.sign(np.where(noise, 0.0, dphi)), np.nan)
    branch_list = _detect_branches(
        qs, sign, rvals, phi_arr, dphi_arr,
        open_end=(q_max is None), name=name,
    )
    domain_hi = _INF if q_max is None else float(q_max)
    return DensityModel(
        kind="custom",
        q_domain=(Interval(float(q_min), domain_hi, True, q_max is not None),),
        params={"expr": exprmod.to_string(e), "q_min": float(q_min), "q_max": q_max},
        rho_fn=lambda q: rho_and_prime(q)[0],
        rho_prime_fn=lambda q: rho_and_prime(q)[1],
        branch_list=tuple(branch_list),
    )


def _sample_grid(q_min: float, horizon: float, per_decade: int) -> np.ndarray:
    lo_pos = max(q_min, min(1e-6, horizon * 1e-6))
    decades = max(1, int(math.ceil(math.log10(horizon / lo_pos))))
    pts = [np.geomspace(lo_pos, horizon, decades * per_decade)]
    if q_min < lo_pos:
        pts.insert(0, np.linspace(q_min, lo_pos, per_decade, endpoint=False))
    return np.unique(np.concatenate(pts))


def _spot_check_c1(rho_and_prime, q_min: float, horizon: float, name: str) -> None:
    rng = np.random.default_rng(20260814)
    span_hi = min(horizon, max(10.0, q_min + 10.0))
    qs = q_min + (span_hi - q_min) * rng.random(48)
    r, rp = rho_and_prime(qs)
    h = 1e-6 * np.maximum(1.0, np.abs(qs))
    rp_fd = (rho_and_prime(qs + h)[0] - rho_and_prime(qs - h)[0]) / (2.0 * h)
    ok = np.isfinite(r) & np.isfinite(rp) & np.isfinite(rp_fd)
    if not np.any(ok):
        raise DensityError(f"custom density {name!r}: rho undefined at all spot-check points")
    err = np.abs(rp[ok] - rp_fd[ok]) / np.maximum(1.0, np.abs(rp[ok]))
    if np.mean(err > 1e-4) > 0.25:
        raise DensityError(
            f"custom density {name!r}: rho' disagrees with finite differences "
            f"(max rel err {err.max():.2e}); rho must be C^1 inside its domain"
        )


def _detect_branches(qs, sign, rvals, phi_arr, dphi_arr, open_end: bool, name: str):
    defined = ~np.isnan(sign)
    if not np.any(defined):
        raise DensityError(f"custom density {name!r}: phi' undefined at every sample")
    last = len(qs) - 1

    # maximal runs [r0, r1] of defined phi', those of at least 8 steps kept
    step = np.diff(defined.astype(np.int8), prepend=0, append=0)
    r0, r1 = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1
    r0, r1 = r0[r1 - r0 >= 8], r1[r1 - r0 >= 8]
    # held[i]: the last nonzero sign at or before sample i in its run, 0 if none
    s = np.nan_to_num(sign)
    held_at = np.maximum.accumulate(np.where(sign != 0.0, np.arange(len(qs)), -1))
    held = np.where(held_at >= 0, s[held_at], 0.0)
    # phi' changes sign between samples i and i+1, inside a kept run (i < r1
    # of the last kept run starting at or before i; -1 before the first)
    splits = np.flatnonzero(held[:-1] * s[1:] < 0.0)
    run = np.searchsorted(r0, splits, side="right") - 1
    cut = splits[splits < np.append(r1, -1)[run]]

    # every definedness edge, bisected from a run's end toward its undefined neighbour
    lo_edge, hi_edge = r0 > 0, r1 < last
    edges = _bisect(lambda m, k: np.where(np.isfinite(dphi_arr(m)), 1, -1),
                    np.concatenate((qs[r0[lo_edge]], qs[r1[hi_edge]])),
                    np.concatenate((qs[r0[lo_edge] - 1], qs[r1[hi_edge] + 1])), 120)
    lo_q, hi_q = qs[r0], qs[r1]
    lo_q[lo_edge], hi_q[hi_edge] = np.split(edges, [lo_edge.sum()])
    if open_end:
        hi_q[~hi_edge] = _INF

    # every root of phi', bisected with the held sign of the piece that ends
    # there (sign[i] would count a phi' of exactly 0 at sample i as positive
    # and overshoot the root), stopping where phi' is not finite
    a_neg = held[cut] < 0.0

    def root_side(m, k):
        f = dphi_arr(m)
        return np.where(np.isfinite(f), np.where((f < 0.0) == a_neg[k], 1, -1), 0)

    roots = _bisect(root_side, qs[cut], qs[cut + 1], 200)

    pieces = []  # (qa, qb, lo_closed, hi_closed, sign)
    for k, (a, b) in enumerate(zip(r0.tolist(), r1.tolist())):
        j0, j1 = np.searchsorted(cut, (a, b)).tolist()
        ends = np.concatenate(([lo_q[k]], roots[j0:j1], [hi_q[k]]))
        # samples per piece, and its sign (0: no nonzero phi' sample, refused)
        counts = np.diff(np.concatenate(([a - 1], cut[j0:j1], [b - 1])))
        signs = held[np.append(cut[j0:j1], b)]
        for j in np.flatnonzero((counts >= 8) & (signs != 0.0)).tolist():
            pieces.append((ends[j], ends[j + 1], j == 0 and a == 0,
                           j == j1 - j0 and b == last and not open_end, signs[j]))

    if not pieces:
        raise DensityError(
            f"custom density {name!r}: no sign-definite phi' interval found at "
            f"{len(qs)} samples; fix the density"
        )

    # phi at every piece end in one call, and once more 1e-12 inward at the
    # finite ends where it is not finite (an open end takes phi's limit below)
    ends = np.array([p[:2] for p in pieces])
    f = phi_arr(ends)
    retry = np.isfinite(ends) & ~np.isfinite(f)
    if retry.any():
        inward = np.array([1.0, -1.0]) * 1e-12 * np.maximum(1.0, np.abs(ends))
        f[retry] = phi_arr(ends[retry] + inward[retry])

    out = []
    for idx, ((qa, qb, lo_c, hi_c, piece_sign), (fa, fb)) in enumerate(
            zip(pieces, f.tolist()), start=1):
        increasing = piece_sign > 0.0
        if not np.isfinite(qb):
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
