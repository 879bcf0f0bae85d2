"""Run configuration: JSON schema, validation, and built-in example registry.

A run config is a plain JSON object with one section per concern.  Parsing is
strict: unknown sections or keys are rejected so typos fail loudly instead of
silently running with defaults.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from . import density as densmod
from . import drive as drivemod
from . import expr as exprmod
from . import forms as formsmod
from .synth import BranchPolicy, GridSpec, Tolerances, prefer_type1, prefer_type2, region_map, single_branch


class ConfigError(ValueError):
    pass


_SECTIONS = ("density", "drive", "grid", "policy", "tol", "frobenius", "forms", "verify", "output")

_KEYS = {
    "density": {"kind", "tau", "rho", "q_min", "q_max", "name"},
    "drive": {"kind", "name", "R", "f", "dim", "entries", "components", "closure", "box", "params"},
    "grid": {"lo", "hi", "cells"},
    "policy": {"mode", "branch", "regions", "default", "allow_nonphysical"},
    "tol": {"eps_phi_prime", "eps_rho", "eps_grad", "q_zero", "rho_zero", "xi_snap"},
    "frobenius": {"witness", "recover_eta", "anchor", "tol_conservative", "mask"},
    "forms": {"n", "k", "coeffs", "params", "closed", "box", "gamma"},
    "verify": {"residuals", "threshold", "energy", "mask"},
    "output": {"dir", "json"},
}

_RESIDUAL_KINDS = ("divergence", "minor", "frobenius", "exactness", "codifferential")


@dataclass(frozen=True)
class RunConfig:
    density: dict = field(default_factory=dict)
    drive: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)
    tol: dict = field(default_factory=dict)
    frobenius: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _check_keys(section: str, data: Mapping[str, Any]) -> dict:
    if not isinstance(data, Mapping):
        raise ConfigError(f"section {section!r} must be an object")
    extra = sorted(set(data) - _KEYS[section])
    if extra:
        raise ConfigError(f"unknown key(s) in section {section!r}: {', '.join(extra)}")
    return dict(data)


def parse_config(data: Mapping[str, Any]) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a JSON object")
    extra = sorted(set(data) - set(_SECTIONS))
    if extra:
        raise ConfigError(f"unknown config section(s): {', '.join(extra)}")
    sections = {name: _check_keys(name, data.get(name, {})) for name in _SECTIONS}
    for name, sec in sections.items():
        for key, val in sec.items():
            _check_finite(f"{name}.{key}", val)
    return RunConfig(**sections)


def _check_finite(where: str, val) -> None:
    """json.load reads NaN, Infinity and 1e999; no key accepts them, at any depth."""
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{where} must hold finite numbers, got {val!r}")
    for item in val.values() if isinstance(val, Mapping) else val if isinstance(val, list) else ():
        _check_finite(where, item)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# section builders


@contextmanager
def _malformed(section: str):
    """Report a value of the wrong type or form in `section` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def flag(cfg: RunConfig, key: str) -> bool:
    """The boolean config key `key` ("section.name"), false when unset; only
    JSON true and false are accepted."""
    section, name = key.split(".")
    val = getattr(cfg, section).get(name, False)
    if not isinstance(val, bool):
        raise ConfigError(f"{key} must be true or false, got {val!r}")
    return val


def output_dir(cfg: RunConfig) -> str:
    """output.dir, "out" when unset."""
    out = cfg.output.get("dir", "out")
    if not isinstance(out, str):
        raise ConfigError(f"output.dir must be a directory path, got {out!r}")
    return out


def build_model(cfg: RunConfig) -> densmod.DensityModel:
    sec = cfg.density
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("density.kind is required")
    with _malformed("density"):
        if kind == "shallow_water":
            return densmod.shallow_water()
        if kind == "extremal":
            return densmod.extremal()
        if kind == "born_infeld":
            return densmod.born_infeld()
        if kind == "caustic":
            if "tau" not in sec:
                raise ConfigError("density.tau is required for the caustic model")
            return densmod.caustic(float(sec["tau"]))
        if kind == "custom":
            if not isinstance(sec.get("rho"), str):
                raise ConfigError("density.rho is required for a custom model, as an expression string")
            kwargs: dict = {}
            if "q_min" in sec:
                kwargs["q_min"] = float(sec["q_min"])
            if sec.get("q_max") is not None:
                kwargs["q_max"] = float(sec["q_max"])
            if "name" in sec:
                kwargs["name"] = str(sec["name"])
            return densmod.custom(sec["rho"], **kwargs)
    raise ConfigError(f"unknown density.kind {kind!r}")


def build_drive(cfg: RunConfig):
    sec = cfg.drive
    kind = sec.get("kind")
    params = sec.get("params") or {}
    with _malformed("drive"):
        if kind == "builtin":
            name = sec.get("name")
            if name == "radial_log":
                return drivemod.radial_log()
            if name == "shallow_vortex":
                return drivemod.shallow_vortex(float(sec.get("R", 1.0)))
            if name == "coulomb":
                return drivemod.coulomb()
            raise ConfigError(f"unknown builtin drive {name!r}")
        if kind == "scalar":
            return drivemod.scalar_drive(_need(sec, "drive", "f"), params)
        if kind == "skew":
            entries = _need(sec, "drive", "entries")
            if not isinstance(entries, Mapping):
                raise ConfigError("drive.entries must be an object of two-digit keys like '12'")
            parsed = {}
            for key, val in entries.items():
                digits = str(key)
                if len(digits) != 2 or not digits.isdigit():
                    raise ConfigError(f"skew entry key must be two digits like '12', got {key!r}")
                parsed[(int(digits[0]), int(digits[1]))] = val
            return drivemod.skew_drive(int(_need(sec, "drive", "dim")), parsed, params)
        if kind == "gradient":
            return drivemod.gradient_drive(int(_need(sec, "drive", "dim")), _need(sec, "drive", "f"), params)
        if kind == "raw":
            dim = int(_need(sec, "drive", "dim"))
            return drivemod.raw_drive(
                dim,
                _need(sec, "drive", "components"),
                _need(sec, "drive", "closure"),
                _box(_need(sec, "drive", "box"), dim, "drive.box"),
                params,
            )
    raise ConfigError(f"unknown drive.kind {kind!r}")


def _need(sec: Mapping[str, Any], where: str, key: str):
    if key not in sec:
        raise ConfigError(f"{where}.{key} is required")
    return sec[key]


# Nodes any grid may have, the finest of a `verify --levels K` study included:
# over four times the 97^3 = 912,673 nodes of a 3D shipped example at --levels 3.
MAX_GRID_NODES = 1 << 22


def build_grid(cfg: RunConfig) -> GridSpec:
    sec = cfg.grid
    for key in ("lo", "hi", "cells"):
        _need(sec, "grid", key)
    try:
        grid = GridSpec(lo=tuple(sec["lo"]), hi=tuple(sec["hi"]), cells=tuple(sec["cells"]))
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if math.prod(grid.shape()) > MAX_GRID_NODES:
        raise ConfigError(f"grid: cells {list(grid.cells)} give more than {MAX_GRID_NODES} nodes")
    return grid


def build_policy(cfg: RunConfig, dim: int) -> BranchPolicy:
    sec = cfg.policy
    mode = sec.get("mode", "prefer_type1")
    allow = flag(cfg, "policy.allow_nonphysical")
    with _malformed("policy"):
        if mode == "prefer_type1":
            return prefer_type1(allow)
        if mode == "prefer_type2":
            return prefer_type2(allow)
        if mode == "single_branch":
            return single_branch(int(_need(sec, "policy", "branch")), allow)
        if mode == "region_map":
            regions = [(str(pred), int(bid)) for pred, bid in _need(sec, "policy", "regions")]
            return region_map(regions, int(_need(sec, "policy", "default")), dim=dim, allow_nonphysical=allow)
    raise ConfigError(f"unknown policy.mode {mode!r}")


def build_tol(cfg: RunConfig) -> Tolerances:
    with _malformed("tol"):
        return Tolerances(**{k: float(v) for k, v in cfg.tol.items()})


def _box(box, n: int, key: str):
    """The box `key` as (lo, hi): two finite points of dimension n with lo < hi."""
    try:
        lo, hi = (tuple(float(v) for v in corner) for corner in box)
    except (TypeError, ValueError, OverflowError):
        lo = hi = ()
    if len(lo) != n or len(hi) != n or not all(
            float("-inf") < a < b < float("inf") for a, b in zip(lo, hi)):
        raise ConfigError(
            f"{key} must be [lo, hi], two points of dimension {n} with lo < hi, got {box!r}")
    return lo, hi


def build_form(cfg: RunConfig, dim: int) -> tuple:
    """The forms section as (drive form, k, params, box), with box = (lo, hi)
    of the closure check, or None when unset.  k is the degree of omega: the
    drive form is alpha of degree n - k with forms.closed, else the stream
    form f of degree n - k - 1."""
    sec = cfg.forms
    if "n" not in sec or "k" not in sec:
        raise ConfigError("forms.n and forms.k are required")
    coeffs = sec.get("coeffs")
    if not isinstance(coeffs, dict) or not coeffs:
        raise ConfigError("forms.coeffs must be a non-empty object of multi-index keys")
    with _malformed("forms"):
        params = dict(sec.get("params") or {})
        n, k = int(sec["n"]), int(sec["k"])
        if n != dim:
            raise ConfigError(f"forms.n = {n} does not match the grid dimension {dim}")
        parsed = {}
        for key, val in coeffs.items():
            digits = str(key)
            if digits in ("", "0"):
                idx = ()
            else:
                if not digits.isdigit():
                    raise ConfigError(f"forms.coeffs key must be digits like '13', got {key!r}")
                idx = tuple(int(c) for c in digits)
            text = val if isinstance(val, str) else repr(float(val))
            parsed[idx] = exprmod.parse(text, drivemod.coord_names(n), tuple(params))
        form = formsmod.KForm(n=n, k=n - k - (0 if flag(cfg, "forms.closed") else 1),
                              coeffs=parsed)
    box = sec.get("box")
    return form, k, params, _box(box, n, "forms.box") if box else None


def verify_section(cfg: RunConfig) -> dict:
    sec = dict(cfg.verify)
    residuals = sec.get("residuals", ["divergence"])
    with _malformed("verify"):
        bad = [r for r in residuals if r not in _RESIDUAL_KINDS]
        sec["threshold"] = float(sec.get("threshold", 1e-6))
    if bad:
        raise ConfigError(f"verify.residuals: unknown kind(s) {', '.join(map(repr, bad))}")
    sec["residuals"] = list(residuals)
    sec["energy"] = flag(cfg, "verify.energy")
    return sec


def frobenius_section(cfg: RunConfig, dim: int) -> dict:
    """The frobenius section with its defaults, the anchor as a point and the
    mask as a predicate (or None)."""
    sec = dict(cfg.frobenius)
    sec.setdefault("witness", "auto")
    sec["recover_eta"] = flag(cfg, "frobenius.recover_eta")
    anchor = sec.get("anchor")
    with _malformed("frobenius"):
        sec["anchor"] = tuple(float(v) for v in anchor) if anchor else None
        sec["tol_conservative"] = float(sec.get("tol_conservative", 1e-6))
    if sec["anchor"] is not None and len(sec["anchor"]) != dim:
        raise ConfigError(f"frobenius.anchor must have {dim} coordinates")
    sec["mask"] = mask_predicate(sec.get("mask"), dim)
    return sec


def mask_predicate(expr_text, dim: int):
    """Config mask expressions keep points where the value is positive."""
    if not expr_text:
        return None
    if not isinstance(expr_text, str):
        raise ConfigError(f"mask must be an expression string, got {expr_text!r}")
    e = exprmod.parse(expr_text, drivemod.coord_names(dim))

    def predicate(points):
        jets = exprmod.eval_jets(e, points)
        return ~jets.bad & (jets.val > 0.0)

    return predicate


# ---------------------------------------------------------------------------
# built-in examples
#
# Each entry is a complete config object; --example NAME loads it exactly as
# if the same JSON had been passed via --config.

EXAMPLES: dict = {
    # Rigid-rotation vortex on a fold-crossing box: the synthesized field is
    # (-y, x)/sqrt(R) across tranquil, shooting, and over-speed annuli.
    "shallow-vortex": {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "builtin", "name": "shallow_vortex", "R": 1.0},
        "grid": {"lo": [-1.1, -1.1], "hi": [1.1, 1.1], "cells": [64, 64]},
        "policy": {
            "mode": "region_map",
            "regions": [
                ["2/3 - (x1^2 + x2^2)", 1],
                ["2 - (x1^2 + x2^2)", 2],
            ],
            "default": 3,
            "allow_nonphysical": True,
        },
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 1e-8},
        "output": {"dir": "out"},
    },
    "shallow-vortex-r4": {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "builtin", "name": "shallow_vortex", "R": 4.0},
        "grid": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0], "cells": [64, 64]},
        "policy": {
            "mode": "region_map",
            "regions": [
                ["8/3 - (x1^2 + x2^2)", 1],
                ["8 - (x1^2 + x2^2)", 2],
            ],
            "default": 3,
            "allow_nonphysical": True,
        },
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 1e-8},
        "output": {"dir": "out"},
    },
    # Eta recovery on the shooting annulus 1 <= |x|^2 <= 1.8 of the unit vortex.
    "shallow-annulus-eta": {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "builtin", "name": "shallow_vortex", "R": 1.0},
        "grid": {"lo": [-1.35, -1.35], "hi": [1.35, 1.35], "cells": [312, 312]},
        "policy": {"mode": "prefer_type2", "allow_nonphysical": True},
        "tol": {"eps_phi_prime": 1e-3},
        "frobenius": {
            "witness": "2d",
            "recover_eta": True,
            "mask": "(x1^2 + x2^2 - 1) * (1.8 - x1^2 - x2^2)",
            "tol_conservative": 1e-6,
        },
        "verify": {"residuals": ["divergence"], "threshold": 1e-8},
        "output": {"dir": "out"},
    },
    # Two square-root profiles glued across the unit circle.  On both sides
    # |w| = 1 -+ (r-1)^2/2 + ..., so the seam is C^1: the one-sided derivative
    # mismatch across r = 1 falls from 2.1e-5 to 4.2e-8 over three halvings
    # (scripts/patching_convergence.py, acceptance criterion 04).
    "extremal-patching": {
        "density": {"kind": "extremal"},
        "drive": {"kind": "builtin", "name": "radial_log"},
        "grid": {"lo": [-1.8, -1.8], "hi": [1.8, 1.8], "cells": [96, 96]},
        "policy": {
            "mode": "region_map",
            "regions": [["1 - sqrt(x1^2 + x2^2)", 2]],
            "default": 1,
        },
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 5e-2, "mask": "sqrt(x1^2 + x2^2) - 1.35"},
        "output": {"dir": "out"},
    },
    # Single-branch patching window away from the seam, for residual studies.
    "extremal-patching-study": {
        "density": {"kind": "extremal"},
        "drive": {"kind": "builtin", "name": "radial_log"},
        "grid": {"lo": [1.4, -0.5], "hi": [2.4, 0.5], "cells": [32, 32]},
        "policy": {"mode": "single_branch", "branch": 1},
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 1e-2},
        "output": {"dir": "out"},
    },
    "caustic-tau1": {
        "density": {"kind": "caustic", "tau": 1.0},
        "drive": {"kind": "scalar", "f": "x1^2 * x2^3"},
        "grid": {"lo": [0.3, 0.3], "hi": [1.3, 1.3], "cells": [64, 64]},
        "policy": {"mode": "prefer_type1"},
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 1e-8},
        "output": {"dir": "out"},
    },
    "caustic-tau2": {
        "density": {"kind": "caustic", "tau": 2.0},
        "drive": {"kind": "scalar", "f": "x1^2 * x2^3"},
        "grid": {"lo": [0.4, 0.4], "hi": [0.85, 0.85], "cells": [64, 64]},
        "policy": {"mode": "prefer_type2"},
        "frobenius": {"witness": "2d"},
        "verify": {"residuals": ["divergence"], "threshold": 1e-8},
        "output": {"dir": "out"},
    },
    # Radial inverse-square gradient drive; plus branch is globally admissible.
    "born-infeld-fund": {
        "density": {"kind": "born_infeld"},
        "drive": {"kind": "builtin", "name": "coulomb"},
        "grid": {"lo": [0.7, 0.7, 0.7], "hi": [1.6, 1.6, 1.6], "cells": [24, 24, 24]},
        "policy": {"mode": "single_branch", "branch": 1},
        "tol": {"eps_phi_prime": 1e-3},
        "frobenius": {"witness": "gradient"},
        "verify": {"residuals": ["minor"], "threshold": 1e-2},
        "output": {"dir": "out"},
    },
    # Minus branch lives inside the unit ball and blows up toward r = 1.
    "born-infeld-fund-minus": {
        "density": {"kind": "born_infeld"},
        "drive": {"kind": "builtin", "name": "coulomb"},
        "grid": {"lo": [0.2, 0.2, 0.2], "hi": [0.5, 0.5, 0.5], "cells": [24, 24, 24]},
        "policy": {"mode": "single_branch", "branch": 2},
        "tol": {"eps_phi_prime": 1e-3},
        "frobenius": {"witness": "gradient"},
        "verify": {"residuals": ["minor"], "threshold": 1e-2},
        "output": {"dir": "out"},
    },
    # (n, k) = (2, 1) form synthesis driven by a 0-form stream potential.
    "form-21": {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "scalar", "f": "x1^2 * x2^3 / 8"},
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8], "cells": [32, 32]},
        "policy": {"mode": "prefer_type1"},
        "forms": {"n": 2, "k": 1, "coeffs": {"": "x1^2 * x2^3 / 8"}, "gamma": True},
        "verify": {"residuals": ["codifferential"], "threshold": 1e-2},
        "output": {"dir": "out"},
    },
    "unit-density": {
        "density": {"kind": "custom", "rho": "1", "q_max": 16.0, "name": "unit"},
        "drive": {"kind": "gradient", "dim": 2, "f": "x1"},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "cells": [16, 16]},
        "policy": {"mode": "prefer_type1"},
        "frobenius": {"witness": "gradient"},
        "verify": {"residuals": ["minor"], "threshold": 1e-8, "energy": True},
        "output": {"dir": "out"},
    },
}


def example_config(name: str) -> RunConfig:
    if name not in EXAMPLES:
        known = ", ".join(sorted(EXAMPLES))
        raise ConfigError(f"unknown example {name!r}; available: {known}")
    return parse_config(EXAMPLES[name])
