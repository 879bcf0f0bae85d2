"""Run configuration: JSON schema, validation, and built-in example registry.

A run config is a plain JSON object with one section per concern.  `_SCHEMA`
gives every key its type, and `parse_config` checks every value against it
once: unknown sections or keys are rejected so typos fail loudly, no string
stands for a number, and JSON null reads as unset.  The section builders read
the typed values; an unset key that a builder needs is a ConfigError.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import field, fields, make_dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional

from . import density as densmod
from . import drive as drivemod
from . import expr as exprmod
from . import forms as formsmod
from .synth import BranchPolicy, GridSpec, Tolerances, prefer_type1, prefer_type2, region_map, single_branch


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema
#
# A reader takes a JSON value and the key it stands at ("section.name") and
# returns the typed value.  It raises TypeError when the value is not of its
# type, and a ConfigError of its own for a NaN or an infinity.


def _number(v, where: str) -> float:
    if type(v) not in (int, float):
        raise TypeError
    if not abs(v) <= sys.float_info.max:  # NaN, an infinity, or an integer too large for a float
        raise ConfigError(f"{where} must hold finite numbers, got {v!r}")
    return float(v)


def _fits(ok: Callable) -> Callable:
    """Reader of a value that `ok` accepts, as it is."""
    def read(v, where: str):
        if not ok(v):
            raise TypeError
        return v
    return read


# type(v) is int: a boolean is not an integer
_integer, _string = _fits(lambda v: type(v) is int), _fits(lambda v: type(v) is str)
_digits = _fits(lambda v: type(v) is str and v.isascii() and v.isdigit())


def _list(item: Callable, nonempty: bool = False) -> Callable:
    def read(v, where: str) -> tuple:
        if type(v) not in (list, tuple) or (nonempty and not v):
            raise TypeError
        return tuple(item(x, where) for x in v)
    return read


def _pair(first: Callable, second: Callable) -> Callable:
    def read(v, where: str) -> tuple:
        if type(v) not in (list, tuple) or len(v) != 2:
            raise TypeError
        return first(v[0], where), second(v[1], where)
    return read


def _object(item: Callable, key: Callable = _string, nonempty: bool = False) -> Callable:
    def read(v, where: str) -> dict:
        if not isinstance(v, Mapping) or (nonempty and not v):
            raise TypeError
        return {key(k, where): item(x, where) for k, x in v.items()}
    return read


def _index(size: Optional[int] = None) -> Callable:
    """Reader of a multi-index key: digits like '13' for (1, 3), and '' or '0'
    for the empty index; `size` digits exactly, when given."""
    def read(key, where: str) -> tuple:
        idx = () if key in ("", "0") else tuple(map(int, _digits(key, where)))
        if size not in (None, len(idx)):
            raise TypeError
        return idx
    return read


class _Type(NamedTuple):
    what: str  # the type, as config error messages name it
    read: Callable


_RESIDUAL_KINDS = ("divergence", "minor", "frobenius", "exactness", "codifferential")

NUMBER = _Type("a number", _number)
INTEGER = _Type("an integer", _integer)
SWITCH = _Type("true or false", _fits(lambda v: type(v) is bool))
STRING = _Type("a string", _string)
EXPRESSION = _Type("an expression string", _string)
POINT = _Type("a point, a non-empty list of numbers", _list(_number, nonempty=True))
BOX = _Type("a box [lo, hi] of two points", _pair(POINT.read, POINT.read))
PARAMS = _Type("an object of numbers", _object(_number))

_SCHEMA = {
    "density": {"kind": STRING, "tau": NUMBER, "rho": EXPRESSION, "q_min": NUMBER,
                "q_max": NUMBER, "name": STRING},
    "drive": {
        "kind": STRING, "name": STRING, "R": NUMBER, "f": EXPRESSION, "dim": INTEGER,
        "entries": _Type("an object of expression strings keyed by two digits like '12'",
                         _object(_string, key=_index(2))),
        "components": _Type("a list of expression strings", _list(_string)),
        "closure": STRING, "box": BOX, "params": PARAMS,
    },
    "grid": {"lo": POINT, "hi": POINT,
             "cells": _Type("a non-empty list of integers", _list(_integer, nonempty=True))},
    "policy": {
        "mode": STRING, "branch": INTEGER, "default": INTEGER, "allow_nonphysical": SWITCH,
        "regions": _Type("a list of [expression string, integer] pairs",
                         _list(_pair(_string, _integer))),
    },
    "tol": dict.fromkeys((f.name for f in fields(Tolerances)), NUMBER),
    "frobenius": {"witness": STRING, "recover_eta": SWITCH, "anchor": POINT,
                  "tol_conservative": NUMBER, "mask": EXPRESSION},
    "forms": {
        "n": INTEGER, "k": INTEGER, "params": PARAMS, "closed": SWITCH, "box": BOX,
        "gamma": SWITCH,
        # a number coefficient is read as the expression that prints it
        "coeffs": _Type("a non-empty object of expression strings or numbers keyed by digits "
                        "like '13'", _object(lambda v, where: v if type(v) is str
                                             else repr(_number(v, where)),
                                             key=_index(), nonempty=True)),
    },
    "verify": {
        "residuals": _Type(f"a non-empty list of residual kinds ({', '.join(_RESIDUAL_KINDS)})",
                           _list(_fits(lambda v: v in _RESIDUAL_KINDS), nonempty=True)),
        "threshold": NUMBER, "energy": SWITCH, "mask": EXPRESSION,
    },
    "output": {"dir": STRING, "json": SWITCH},
}


class Section(dict):
    """A parsed config section, key -> typed value; sec[key] of an unset key is a ConfigError."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, key: str):
        raise ConfigError(f"{self.name}.{key} is required")


# one field per section; parse_config fills each with a Section
RunConfig = make_dataclass("RunConfig", [(s, dict, field(default_factory=dict)) for s in _SCHEMA],
                           frozen=True)


def _read_section(name: str, data: Mapping[str, Any]) -> Section:
    if not isinstance(data, Mapping):
        raise ConfigError(f"section {name!r} must be an object")
    types = _SCHEMA[name]
    extra = sorted(set(data) - set(types))
    if extra:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(extra)}")
    sec = Section(name)
    for key, val in data.items():
        if val is not None:
            try:
                sec[key] = types[key].read(val, f"{name}.{key}")
            except TypeError:
                raise ConfigError(f"{name}.{key} must be {types[key].what}, got {val!r}") from None
    return sec


def parse_config(data: Mapping[str, Any]) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a JSON object")
    extra = sorted(set(data) - set(_SCHEMA))
    if extra:
        raise ConfigError(f"unknown config section(s): {', '.join(extra)}")
    return RunConfig(**{name: _read_section(name, data.get(name, {})) for name in _SCHEMA})


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


def output_section(cfg: RunConfig) -> dict:
    """output.dir ("out" when unset) and output.json (false when unset)."""
    return {"dir": cfg.output.get("dir", "out"), "json": cfg.output.get("json", False)}


def build_model(cfg: RunConfig) -> densmod.DensityModel:
    sec = cfg.density
    kind = sec["kind"]
    if kind in ("shallow_water", "extremal", "born_infeld"):  # models without parameters
        return getattr(densmod, kind)()
    if kind == "caustic":
        return densmod.caustic(sec["tau"])
    if kind == "custom":
        optional = {k: sec[k] for k in ("q_min", "q_max", "name") if k in sec}
        return densmod.custom(sec["rho"], **optional)
    raise ConfigError(f"unknown density.kind {kind!r}")


def build_drive(cfg: RunConfig):
    sec = cfg.drive
    kind = sec["kind"]
    params = sec.get("params", {})
    if kind == "builtin":
        builtins = {"radial_log": drivemod.radial_log, "coulomb": drivemod.coulomb,
                    "shallow_vortex": lambda: drivemod.shallow_vortex(sec.get("R", 1.0))}
        if sec["name"] not in builtins:
            raise ConfigError(f"unknown builtin drive {sec['name']!r}")
        return builtins[sec["name"]]()
    if kind == "scalar":
        return drivemod.scalar_drive(sec["f"], params)
    if kind == "skew":
        return drivemod.skew_drive(sec["dim"], sec["entries"], params)
    if kind == "gradient":
        return drivemod.gradient_drive(sec["dim"], sec["f"], params)
    if kind == "raw":
        dim = sec["dim"]
        return drivemod.raw_drive(dim, sec["components"], sec["closure"],
                                  _box(sec["box"], dim, "drive.box"), params)
    raise ConfigError(f"unknown drive.kind {kind!r}")


# Nodes any grid may have, the finest of a `verify --levels K` study included:
# over four times the 97^3 = 912,673 nodes of a 3D shipped example at --levels 3.
MAX_GRID_NODES = 1 << 22


def build_grid(cfg: RunConfig) -> GridSpec:
    sec = cfg.grid
    grid = GridSpec(lo=sec["lo"], hi=sec["hi"], cells=sec["cells"])
    if math.prod(grid.shape()) > MAX_GRID_NODES:
        raise ConfigError(f"grid: cells {list(grid.cells)} give more than {MAX_GRID_NODES} nodes")
    return grid


def build_policy(cfg: RunConfig, dim: int) -> BranchPolicy:
    sec = cfg.policy
    mode = sec.get("mode", "prefer_type1")
    allow = sec.get("allow_nonphysical", False)
    if mode in ("prefer_type1", "prefer_type2"):
        return (prefer_type1 if mode == "prefer_type1" else prefer_type2)(allow)
    if mode == "single_branch":
        return single_branch(sec["branch"], allow)
    if mode == "region_map":
        return region_map(sec["regions"], sec["default"], dim=dim, allow_nonphysical=allow)
    raise ConfigError(f"unknown policy.mode {mode!r}")


def build_tol(cfg: RunConfig) -> Tolerances:
    return Tolerances(**cfg.tol)


def _box(box: tuple, n: int, key: str) -> tuple:
    """The box `key`, (lo, hi) as the schema read it, once both have dimension n and lo < hi."""
    lo, hi = box
    if len(lo) != n or len(hi) != n or not all(a < b for a, b in zip(lo, hi)):
        raise ConfigError(
            f"{key} must be [lo, hi], two points of dimension {n} with lo < hi, got {box!r}")
    return box


# The forms section.  `form` is the drive form: alpha of degree n - k when
# `closed`, else the stream form f of degree n - k - 1, where k (forms.k) is the
# degree of omega.  `box` = (lo, hi) of the closure check, None when unset.
FormSpec = NamedTuple("FormSpec", [("form", formsmod.KForm), ("params", dict),
                                   ("box", Optional[tuple]), ("closed", bool), ("gamma", bool)])


def build_form(cfg: RunConfig, dim: int) -> FormSpec:
    sec = cfg.forms
    n, k, params = sec["n"], sec["k"], sec.get("params", {})
    if n != dim:
        raise ConfigError(f"forms.n = {n} does not match the grid dimension {dim}")
    names = formsmod.form_names(n)
    coeffs = {idx: exprmod.parse(text, names, tuple(params)) for idx, text in sec["coeffs"].items()}
    closed = sec.get("closed", False)
    box = sec.get("box")
    return FormSpec(formsmod.KForm(n=n, k=n - k - (0 if closed else 1), coeffs=coeffs), params,
                    box and _box(box, n, "forms.box"), closed, sec.get("gamma", False))


def verify_section(cfg: RunConfig) -> dict:
    """The verify section with its defaults; the mask is an expression string or None."""
    sec = cfg.verify
    if "codifferential" in sec.get("residuals", ()) and not cfg.forms:
        raise ConfigError("verify.residuals lists codifferential, which needs a forms section")
    return {"residuals": sec.get("residuals", ("divergence",)),
            "threshold": sec.get("threshold", 1e-6), "energy": sec.get("energy", False),
            "mask": sec.get("mask")}


def frobenius_section(cfg: RunConfig, dim: int) -> dict:
    """The frobenius section with its defaults, and the mask as a predicate (or None)."""
    sec = cfg.frobenius
    anchor = sec.get("anchor")
    if anchor is not None and len(anchor) != dim:
        raise ConfigError(f"frobenius.anchor must have {dim} coordinates")
    return {"witness": sec.get("witness", "auto"), "recover_eta": sec.get("recover_eta", False),
            "anchor": anchor, "tol_conservative": sec.get("tol_conservative", 1e-6),
            "mask": mask_predicate(sec.get("mask"), dim)}


def mask_predicate(expr_text: Optional[str], dim: int):
    """Config mask expressions keep points where the value is positive."""
    if not expr_text:
        return None
    e = exprmod.parse(expr_text, drivemod.coord_names(dim))

    def predicate(points):
        jets = exprmod.eval_jets(e, points, order=0)
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
