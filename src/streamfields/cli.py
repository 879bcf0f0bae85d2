"""Command line front end.

Subcommands: synth, singular, frobenius, forms, verify.  Every run is driven
by a JSON config (--config PATH) or a built-in example (--example NAME) and
writes plot-ready CSV / JSON artifacts into --out.  All numeric output uses 17
significant digits and fixed row/column order, so reruns are byte-identical.
CSV files are written in blocks of CSV_BLOCK_ROWS rows, and each distinct value
of a column is formatted once per block; the bytes are the same as formatting
every cell on its own.

A grid with more than config.MAX_GRID_NODES nodes is refused (exit 2) by every
subcommand, and so is a `verify --levels K` study whose finest grid would have
more; K < 1 is refused everywhere.

Exit codes: 0 success, 2 config error, 3 synthesis found no admissible
points, 4 a verification threshold or conservative gate was breached.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import config as cfgmod
from . import drive as drivemod
from . import forms as formsmod
from . import frobenius as frobmod
from . import singular as singmod
from . import verify as verifymod
from .config import ConfigError, RunConfig
from .density import DensityError
from .drive import DriveError, coord_names
from .expr import ExpressionError
from .forms import FormError, multi_indices
from .frobenius import FrobeniusError
from .synth import FieldSolution, GridSpec, REGIME_NAMES, SynthError, synthesize
# Not called here; perfbench/tracer.py wraps this module-level name.
from .synth import synthesize_at_points  # noqa: F401
from .verify import VerifyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_THRESHOLD = 4

_CONFIG_ERRORS = (ConfigError, DensityError, DriveError, SynthError, ExpressionError, FormError,
                  frobmod.WitnessMismatch)


# Rows per block of a CSV file: a block's strings are built in memory and
# written with one call, so the writer holds at most one block at a time.
CSV_BLOCK_ROWS = 1 << 16


def _column_text(kind: str, col) -> list:
    """One block of a column as strings; each distinct value is formatted once.

    Floats are told apart by their bit pattern, not by value: np.unique on
    values merges -0.0 with 0.0, which "%.17g" prints as "-0" and "0".
    """
    if kind == "str":
        return col
    if kind == "float":
        keys = np.asarray(col, dtype=np.float64).view(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        text = ["%.17g" % v for v in uniq.view(np.float64).tolist()]
    else:
        uniq, inv = np.unique(np.asarray(col), return_inverse=True)
        text = [str(int(v)) for v in uniq.tolist()]
    return np.array(text, dtype=object)[inv].tolist()


def _write_csv(path: str, header: list, columns: list) -> None:
    """Columns are (kind, array) with kind in {float, int, str}.

    Floats are written with "%.17g", ints with str(int(v)) and strings as
    they are, one row per line, in blocks of CSV_BLOCK_ROWS rows.
    """
    n = len(columns[0][1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n)
            texts = [_column_text(kind, col[start:stop]) for kind, col in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _float_cols(arr2d: np.ndarray, names: list) -> list:
    return [("float", arr2d[:, i]) for i in range(len(names))]


# ---------------------------------------------------------------------------
# shared build steps


def _load_config(args) -> RunConfig:
    if args.config and args.example:
        raise ConfigError("pass either --config or --example, not both")
    if args.config:
        return cfgmod.load_config(args.config)
    if args.example:
        return cfgmod.example_config(args.example)
    raise ConfigError("one of --config PATH or --example NAME is required")


def _outdir(args, cfg: RunConfig) -> str:
    out = args.out or cfgmod.output_dir(cfg)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return out


def _workers(threads: int, npoints: int) -> int:
    """Synthesis threads for --threads N: at most one per core and one per point."""
    return min(threads, os.cpu_count() or 1, npoints)


def _synth_solution(cfg: RunConfig, grid: GridSpec, threads: int,
                    witness: Optional[str] = None) -> FieldSolution:
    """The configured field on `grid`; a frobenius.witness choice passed as
    `witness` is checked against the drive before anything is synthesized."""
    model = cfgmod.build_model(cfg)
    d = cfgmod.build_drive(cfg)
    if grid.dim != d.dim:
        raise ConfigError(f"grid dimension {grid.dim} != drive dimension {d.dim}")
    if witness is not None:
        frobmod.resolve_witness(witness, d)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    return synthesize(model, d, policy, grid, tol=tol, workers=_workers(threads, grid.npoints()))


def _empty_message(sol: FieldSolution) -> str:
    try:
        rng = drivemod.range_sigma(sol.drive, sol.grid)
        sampled = f"[{rng.lo:.6g}, {rng.hi:.6g}]"
    except DriveError:
        sampled = "(drive undefined at every grid point)"
    images = "; ".join(
        f"branch {b.index} ({b.label}): {b.image}" for b in sol.model.branches())
    return (
        "synthesis produced no admissible points: sampled drive range "
        f"Sigma_f = {sampled} misses every admitted branch image Im(phi): {images}"
    )


def _tail_columns(sol) -> tuple:
    """The Q, regime, branch and flags columns that field.csv and forms.csv end
    with, for a FieldSolution or a FormSolution."""
    regimes = np.array(REGIME_NAMES, dtype=object)[sol.regime].tolist()
    return ["Q", "regime", "branch", "flags"], [
        ("float", sol.Q), ("str", regimes), ("int", sol.branch_id), ("int", sol.flags)]


def _field_columns(sol: FieldSolution) -> tuple:
    n = sol.points.shape[1]
    tail_names, tail_cols = _tail_columns(sol)
    names = list(coord_names(n)) + [f"w{i+1}" for i in range(n)] + tail_names
    cols = _float_cols(sol.points, coord_names(n))
    cols += [("float", sol.w[:, i]) for i in range(n)]
    return names, cols + tail_cols


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    grid = cfgmod.build_grid(cfg)
    sol = _synth_solution(cfg, grid, args.threads)
    if not (sol.branch_id != 0).any():
        print(_empty_message(sol), file=sys.stderr)
        return EXIT_EMPTY
    names, cols = _field_columns(sol)
    _write_csv(os.path.join(out, "field.csv"), names, cols)
    if cfgmod.flag(cfg, "output.json"):
        counts = {REGIME_NAMES[k]: int((sol.regime == k).sum()) for k in range(4)}
        _write_json(os.path.join(out, "summary.json"), {
            "points": int(sol.points.shape[0]),
            "defined": int(sol.defined.sum()),
            "regimes": counts,
        })
    return EXIT_OK


def cmd_singular(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    grid = cfgmod.build_grid(cfg)
    sol = _synth_solution(cfg, grid, args.threads)
    if not (sol.branch_id != 0).any():
        print(_empty_message(sol), file=sys.stderr)
        return EXIT_EMPTY
    report = singmod.classify_solution(sol)
    n = grid.dim
    names = list(coord_names(n)) + ["outside", "gamma0", "gammas", "gammainf", "gammag"]
    cols = _float_cols(sol.points, coord_names(n))
    for mask in (report.omega_f_complement, report.gamma_0, report.gamma_s,
                 report.gamma_inf, report.gamma_g):
        cols.append(("int", mask.reshape(-1).astype(int)))
    _write_csv(os.path.join(out, "masks.csv"), names, cols)
    if n == 2:
        seg_col, x_col, y_col = [], [], []
        for sid, poly in enumerate(report.sonic_contour):
            for x, y in poly:
                seg_col.append(sid)
                x_col.append(x)
                y_col.append(y)
        _write_csv(os.path.join(out, "sonic.csv"),
                   ["segment", "x", "y"],
                   [("int", seg_col), ("float", x_col), ("float", y_col)])
    return EXIT_OK


def _witness_for(choice: str, sol: FieldSolution):
    build = {"2d": frobmod.witness_2d, "nd": frobmod.witness_nd,
             "gradient": frobmod.witness_gradient}
    return build[frobmod.resolve_witness(choice, sol.drive)](sol)


def cmd_frobenius(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    grid = cfgmod.build_grid(cfg)
    fs = cfgmod.frobenius_section(cfg, grid.dim)
    sol = _synth_solution(cfg, grid, args.threads, witness=fs["witness"])
    if not (sol.branch_id != 0).any():
        print(_empty_message(sol), file=sys.stderr)
        return EXIT_EMPTY
    wit = _witness_for(fs["witness"], sol)
    curl = frobmod.curl_residual_grid(wit)
    n = grid.dim
    names = (list(coord_names(n)) + [f"G{i+1}" for i in range(n)]
             + ["defect", "curl_defect"])
    cols = _float_cols(sol.points, coord_names(n))
    cols += [("float", wit.G[:, i]) for i in range(n)]
    cols += [("float", wit.defining_residual), ("float", curl.reshape(-1))]
    _write_csv(os.path.join(out, "witness.csv"), names, cols)

    summary = {
        "kind": wit.kind,
        "max_defining_residual": _nanmax(wit.defining_residual),
        "max_solvability_residual": _nanmax(wit.solvability_residual),
        "max_curl_residual": _nanmax(curl),
    }
    if fs["recover_eta"]:
        mask = fs["mask"](sol.points).reshape(grid.shape()) if fs["mask"] else None
        try:
            rec = frobmod.recover_eta(wit, anchor=fs["anchor"], mask=mask,
                                      tol_conservative=fs["tol_conservative"])
        except FrobeniusError as exc:
            _write_json(os.path.join(out, "frobenius.json"), summary)
            print(f"eta recovery failed: {exc}", file=sys.stderr)
            return EXIT_THRESHOLD
        eta_names = list(coord_names(n)) + ["eta"]
        eta_cols = _float_cols(sol.points, coord_names(n))
        eta_cols.append(("float", rec.eta.reshape(-1)))
        _write_csv(os.path.join(out, "eta.csv"), eta_names, eta_cols)
        summary["eta"] = {
            "anchor": [float(v) for v in rec.anchor],
            "curl_gate": float(rec.curl_gate),
            "loop_max": float(rec.loop_max),
            "post_residual": float(rec.post_residual),
            "unreached": rec.unreached,
        }
    _write_json(os.path.join(out, "frobenius.json"), summary)
    return EXIT_OK


def _nanmax(arr) -> Optional[float]:
    arr = np.asarray(arr, dtype=float)
    finite = arr[np.isfinite(arr)]
    return float(finite.max()) if finite.size else None


# The forms builder lives in config; perfbench/setup_probe.py and
# perfbench/tracer.py reach it through this module-level name.
_build_form = cfgmod.build_form


def _form_solution(cfg: RunConfig, grid: GridSpec) -> tuple:
    """The forms section synthesized on `grid`, as (the config's form, its
    FormSolution).  A closed form (forms.closed) is the raw form itself, checked
    for closure on forms.box, or on the grid's box when that is unset."""
    model = cfgmod.build_model(cfg)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    f, _, params, box = _build_form(cfg, grid.dim)
    pts = grid.points()
    if cfgmod.flag(cfg, "forms.closed"):
        return f, formsmod.synthesize_form_closed(model, f, policy, pts, box or (grid.lo, grid.hi),
                                                  tol=tol, params=params)
    return f, formsmod.synthesize_form(model, f, policy, pts, tol=tol, params=params)


def cmd_forms(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    grid = cfgmod.build_grid(cfg)
    gamma = cfgmod.flag(cfg, "forms.gamma")
    f, fsol = _form_solution(cfg, grid)
    pts = fsol.points
    if not (fsol.branch_id != 0).any():
        print("form synthesis produced no admissible points: sampled |df|^2 misses "
              "every admitted branch image Im(phi)", file=sys.stderr)
        return EXIT_EMPTY
    n = grid.dim
    idxs = multi_indices(n, fsol.k)
    names = list(coord_names(n))
    cols = _float_cols(pts, coord_names(n))
    for idx in idxs:
        label = "".join(str(i) for i in idx) or "0"
        names.append(f"omega_{label}")
        cols.append(("float", fsol.omega.coeffs.get(idx, np.zeros(pts.shape[0]))))
    tail_names, tail_cols = _tail_columns(fsol)
    _write_csv(os.path.join(out, "forms.csv"), names + tail_names, cols + tail_cols)

    if gamma:
        gw = formsmod.gamma_witness(fsol.model, f, fsol)
        gnames = list(coord_names(n)) + [f"Gamma{i+1}" for i in range(n)] + [
            "defect", "frobenius_defect"]
        gcols = _float_cols(pts, coord_names(n))
        gcols += [("float", gw.Gamma[:, i]) for i in range(n)]
        gcols += [("float", gw.defect), ("float", gw.frobenius_defect)]
        _write_csv(os.path.join(out, "gamma.csv"), gnames, gcols)
    return EXIT_OK


def _refined(grid: GridSpec, factor: int) -> GridSpec:
    return GridSpec(lo=grid.lo, hi=grid.hi, cells=tuple(c * factor for c in grid.cells))


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    base = cfgmod.build_grid(cfg)
    vs = cfgmod.verify_section(cfg)
    levels = args.levels
    # Counted before any grid is built; an exponent of 64 already exceeds the
    # budget, so capping it keeps a huge K cheap to reject.
    finest = math.prod(c * 2 ** min(levels - 1, 64) + 1 for c in base.cells)
    if finest > cfgmod.MAX_GRID_NODES:
        raise ConfigError(f"--levels {levels} asks for a finest grid of more than "
                          f"{cfgmod.MAX_GRID_NODES} nodes")
    grids = [_refined(base, 2 ** i) for i in range(levels)]
    mask_pred = cfgmod.mask_predicate(vs.get("mask"), base.dim)
    fs = cfgmod.frobenius_section(cfg, base.dim)
    witness = fs["witness"] if {"frobenius", "exactness"} & set(vs["residuals"]) else None

    reports = []
    energy_value = None
    sol_cache: dict = {}

    def sol_on(grid: GridSpec) -> FieldSolution:
        if grid.cells not in sol_cache:
            sol_cache[grid.cells] = _synth_solution(cfg, grid, args.threads, witness)
        return sol_cache[grid.cells]

    def extra_bad_on(grid: GridSpec):
        if mask_pred is None:
            return None
        return ~mask_pred(grid.points())

    def exactness(grid: GridSpec):
        sol = sol_on(grid)
        wit = _witness_for(fs["witness"], sol)
        mask = fs["mask"](sol.points).reshape(grid.shape()) if fs["mask"] else None
        rec = frobmod.recover_eta(wit, mask=mask, tol_conservative=fs["tol_conservative"])
        return verifymod.exactness_residual(sol, rec.eta, system=wit.kind)

    # residual kind -> residual report on one grid; config.verify_section has
    # already rejected every other kind
    residual_on = {
        "divergence": lambda grid: verifymod.divergence_residual(
            sol_on(grid), extra_bad=extra_bad_on(grid)),
        "minor": lambda grid: verifymod.minor_residual(sol_on(grid), extra_bad=extra_bad_on(grid)),
        "frobenius": lambda grid: verifymod.frobenius_residual(
            sol_on(grid), _witness_for(fs["witness"], sol_on(grid))),
        "exactness": exactness,
        "codifferential": lambda grid: verifymod.codifferential_residual(
            _form_solution(cfg, grid)[1], grid),
    }

    for kind in vs["residuals"]:
        make = residual_on[kind]
        if levels > 1:
            reports.append(verifymod.convergence_study(make, grids))
        else:
            reports.append(make(grids[0]))

    if vs["energy"]:
        sol = sol_on(grids[-1])
        energy_value = verifymod.energy(sol.model, sol, mask=mask_pred)

    threshold = vs["threshold"]
    passed = all(np.isfinite(r.max_norm) and r.max_norm < threshold for r in reports)
    _write_json(os.path.join(out, "report.json"), {
        "reports": [r.to_json_dict() for r in reports],
        "energy": energy_value,
        "threshold": threshold,
        "passed": bool(passed),
    })
    return EXIT_OK if passed else EXIT_THRESHOLD


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON run config")
    p.add_argument("--example", metavar="NAME",
                   help="built-in example name (see README for the list)")
    p.add_argument("--out", metavar="DIR", default=None, help="output directory")
    p.add_argument("--levels", metavar="K", type=int, default=1,
                   help="refinement levels for convergence studies (verify; the finest "
                        f"grid may have at most {cfgmod.MAX_GRID_NODES} nodes)")
    p.add_argument("--threads", metavar="N", type=int, default=1,
                   help="worker threads for point-parallel synthesis (at most one per core)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfields",
        description="synthesize, classify, and verify density-weighted stream fields")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "synth": (cmd_synth, "synthesize w on a grid and write field.csv"),
        "singular": (cmd_singular, "write singular-set masks and the sonic contour"),
        "frobenius": (cmd_frobenius, "compute the integrability witness G (and eta)"),
        "forms": (cmd_forms, "synthesize a k-form field and write forms.csv"),
        "verify": (cmd_verify, "finite-difference residual reports and energy"),
    }
    for name, (fn, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=fn)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.levels < 1:
            raise ConfigError(f"--levels must be at least 1, got {args.levels}")
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerifyError as exc:
        print(f"verification could not run: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FrobeniusError as exc:
        print(f"integrability check failed: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD


if __name__ == "__main__":
    sys.exit(main())
