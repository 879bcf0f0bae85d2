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
points, 4 a verification threshold or conservative gate was breached.  A
subcommand returns EXIT_OK or raises: a config error, or an _Exit that carries
its code and reason.  `main` is the only place that prints a reason (to
stderr) and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import config as cfgmod
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
from .synth import (FLAG_DRIVE_UNDEFINED, FieldSolution, GridSpec, REGIME_NAMES, SynthError,
                    synthesize)
# Not called here; perfbench/tracer.py wraps this module-level name.
from .synth import synthesize_at_points  # noqa: F401
from .verify import VerifyError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_THRESHOLD = 4

_CONFIG_ERRORS = (ConfigError, DensityError, DriveError, SynthError, ExpressionError, FormError,
                  frobmod.WitnessMismatch)


class _Exit(Exception):
    """An outcome other than success: `main` prints the reason and returns the code."""

    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code = code


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


def _write_table(out: str, name: str, points: np.ndarray, triples: list) -> None:
    """Write out/name: the coordinate columns of `points`, then one column per
    (header, kind, column) triple."""
    coords = [(c, "float", points[:, i]) for i, c in enumerate(coord_names(points.shape[1]))]
    cols = coords + triples
    _write_csv(os.path.join(out, name), [c[0] for c in cols], [c[1:] for c in cols])


# ---------------------------------------------------------------------------
# shared build steps


def _setup(args) -> tuple:
    """(config, output directory, grid) of a subcommand; the directory is made here."""
    if args.config and args.example:
        raise ConfigError("pass either --config or --example, not both")
    if args.config:
        cfg = cfgmod.load_config(args.config)
    elif args.example:
        cfg = cfgmod.example_config(args.example)
    else:
        raise ConfigError("one of --config PATH or --example NAME is required")
    out = args.out or cfgmod.output_dir(cfg)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return cfg, out, cfgmod.build_grid(cfg)


def _workers(threads: int, npoints: int) -> int:
    """Synthesis threads for --threads N: at most one per core and one per point."""
    return min(threads, os.cpu_count() or 1, npoints)


def _synth_solution(cfg: RunConfig, grid: GridSpec, threads: int,
                    witness: Optional[str] = None) -> FieldSolution:
    """The configured field on `grid`; a frobenius.witness choice passed as
    `witness` is checked against the drive before anything is synthesized.
    Exit 3 when no point is admitted, with the sampled range of xi = |a|^2."""
    model = cfgmod.build_model(cfg)
    d = cfgmod.build_drive(cfg)
    if witness is not None:
        frobmod.resolve_witness(witness, d)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    sol = synthesize(model, d, policy, grid, tol=tol, workers=_workers(threads, grid.npoints()))
    _require_admitted(sol, "synthesis", "drive range Sigma_f")
    return sol


def _require_admitted(sol, what: str, sampled: str) -> None:
    """Exit 3 when no point of `sol` (a FieldSolution or a FormSolution) is
    admitted, with the sampled range of its xi and every branch image."""
    if (sol.branch_id != 0).any():
        return
    xi = sol.xi[(sol.flags & FLAG_DRIVE_UNDEFINED) == 0]
    span = f"[{xi.min():.6g}, {xi.max():.6g}]" if xi.size else "(drive undefined at every grid point)"
    images = "; ".join(f"branch {b.index} ({b.label}): {b.image}" for b in sol.model.branches())
    raise _Exit(EXIT_EMPTY, f"{what} produced no admissible points: sampled {sampled} = {span} "
                f"misses every admitted branch image Im(phi): {images}")


def _tail_columns(sol) -> list:
    """The Q, regime, branch and flags columns that field.csv and forms.csv end
    with, for a FieldSolution or a FormSolution."""
    regimes = np.array(REGIME_NAMES, dtype=object)[sol.regime].tolist()
    return [("Q", "float", sol.Q), ("regime", "str", regimes), ("branch", "int", sol.branch_id),
            ("flags", "int", sol.flags)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg, out, grid = _setup(args)
    sol = _synth_solution(cfg, grid, args.threads)
    _write_table(out, "field.csv", sol.points,
                 [(f"w{i+1}", "float", sol.w[:, i]) for i in range(grid.dim)] + _tail_columns(sol))
    if cfgmod.flag(cfg, "output.json"):
        counts = {REGIME_NAMES[k]: int((sol.regime == k).sum()) for k in range(4)}
        _write_json(os.path.join(out, "summary.json"), {
            "points": int(sol.points.shape[0]),
            "defined": int(sol.defined.sum()),
            "regimes": counts,
        })
    return EXIT_OK


def cmd_singular(args) -> int:
    cfg, out, grid = _setup(args)
    sol = _synth_solution(cfg, grid, args.threads)
    report = singmod.classify_solution(sol)
    masks = (("outside", report.omega_f_complement), ("gamma0", report.gamma_0),
             ("gammas", report.gamma_s), ("gammainf", report.gamma_inf),
             ("gammag", report.gamma_g))
    _write_table(out, "masks.csv", sol.points,
                 [(name, "int", mask.reshape(-1).astype(int)) for name, mask in masks])
    if grid.dim == 2:
        polys = report.sonic_contour
        xy = np.concatenate([np.reshape(p, (-1, 2)) for p in polys] or [np.empty((0, 2))])
        seg = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
        _write_csv(os.path.join(out, "sonic.csv"), ["segment", "x", "y"],
                   [("int", seg), ("float", xy[:, 0]), ("float", xy[:, 1])])
    return EXIT_OK


def _witness_for(choice: str, sol: FieldSolution):
    build = {"2d": frobmod.witness_2d, "nd": frobmod.witness_nd,
             "gradient": frobmod.witness_gradient}
    return build[frobmod.resolve_witness(choice, sol.drive)](sol)


def cmd_frobenius(args) -> int:
    cfg, out, grid = _setup(args)
    fs = cfgmod.frobenius_section(cfg, grid.dim)
    sol = _synth_solution(cfg, grid, args.threads, witness=fs["witness"])
    wit = _witness_for(fs["witness"], sol)
    curl = frobmod.curl_residual_grid(wit)
    _write_table(out, "witness.csv", sol.points,
                 [(f"G{i+1}", "float", wit.G[:, i]) for i in range(grid.dim)]
                 + [("defect", "float", wit.defining_residual),
                    ("curl_defect", "float", curl.reshape(-1))])

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
            raise _Exit(EXIT_THRESHOLD, f"eta recovery failed: {exc}") from exc
        _write_table(out, "eta.csv", sol.points, [("eta", "float", rec.eta.reshape(-1))])
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
    for closure on forms.box, or on the grid's box when that is unset.  Exit 3
    when no point is admitted."""
    model = cfgmod.build_model(cfg)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    f, _, params, box = _build_form(cfg, grid.dim)
    pts = grid.points()
    closed = cfgmod.flag(cfg, "forms.closed")
    if closed:
        fsol = formsmod.synthesize_form_closed(model, f, policy, pts, box or (grid.lo, grid.hi),
                                               tol=tol, params=params)
    else:
        fsol = formsmod.synthesize_form(model, f, policy, pts, tol=tol, params=params)
    _require_admitted(fsol, "form synthesis", "|alpha|^2" if closed else "|df|^2")
    return f, fsol


def cmd_forms(args) -> int:
    cfg, out, grid = _setup(args)
    gamma = cfgmod.flag(cfg, "forms.gamma")
    f, fsol = _form_solution(cfg, grid)
    zeros = np.zeros(fsol.points.shape[0])
    _write_table(out, "forms.csv", fsol.points,
                 [(f"omega_{''.join(map(str, idx)) or '0'}", "float",
                   fsol.omega.coeffs.get(idx, zeros)) for idx in multi_indices(grid.dim, fsol.k)]
                 + _tail_columns(fsol))
    if gamma:
        gw = formsmod.gamma_witness(fsol.model, f, fsol)
        _write_table(out, "gamma.csv", fsol.points,
                     [(f"Gamma{i+1}", "float", gw.Gamma[:, i]) for i in range(grid.dim)]
                     + [("defect", "float", gw.defect),
                        ("frobenius_defect", "float", gw.frobenius_defect)])
    return EXIT_OK


def _refined(grid: GridSpec, factor: int) -> GridSpec:
    return GridSpec(lo=grid.lo, hi=grid.hi, cells=tuple(c * factor for c in grid.cells))


def cmd_verify(args) -> int:
    cfg, out, base = _setup(args)
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

    # one solution and at most one witness per grid, shared by every residual kind
    @functools.cache
    def sol_on(grid: GridSpec) -> FieldSolution:
        return _synth_solution(cfg, grid, args.threads, witness)

    @functools.cache
    def witness_on(grid: GridSpec):
        return _witness_for(fs["witness"], sol_on(grid))

    def extra_bad_on(grid: GridSpec):
        if mask_pred is None:
            return None
        return ~mask_pred(grid.points())

    def exactness(grid: GridSpec):
        sol, wit = sol_on(grid), witness_on(grid)
        mask = fs["mask"](sol.points).reshape(grid.shape()) if fs["mask"] else None
        rec = frobmod.recover_eta(wit, mask=mask, tol_conservative=fs["tol_conservative"])
        return verifymod.exactness_residual(sol, rec.eta, system=wit.kind,
                                            extra_bad=extra_bad_on(grid))

    # residual kind -> residual report on one grid; config.verify_section has
    # already rejected every other kind
    residual_on = {
        "divergence": lambda grid: verifymod.divergence_residual(
            sol_on(grid), extra_bad=extra_bad_on(grid)),
        "minor": lambda grid: verifymod.minor_residual(sol_on(grid), extra_bad=extra_bad_on(grid)),
        "frobenius": lambda grid: verifymod.frobenius_residual(
            sol_on(grid), witness_on(grid), extra_bad=extra_bad_on(grid)),
        "exactness": exactness,
        "codifferential": lambda grid: verifymod.codifferential_residual(
            _form_solution(cfg, grid)[1], grid, extra_bad=extra_bad_on(grid)),
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
    breached = [r for r in reports if not (np.isfinite(r.max_norm) and r.max_norm < threshold)]
    _write_json(os.path.join(out, "report.json"), {
        "reports": [r.to_json_dict() for r in reports],
        "energy": energy_value,
        "threshold": threshold,
        "passed": not breached,
    })
    if breached:
        kinds = ", ".join(f"{r.kind} (max_norm {r.max_norm:.6g})" for r in breached)
        raise _Exit(EXIT_THRESHOLD, f"verification threshold {threshold:g} breached by {kinds}")
    return EXIT_OK


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
        outcome = _Exit(EXIT_CONFIG, f"config error: {exc}")
    except VerifyError as exc:
        outcome = _Exit(EXIT_CONFIG, f"verification could not run: {exc}")
    except FrobeniusError as exc:
        outcome = _Exit(EXIT_THRESHOLD, f"integrability check failed: {exc}")
    except _Exit as exc:
        outcome = exc
    print(outcome, file=sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
