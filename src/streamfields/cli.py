"""Command line front end.

Subcommands: synth, singular, frobenius, forms, verify.  Every run is driven
by a JSON config (--config PATH) or a built-in example (--example NAME) and
writes plot-ready CSV / JSON artifacts into --out.  All numeric output uses 17
significant digits and fixed row/column order, so reruns are byte-identical.
CSV files are written in blocks of CSV_BLOCK_ROWS rows.  Each distinct value
of a column is formatted once per block, with its trailing "," or newline, and
a block is written with one join of its cells; the bytes are the same as
formatting every cell on its own.

A float is written as Python's "%.17g" % v writes it.  A block column with at
least ARRAY_FORMAT_MIN distinct floats formats them with array arithmetic
(_format_floats): each |v| is scaled by a power of ten in long double and
rounded to 17 digits, and a digit string is kept only when the long double
error bound proves that rounding is the correctly rounded one.  The values
it cannot prove (about 2% of them: near-ties, the edges of a decade, zeros,
infinities and NaNs, or every value where long double is no wider than a
double) and every smaller column go through "%.17g" itself, so the bytes are
those of "%.17g" either way.

A grid with more than config.MAX_GRID_NODES nodes is refused (exit 2) by every
subcommand, and so is a `verify --levels K` study whose finest grid would have
more, or that has K = 2 levels, too few for its order fit; K < 1 is refused
everywhere.

Exit codes: 0 success, 2 config error, 3 synthesis found no admissible
points, 4 a verification threshold or conservative gate was breached.  A
subcommand returns EXIT_OK or raises: a config error, or an _Exit that carries
its code and reason.  `main` is the only place that prints a reason (to
stderr) and picks the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Callable, Optional

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
                    nested_index, synthesize)
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

# A block column with fewer distinct floats than this formats them with
# Python's "%.17g" alone, since the array formatter has a fixed cost per call.
# Timed against Python on 256 to 2048 normal or grid-spaced values, it broke
# even between 512 and 768 values and was 1.25-1.4x faster at 1024.
ARRAY_FORMAT_MIN = 1024

# Decimal exponents X of finite nonzero doubles, and the scales 10^(16 - X)
# that bring each to 17 integer digits.
_X_MIN, _X_MAX = -324, 308


def _pow10_longdouble(k: int) -> np.longdouble:
    """10^k rounded to the nearest long double (ties to even), from exact integers."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    p = np.finfo(np.longdouble).nmant + 1
    e = num.bit_length() - den.bit_length() - p
    num, den = (num, den << e) if e >= 0 else (num << -e, den)
    if num >= den << p:
        den, e = den << 1, e + 1
    m, r = divmod(num, den)
    m += 2 * r > den or (2 * r == den and m & 1)
    with np.errstate(over="ignore"):  # past the double range where long double is double
        return np.ldexp(np.longdouble(m), e)


def _error_bound(eps) -> np.longdouble:
    """2u(1 + u)·1e17 with u = eps/2: the error of |v|·10^k below 1e17 in a
    float type whose machine epsilon is `eps`, from one rounding of the scale
    10^k and one of the product."""
    u = np.longdouble(eps) / 2
    return 2 * u * (1 + u) * np.longdouble(1e17)


@functools.cache
def _float_tables() -> tuple:
    """(scales, bound, quads), built on first use: scales[X - _X_MIN] is
    10^(16 - X) in long double, within half an ulp; bound is _error_bound of
    long double; quads[i] is the four ASCII digits of i as one uint32."""
    scales = np.array([_pow10_longdouble(16 - x) for x in range(_X_MIN, _X_MAX + 1)])
    quads = np.frombuffer("".join("%04d" % i for i in range(10000)).encode(), np.uint32)
    return scales, _error_bound(np.finfo(np.longdouble).eps), quads


def _percent_17g(v: np.ndarray, sep: str) -> list:
    """"%.17g" % x followed by `sep` for every float64 x of `v`, one Python
    format per value."""
    fmt = "%.17g" + sep
    return [fmt % x for x in v.tolist()]


def _proven_digits(a: np.ndarray) -> tuple:
    """(ok, N, X) for float64 magnitudes `a`: where ok, the correctly rounded
    17-significant-digit decimal of a is the int64 N (in [1e16, 1e17)) times
    10^(X - 16); elsewhere N is 0.

    y = a·10^(16 - X) in long double is within `bound` of the exact product,
    so N = rint(y) is proven when y is farther than `bound` from a half
    integer and 1e16 + bound <= y with N < 1e17.  Every other value (zero,
    inf, nan, a near-tie, a value at the 1e16 or 1e17 edge) has ok False.
    The comparisons stay in long double: in float64, 1e16 + bound == 1e16.
    """
    scales, bound, _ = _float_tables()
    ok = np.isfinite(a) & (a > 0)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = a.astype(np.longdouble) * scales[X - _X_MIN]
        N = np.rint(y)
        ok &= ((np.abs(y - N) < np.longdouble(0.5) - bound)
               & (y >= np.longdouble(1e16) + bound) & (N < np.longdouble(10 ** 17)))
    return ok, np.where(ok, N, 0).astype(np.int64), X


# Layout groups of proven values: key = (sign·_SPAN + X - _X_MIN)·17 + the
# index of the last nonzero digit, below 2^16.
_SPAN = _X_MAX - _X_MIN + 1


def _layout_groups(v: np.ndarray) -> tuple:
    """(rest, at, key, digits) for float64 `v`: `rest` indexes the values
    _proven_digits cannot prove; `at` the proven ones, ordered by layout key
    `key`; digits[i] holds the 17 ASCII digits of v[at[i]] in columns 3..19."""
    ok, N, X = _proven_digits(np.abs(v))
    at = np.flatnonzero(ok)
    n = at.size
    # a lead digit and four quads of four digits
    digits = np.empty((n, 20), np.uint8)
    quad = digits[:, 4:].view(np.uint32)
    hi, lo = np.divmod(N[at], 10 ** 8)
    lead, hi = np.divmod(hi, 10 ** 8)
    quad[:, 0], quad[:, 1] = np.divmod(hi, 10000)
    quad[:, 2], quad[:, 3] = np.divmod(lo, 10000)
    quad[:] = _float_tables()[2][quad]
    digits[:, 3] = lead + ord("0")
    last = 16 - np.argmax(digits[:, :2:-1] != ord("0"), axis=1)
    key = ((np.signbit(v[at]) * _SPAN + X[at] - _X_MIN) * 17 + last).astype(np.uint16)
    order = np.argsort(key, kind="stable")
    digits = digits.view("V20").ravel()[order].view(np.uint8).reshape(n, 20)
    return np.flatnonzero(~ok), at[order], key[order], digits


def _format_floats(v: np.ndarray, sep: str = "") -> np.ndarray:
    """"%.17g" % x followed by `sep` for every float64 x of `v`, as an object
    array of str.

    The digits come from _proven_digits; values it cannot prove are formatted
    by Python.  The proven values are laid out in groups of one sign, one
    exponent X and one last nonzero digit, so each group is a few slice
    copies: "%g" writes ddd.ddd or 0.000ddd for -4 <= X < 17 and d.ddde±XX
    otherwise, and strips trailing zeros and a bare ".".
    """
    rest, at, key, digits = _layout_groups(v)
    text = np.empty(v.size, dtype=object)
    text[rest] = _percent_17g(v[rest], sep)
    if not at.size:
        return text
    strs = []
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    for start, stop, k in zip(starts.tolist(), np.r_[starts[1:], at.size].tolist(),
                              key[starts].tolist()):
        neg, x, l = k // (17 * _SPAN), (k // 17) % _SPAN + _X_MIN, k % 17
        d = digits[start:stop, 3:]
        if x < -4 or x >= 17:
            parts = [d[:, :1], "." * (l > 0), d[:, 1:l + 1], "e%+03d" % x]
        elif x >= 0:
            parts = [d[:, :x + 1], "." * (l > x), d[:, x + 1:l + 1]]
        else:
            parts = ["0." + "0" * (-x - 1), d[:, :l + 1]]
        # each row ends in NUL, which neither a formatted float nor `sep` contains
        strs += _rows_of(["-" * neg, *parts, sep + "\0"],
                         stop - start).decode("ascii").split("\0")[:-1]
    text[at] = np.fromiter(strs, dtype=object, count=at.size)
    return text


def _rows_of(parts: list, m: int) -> bytes:
    """m rows, each the concatenation of `parts`: str constants and (m, w)
    uint8 arrays of ASCII characters."""
    cols = [_ascii(p) if isinstance(p, str) else p for p in parts]
    rows = np.empty((m, sum(c.shape[-1] for c in cols)), np.uint8)
    at = 0
    for c in cols:
        if c.shape[-1]:
            rows[:, at:at + c.shape[-1]] = c
            at += c.shape[-1]
    return rows.tobytes()


@functools.cache
def _ascii(text: str) -> np.ndarray:
    """`text` as uint8 codes; the texts are a few hundred signs, points and
    exponent suffixes."""
    return np.frombuffer(text.encode("ascii"), np.uint8)


def _column_text(kind: str, col, sep: str) -> list:
    """One block of a column as strings, each followed by `sep`; each distinct
    value is formatted, and given its separator, once.

    Floats are told apart by their bit pattern, not by value: np.unique on
    values merges -0.0 with 0.0, which "%.17g" prints as "-0" and "0".
    """
    if kind == "str":
        return list(map({s: s + sep for s in set(col)}.__getitem__, col))
    if kind == "float":
        keys = np.asarray(col, dtype=np.float64).view(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        values = uniq.view(np.float64)
        if values.size >= ARRAY_FORMAT_MIN:
            return _format_floats(values, sep)[inv].tolist()
        text = _percent_17g(values, sep)
    else:
        uniq, inv = np.unique(np.asarray(col), return_inverse=True)
        text = [str(int(v)) + sep for v in uniq.tolist()]
    return np.array(text, dtype=object)[inv].tolist()


@contextlib.contextmanager
def _written(path: str):
    """`path` opened for writing text; an OSError from opening or writing it
    is a config error (exit 2), as an output directory that cannot be made is."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_csv(path: str, header: list, columns: list) -> None:
    """Columns are (kind, array) with kind in {float, int, str}.

    Floats are written with "%.17g", ints with str(int(v)) and strings as
    they are, one row per line, in blocks of CSV_BLOCK_ROWS rows.  A block's
    cells, each with its trailing "," or newline, are interleaved row-major
    into one list and written with one join.
    """
    n, c = len(columns[0][1]), len(columns)
    seps = [","] * (c - 1) + ["\n"]
    with _written(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n)
            cells = [None] * ((stop - start) * c)
            for j, ((kind, col), sep) in enumerate(zip(columns, seps)):
                cells[j::c] = _column_text(kind, col[start:stop], sep)
            fh.write("".join(cells))


def _write_json(path: str, obj) -> None:
    with _written(path) as fh:
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
    out = args.out or cfgmod.output_section(cfg)["dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return cfg, out, cfgmod.build_grid(cfg)


def _workers(threads: int, npoints: int) -> int:
    """Synthesis threads for --threads N: at most one per core this process may
    run on (its CPU affinity where the platform reports one) and one per point.
    They share the grid's blocks of synth.SYNTH_BLOCK nodes, so a grid of one
    block runs on the calling thread, and the blocks, hence the bytes, are the
    same for every N."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, cores or 1, npoints)


def _synth_solution(cfg: RunConfig, grid: GridSpec, threads: int,
                    witness: Optional[str] = None) -> FieldSolution:
    """The configured field on `grid`, not yet checked by _admitted; a
    frobenius.witness choice passed as `witness` is checked against the drive
    before anything is synthesized."""
    model = cfgmod.build_model(cfg)
    d = cfgmod.build_drive(cfg)
    if witness is not None:
        frobmod.resolve_witness(witness, d)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    return synthesize(model, d, policy, grid, tol=tol, workers=_workers(threads, grid.npoints()))


def _admitted(sol: FieldSolution) -> FieldSolution:
    """`sol`; exit 3 when no point is admitted, with the sampled range of its
    xi and every branch image.  xi is |a|^2 for a field, and for a form
    |alpha|^2 when its drive is a closed form alpha (of degree n - k), |df|^2
    otherwise."""
    if (sol.branch_id != 0).any():
        return sol
    if isinstance(sol, formsmod.FormSolution):
        what = "form synthesis"
        sampled = "|alpha|^2" if sol.drive.k == sol.n - sol.k else "|df|^2"
    else:
        what, sampled = "synthesis", "drive range Sigma_f"
    xi = sol.xi[(sol.flags & FLAG_DRIVE_UNDEFINED) == 0]
    span = f"[{xi.min():.6g}, {xi.max():.6g}]" if xi.size else "(drive undefined at every grid point)"
    images = "; ".join(f"branch {b.index} ({b.label}): {b.image}" for b in sol.model.branches())
    raise _Exit(EXIT_EMPTY, f"{what} produced no admissible points: sampled {sampled} = {span} "
                f"misses every admitted branch image Im(phi): {images}")


def _tail_columns(sol: FieldSolution) -> list:
    """The Q, regime, branch and flags columns that field.csv and forms.csv end
    with."""
    regimes = np.array(REGIME_NAMES, dtype=object)[sol.regime].tolist()
    return [("Q", "float", sol.Q), ("regime", "str", regimes), ("branch", "int", sol.branch_id),
            ("flags", "int", sol.flags)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg, out, grid = _setup(args)
    sol = _admitted(_synth_solution(cfg, grid, args.threads))
    _write_table(out, "field.csv", sol.points,
                 [(f"w{i+1}", "float", sol.w[:, i]) for i in range(grid.dim)] + _tail_columns(sol))
    if cfgmod.output_section(cfg)["json"]:
        counts = {REGIME_NAMES[k]: int((sol.regime == k).sum()) for k in range(4)}
        _write_json(os.path.join(out, "summary.json"), {
            "points": int(sol.points.shape[0]),
            "defined": int(sol.defined.sum()),
            "regimes": counts,
        })
    return EXIT_OK


def cmd_singular(args) -> int:
    cfg, out, grid = _setup(args)
    sol = _admitted(_synth_solution(cfg, grid, args.threads))
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
    sol = _admitted(_synth_solution(cfg, grid, args.threads, witness=fs["witness"]))
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


def _form_solution(cfg: RunConfig, grid: GridSpec,
                   spec: cfgmod.FormSpec) -> formsmod.FormSolution:
    """The form `spec` (the config's forms section) synthesized on `grid`, not
    yet checked by _admitted.  A closed form (forms.closed) is the raw form
    itself, checked for closure on forms.box, or on the grid's box when that
    is unset."""
    model = cfgmod.build_model(cfg)
    policy = cfgmod.build_policy(cfg, grid.dim)
    tol = cfgmod.build_tol(cfg)
    pts = grid.points()
    if spec.closed:
        return formsmod.synthesize_form_closed(model, spec.form, policy, pts,
                                               spec.box or (grid.lo, grid.hi), tol=tol,
                                               params=spec.params, grid=grid)
    return formsmod.synthesize_form(model, spec.form, policy, pts, tol=tol, params=spec.params,
                                    grid=grid)


def cmd_forms(args) -> int:
    cfg, out, grid = _setup(args)
    spec = _build_form(cfg, grid.dim)
    fsol = _admitted(_form_solution(cfg, grid, spec))
    _write_table(out, "forms.csv", fsol.points,
                 [(f"omega_{''.join(map(str, idx)) or '0'}", "float", fsol.w[:, c])
                  for c, idx in enumerate(multi_indices(grid.dim, fsol.k))]
                 + _tail_columns(fsol))
    if spec.gamma:
        gw = formsmod.gamma_witness(fsol.model, spec.form, fsol)
        _write_table(out, "gamma.csv", fsol.points,
                     [(f"Gamma{i+1}", "float", gw.Gamma[:, i]) for i in range(grid.dim)]
                     + [("defect", "float", gw.defect),
                        ("frobenius_defect", "float", gw.frobenius_defect)])
    return EXIT_OK


def _refined(grid: GridSpec, factor: int) -> GridSpec:
    return GridSpec(lo=grid.lo, hi=grid.hi, cells=tuple(c * factor for c in grid.cells))


def _study(grids: list, synth: Callable) -> Callable:
    """grid -> its admitted solution, for the levels of a refinement study.

    Only the finest grid, grids[-1], is synthesized (by `synth`, once).  Each
    coarser level refines to it by a power of two, so its nodes are finest
    nodes bit for bit (synth.nested_index), and the level's solution is the
    finest one restricted to them.  _admitted runs on each level when the
    study first asks for it, so an exit 3 names the same level and sampled
    range as a synthesis per level would."""
    finest = grids[-1]
    fine = functools.cache(lambda: synth(finest))

    @functools.cache
    def on(grid: GridSpec):
        sol = fine()
        if grid != finest:
            sol = sol.restricted(grid, nested_index(grid, finest))
        return _admitted(sol)
    return on


def cmd_verify(args) -> int:
    """Residual reports (and the energy) on the config's grid, or with
    --levels K >= 3 a refinement study over the grid refined by 1, 2, ...,
    2^(K-1); K = 2 is refused, as the order fit needs three levels.  A study
    synthesizes only its finest grid and reads every coarser level off it
    (see _study); every residual kind shares one solution per level, and the
    frobenius and exactness kinds one witness per level."""
    cfg, out, base = _setup(args)
    vs = cfgmod.verify_section(cfg)
    levels = args.levels
    if levels == 2:
        raise ConfigError("--levels 2 is too few for a refinement study: the order fit "
                          "needs at least 3 grid levels")
    # Counted before any grid is built; an exponent of 64 already exceeds the
    # budget, so capping it keeps a huge K cheap to reject.
    finest = math.prod(c * 2 ** min(levels - 1, 64) + 1 for c in base.cells)
    if finest > cfgmod.MAX_GRID_NODES:
        raise ConfigError(f"--levels {levels} asks for a finest grid of more than "
                          f"{cfgmod.MAX_GRID_NODES} nodes")
    grids = [_refined(base, 2 ** i) for i in range(levels)]
    mask_pred = cfgmod.mask_predicate(vs["mask"], base.dim)
    fs = cfgmod.frobenius_section(cfg, base.dim)
    witness = fs["witness"] if {"frobenius", "exactness"} & set(vs["residuals"]) else None

    reports = []
    energy_value = None

    sol_on = _study(grids, lambda grid: _synth_solution(cfg, grid, args.threads, witness))
    form_on = _study(grids, lambda grid: _form_solution(cfg, grid, _build_form(cfg, grid.dim)))

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

    # residual kind -> residual report on one grid; the config schema has
    # already rejected every other kind
    residual_on = {
        "divergence": lambda grid: verifymod.divergence_residual(
            sol_on(grid), extra_bad=extra_bad_on(grid)),
        "minor": lambda grid: verifymod.minor_residual(sol_on(grid), extra_bad=extra_bad_on(grid)),
        "frobenius": lambda grid: verifymod.frobenius_residual(
            sol_on(grid), witness_on(grid), extra_bad=extra_bad_on(grid)),
        "exactness": exactness,
        "codifferential": lambda grid: verifymod.codifferential_residual(
            form_on(grid), extra_bad=extra_bad_on(grid)),
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
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
