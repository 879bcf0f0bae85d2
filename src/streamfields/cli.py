"""Command line front end.

Subcommands: synth, singular, frobenius, forms, verify.  Every run is driven
by a JSON config (--config PATH) or a built-in example (--example NAME) and
writes plot-ready CSV / JSON artifacts into --out.  All numeric output uses 17
significant digits and fixed row/column order, so reruns are byte-identical.
CSV files are written in blocks of at most CSV_BLOCK_ROWS rows (tracemalloc
peak 9.4 MB on 513^2 and 65^3 grids, 35.5 MB at 65,536), from arrays the
command holds: floats, ints or bools, and codes written as names (the
regime).  Each distinct value of a block column is formatted once, with its
trailing "," or newline, and a block is written with one join of its cells;
the bytes are the same as formatting every cell on its own.  Coordinate
columns, and the input of the frobenius.mask predicate, are built a block of
nodes at a time.  synth, singular, forms and frobenius hold one slab of
synth.slabs (or N, at --threads N) and its masks, Gamma or G (_slabs): the
writer cuts each block inside the slab it writes, and pulls the next slab
after it (_write_streamed).  Held whole: singular's 2-D sonic values, and
for eta recovery w, where G is defined, its curl and the mask.
Node-budget peaks (ru_maxrss, one thread, MALLOC_MMAP_THRESHOLD_=131072):
synth 2047^2 46 MB, singular 160^3 41 and 2047^2 91, forms 2047^2 50,
frobenius 2047^2 with eta 232; verify 77 MB.

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

Exit codes: 0 success, 2 config error or out of memory, 3 synthesis found no
admissible points, 4 a verification threshold or conservative gate was
breached.  A subcommand returns EXIT_OK or raises: a config error, or an
_Exit that carries its code and reason.  `main` is the only place that
prints a reason (to stderr) and picks the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, Iterator, Optional

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
from .synth import (FLAG_DRIVE_UNDEFINED, ROW_ARRAYS, FieldSolution, GridSpec, REGIME_NAMES,
                    SynthError, Synthesis, block_rows, ordered, slabs)
# Not called here; perfbench/tracer.py wraps these module-level names.
from .synth import synthesize, synthesize_at_points  # noqa: F401
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
# Over the 513^2 and 65^3-node tables its tracemalloc peak is 9.4 MB, against
# 35.5 MB at 65,536 rows, at the same speed.
CSV_BLOCK_ROWS = 1 << 14

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


def _column_text(kind: str | tuple, col, sep: str) -> list:
    """One block of a column as strings, each followed by `sep`; each distinct
    value is formatted, and given its separator, once.  `kind` is "float",
    "int", or a tuple of names that the column's integer codes index.

    Floats are told apart by their bit pattern, not by value: np.unique on
    values merges -0.0 with 0.0, which "%.17g" prints as "-0" and "0".
    """
    if kind == "float":
        keys = np.asarray(col, dtype=np.float64).view(np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        values = uniq.view(np.float64)
        if values.size >= ARRAY_FORMAT_MIN:
            return _format_floats(values, sep)[inv].tolist()
        text = _percent_17g(values, sep)
    else:
        uniq, inv = np.unique(np.asarray(col), return_inverse=True)
        label = str if kind == "int" else kind.__getitem__
        text = [label(int(v)) + sep for v in uniq.tolist()]
    return np.array(text, dtype=object)[inv].tolist()


@contextlib.contextmanager
def _written(path: str):
    """`path` opened for writing text; an OSError from opening or writing it
    is a config error (exit 2), as an output directory that cannot be made is.
    A file whose writing raised is removed, so no exit leaves half an artifact."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            try:
                yield fh
            except BaseException:
                os.remove(path)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


@contextlib.contextmanager
def _csv(path: str, header: list):
    """`path` opened (_written) with its header line written: yields
    put(columns), which writes their rows.  Columns are (kind, array): a
    "float" column is written with "%.17g", an "int" column (bool or integer)
    with str(int(v)), and a column whose kind is a tuple of names as
    names[int(v)], one row per line, in blocks of at most CSV_BLOCK_ROWS
    rows.  A block's cells, each with its trailing "," or newline, are
    interleaved row-major into one list and written with one join."""
    with _written(path) as fh:
        fh.write(",".join(header) + "\n")

        def put(columns: list) -> None:
            c, start = len(columns), 0
            seps = [","] * (c - 1) + ["\n"]
            # the first column's block sets the rows; a streamed one ends with
            # its chunk (_write_streamed), and is empty past the last row
            while len(first := columns[0][1][start:start + CSV_BLOCK_ROWS]):
                stop = start + len(first)
                cells = [None] * (len(first) * c)
                for j, ((kind, col), sep) in enumerate(zip(columns, seps)):
                    cells[j::c] = _column_text(kind, col[start:stop] if j else first, sep)
                fh.write("".join(cells))
                start, cells = stop, None  # freed before the next block's chunk is made
        yield put


def _write_csv(path: str, header: list, columns: list) -> None:
    """A table of whole columns, put at once (_csv)."""
    with _csv(path, header) as put:
        put(columns)


def _write_json(path: str, obj) -> None:
    with _written(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Column:
    """Column `key` of a streamed table's n rows, sliced by rows(slice, key)."""

    def __init__(self, rows: Callable, key, n: int):
        self.rows, self.key, self.n = rows, key, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, at: slice) -> np.ndarray:
        return self.rows(at, self.key)


def _write_streamed(path: str, grid: GridSpec, chunks: Iterator[tuple], cols: list) -> None:
    """_write_csv of `path`: `grid`'s node coordinates, then a column per
    (header, kind) of `cols`, whose arrays `chunks` yields (top, end,
    {header: array}) on axis-0 rows top to end - 1 in row order.  A block is
    cut inside the chunk it starts in (_csv); one that starts at a chunk's
    end lets it go and pulls the next, and past the last one is empty: the
    stream has ended, and its pool, if any, shut down."""
    row, first, end, arrays = grid.npoints() // grid.shape()[0], 0, 0, None

    def rows(at: slice, key) -> np.ndarray:
        nonlocal first, end, arrays
        if at.start == end:
            arrays = None  # written: let go before the next chunk is made
            top, stop, arrays = next(chunks, (end // row, end // row, {}))
            first, end = top * row, stop * row
        stop = min(at.stop, end)
        if isinstance(key, int):  # a coordinate axis
            return grid.nodes(at.start, stop)[:, key]
        return arrays[key][at.start - first:stop - first]

    _write_csv(path, [*coord_names(grid.dim), *dict(cols)],
               [("float", _Column(rows, axis, grid.npoints())) for axis in range(grid.dim)]
               + [(kind, _Column(rows, head, grid.npoints())) for head, kind in cols])


def _write_table(out: str, name: str, grid: GridSpec, triples: list) -> None:
    """Write out/name: the coordinates of `grid`'s nodes, then one column per
    (header, kind, array of every node) triple."""
    _write_streamed(os.path.join(out, name), grid, iter([(0, grid.shape()[0], {
        head: col for head, _, col in triples})]), [triple[:2] for triple in triples])


def _grid_mask(predicate: Optional[Callable], grid: GridSpec) -> Optional[np.ndarray]:
    """The frobenius.mask predicate on `grid`, grid-shaped (None without one),
    at most a synthesis block of nodes a call."""
    return None if predicate is None else np.concatenate([
        predicate(grid.nodes(rows.start, rows.stop)) for rows in block_rows(grid.npoints())
    ]).reshape(grid.shape())


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


def _workers(threads: int) -> int:
    """Threads for --threads N: at most one per core this process may run on
    (its CPU affinity where the platform reports one).  synth.walk runs one
    band of a grid's rows, and _slabs one slab, per thread, and no more than
    the grid has rows or blocks of synth.SYNTH_BLOCK nodes, so a grid of one
    block runs on the calling thread; the bytes are the same for every N."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, cores or 1)


def _synthesis(cfg: RunConfig, grid: GridSpec, witness: Optional[str] = None,
               form: Optional[cfgmod.FormSpec] = None) -> Synthesis:
    """The configured field, or form (the forms section, `form`), on `grid`,
    to be synthesized; a frobenius.witness choice `witness` is checked
    against the drive, and a closed form (forms.closed) for closure on
    forms.box, or else the grid's box."""
    model = cfgmod.build_model(cfg)
    d = cfgmod.build_drive(cfg) if form is None else None
    if witness is not None:
        frobmod.resolve_witness(witness, d)
    tol = cfgmod.build_tol(cfg)
    if form is not None:
        d = formsmod.FormDrive(form.form, form.params, form.closed)
        if form.closed:
            formsmod.check_closed(form.form, form.box or (grid.lo, grid.hi), form.params)
    # region predicates read the drive's coordinates; Synthesis checks the grid's
    return Synthesis(grid, model, d, cfgmod.build_policy(cfg, d.dim), tol)


def _slabs(s: Synthesis, threads: int, work: Callable) -> Iterator[tuple]:
    """(top, end, work(top, end, part)) for each of synth.slabs(s.grid) in
    grid order, the next N on the --threads pool (synth.ordered): part is
    the solution at the slab's nodes (verify.rows_of).  Exit 3 (_admitted)
    before the last is handed on, if no slab admitted a point."""
    grid, seen = s.grid, []
    row = grid.npoints() // grid.shape()[0]

    def slab(rows: tuple) -> tuple:
        top, end = rows
        part = dataclasses.replace(verifymod.rows_of(s, row, top, end),
                                   _points=grid.nodes(top * row, end * row))
        return top, end, work(top, end, part), _note(part)

    def checked(item: tuple) -> tuple:
        seen.append(item[3])
        if item[1] == grid.shape()[0]:
            _admitted(s, seen)
        return item[:3]

    # map and ordered keep no slab once it is handed on
    return map(checked, ordered(slab, slabs(grid), _workers(threads)))


def _note(part: FieldSolution) -> tuple:
    """What exit 3 reads of `part`: whether it admitted a point, and the range
    of its xi where the drive is defined ([] where it is nowhere defined)."""
    xi = part.xi[(part.flags & FLAG_DRIVE_UNDEFINED) == 0]
    return (part.branch_id != 0).any(), [xi.min(), xi.max()] if xi.size else []


def _admitted(sol, notes: Optional[list] = None):
    """`sol` (a FieldSolution or a Synthesis), unless no note of its parts
    (_note; `sol` itself for None) admitted a point: exit 3, with the range
    of xi over the notes and every branch image.  xi is |a|^2 for a field,
    and for a form |alpha|^2 when its drive is a closed form alpha (of
    degree n - k), |df|^2 otherwise."""
    notes = [_note(sol)] if notes is None else notes
    if any(admitted for admitted, _ in notes):
        return sol
    xi = np.array([v for _, span in notes for v in span])
    if isinstance(sol.drive, formsmod.FormDrive):
        what = "form synthesis"
        sampled = "|alpha|^2" if sol.drive.closed else "|df|^2"
    else:
        what, sampled = "synthesis", "drive range Sigma_f"
    span = f"[{xi.min():.6g}, {xi.max():.6g}]" if xi.size else "(drive undefined at every grid point)"
    images = "; ".join(f"branch {b.index} ({b.label}): {b.image}" for b in sol.model.branches())
    raise _Exit(EXIT_EMPTY, f"{what} produced no admissible points: sampled {sampled} = {span} "
                f"misses every admitted branch image Im(phi): {images}")


# the Q, regime, branch and flags columns that field.csv and forms.csv end
# with: (header, kind, the FieldSolution array)
_TAIL = [("Q", "float", "Q"), ("regime", REGIME_NAMES, "regime"), ("branch", "int", "branch_id"),
         ("flags", "int", "flags")]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg, out, grid = _setup(args)
    heads, tallies = [f"w{i+1}" for i in range(grid.dim)], []

    def rows(top: int, end: int, part: FieldSolution) -> dict:
        # the defined nodes, then the nodes of each regime
        tallies.append([part.defined.sum(), *np.bincount(part.regime, minlength=4)])
        return dict(zip(heads, part.w.T)) | {head: getattr(part, name) for head, _, name in _TAIL}

    _write_streamed(os.path.join(out, "field.csv"), grid,
                    _slabs(_synthesis(cfg, grid), args.threads, rows),
                    [(head, "float") for head in heads] + [tail[:2] for tail in _TAIL])
    if cfgmod.output_section(cfg)["json"]:
        tally = np.sum(tallies, axis=0, dtype=np.int64)
        _write_json(os.path.join(out, "summary.json"), {
            "points": grid.npoints(),
            "defined": int(tally[0]),
            "regimes": {name: int(count) for name, count in zip(REGIME_NAMES, tally[1:])},
        })
    return EXIT_OK


def cmd_singular(args) -> int:
    cfg, out, grid = _setup(args)
    masks = ("outside", "gamma0", "gammas", "gammainf", "gammag")
    row = grid.npoints() // grid.shape()[0]
    sonic = np.empty(grid.npoints() if grid.dim == 2 else 0)  # phi'(psi(xi)), for the contour

    def rows(top: int, end: int, part: FieldSolution) -> dict:
        report = singmod.classify_solution(part)
        sonic[top * row:end * row] = report.sonic_values[:sonic.size]  # none in 3-D
        return dict(zip(masks, (report.omega_f_complement, report.gamma_0, report.gamma_s,
                                 report.gamma_inf, report.gamma_g)))

    _write_streamed(os.path.join(out, "masks.csv"), grid,
                    _slabs(_synthesis(cfg, grid), args.threads, rows),
                    [(name, "int") for name in masks])
    if grid.dim == 2:
        polys = singmod.sonic_contour(grid, sonic.reshape(grid.shape()))
        xy = np.concatenate([np.reshape(p, (-1, 2)) for p in polys] or [np.empty((0, 2))])
        seg = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
        _write_csv(os.path.join(out, "sonic.csv"), ["segment", "x", "y"],
                   [("int", seg), ("float", xy[:, 0]), ("float", xy[:, 1])])
    return EXIT_OK


def _witness_for(choice: str, sol: FieldSolution):
    return getattr(frobmod, "witness_" + frobmod.resolve_witness(choice, sol.drive))(sol)


def cmd_frobenius(args) -> int:
    cfg, out, grid = _setup(args)
    fs = cfgmod.frobenius_section(cfg, grid.dim)
    n, row, eta = grid.npoints(), grid.npoints() // grid.shape()[0], fs["recover_eta"]
    s = _synthesis(cfg, grid, witness=fs["witness"])
    kind = frobmod.KINDS[frobmod.resolve_witness(fs["witness"], s.drive)]
    heads = [f"G{i+1}" for i in range(grid.dim)] + ["defect"]
    if eta:
        w, defined, curl = np.empty((n, grid.dim)), np.empty(n, dtype=bool), np.empty(grid.shape())
    peaks, solvability = ("max_defining_residual", "max_curl_residual"), []  # a maximum a slab
    summary = dict.fromkeys(peaks)

    def witness(top: int, end: int, part: FieldSolution) -> list:
        wit = _witness_for(fs["witness"], part)
        if eta:
            w[top * row:end * row], defined[top * row:end * row] = part.w, wit.defined
        solvability.append(_nanmax(wit.solvability_residual))
        return [wit.G, wit.defining_residual]

    def chunks() -> Iterator[tuple]:
        for top, end, (G, defect), vals in frobmod.curl_rows(grid, _slabs(s, args.threads,
                                                                          witness)):
            if eta:
                curl[top:end] = vals
            for key, col in zip(peaks, (defect, vals)):
                summary[key] = _nanmax([summary[key], _nanmax(col)])
            yield top, end, dict(zip(heads, [*G.T, defect])) | {"curl_defect": vals.reshape(-1)}

    _write_streamed(os.path.join(out, "witness.csv"), grid, chunks(),
                    [(head, "float") for head in heads + ["curl_defect"]])
    summary |= {"kind": kind, "max_solvability_residual": _nanmax(solvability)}
    if eta:
        source = frobmod.EtaSource(kind, grid, w, defined, curl, frobmod.g_evaluator(kind, s))
        try:
            rec = frobmod.recover_eta(source, anchor=fs["anchor"],
                                      mask=_grid_mask(fs["mask"], grid),
                                      tol_conservative=fs["tol_conservative"])
        except FrobeniusError as exc:
            _write_json(os.path.join(out, "frobenius.json"), summary)
            raise _Exit(EXIT_THRESHOLD, f"eta recovery failed: {exc}") from exc
        _write_table(out, "eta.csv", grid, [("eta", "float", rec.eta.reshape(-1))])
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


def cmd_forms(args) -> int:
    cfg, out, grid = _setup(args)
    spec = _build_form(cfg, grid.dim)
    s, row = _synthesis(cfg, grid, form=spec), grid.npoints() // grid.shape()[0]
    omegas = [f"omega_{''.join(map(str, idx)) or '0'}"
              for idx in multi_indices(grid.dim, s.drive.k)]
    gammas = [f"Gamma{i+1}" for i in range(grid.dim)] + ["defect", "frobenius_defect"]

    def rows(top: int, end: int, part: FieldSolution) -> dict:
        cols = dict(zip(omegas, part.w.T)) | {head: getattr(part, name) for head, _, name in _TAIL}
        if spec.gamma:
            gw = formsmod.gamma_witness(part.model, spec.form, part)
            cols |= dict(zip(gammas, (*gw.Gamma.T, gw.defect, gw.frobenius_defect)))
        return cols

    with contextlib.ExitStack() as files:  # gamma.csv is written in forms.csv's pass
        chunks = _slabs(s, args.threads, rows)
        if spec.gamma:
            put = files.enter_context(_csv(os.path.join(out, "gamma.csv"),
                                           [*coord_names(grid.dim), *gammas]))
            chunks = (put([("float", col) for col in grid.nodes(top * row, end * row).T]
                          + [("float", cols.pop(head)) for head in gammas]) or (top, end, cols)
                      for top, end, cols in chunks)
        _write_streamed(os.path.join(out, "forms.csv"), grid, chunks,
                        [(head, "float") for head in omegas] + [tail[:2] for tail in _TAIL])
    return EXIT_OK


def _refined(grid: GridSpec, factor: int) -> GridSpec:
    return GridSpec(lo=grid.lo, hi=grid.hi, cells=tuple(c * factor for c in grid.cells))


def _study(grids: list, synthesis: Callable, threads: int, mask: Optional[Callable],
           kinds: list) -> tuple:
    """(on, report) for a refinement study of `kinds` over `grids`, coarse
    to fine: on(grid) is the level's solution, checked by _admitted when
    first asked for, so an exit 3 names the level and sampled range a
    synthesis per level would; report(kind, grid) is the level's report of
    `kind`, one of verify.SLAB_KINDS, with the verify.mask predicate `mask`.

    Only grids[-1] is synthesized, from synthesis(grid), in the one pass of
    verify.slab_residuals that makes each slab kind's finest report.  Each
    slab copies its nodes of every coarser level (its every 2^j-th node per
    axis: strided slices), and of the finest level too when a kind
    outside verify.SLAB_KINDS reads it whole, and notes what _admitted reads
    (_note).  on(grids[-1]) is that copy, or else the Synthesis."""
    finest = grids[-1]
    slab_kinds = [k for k in kinds if k in verifymod.SLAB_KINDS]
    copied = grids if len(slab_kinds) < len(kinds) else grids[:-1]

    @functools.cache
    def streamed() -> tuple:
        src = synthesis(finest)
        levels = {g: src.allocate(g.npoints(), g) for g in copied}
        shape, seen = finest.shape(), []

        def visit(top: int, end: int, part: FieldSolution) -> None:
            for grid, level in levels.items():
                step = finest.cells[0] // grid.cells[0]
                first = -(-top // step) * step
                at = (slice(first - top, None, step),) + (slice(None, None, step),) * (grid.dim - 1)
                for name in ROW_ARRAYS:
                    rows, out = getattr(part, name), getattr(level, name)
                    tail = rows.shape[1:]
                    out.reshape(grid.shape() + tail)[first // step:-(-end // step)] = rows.reshape(
                        (end - top,) + shape[1:] + tail)[at]
            seen.append(_note(part))

        reports = verifymod.slab_residuals(src, slab_kinds, _workers(threads),
                                           mask=mask, visit=visit)
        return src, levels, reports, seen

    @functools.cache
    def on(grid: GridSpec):
        src, levels, _, seen = streamed()
        if grid != finest:
            return _admitted(levels[grid])
        return _admitted(levels.get(finest, src), seen)

    @functools.cache
    def finest_report(kind: str) -> verifymod.ResidualReport:
        # made once, and the pass's residual and mask arrays of `kind` go
        return streamed()[2].pop(kind)()

    def report(kind: str, grid: GridSpec) -> verifymod.ResidualReport:
        sol = on(grid)
        if grid == finest:
            return finest_report(kind)
        return getattr(verifymod, f"{kind}_residual")(
            sol, mask=mask, workers=_workers(threads))
    return on, report


def cmd_verify(args) -> int:
    """Residual reports (and the energy) on the config's grid, or with
    --levels K >= 3 a refinement study over the grid refined by 1, 2, ...,
    2^(K-1); K = 2 is refused, as the order fit needs three levels.  A study
    synthesizes only its finest grid, streamed through its residual slabs,
    and copies every coarser level off it, and the finest level too for a
    frobenius or exactness kind (see _study); every residual kind shares one
    solution per level, and the frobenius and exactness kinds one witness
    per level."""
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
    kinds = list(dict.fromkeys(vs["residuals"]))
    witness = fs["witness"] if {"frobenius", "exactness"} & set(kinds) else None

    field = functools.cache(lambda grid: _synthesis(cfg, grid, witness))
    sol_on, field_report = _study(grids, field, args.threads, mask_pred,
                                  [k for k in kinds if k != "codifferential"])
    _, form_report = _study(grids, lambda grid: _synthesis(cfg, grid,
                                                           form=_build_form(cfg, grid.dim)),
                            args.threads, mask_pred, ["codifferential"])

    @functools.cache
    def witness_on(grid: GridSpec):
        return _witness_for(fs["witness"], sol_on(grid))

    # every residual kind's verify.mask predicate and slab threads
    common = {"mask": mask_pred, "workers": _workers(args.threads)}

    def residual(kind: str, grid: GridSpec) -> verifymod.ResidualReport:
        # the config schema has already rejected every other kind
        if kind not in ("frobenius", "exactness"):
            return (form_report if kind == "codifferential" else field_report)(kind, grid)
        sol, wit = sol_on(grid), witness_on(grid)
        if kind == "frobenius":
            return verifymod.frobenius_residual(sol, wit, **common)
        rec = frobmod.recover_eta(wit, anchor=fs["anchor"], mask=_grid_mask(fs["mask"], grid),
                                  tol_conservative=fs["tol_conservative"])
        return verifymod.exactness_residual(sol, rec.eta, system=wit.kind, **common)

    reports = [verifymod.convergence_study(functools.partial(residual, kind), grids)
               if levels > 1 else residual(kind, grids[0]) for kind in vs["residuals"]]

    # the energy reads only the finest grid and the synthesis settings, and
    # refuses a grid with no usable cell centre itself (exit 3)
    energy_value = verifymod.energy(field(grids[-1]), mask=mask_pred) if vs["energy"] else None

    threshold = vs["threshold"]
    breached = [r for r in reports if not (np.isfinite(r.max_norm) and r.max_norm < threshold)]
    _write_json(os.path.join(out, "report.json"), {
        "reports": [dataclasses.asdict(r) for r in reports],
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
                   help="worker threads for synthesis and verify's residuals (at most one "
                        "per core)")


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
    except verifymod.NoUsableCells as exc:
        outcome = _Exit(EXIT_EMPTY, f"energy quadrature: {exc}")
    except VerifyError as exc:
        outcome = _Exit(EXIT_CONFIG, f"verification could not run: {exc}")
    except FrobeniusError as exc:
        outcome = _Exit(EXIT_THRESHOLD, f"integrability check failed: {exc}")
    except _Exit as exc:
        outcome = exc
    except MemoryError:
        outcome = _Exit(EXIT_CONFIG, f"{args.command} ran out of memory: lower grid.cells or "
                        "--levels")
    print(outcome, file=sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
