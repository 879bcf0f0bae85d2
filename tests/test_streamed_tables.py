"""The CSV commands write their tables a slab at a time.

synth, singular, forms and frobenius synthesize each slab of synth.slabs,
compute the masks, Gamma or G on its points, and write its rows
(cli._slabs, cli._write_streamed).  These tests hold every file they write,
bit for bit, to the whole-grid path the commands took before: one
synthesis of the whole grid, checked by cli._admitted, and one write of
whole columns, which `_whole_grid` keeps as the oracle.  Slabs of 1, 2 and 7
rows, one and two threads, 2-D and 3-D grids, with and without a
frobenius.mask, and an exit 3 and an exit 4 are compared.
"""

import copy
import itertools
import json
import os
import shutil
import time

import numpy as np
import pytest

from streamfields import cli, config as cfgmod, frobenius as frobmod, singular as singmod
from streamfields.cli import main
from streamfields.drive import coord_names
from streamfields.synth import REGIME_NAMES, synthesize


def _whole_grid(command: str, path: str, out: str) -> tuple:
    """(exit code, stderr line) of `command` on the config at `path`, and its
    files in `out`, by the whole-grid path: every array of every node held
    at once, each table written in one _write_csv call."""
    cfg = cfgmod.load_config(path)
    grid = cfgmod.build_grid(cfg)
    fs = cfgmod.frobenius_section(cfg, grid.dim)
    spec = cli._build_form(cfg, grid.dim) if command == "forms" else None
    s = cli._synthesis(cfg, grid, fs["witness"] if command == "frobenius" else None, spec)
    sol = synthesize(s.model, s.drive, s.policy, grid, tol=s.tol)
    os.makedirs(out, exist_ok=True)
    try:
        cli._admitted(sol)
    except cli._Exit as exc:
        return exc.code, f"{exc}\n"
    points = grid.points()

    def table(name: str, triples: list) -> None:
        triples = [(c, "float", points[:, i]) for i, c in enumerate(coord_names(grid.dim))] + triples
        cli._write_csv(os.path.join(out, name), [t[0] for t in triples],
                       [t[1:] for t in triples])

    tail = [("Q", "float", sol.Q), ("regime", REGIME_NAMES, sol.regime),
            ("branch", "int", sol.branch_id), ("flags", "int", sol.flags)]
    if command == "synth":
        table("field.csv", [(f"w{i+1}", "float", sol.w[:, i]) for i in range(grid.dim)] + tail)
        if cfgmod.output_section(cfg)["json"]:
            cli._write_json(os.path.join(out, "summary.json"), {
                "points": grid.npoints(), "defined": int(sol.defined.sum()),
                "regimes": {REGIME_NAMES[k]: int((sol.regime == k).sum()) for k in range(4)}})
    elif command == "singular":
        rep = singmod.classify_solution(sol)
        masks = {"outside": rep.omega_f_complement, "gamma0": rep.gamma_0, "gammas": rep.gamma_s,
                 "gammainf": rep.gamma_inf, "gammag": rep.gamma_g}
        table("masks.csv", [(name, "int", mask.reshape(-1)) for name, mask in masks.items()])
        if grid.dim == 2:
            polys = rep.sonic_contour
            xy = np.concatenate([np.reshape(p, (-1, 2)) for p in polys] or [np.empty((0, 2))])
            seg = np.repeat(np.arange(len(polys)), [len(p) for p in polys])
            cli._write_csv(os.path.join(out, "sonic.csv"), ["segment", "x", "y"],
                           [("int", seg), ("float", xy[:, 0]), ("float", xy[:, 1])])
    elif command == "forms":
        table("forms.csv", [(f"omega_{''.join(map(str, idx)) or '0'}", "float", sol.w[:, c])
                            for c, idx in enumerate(cli.multi_indices(grid.dim, s.drive.k))]
              + tail)
        if spec.gamma:
            gw = cli.formsmod.gamma_witness(sol.model, spec.form, sol)
            table("gamma.csv", [(f"Gamma{i+1}", "float", gw.Gamma[:, i]) for i in range(grid.dim)]
                  + [("defect", "float", gw.defect),
                     ("frobenius_defect", "float", gw.frobenius_defect)])
    else:
        wit = cli._witness_for(fs["witness"], sol)
        curl = frobmod.curl_residual_grid(wit)
        table("witness.csv", [(f"G{i+1}", "float", wit.G[:, i]) for i in range(grid.dim)]
              + [("defect", "float", wit.defining_residual),
                 ("curl_defect", "float", curl.reshape(-1))])
        summary = {"kind": wit.kind,
                   "max_defining_residual": cli._nanmax(wit.defining_residual),
                   "max_solvability_residual": cli._nanmax(wit.solvability_residual),
                   "max_curl_residual": cli._nanmax(curl)}
        if fs["recover_eta"]:
            try:
                rec = frobmod.recover_eta(wit, anchor=fs["anchor"],
                                          mask=cli._grid_mask(fs["mask"], grid),
                                          tol_conservative=fs["tol_conservative"])
            except frobmod.FrobeniusError as exc:
                cli._write_json(os.path.join(out, "frobenius.json"), summary)
                return 4, f"eta recovery failed: {exc}\n"
            table("eta.csv", [("eta", "float", rec.eta.reshape(-1))])
            summary["eta"] = {"anchor": [float(v) for v in rec.anchor],
                              "curl_gate": float(rec.curl_gate), "loop_max": float(rec.loop_max),
                              "post_residual": float(rec.post_residual),
                              "unreached": rec.unreached}
        cli._write_json(os.path.join(out, "frobenius.json"), summary)
    return 0, ""


def _config(name: str, cells: list, **sections) -> dict:
    cfg = copy.deepcopy(cfgmod.EXAMPLES[name])
    cfg["grid"]["cells"] = cells
    cfg.update(copy.deepcopy(sections))
    return cfg


_ANNULUS = _config("shallow-annulus-eta", [64, 64])
_UNMASKED = copy.deepcopy(_ANNULUS)
del _UNMASKED["frobenius"]["mask"]  # not conservative across the fold circles: exit 4
_FORM_3D = _config("form-21", [6, 5, 7], grid={"lo": [0.2] * 3, "hi": [0.8] * 3, "cells": [6, 5, 7]},
                   forms={"n": 3, "k": 1, "gamma": True,
                          "coeffs": {"1": "x2 * x3 / 4", "2": "x1^2 / 8", "3": "x1 * x2 / 5"}})
# |a|^2 of the ring drive on this box lies below the image (1, inf) of branch 2
_EMPTY = {"density": {"kind": "extremal"}, "drive": {"kind": "builtin", "name": "radial_log"},
          "grid": {"lo": [3.0, 3.0], "hi": [4.0, 4.0], "cells": [8, 11]},
          "policy": {"mode": "single_branch", "branch": 2}}
# |df|^2 < 1 on the form-21 box, below the image of extremal branch 2
_EMPTY_FORM = _config("form-21", [8, 11], density={"kind": "extremal"}, policy={
    "mode": "single_branch", "branch": 2})

_JSON = {"dir": "out", "json": True}  # synth's summary.json too

# id: (command, config, the oracle's exit code)
CASES = {
    "synth-2d": ("synth", _config("shallow-vortex", [24, 20], output=_JSON), 0),
    "synth-3d": ("synth", _config("born-infeld-fund", [6, 5, 7], output=_JSON), 0),
    "synth-2d-custom-density": ("synth", _config("unit-density", [19, 23]), 0),
    "singular-2d": ("singular", _config("shallow-vortex", [24, 20]), 0),
    "singular-2d-caustic": ("singular", _config("caustic-tau1", [24, 20]), 0),
    "singular-3d": ("singular", _config("born-infeld-fund", [6, 5, 7]), 0),
    "forms-2d": ("forms", _config("form-21", [24, 20]), 0),
    "forms-3d": ("forms", _FORM_3D, 0),
    "frobenius-2d-mask-eta": ("frobenius", _ANNULUS, 0),
    "frobenius-2d-eta-exit-4": ("frobenius", _UNMASKED, 4),
    "frobenius-2d-no-eta": ("frobenius", _config("shallow-vortex", [24, 20]), 0),
    "frobenius-3d": ("frobenius", _config("born-infeld-fund", [6, 5, 7]), 0),
    "synth-empty": ("synth", _EMPTY, 3),
    "singular-empty": ("singular", _EMPTY, 3),
    "frobenius-empty": ("frobenius", _EMPTY, 3),
    "forms-empty": ("forms", _EMPTY_FORM, 3),
}


def _files(out) -> dict:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("command, cfg, code", CASES.values(), ids=CASES.keys())
def test_streamed_tables_are_the_whole_grid_tables_bit_for_bit(command, cfg, code, tmp_path,
                                                               capsys, monkeypatch):
    """The same exit code, stderr line and files, byte for byte, for slabs of
    1, 2 and 7 rows and one slab for the grid, on one thread and on two, and
    in CSV blocks of 5 rows too, so a block spans slabs and a slab blocks;
    an exit 3 leaves no file behind, however many slabs were written before
    it, and an exit 4 the witness.csv and frobenius.json of the oracle."""
    from streamfields import expr, synth as synthmod

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    grid = cfgmod.build_grid(cfgmod.load_config(str(path)))
    want_code, want_err = _whole_grid(command, str(path), str(tmp_path / "want"))
    want = _files(tmp_path / "want")
    assert want_code == code and (not want) == (code == 3)
    rows = grid.shape()[0]
    # two workers on any machine, so the pool shows on one core too
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    if command == "forms":  # Gamma in blocks of 7 points too
        monkeypatch.setattr(expr, "BLOCK_ROWS", 7)
    for height, threads, block in itertools.product((1, 2, 7, rows), (1, 2),
                                                    (cli.CSV_BLOCK_ROWS, 5)):
        monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * (grid.npoints() // rows))
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        key, out = (height, threads, block), tmp_path / "got"
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        got_code = main([command, "--config", str(path), "--out", str(out),
                         "--threads", str(threads)])
        assert (got_code, capsys.readouterr().err) == (want_code, want_err), key
        got = _files(out)
        assert got.keys() == want.keys(), key
        for name in want:
            assert got[name] == want[name], (name, *key)


def test_two_threads_hold_at_most_two_slabs(tmp_path, capsys, monkeypatch):
    """At --threads 2, a slab is synthesized only once the slab two before it
    has been written: at most two slabs are alive, and they come out in grid
    order, even when the first slab is the last to finish."""
    from streamfields import synth as synthmod

    cfg = _config("shallow-vortex", [24, 20])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    grid = cfgmod.build_grid(cfgmod.load_config(str(path)))
    row = grid.npoints() // grid.shape()[0]
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 2 * row)
    events, slabs = [], cli._slabs

    def spied_slabs(s, threads, work):
        def recorded(top, end, part):
            events.append(("made", top))
            if top == 0:
                time.sleep(0.2)
            return work(top, end, part)
        for top, end, done in slabs(s, threads, recorded):
            yield top, end, done
            events.append(("written", top))

    monkeypatch.setattr(cli, "_slabs", spied_slabs)
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 0
    capsys.readouterr()
    tops = list(range(0, grid.shape()[0], 2))
    assert [top for kind, top in events if kind == "written"] == tops
    for i, top in enumerate(tops[2:], 2):
        # slab i is made after slab i - 2 has been written
        assert events.index(("made", top)) > events.index(("written", tops[i - 2])), top


@pytest.mark.parametrize("command", ["synth", "singular", "frobenius"])
def test_more_workers_than_cores_write_the_same_files(command, tmp_path, capsys, monkeypatch):
    """Slab workers share the summary's tallies (synth), the whole-grid
    sonic values (singular) and the per-slab solvability maxima, kind and
    evaluator (frobenius); with four workers on one-row slabs and a thread
    switch every microsecond, the files are still the oracle's."""
    import sys

    from streamfields import synth as synthmod

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config("shallow-vortex", [24, 20], output=_JSON)))
    grid = cfgmod.build_grid(cfgmod.load_config(str(path)))
    assert _whole_grid(command, str(path), str(tmp_path / "want")) == (0, "")
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", grid.npoints() // grid.shape()[0])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "got"),
                     "--threads", "4"]) == 0
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    got = _files(tmp_path / "got")
    assert got == _files(tmp_path / "want") and len(got) == 2
