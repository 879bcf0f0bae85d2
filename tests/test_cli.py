import ast
import copy
import csv
import functools
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfields import GridSpec, config as cfgmod, synthesize
from streamfields import cli
from streamfields import verify as verifymod
from streamfields.cli import _workers, _write_csv, main


def run_cfg(tmp_path, cfg_dict, command="synth", extra=()):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_exit_code_on_config_errors(tmp_path, capsys):
    bad_section = {"drv": {"kind": "builtin", "name": "radial_log"}}
    code, _ = run_cfg(tmp_path, bad_section)
    assert code == 2

    bad_key = copy.deepcopy(cfgmod.EXAMPLES["shallow-vortex"])
    bad_key["grid"]["cellz"] = 8
    code, _ = run_cfg(tmp_path, bad_key)
    assert code == 2

    # exactly one of --config / --example
    assert main(["synth", "--out", str(tmp_path / "o")]) == 2
    assert main(["synth", "--config", "a.json", "--example", "shallow-vortex",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["synth", "--example", "no-such-example",
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_main_builds_its_argument_parser_once_per_process(tmp_path, monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build()

    build = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for sub in ("synth", "verify", "synth"):
            assert main([sub, "--example", "no-such-example", "--out", str(tmp_path / "o")]) == 2
        assert main(["verify", "--example", "shallow-vortex", "--levels", "0"]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and "no-such-example" in err[0] and "--levels" in err[3]


@pytest.mark.parametrize("example, command, section, key, value", [
    ("shallow-vortex", "synth", "tol", "eps_rho", "abc"),
    ("extremal-patching-study", "synth", "policy", "branch", "x"),
    ("caustic-tau1", "synth", "density", "tau", "abc"),
    ("unit-density", "verify", "verify", "threshold", "abc"),
    ("shallow-annulus-eta", "frobenius", "frobenius", "tol_conservative", "abc"),
    ("shallow-annulus-eta", "frobenius", "frobenius", "anchor", 5),
    ("shallow-annulus-eta", "frobenius", "frobenius", "mask", 3),
    ("form-21", "forms", "forms", "n", "abc"),
    ("form-21", "forms", "forms", "box", 5),
    ("unit-density", "synth", "output", "csv", True),
    # booleans take JSON true/false only; a string is not read as its truthiness
    ("unit-density", "synth", "output", "json", "false"),
    ("form-21", "forms", "forms", "gamma", "no"),
    ("form-21", "forms", "forms", "closed", 0),
    ("shallow-vortex", "synth", "policy", "allow_nonphysical", "false"),
    ("unit-density", "verify", "verify", "energy", "true"),
    ("shallow-annulus-eta", "frobenius", "frobenius", "recover_eta", 1),
    # no string or boolean stands for a number, and no float for an integer
    ("unit-density", "verify", "verify", "threshold", "inf"),
    ("unit-density", "verify", "verify", "threshold", True),
    ("unit-density", "synth", "grid", "lo", ["nan", 0]),
    ("unit-density", "synth", "grid", "cells", [16.7, 16]),
    ("unit-density", "synth", "tol", "eps_rho", "nan"),
    ("unit-density", "synth", "tol", "eps_rho", False),
    ("caustic-tau1", "synth", "density", "tau", "1"),
    ("shallow-vortex-r4", "synth", "drive", "R", "4"),
    ("unit-density", "synth", "drive", "dim", 2.0),
    ("extremal-patching-study", "synth", "policy", "branch", 1.7),
    ("form-21", "forms", "forms", "n", 2.5),
    ("shallow-annulus-eta", "frobenius", "frobenius", "tol_conservative", "nan"),
    # key None: the value is the whole section
    ("caustic-tau1", "synth", "drive", None,
     {"kind": "scalar", "f": "a * x1^2 * x2^3", "params": {"a": "2"}}),
    ("caustic-tau1", "synth", "drive", None,
     {"kind": "scalar", "f": "a * x1^2 * x2^3", "params": {"a": "nan"}}),
    # finite corners whose extent hi - lo overflows
    ("unit-density", "synth", "grid", None, {"lo": [-1e308, 0], "hi": [1e308, 1], "cells": [8, 8]}),
    # a verify run that checks nothing, or a string for the list of kinds
    ("shallow-vortex", "verify", "verify", "residuals", []),
    ("unit-density", "verify", "verify", "residuals", "minor"),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, example, command, section, key, value):
    cfg = copy.deepcopy(cfgmod.EXAMPLES[example])
    cfg["grid"]["cells"] = [8] * len(cfg["grid"]["cells"])
    if key is None:
        cfg[section] = value
    else:
        cfg.setdefault(section, {})[key] = value
    code, _ = run_cfg(tmp_path, cfg, command=command)
    assert code == 2
    assert "config error:" in capsys.readouterr().err


# a closed 1-form on the form-21 grid: d(x2 dx1 + x1 dx2) = 0
CLOSED_FORM = {"n": 2, "k": 1, "coeffs": {"1": "x2", "2": "x1"}, "closed": True}


@pytest.mark.parametrize("box, code, used", [
    (None, 0, ((0.2, 0.2), (0.8, 0.8))),
    ([[0.3, 0.25], [0.7, 0.75]], 0, ((0.3, 0.25), (0.7, 0.75))),
    (5, 2, None),
    ([[0.3, 0.25], [0.7]], 2, None),
    ([[0.3, 0.25, 0.1], [0.7, 0.75, 0.9]], 2, None),
    ([[0.7, 0.25], [0.3, 0.75]], 2, None),
    ([[0.3, float("nan")], [0.7, 0.75]], 2, None),
    ([["a", 0.25], [0.7, 0.75]], 2, None),
], ids=["unset", "valid", "scalar", "short-corner", "wrong-dimension", "lo-above-hi",
        "nan", "text"])
def test_forms_box_is_checked_before_the_closure_check(tmp_path, capsys, monkeypatch,
                                                       box, code, used):
    seen = []
    check = cli.formsmod.check_closed

    def spy(alpha, box, params=None):
        seen.append(tuple(tuple(float(v) for v in corner) for corner in box))
        return check(alpha, box, params)

    monkeypatch.setattr(cli.formsmod, "check_closed", spy)
    cfg = copy.deepcopy(cfgmod.EXAMPLES["form-21"])
    cfg["forms"] = dict(CLOSED_FORM, **({} if box is None else {"box": box}))
    cfg["grid"]["cells"] = [8, 8]
    assert run_cfg(tmp_path, cfg, command="forms")[0] == code
    if code == 2:
        assert "config error: forms.box" in capsys.readouterr().err
        assert seen == []
    else:
        assert seen == [used]


def test_forms_in_one_dimension_is_a_forms_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(cfgmod.EXAMPLES["form-21"])
    cfg["grid"] = {"lo": [0.2], "hi": [0.8], "cells": [8]}
    cfg["forms"] = {"n": 1, "k": 0, "coeffs": {"": "x1"}}
    for command in ("forms", "verify"):
        assert run_cfg(tmp_path, cfg, command=command)[0] == 2
        assert capsys.readouterr().err == (
            "config error: forms live in 2, 3 or 4 dimensions, got n = 1\n")


def test_verify_checks_the_closed_form_that_forms_writes(tmp_path, capsys):
    # alpha = d(x1^2 x2^3 / 8): forms synthesizes omega from alpha itself, and
    # so must verify's codifferential residual
    cfg = copy.deepcopy(cfgmod.EXAMPLES["form-21"])
    cfg["forms"] = {"n": 2, "k": 1, "closed": True,
                    "coeffs": {"1": "x1 * x2^3 / 4", "2": "3 * x1^2 * x2^2 / 8"}}
    code, out = run_cfg(tmp_path, cfg, command="forms")
    assert code == 0
    assert read_csv(out / "forms.csv")[0][2:4] == ["omega_1", "omega_2"]
    code, out = run_cfg(tmp_path, cfg, command="verify")
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())["reports"][0]
    assert report["kind"] == "CodifferentialDefect"
    assert 1e-5 < report["max_norm"] < 1e-4


@pytest.mark.parametrize("example, command, witness", [
    ("shallow-vortex", "frobenius", "gradient"),
    ("born-infeld-fund", "frobenius", "2d"),
    ("shallow-vortex", "frobenius", "curl"),
    ("born-infeld-fund", "verify", "nd"),
])
def test_witness_that_does_not_fit_the_drive_exits_2_before_synthesis(
        tmp_path, capsys, monkeypatch, example, command, witness):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized before the witness was checked")

    monkeypatch.setattr(cli, "synthesize", no_synthesis)
    cfg = copy.deepcopy(cfgmod.EXAMPLES[example])
    cfg["frobenius"] = {"witness": witness}
    cfg["verify"] = {"residuals": ["divergence", "frobenius"]}
    assert run_cfg(tmp_path, cfg, command=command)[0] == 2
    assert "config error:" in capsys.readouterr().err


def test_a_codifferential_residual_without_forms_exits_2_before_synthesis(
        tmp_path, capsys, monkeypatch):
    """A codifferential residual synthesizes the config's form: with no forms
    section the study is refused, naming the section, before any node of the
    other kinds' field is synthesized."""
    calls = []
    monkeypatch.setattr(cli, "synthesize", lambda *a, **kw: calls.append("synthesize"))
    monkeypatch.setattr(verifymod, "synthesize_at_points", lambda *a, **kw: calls.append("slab"))
    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-vortex"])
    cfg["verify"] = {"residuals": ["divergence", "codifferential"]}
    assert run_cfg(tmp_path, cfg, command="verify", extra=["--levels", "3"])[0] == 2
    assert capsys.readouterr().err == (
        "config error: verify.residuals lists codifferential, which needs a forms section\n")
    assert calls == []


# Tiny-grid base configs for the config probe: (subcommand, config, the keys it
# reads).  Every key of config._SCHEMA is read by at least one base.
_PROBE_GRID = {"lo": [0.2, 0.2], "hi": [0.8, 0.8], "cells": [4, 4]}
_PROBE_SCALAR = {"kind": "scalar", "f": "x1^2 * x2^3 / 8", "params": {}}
PROBE_BASES = {
    "synth": ("synth", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "policy": {"mode": "prefer_type1", "allow_nonphysical": False},
        "tol": {"eps_phi_prime": 1e-6, "eps_rho": 1e-6, "eps_grad": 1e-8, "q_zero": 1e-12,
                "rho_zero": 1e-12, "xi_snap": 1e-12},
        "output": {"dir": "out", "json": True},
    }, ("density.kind", "drive.kind", "drive.f", "drive.params", "grid.lo", "grid.hi",
        "grid.cells", "policy.mode", "policy.allow_nonphysical", "tol.eps_phi_prime",
        "tol.eps_rho", "tol.eps_grad", "tol.q_zero", "tol.rho_zero", "tol.xi_snap",
        "output.dir", "output.json")),
    "caustic": ("synth", {
        "density": {"kind": "caustic", "tau": 1.0}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
    }, ("density.tau",)),
    "custom": ("synth", {
        "density": {"kind": "custom", "rho": "1", "q_min": 0.0, "q_max": 16.0, "name": "unit"},
        "drive": {"kind": "gradient", "dim": 2, "f": "x1"}, "grid": _PROBE_GRID,
    }, ("density.rho", "density.q_min", "density.q_max", "density.name", "drive.dim")),
    "builtin": ("synth", {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "builtin", "name": "shallow_vortex", "R": 1.0}, "grid": _PROBE_GRID,
    }, ("drive.name", "drive.R")),
    "skew": ("synth", {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "skew", "dim": 3, "entries": {"12": "x3 / 4", "23": "x1 / 4"}},
        "grid": {"lo": [0.2, 0.2, 0.2], "hi": [0.8, 0.8, 0.8], "cells": [2, 2, 2]},
    }, ("drive.entries", "drive.dim")),
    "raw": ("synth", {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "raw", "dim": 2, "components": ["-x2 / 4", "x1 / 4"],
                  "closure": "divergence_free", "box": [[0.2, 0.2], [0.8, 0.8]], "params": {}},
        "grid": _PROBE_GRID,
    }, ("drive.components", "drive.closure", "drive.box", "drive.dim", "drive.params")),
    "single": ("synth", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "policy": {"mode": "single_branch", "branch": 1},
    }, ("policy.branch",)),
    "region": ("synth", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "policy": {"mode": "region_map", "regions": [["0.5 - x1", 1]], "default": 1},
    }, ("policy.regions", "policy.default")),
    "frobenius": ("frobenius", {
        "density": {"kind": "shallow_water"},
        "drive": {"kind": "builtin", "name": "shallow_vortex", "R": 1.0},
        "grid": {"lo": [-1.35, -1.35], "hi": [1.35, 1.35], "cells": [48, 48]},
        "policy": {"mode": "prefer_type2", "allow_nonphysical": True},
        "tol": {"eps_phi_prime": 1e-3},
        "frobenius": {"witness": "2d", "recover_eta": True, "anchor": [1.1, 0.0],
                      "mask": "(x1^2 + x2^2 - 1) * (1.8 - x1^2 - x2^2)",
                      "tol_conservative": 1e-3},
    }, ("frobenius.witness", "frobenius.recover_eta", "frobenius.anchor",
        "frobenius.tol_conservative", "frobenius.mask")),
    "forms": ("forms", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "forms": dict(CLOSED_FORM, params={}, box=[[0.2, 0.2], [0.8, 0.8]], gamma=True),
    }, ("forms.n", "forms.k", "forms.coeffs", "forms.params", "forms.closed", "forms.box",
        "forms.gamma")),
    "verify-forms": ("verify", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "forms": {"n": 2, "k": 1, "closed": True, "params": {}, "box": [[0.2, 0.2], [0.8, 0.8]],
                  "coeffs": {"1": "x1 * x2^3 / 4", "2": "3 * x1^2 * x2^2 / 8"}},
        "verify": {"residuals": ["codifferential"], "threshold": 1.0},
    }, ("forms.n", "forms.k", "forms.coeffs", "forms.params", "forms.closed", "forms.box")),
    "verify": ("verify", {
        "density": {"kind": "shallow_water"}, "drive": _PROBE_SCALAR, "grid": _PROBE_GRID,
        "verify": {"residuals": ["divergence"], "threshold": 1.0, "energy": True,
                   "mask": "1"},
    }, ("verify.residuals", "verify.threshold", "verify.energy", "verify.mask")),
}
# json.dump writes Infinity and NaN as json.load reads them; 10 ** 30, 1e308
# and 5e-324 sit at the ends of the integer and float ranges
PROBE_VALUES = (None, float("inf"), float("nan"), "abc", [], [[0, 0]], {}, True, 10 ** 30, 1e308,
                5e-324)
PROBE_CASES = [(base, key) for base, (_, _, keys) in PROBE_BASES.items() for key in keys]
SCHEMA_KEYS = sorted(f"{sec}.{key}" for sec, types in cfgmod._SCHEMA.items() for key in types)


def _probe(tmp_path, command, cfg):
    """Run one config through main; the exit code, or the exception that escaped."""
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    try:
        return main([command, "--config", "cfg.json"])
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_config_probe_covers_every_key_and_every_base_runs(tmp_path, monkeypatch, capsys):
    covered = {key for _, key in PROBE_CASES}
    assert covered == set(SCHEMA_KEYS)
    monkeypatch.chdir(tmp_path)
    for name, (command, cfg, _) in PROBE_BASES.items():
        assert _probe(tmp_path, command, cfg) == 0, name
    capsys.readouterr()


def test_every_schema_key_is_read_by_some_builder(tmp_path, monkeypatch, capsys):
    """No dead keys: running the probe bases reads every key of the schema."""
    read = set()

    class Recording(cfgmod.Section):
        def __getitem__(self, key):
            read.add(f"{self.name}.{key}")
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(f"{self.name}.{key}")
            return super().get(key, default)

        # a dict subclass with its own __iter__ is unpacked by f(**section)
        # through __getitem__, so those reads are recorded too
        def __iter__(self):
            return super().__iter__()

    monkeypatch.setattr(cfgmod, "Section", Recording)
    monkeypatch.chdir(tmp_path)
    for name, (command, cfg, _) in PROBE_BASES.items():
        assert _probe(tmp_path, command, cfg) == 0, name
    capsys.readouterr()
    assert sorted(read) == SCHEMA_KEYS


def test_integer_numbers_and_null_keys_are_read_as_before(tmp_path, capsys):
    # a JSON integer where a number belongs reads as that float: same bytes
    floats, ints = _example("shallow-vortex", 8), _example("shallow-vortex", 8)
    floats["verify"]["threshold"] = 1.0
    ints["drive"]["R"] = 1
    ints["verify"]["threshold"] = 1
    outs = []
    for cfg in (floats, ints):
        code, out = run_cfg(tmp_path, cfg, command="verify")
        assert code == 0
        outs.append((out / "report.json").read_bytes())
        assert run_cfg(tmp_path, cfg)[0] == 0
        outs.append((out / "field.csv").read_bytes())
    assert outs[:2] == outs[2:]
    # null is unset: density.q_max null is an open-ended custom density
    cfg = _example("unit-density", 8)
    cfg["density"]["q_max"] = None
    assert cfgmod.build_model(cfgmod.parse_config(cfg)).branches()[0].q_interval.hi == math.inf
    assert run_cfg(tmp_path, cfg)[0] == 0
    capsys.readouterr()


@pytest.mark.parametrize("base, key", PROBE_CASES, ids=[f"{b}-{k}" for b, k in PROBE_CASES])
def test_config_probe_every_value_of_every_key_exits_cleanly(tmp_path, monkeypatch, capsys,
                                                            base, key):
    command, cfg, _ = PROBE_BASES[base]
    section, name = key.split(".")
    monkeypatch.chdir(tmp_path)
    bad = []
    for value in PROBE_VALUES:
        probe = copy.deepcopy(cfg)
        probe.setdefault(section, {})[name] = value
        outcome = _probe(tmp_path, command, probe)
        # a non-finite number is a config error wherever it stands
        if outcome not in ((2,) if _nonfinite(value) else (0, 2, 3, 4)):
            bad.append(f"{json.dumps(value)}: {outcome}")
    capsys.readouterr()
    assert bad == []


def _nonfinite(value) -> bool:
    """Whether a JSON value holds NaN or an infinity at any depth."""
    if isinstance(value, float):
        return not math.isfinite(value)
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(_nonfinite(item) for item in items)


# (base, key, the value as JSON text): non-finite numbers nested in a list, and
# the literal 1e999, which json.load reads as infinity
NONFINITE_TEXT = [
    ("frobenius", "frobenius.anchor", "[NaN, 0.0]"),
    ("synth", "grid.lo", "[NaN, 0.2]"),
    ("synth", "grid.hi", "[0.8, 1e999]"),
    ("synth", "tol.eps_rho", "1e999"),
    ("forms", "forms.box", "[[0.2, 0.2], [0.8, -1e999]]"),
    ("verify", "verify.threshold", "1e999"),
    ("frobenius", "frobenius.tol_conservative", "NaN"),
]


@pytest.mark.parametrize("base, key, text", NONFINITE_TEXT,
                         ids=[f"{b}-{k}-{t}" for b, k, t in NONFINITE_TEXT])
def test_config_probe_nested_and_literal_nonfinite_numbers_exit_2(tmp_path, monkeypatch, capsys,
                                                                  base, key, text):
    command, cfg, _ = PROBE_BASES[base]
    section, name = key.split(".")
    probe = copy.deepcopy(cfg)
    probe[section][name] = "@"
    (tmp_path / "cfg.json").write_text(json.dumps(probe).replace('"@"', text))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", "cfg.json"]) == 2
    assert f"config error: {key} must hold finite numbers" in capsys.readouterr().err


def _fuzz_values() -> dict:
    """Values for the whole-config fuzz, per key: every value a probe base
    holds, and the other choices of the string-valued switches."""
    values: dict = {}
    for _, cfg, _ in PROBE_BASES.values():
        for section, body in cfg.items():
            for key, value in body.items():
                values.setdefault(f"{section}.{key}", []).append(value)
    for key, more in {
        "density.kind": ["shallow_water", "extremal", "born_infeld", "caustic", "custom"],
        "drive.kind": ["builtin", "scalar", "skew", "gradient", "raw"],
        "drive.name": ["radial_log", "coulomb"],
        "grid.cells": [[3, 5], [2, 2, 2]],
        "policy.mode": ["prefer_type2", "single_branch", "region_map"],
        "policy.branch": [2, 3],
        "frobenius.witness": ["auto", "nd", "gradient"],
        "verify.residuals": [["minor"], ["frobenius", "exactness"], ["codifferential"]],
    }.items():
        values[key] += more
    return values


FUZZ_VALUES = _fuzz_values()


@st.composite
def whole_configs(draw):
    """(subcommand, config): a probe base that runs, with up to four keys of
    config._SCHEMA, in any section, set to a well-formed value or a malformed one."""
    command, cfg, _ = draw(st.sampled_from(list(PROBE_BASES.values())))
    cfg = copy.deepcopy(cfg)
    for key in draw(st.lists(st.sampled_from(SCHEMA_KEYS), max_size=4, unique=True)):
        section, name = key.split(".")
        good = st.sampled_from(FUZZ_VALUES[key])
        value = draw(st.one_of(good, good, good, st.sampled_from(PROBE_VALUES)))
        cfg.setdefault(section, {})[name] = copy.deepcopy(value)
    commands = (command, "synth", "singular", "frobenius", "forms", "verify")
    return draw(st.sampled_from(commands)), cfg


@settings(max_examples=400, deadline=None)
@given(case=whole_configs())
def test_whole_config_fuzz_exits_cleanly(tmp_path_factory, case):
    command, cfg = case
    tmp_path = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        outcome = _probe(tmp_path, command, cfg)
    finally:
        os.chdir(cwd)
    assert outcome in ((2,) if _nonfinite(cfg) else (0, 2, 3, 4)), (command, cfg)


DEEP_EXPRESSIONS = {
    "3000-term-sum": " + ".join(["x1"] * 3000),
    "3000-unary-minuses": "-" * 3000 + "x1",
    "3000-nested-parentheses": "(" * 3000 + "x1" + ")" * 3000,
}


@pytest.mark.parametrize("text", DEEP_EXPRESSIONS.values(), ids=DEEP_EXPRESSIONS.keys())
def test_config_probe_deep_drive_expression_exits_2(tmp_path, monkeypatch, capsys, text):
    command, cfg, _ = PROBE_BASES["synth"]
    probe = copy.deepcopy(cfg)
    probe["drive"]["f"] = text
    monkeypatch.chdir(tmp_path)
    assert _probe(tmp_path, command, probe) == 2
    assert "nested deeper than" in capsys.readouterr().err


def _run_script(name, *flags):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, os.path.join(root, "scripts", name), *flags],
                          capture_output=True, text=True, env=env)


def test_patching_convergence_refuses_fewer_than_three_levels():
    proc = _run_script("patching_convergence.py", "--base", "8", "--levels", "2")
    assert proc.returncode == 2
    assert "--levels must be at least 3" in proc.stderr
    assert proc.stdout == ""


def test_patching_convergence_fits_no_order_across_the_rounding_floor():
    # the 8-cell level's far-field residual is at rounding level, the finer two are not
    proc = _run_script("patching_convergence.py", "--base", "8", "--levels", "3")
    assert proc.returncode == 0
    assert "levels straddle the rounding floor (1e-11): no order fitted" in proc.stdout
    assert "fitted order" not in proc.stdout


# (script, flags, the stderr fragment of a refusal or None for a run that succeeds)
SCRIPT_CASES = {
    "portrait-tiny": ("vortex_branch_portrait.py", ("--cells", "2"), None),
    "portrait-small": ("vortex_branch_portrait.py", ("--R", "4", "--cells", "8"), None),
    "portrait-R-zero": ("vortex_branch_portrait.py", ("--R", "0"), "--R must lie in"),
    "portrait-R-huge": ("vortex_branch_portrait.py", ("--R", "1e308"), "--R must lie in"),
    "portrait-one-cell": ("vortex_branch_portrait.py", ("--cells", "1"), "--cells must be at least 2"),
    "portrait-over-budget": ("vortex_branch_portrait.py", ("--cells", "100000"),
                             f"at most {cfgmod.MAX_GRID_NODES} nodes"),
    "patching-small": ("patching_convergence.py", ("--base", "8", "--levels", "3"), None),
    "patching-one-cell": ("patching_convergence.py", ("--base", "1"), "--base must be at least 2"),
    "patching-too-coarse": ("patching_convergence.py", ("--base", "4"), "too coarse"),
    "patching-over-budget": ("patching_convergence.py", ("--base", "8", "--levels", "12"),
                             f"at most {cfgmod.MAX_GRID_NODES} nodes"),
}


@pytest.mark.parametrize("case", SCRIPT_CASES.values(), ids=SCRIPT_CASES.keys())
def test_scripts_run_small_and_refuse_bad_flags_up_front(case):
    script, flags, refusal = case
    proc = _run_script(script, *flags)
    if refusal is None:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout
    else:
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and refusal in proc.stderr


def test_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    cfg = copy.deepcopy(cfgmod.EXAMPLES["unit-density"])
    for out in ("", str(taken)):
        cfg["output"]["dir"] = out
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "config error:" in capsys.readouterr().err
    assert main(["synth", "--example", "unit-density", "--out", str(taken)]) == 2
    assert "config error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("synth", "field.csv"), ("verify", "report.json")])
def test_an_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, command, name):
    (tmp_path / name).mkdir()  # a directory where the artifact belongs
    assert main([command, "--example", "unit-density", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {str(tmp_path / name)!r}" in err
    assert "Traceback" not in err


def test_a_csv_whose_formatting_raises_is_removed(tmp_path, monkeypatch, capsys):
    """A column that cannot be formatted (a code past its name table) raises
    after a first block is written, and the half-written file goes; so does
    field.csv when formatting runs out of memory, and synth exits 2."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 2)
    path = tmp_path / "t.csv"
    with pytest.raises(IndexError):
        _write_csv(str(path), ["k"], [(("a", "b"), np.array([0, 1, 2]))])
    assert not path.exists()

    calls, column_text = [], cli._column_text

    def short_of_memory(*args):
        calls.append(1)
        if len(calls) > 20:
            raise MemoryError
        return column_text(*args)
    monkeypatch.setattr(cli, "_column_text", short_of_memory)
    assert main(["synth", "--example", "unit-density", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "synth ran out of memory: lower grid.cells or --levels\n"
    assert len(calls) == 21 and os.listdir(tmp_path) == []


# RLIMIT_AS (address space) of the child: importing numpy and streamfields
# takes a little over 100 MB of it with OPENBLAS_NUM_THREADS=1, and the
# arrays of every node that 2047^2-cell eta recovery holds (w, where G is
# defined, the curl residual) 105 MB more
_ADDRESS_SPACE_LIMIT = 150 << 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn and RLIMIT_AS")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path, threads):
    import resource

    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-annulus-eta"])
    cfg["grid"]["cells"] = [2047, 2047]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "streamfields.cli", "frobenius", "--config",
         str(tmp_path / "cfg.json"),
         "--out", str(tmp_path / "out"), "--threads", threads],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (_ADDRESS_SPACE_LIMIT, _ADDRESS_SPACE_LIMIT)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "frobenius ran out of memory: lower grid.cells or --levels\n"
    assert not os.listdir(tmp_path / "out")


def test_a_band_thread_that_cannot_start_exits_2_without_a_traceback(tmp_path, capsys,
                                                                     monkeypatch):
    """Executor.map starts every band's thread before any result is read; a
    thread that cannot start is the process running out of memory."""
    from concurrent.futures import ThreadPoolExecutor

    from streamfields import synth

    class Starved(ThreadPoolExecutor):
        started = 0

        def submit(self, *args, **kwargs):
            if self.started:
                raise RuntimeError("can't start new thread")
            self.started += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(synth, "ThreadPoolExecutor", Starved)
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-vortex"])
    cfg["grid"]["cells"] = [300, 300]  # 90,601 nodes: two bands of synth.SYNTH_BLOCK
    code, out = run_cfg(tmp_path, cfg, extra=("--threads", "2"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == "synth ran out of memory: lower grid.cells or --levels\n"
    assert not os.listdir(out)


def test_portrait_script_refuses_an_out_path_it_cannot_write(tmp_path):
    path = tmp_path / "missing" / "field.csv"
    proc = _run_script("vortex_branch_portrait.py", "--cells", "2", "--out", str(path))
    assert proc.returncode == 2
    assert f"error: cannot write {str(path)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr and not path.parent.exists()


def test_threads_below_one_exit_2(tmp_path, capsys):
    assert main(["synth", "--example", "unit-density", "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_levels_below_one_exit_2(tmp_path, capsys, levels):
    assert main(["synth", "--example", "unit-density", "--out", str(tmp_path / "o"),
                 "--levels", levels]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["40", "2"])
def test_levels_over_the_node_budget_exit_2_before_any_grid(tmp_path, capsys, monkeypatch, levels):
    def no_synthesis(*args):
        raise AssertionError("a grid was synthesized")

    monkeypatch.setattr(cli, "_slabs", no_synthesis)
    monkeypatch.setattr(GridSpec, "points", no_synthesis)
    monkeypatch.setattr(GridSpec, "axes", no_synthesis)  # a synthesis block's nodes
    tracemalloc.start()
    try:
        code = main(["verify", "--example", "unit-density", "--out", str(tmp_path / "o"),
                     "--levels", levels])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["synth", "singular", "frobenius", "forms", "verify"])
def test_grid_over_the_node_budget_exit_2_before_any_grid(tmp_path, capsys, monkeypatch, command):
    def no_synthesis(*args):
        raise AssertionError("a grid was synthesized")

    monkeypatch.setattr(cli, "_slabs", no_synthesis)
    monkeypatch.setattr(GridSpec, "points", no_synthesis)
    monkeypatch.setattr(GridSpec, "axes", no_synthesis)  # a synthesis block's nodes
    cfg = copy.deepcopy(cfgmod.EXAMPLES["form-21" if command == "forms" else "unit-density"])
    cfg["grid"]["cells"] = [10 ** 6, 10 ** 6]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"more than {cfgmod.MAX_GRID_NODES} nodes" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("cells, command, extra", [
    (8, "synth", ()), (8, "forms", ()), (4, "verify", ("--levels", "3"))])
def test_grid_with_subnormal_spacing_exits_2_before_any_grid(tmp_path, capsys, monkeypatch,
                                                             cells, command, extra):
    """Halving a subnormal spacing is not exact, so such a grid, or a study
    whose finest grid has one, is refused before anything is synthesized."""
    def no_synthesis(*args):
        raise AssertionError("a grid was synthesized")

    monkeypatch.setattr(GridSpec, "points", no_synthesis)
    monkeypatch.setattr(GridSpec, "axes", no_synthesis)  # a synthesis block's nodes
    cfg = copy.deepcopy(cfgmod.EXAMPLES["form-21" if command == "forms" else "unit-density"])
    # the x1 spacing is 1e-307/4 = 2.5e-308 at 4 cells, and subnormal at 8 or 16
    cfg["grid"] = {"lo": [0.0, 0.0], "hi": [1e-307, 1.0], "cells": [cells, cells]}
    assert GridSpec((0.0, 0.0), (1e-307, 1.0), (4, 4)).spacing()[0] >= np.finfo(float).tiny
    code, _ = run_cfg(tmp_path, cfg, command=command, extra=extra)
    assert code == 2
    assert "smallest normal float" in capsys.readouterr().err


def test_grid_at_the_node_budget_is_built():
    cfg = copy.deepcopy(cfgmod.EXAMPLES["unit-density"])
    cfg["grid"]["cells"] = [2047, 2047]  # 2048^2 = MAX_GRID_NODES nodes
    grid = cfgmod.build_grid(cfgmod.parse_config(cfg))
    assert grid.npoints() == cfgmod.MAX_GRID_NODES
    cfg["grid"]["cells"] = [2047, 2048]
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.build_grid(cfgmod.parse_config(cfg))


def test_worker_count_is_capped_by_cores_and_points(monkeypatch):
    """The thread count is capped by the cores here; synth.walk caps it by a
    grid's rows and blocks (test_synth's walk tests)."""
    # the cores this process may run on, not the host's, where the platform says
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert _workers(1) == 1
    assert _workers(10 ** 6) == 3
    assert _workers(3) == 3
    # elsewhere, the host's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers(10 ** 6) == 64
    assert _workers(3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _workers(10 ** 6) == 1


# |a|^2 of the ring drive on this box lies below the image (1, inf) of branch 2
EMPTY_IMAGE = {
    "density": {"kind": "extremal"},
    "drive": {"kind": "builtin", "name": "radial_log"},
    "grid": {"lo": [3.0, 3.0], "hi": [4.0, 4.0], "cells": [8, 8]},
    "policy": {"mode": "single_branch", "branch": 2},
}


def test_exit_code_on_empty_image(tmp_path, capsys):
    code, out = run_cfg(tmp_path, EMPTY_IMAGE)
    assert code == 3
    err = capsys.readouterr().err
    assert "Sigma_f" in err and "Im(phi)" in err
    assert not (out / "field.csv").exists()


def _example(name, cells, **sections):
    """A built-in example on a grid of `cells` per axis, with whole sections replaced."""
    cfg = copy.deepcopy(cfgmod.EXAMPLES[name])
    cfg["grid"]["cells"] = [cells] * len(cfg["grid"]["cells"])
    cfg.update(copy.deepcopy(sections))
    return cfg


_BRANCH_2 = {"mode": "single_branch", "branch": 2}
# |df|^2 < 1 on the form-21 box, below the image of extremal branch 2
_EMPTY_FORM = _example("form-21", 8, density={"kind": "extremal"}, policy=_BRANCH_2)
# without its frobenius.mask the witness is not conservative across the fold
# circles (max curl residual 3.848e1 here, 3.476e3 on the shipped grid)
_ANNULUS_UNMASKED = _example("shallow-annulus-eta", 64, verify={"residuals": ["exactness"]})
del _ANNULUS_UNMASKED["frobenius"]["mask"]

# id: (command, config, exit code, stderr fragment, the files written)
EXIT_CASES = {
    "synth-empty": ("synth", EMPTY_IMAGE, 3, "synthesis produced no admissible", set()),
    "singular-empty": ("singular", EMPTY_IMAGE, 3, "Sigma_f", set()),
    "frobenius-empty": ("frobenius", EMPTY_IMAGE, 3, "Sigma_f", set()),
    "verify-empty": ("verify", EMPTY_IMAGE, 3, "Sigma_f", set()),
    "forms-empty": ("forms", _EMPTY_FORM, 3, "form synthesis produced no admissible", set()),
    # |alpha|^2 = (x1^2 + x2^2) / 16 < 1 on the box: the range names what was sampled
    "forms-closed-empty": ("forms", _example(
        "form-21", 8, density={"kind": "extremal"}, policy=_BRANCH_2,
        forms={"n": 2, "k": 1, "closed": True, "coeffs": {"1": "x2 / 4", "2": "x1 / 4"}}),
        3, "sampled |alpha|^2 = [", set()),
    "verify-codifferential-empty": (
        "verify", _EMPTY_FORM, 3, "form synthesis produced no admissible", set()),
    # xi = |a|^2 = 1 at every node, just outside the open image (1, inf)
    "synth-sigma-range-over-grid": ("synth", {
        "density": {"kind": "extremal"}, "drive": {"kind": "scalar", "f": "x1"},
        "grid": {"lo": [0, 0], "hi": [1, 1], "cells": [4, 4]}, "policy": _BRANCH_2,
    }, 3, "Sigma_f = [1, 1] misses", set()),
    "verify-gate": (
        "verify", _example("shallow-vortex", 16, verify={"threshold": 1e-20}), 4,
        "verification threshold 1e-20 breached by DivergenceOfRhoW (max_norm ", {"report.json"}),
    "verify-exactness-not-conservative": (
        "verify", _ANNULUS_UNMASKED, 4, "integrability check failed: witness not conservative",
        set()),
    "verify-mask-excludes-every-node": (
        "verify", _example("unit-density", 8, verify={"mask": "-1"}), 2,
        "verification could not run: DivergenceOfRhoW: fewer than 3", set()),
    "frobenius-eta-not-conservative": (
        "frobenius", _ANNULUS_UNMASKED, 4, "eta recovery failed: witness not conservative",
        {"witness.csv", "frobenius.json"}),
}


@pytest.mark.parametrize("case", EXIT_CASES.values(), ids=EXIT_CASES.keys())
def test_exit_code_and_reason(tmp_path, capsys, case):
    command, cfg, want, fragment, written = case
    code, out = run_cfg(tmp_path, cfg, command=command)
    err = capsys.readouterr().err
    assert (code, err.count("\n")) == (want, 1), err
    assert fragment in err
    assert set(os.listdir(out)) == written
    if command == "verify" and written:
        assert json.loads((out / "report.json").read_text())["passed"] is False


def test_only_main_prints_a_reason_or_returns_a_failure_code():
    """Subcommands raise every outcome but success; main alone turns it into
    the reason on stderr and the exit code."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sites = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                sites.append(f"{fn.name}:{node.lineno} print")
            if isinstance(node, ast.Return) and node.value is not None:
                sites += [f"{fn.name}:{node.lineno} return {name.id}"
                          for name in ast.walk(node.value) if isinstance(name, ast.Name)
                          and name.id.startswith("EXIT_") and name.id != "EXIT_OK"]
    assert sites == []


def test_verify_mask_applies_to_every_residual_kind(tmp_path, capsys):
    # the FD stencils straddle the branch-2/branch-3 seam outside the annulus;
    # verify.mask keeps them out of the Frobenius defect too (48.4 unmasked)
    ann = cfgmod.EXAMPLES["shallow-annulus-eta"]
    cfg = _example("shallow-annulus-eta", 64, verify={
        "residuals": ["frobenius", "exactness"], "mask": ann["frobenius"]["mask"]})
    code, out = run_cfg(tmp_path, cfg, command="verify")
    frob, exact = json.loads((out / "report.json").read_text())["reports"]
    assert frob["kind"] == "FrobeniusDefect" and frob["max_norm"] < 1e-10
    # the exactness residual already skips nodes where eta is not recovered
    assert exact["kind"] == "ExactnessDefect"
    assert frob["masked_fraction"] == exact["masked_fraction"]
    # O(h^2) truncation error of e^(-eta) w, above the default threshold 1e-6
    assert code == 4
    assert "breached by ExactnessDefect" in capsys.readouterr().err


def test_verify_exactness_recovers_eta_from_the_frobenius_anchor(tmp_path):
    """The exactness kind recovers eta from frobenius.anchor, as the
    frobenius command does.  The residual of e^(-eta) w scales with eta's
    gauge, so the report with the anchor is exactness_residual of the eta
    recovered from it, and differs from the one without."""
    from streamfields import frobenius as frobmod

    got = {}
    for name, anchor in (("free", None), ("anchored", [0.0, -1.2])):
        cfg = _example("shallow-annulus-eta", 64, verify={"residuals": ["exactness"]})
        if anchor is not None:
            cfg["frobenius"]["anchor"] = anchor
        (tmp_path / name).mkdir()
        code, out = run_cfg(tmp_path / name, cfg, command="verify")
        report, = json.loads((out / "report.json").read_text())["reports"]
        got[name] = (code, report["max_norm"])
    rc = cfgmod.parse_config(cfg)
    grid, fs = cfgmod.build_grid(rc), cfgmod.frobenius_section(rc, 2)
    sol = synthesize(cfgmod.build_model(rc), cfgmod.build_drive(rc), cfgmod.build_policy(rc, 2),
                     grid, tol=cfgmod.build_tol(rc))
    wit = frobmod.witness_2d(sol)
    rec = frobmod.recover_eta(wit, anchor=fs["anchor"],
                              mask=cli._grid_mask(fs["mask"], grid),
                              tol_conservative=fs["tol_conservative"])
    want = verifymod.exactness_residual(sol, rec.eta, system=wit.kind).max_norm
    assert got["anchored"] == (4, want) and got["free"][1] != want


def test_closed_form_k_is_the_degree_of_omega(tmp_path):
    # alpha = x1 x2 dx1 ^ dx2 is a closed 2-form, so omega = *alpha / rho is a 0-form
    cfg = _example("form-21", 8, forms={"n": 2, "k": 0, "closed": True,
                                        "coeffs": {"12": "x1 * x2"}})
    code, out = run_cfg(tmp_path, cfg, command="forms")
    assert code == 0
    assert read_csv(out / "forms.csv")[0][2] == "omega_0"


def test_field_csv_schema_and_exact_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--example", "unit-density", "--out", str(out)]) == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["x1", "x2", "w1", "w2", "Q", "regime", "branch", "flags"]

    cfg = cfgmod.example_config("unit-density")
    grid = cfgmod.build_grid(cfg)
    sol = synthesize(cfgmod.build_model(cfg), cfgmod.build_drive(cfg),
                     cfgmod.build_policy(cfg, grid.dim), grid,
                     tol=cfgmod.build_tol(cfg))
    assert len(rows) == grid.npoints()
    got_pts = np.array([[float(r[0]), float(r[1])] for r in rows])
    got_w = np.array([[float(r[2]), float(r[3])] for r in rows])
    # %.17g round-trips float64 exactly
    assert np.array_equal(got_pts, sol.points)
    assert np.array_equal(got_w, sol.w)
    assert {r[5] for r in rows} <= {"undefined", "elliptic", "hyperbolic", "sonic"}
    assert all(r[6].lstrip("-").isdigit() and r[7].isdigit() for r in rows)


def test_summary_json_when_enabled(tmp_path):
    cfg = copy.deepcopy(cfgmod.EXAMPLES["unit-density"])
    cfg.setdefault("output", {})["json"] = True
    code, out = run_cfg(tmp_path, cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["points"] == 17 * 17
    assert summary["defined"] == summary["points"]
    assert summary["regimes"]["elliptic"] == summary["points"]


def test_rerun_and_threads_are_byte_identical(tmp_path, monkeypatch):
    # two cores at least, so --threads 2 splits the grid on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outs = []
    for sub, extra in (("a", ()), ("b", ()), ("c", ("--threads", "4"))):
        out = tmp_path / sub
        assert main(["synth", "--example", "shallow-vortex", "--out", str(out),
                     *extra]) == 0
        outs.append((out / "field.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]

    # the witness reads Q and branch from a solution that may be built in blocks
    for command, example, names in (
            ("frobenius", "shallow-annulus-eta", ("witness.csv", "eta.csv", "frobenius.json")),
            ("synth", "born-infeld-fund", ("field.csv",))):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{example}-{threads}"
            assert main([command, "--example", example, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append([(out / name).read_bytes() for name in names])
        assert outs[0] == outs[1], example
    summary = json.loads((tmp_path / "shallow-annulus-eta-1" / "frobenius.json").read_text())
    assert summary["eta"]["unreached"] == 0


def test_every_builtin_example_synthesizes(tmp_path):
    for name in cfgmod.EXAMPLES:
        out = tmp_path / name
        assert main(["synth", "--example", name, "--out", str(out)]) == 0, name
        header, rows = read_csv(out / "field.csv")
        assert len(rows) > 0, name


def test_singular_artifacts(tmp_path):
    # widen the sonic tolerance so the band around the fold picks up nodes
    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-vortex"])
    cfg.setdefault("tol", {})["eps_phi_prime"] = 0.05
    code, out = run_cfg(tmp_path, cfg, command="singular")
    assert code == 0
    header, rows = read_csv(out / "masks.csv")
    assert header == ["x1", "x2", "outside", "gamma0", "gammas", "gammainf", "gammag"]
    vals = np.array([[int(v) for v in r[2:]] for r in rows])
    assert set(np.unique(vals)) <= {0, 1}
    assert vals[:, 2].sum() > 0  # sonic band near the fold circle

    header, rows = read_csv(out / "sonic.csv")
    assert header == ["segment", "x", "y"]
    assert len(rows) > 10
    xy = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.abs(xy).max() <= 1.1 + 1e-9


def test_frobenius_artifacts_with_eta(tmp_path):
    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-annulus-eta"])
    cfg["grid"]["cells"] = [96, 96]
    code, out = run_cfg(tmp_path, cfg, command="frobenius")
    assert code == 0
    header, rows = read_csv(out / "witness.csv")
    assert header == ["x1", "x2", "G1", "G2", "defect", "curl_defect"]

    header, rows = read_csv(out / "eta.csv")
    assert header == ["x1", "x2", "eta"]
    data = np.array([[float(v) for v in r] for r in rows])
    keep = np.isfinite(data[:, 2])
    # eta = log(x^2 + y^2) up to the anchor constant on the annulus
    t = data[keep, 0] ** 2 + data[keep, 1] ** 2
    dev = data[keep, 2] - np.log(t)
    assert dev.max() - dev.min() < 1e-6

    summary = json.loads((out / "frobenius.json").read_text())
    assert summary["kind"] == "minor"
    # the unmasked grid-wide curl maximum blows up near the singular circles;
    # the gated (annulus-masked) value is the meaningful one
    assert summary["max_curl_residual"] > 1.0
    eta = summary["eta"]
    assert eta["curl_gate"] < 1e-6
    assert eta["loop_max"] < 1e-5
    assert eta["post_residual"] < 1e-4
    assert eta["unreached"] == 0


def test_forms_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["forms", "--example", "form-21", "--out", str(out)]) == 0
    header, rows = read_csv(out / "forms.csv")
    assert header == ["x1", "x2", "omega_1", "omega_2", "Q", "regime", "branch", "flags"]

    header, rows = read_csv(out / "gamma.csv")
    assert header == ["x1", "x2", "Gamma1", "Gamma2", "defect", "frobenius_defect"]
    defect = np.array([float(r[4]) for r in rows])
    fdef = np.array([float(r[5]) for r in rows])
    assert np.nanmax(defect) < 1e-8
    assert np.nanmax(fdef) < 1e-8


def test_verify_energy_where_rho_is_undefined_exits_2_in_bounded_time(tmp_path):
    # rho = sqrt((Q-1)(Q-2)) is NaN on (1, 2), below every Q of branch 3; the
    # energy integral from Q = 0 crosses that gap, so the run is refused.  It
    # runs in a subprocess, so a quadrature that never ends fails the timeout.
    cfg = {
        "density": {"kind": "custom", "rho": "sqrt((Q-1)*(Q-2))", "q_max": 10.0},
        "drive": {"kind": "gradient", "dim": 2, "f": "2*x1"},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "cells": [8, 8]},
        "policy": {"mode": "single_branch", "branch": 3},
        "verify": {"residuals": ["minor"], "threshold": 1.0, "energy": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "streamfields.cli", "verify", "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "the energy is not finite" in proc.stderr
    lo, hi = (float(v) for v in re.search(r"Q in \[(\S+), (\S+)\]", proc.stderr).groups())
    assert lo <= 1.0 and hi >= 2.0  # the named range holds the gap where rho is NaN
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("levels", ["1", "3"])
def test_an_energy_with_no_usable_cell_exits_3_without_a_field_pass(tmp_path, capsys,
                                                                     monkeypatch, levels):
    """No usable cell centre is a synthesis that admits no point, exit 3 as
    _admitted's: here the form admits its nodes, but the field drive's
    |a|^2 = 10^4 misses every branch image of shallow water.  A form config
    runs no pass of the field for the energy: the finest form nodes, then
    the energy's cell centres, are all that is synthesized."""
    calls, points = _record_syntheses(monkeypatch)
    cfg = _example("form-21", 8, drive={"kind": "scalar", "f": "100 * x1"},
                   verify={"residuals": ["codifferential"], "threshold": 1.0, "energy": True})
    code, out = run_cfg(tmp_path, cfg, command="verify", extra=("--levels", levels))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("energy quadrature: no usable cells")
    assert not (out / "report.json").exists()
    finest = 8 * 2 ** (int(levels) - 1)
    assert calls == [] and [len(p) for p in _before_energy(points)] == [(finest + 1) ** 2]
    assert sum(map(len, points[len(_before_energy(points)) + 1:])) == finest ** 2


def test_verify_report_pass_and_threshold_fail(tmp_path):
    out = tmp_path / "ok"
    assert main(["verify", "--example", "unit-density", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert abs(report["energy"] - 0.5) < 1e-12
    assert report["reports"][0]["kind"] == "MinorSystemOfRhoW"
    assert report["reports"][0]["max_norm"] == 0.0

    cfg = copy.deepcopy(cfgmod.EXAMPLES["shallow-vortex"])
    cfg.setdefault("verify", {})["threshold"] = 1e-20
    code, out = run_cfg(tmp_path, cfg, command="verify")
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_verify_convergence_levels(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--example", "extremal-patching-study", "--out", str(out),
                 "--levels", "3"]) == 0
    report = json.loads((out / "report.json").read_text())["reports"][0]
    assert 1.7 < report["order"] < 2.2
    # the study behind the order, coarse to fine, ends at the reported grid
    rows = report["convergence"]
    assert [h for h, _ in rows] == pytest.approx([rows[0][0] / 2 ** i for i in range(3)])
    assert rows[-1] == [report["h"], report["max_norm"]]
    assert report["at_floor"] is False


def test_verify_builds_one_witness_per_level(tmp_path, capsys, monkeypatch):
    built = []
    witness_2d = cli.frobmod.witness_2d

    def counted(sol):
        built.append(sol.grid)
        return witness_2d(sol)

    monkeypatch.setattr(cli.frobmod, "witness_2d", counted)
    cfg = _example("shallow-annulus-eta", 64, verify={
        "residuals": ["frobenius", "exactness"],
        "mask": cfgmod.EXAMPLES["shallow-annulus-eta"]["frobenius"]["mask"]})
    code, out = run_cfg(tmp_path, cfg, command="verify", extra=("--levels", "3"))
    capsys.readouterr()
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert [r["kind"] for r in reports] == ["FrobeniusDefect", "ExactnessDefect"]
    assert all(len(r["convergence"]) == 3 for r in reports)
    assert [g.cells for g in built] == [(64, 64), (128, 128), (256, 256)]
    assert code in (0, 4)


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(cfgmod.EXAMPLES))
def test_restricted_levels_equal_a_synthesis_on_each_level_bit_for_bit(name, monkeypatch):
    """A three-level study copies its coarse levels out of the slabs of its
    finest synthesis (cli._study's on(grid)); on one worker and two, with
    slabs of 7 rows, each must be what a synthesis on that level writes,
    bit for bit."""
    from streamfields import synth as synthmod

    cfg = cfgmod.example_config(name)
    grids = [cli._refined(cfgmod.build_grid(cfg), 2 ** i) for i in range(3)]
    *coarse, finest = grids
    spec = cli._build_form(cfg, finest.dim) if "forms" in cfgmod.EXAMPLES[name] else None
    s = cli._synthesis(cfg, finest, form=spec)
    direct = [synthesize(s.model, s.drive, s.policy, g, tol=s.tol) for g in coarse]
    # two bands on any machine, so the seams show on one core too
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 7 * (finest.npoints() // finest.shape()[0]))
    for workers in (1, 2):
        on, _ = cli._study(grids, lambda grid: s, workers, None, [])
        for g, want in zip(coarse, direct):
            got = on(g)
            assert got.grid == g and got.drive is want.drive
            for attr in ("points", "w", "Q", "xi", "regime", "branch_id", "flags"):
                assert _same_bits(getattr(got, attr), getattr(want, attr)), (workers, g.cells, attr)
            if spec is not None:
                # Gamma evaluates *df from the drive at the level's points
                got_gw, want_gw = (cli.formsmod.gamma_witness(s.model, spec.form, sol)
                                   for sol in (got, want))
                for attr in ("Gamma", "defect", "frobenius_defect", "defined"):
                    assert _same_bits(getattr(got_gw, attr), getattr(want_gw, attr)), g.cells


def _record_syntheses(monkeypatch) -> tuple:
    """(calls, points): the grids cli.synthesize is called on, and the points
    of each verify.synthesize_at_points call, in call order; a None in
    `points` marks where verify.energy started, whose cell centres follow."""
    calls, points = [], []
    synth, at_points, energy = cli.synthesize, verifymod.synthesize_at_points, verifymod.energy

    def synth_recorded(model, d, policy, grid, **kwargs):
        calls.append(grid)
        return synth(model, d, policy, grid, **kwargs)

    def at_points_recorded(model, d, policy, pts, **kwargs):
        points.append(pts)
        return at_points(model, d, policy, pts, **kwargs)

    def energy_recorded(*args, **kwargs):
        points.append(None)
        return energy(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", synth_recorded)
    monkeypatch.setattr(verifymod, "synthesize_at_points", at_points_recorded)
    monkeypatch.setattr(verifymod, "energy", energy_recorded)
    return calls, points


def _before_energy(points: list) -> list:
    return list(itertools.takewhile(lambda pts: pts is not None, points))


def _check_streamed_nodes(points: list, grid: GridSpec, workers: int) -> None:
    """`points`, a streamed study's synthesize_at_points calls up to the
    energy's, hold every node of its finest grid `grid` once, and the HALO
    rows on either side of each seam between its bands once more; no call
    takes more than a synthesis block.  The bands split the rows evenly,
    one per worker and at most one per block of nodes."""
    from streamfields import synth as synthmod

    points = _before_energy(points)
    assert max(map(len, points)) <= synthmod.SYNTH_BLOCK
    shape, axis = grid.shape(), grid.axes()[0]
    pts = np.concatenate(points)
    rows = np.searchsorted(axis, pts[:, 0])
    assert np.array_equal(axis[rows], pts[:, 0])
    bands = min(workers, -(-grid.npoints() // synthmod.SYNTH_BLOCK), shape[0])
    want = np.ones(shape[0], dtype=np.int64)
    for cut in (shape[0] * b // bands for b in range(1, bands)):
        want[max(cut - verifymod.HALO, 0):cut + verifymod.HALO] += 1
    assert np.array_equal(np.bincount(rows, minlength=shape[0]),
                          want * (grid.npoints() // shape[0]))
    assert _same_bits(np.unique(pts, axis=0), grid.nodes(0, grid.npoints()))


def _record_points(monkeypatch) -> list:
    """The grids GridSpec.points builds every node of, in call order."""
    built = []
    points = GridSpec.points

    def recorded(grid):
        built.append(grid)
        return points(grid)

    monkeypatch.setattr(GridSpec, "points", recorded)
    return built


def test_verify_study_synthesizes_only_its_finest_grid(tmp_path, capsys, monkeypatch):
    """...streamed through its residual slabs, with every example's residual
    kinds and with the whole-grid frobenius and exactness kinds: no solution
    of its finest grid is synthesized whole (cli.synthesize), and on one
    thread the slabs synthesize the finest nodes once each, in order, a
    block at a time.  No level's points are built: verify.mask is evaluated
    on the nodes each slab reads, the exactness kind's frobenius.mask a
    block of nodes at a time, and the residuals and witnesses read no
    points.  A form is streamed as a field is."""
    from streamfields import synth as synthmod

    calls, points = _record_syntheses(monkeypatch)
    built = _record_points(monkeypatch)

    def study(out: str, cfg, *source: str) -> list:
        """Check verify --levels 3 of `cfg`; its coarser grids."""
        calls.clear()
        points.clear()
        built.clear()
        assert main(["verify", *source, "--out", str(tmp_path / out), "--levels", "3"]) in (0, 4)
        *coarse, finest = [cli._refined(cfgmod.build_grid(cfg), 2 ** i) for i in range(3)]
        assert calls == [], out
        streamed = _before_energy(points)
        assert _same_bits(np.concatenate(streamed), finest.nodes(0, finest.npoints())), out
        assert max(map(len, streamed)) <= synthmod.SYNTH_BLOCK
        return coarse

    skipped = unread = 0
    for name, spec in cfgmod.EXAMPLES.items():
        skipped += sum(g.npoints() for g in study(name, cfgmod.example_config(name),
                                                  "--example", name))
        if "exactness" not in spec["verify"]["residuals"]:
            assert built == [], name
            unread += 1
    # test_verify_builds_one_witness_per_level's study
    path = tmp_path / "whole-grid.json"
    path.write_text(json.dumps(_example("shallow-annulus-eta", 64, verify={
        "residuals": ["frobenius", "exactness"],
        "mask": cfgmod.EXAMPLES["shallow-annulus-eta"]["frobenius"]["mask"]})))
    study("whole-grid", cfgmod.load_config(str(path)), "--config", str(path))
    assert built == []
    capsys.readouterr()
    assert unread == 11
    # the nodes of the coarse levels that refine-l3 (verify --levels 3 on
    # every example) does not synthesize: 891,956 field nodes and 5,314 of form-21
    assert skipped == 897_270


# base cells per axis of the studies below, in 2-D and in 3-D
_SHRUNK_CELLS = {2: [8, 6], 3: [4, 3, 4]}


def _direct_study(grids, synthesis, threads, mask, kinds) -> tuple:
    """cli._study's (on, report), from a synthesis on each level, checked by
    cli._admitted, and the public residual functions: the reference a
    streamed study is held to."""
    @functools.cache
    def on(grid):
        s = synthesis(grid)
        return cli._admitted(synthesize(s.model, s.drive, s.policy, grid, tol=s.tol))

    def report(kind, grid):
        return getattr(verifymod, f"{kind}_residual")(on(grid), mask=mask)
    return on, report


# the whole-grid kinds beside a slab kind: (example, base cells, verify
# section); the annulus's eta is recovered, and report.json written, from 64^2
# cells on (a coarser witness is not conservative: exit 4 before any report)
_WHOLE_GRID_STUDIES = {
    "shallow-annulus-eta-whole-grid": ("shallow-annulus-eta", [64, 64], {
        "residuals": ["divergence", "frobenius", "exactness"], "threshold": 1e-8,
        "mask": cfgmod.EXAMPLES["shallow-annulus-eta"]["frobenius"]["mask"]}),
    "born-infeld-fund-whole-grid": ("born-infeld-fund", _SHRUNK_CELLS[3], {
        "residuals": ["minor", "frobenius"], "threshold": 1e-2}),
}


@pytest.mark.parametrize("name, cells, verify", [
    *(pytest.param(name, None, None, id=name) for name in sorted(cfgmod.EXAMPLES)),
    *(pytest.param(*case, id=key) for key, case in _WHOLE_GRID_STUDIES.items())])
def test_a_streamed_study_writes_what_the_stored_finest_solution_writes(
        name, cells, verify, tmp_path, capsys, monkeypatch):
    """Each example on a small grid, with its finest level streamed through
    the residual slabs and with a solution synthesized whole and kept on
    every level (_direct_study): the same exit code, stderr and report.json
    bytes, at --levels 1 and 3, on one and two workers, for slabs of 1, 2
    and 7 rows and for one slab a band; the whole-grid kinds (frobenius and
    exactness) read the finest level copied out of the same pass.  The
    streamed study never calls cli.synthesize and synthesizes every finest
    node once, plus the band seams."""
    from streamfields import synth as synthmod

    cfg = copy.deepcopy(cfgmod.EXAMPLES[name])
    cfg["grid"]["cells"] = cells or _SHRUNK_CELLS[len(cfg["grid"]["cells"])]
    if verify is not None:
        cfg["verify"] = verify
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    base = cfgmod.build_grid(cfgmod.load_config(str(path)))
    # two workers on any machine, so the bands show on one core too
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    calls, points = _record_syntheses(monkeypatch)

    def run(levels: int, threads: int) -> tuple:
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        calls.clear()
        points.clear()
        code = main(["verify", "--config", str(path), "--out", str(out), "--levels", str(levels),
                     "--threads", str(threads)])
        report = out / "report.json"
        return code, capsys.readouterr().err, report.read_bytes() if report.exists() else None

    outcomes = set()
    for levels in (1, 3):
        finest = cli._refined(base, 2 ** (levels - 1))
        rows = finest.shape()[0]
        with monkeypatch.context() as m:
            m.setattr(cli, "_study", _direct_study)
            want = run(levels, 1)
        outcomes.add(want[0])
        for height in (1, 2, 7, -(-rows // 2)):
            monkeypatch.setattr(synthmod, "SYNTH_BLOCK", height * (finest.npoints() // rows))
            for threads in (1, 2):
                assert run(levels, threads) == want, (levels, height, threads)
                assert calls == []
                _check_streamed_nodes(points, finest, threads)
    assert outcomes <= {0, 3, 4}, outcomes


@pytest.mark.parametrize("name, residuals, sizes", [
    # each level's frobenius residual, then the energy's cell centres
    pytest.param("unit-density", ["frobenius"], [9 ** 2, 17 ** 2, 33 ** 2, 32 ** 2],
                 id="whole-grid-kind"),
    # the form's codifferential pass, then the energy's cell centres: the
    # field of a form config has no pass
    pytest.param("form-21", ["codifferential"], [33 ** 2, 32 ** 2], id="form-energy"),
])
def test_a_study_pass_without_a_kernel_evaluates_no_mask(name, residuals, sizes, tmp_path,
                                                         capsys, monkeypatch):
    """verify.mask is evaluated on the nodes of each slab that runs a
    residual kernel, and on the energy's cell centres; never by a pass that
    only copies levels out of its slabs (whole-grid kinds, or a form
    config's field energy)."""
    seen = []
    predicate = cfgmod.mask_predicate

    def spy(text, dim):
        pred = predicate(text, dim)

        def counted(points):
            seen.append(len(points))
            return pred(points)
        return counted

    monkeypatch.setattr(cfgmod, "mask_predicate", spy)
    levels = len(sizes) - 1
    cfg = _example(name, 32 // 2 ** (levels - 1), verify={
        "residuals": residuals, "mask": "1", "energy": True, "threshold": 1.0})
    code, _ = run_cfg(tmp_path, cfg, command="verify", extra=("--levels", str(levels)))
    capsys.readouterr()
    assert code == 0
    assert seen == sizes


def test_a_form_study_evaluates_no_coefficient_on_more_than_a_synthesis_block(
        tmp_path, capsys, monkeypatch):
    """verify --levels 3 on form-21 with blocks of 4,096 nodes, a quarter of
    its finest grid's 16,641: every jet evaluation of a form coefficient
    (the study's only one) takes at most a block of points, and the blocks
    cover every node of the finest grid."""
    from streamfields import expr, synth as synthmod

    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 4096)
    sizes = []
    eval_jets = expr.eval_jets

    def spy(e, points, *args, **kwargs):
        sizes.append(len(points))
        return eval_jets(e, points, *args, **kwargs)

    monkeypatch.setattr(expr, "eval_jets", spy)
    assert main(["verify", "--example", "form-21", "--out", str(tmp_path),
                 "--levels", "3"]) == 0
    capsys.readouterr()
    assert max(sizes) <= 4096 and sum(sizes) >= 129 ** 2


def test_each_command_builds_a_solutions_points_once(tmp_path, capsys, monkeypatch):
    """synth, singular, frobenius (witness, eta recovery, the frobenius.mask
    predicate and every CSV) and forms (the Gamma witness among them) build
    no array of every grid point: slabs, blocks and CSV coordinate columns
    take their nodes from the grid."""
    built = _record_points(monkeypatch)
    for name, spec in sorted(cfgmod.EXAMPLES.items()):
        for command in ("forms",) if "forms" in spec else ("synth", "singular", "frobenius"):
            built.clear()
            out = tmp_path / f"{command}-{name}"
            assert main([command, "--example", name, "--out", str(out)]) == 0, (name, command)
            assert built == [], (name, command)
    capsys.readouterr()


def test_no_csv_command_holds_a_solution_of_its_whole_grid(tmp_path, capsys, monkeypatch):
    """synth, singular, forms and frobenius (eta recovery among them) never
    call synth.synthesize and make no FieldSolution on a grid: with slabs of
    7 rows, and the witness and Gauss-point blocks of 7 rows' nodes, every
    solution they make is of at most one such block (B1's gate)."""
    from streamfields import expr, singular as singmod, synth as synthmod

    def no_synthesize(*args, **kwargs):
        raise AssertionError("synth.synthesize was called")

    for module in (cli, singmod, synthmod):
        monkeypatch.setattr(module, "synthesize", no_synthesize)
    sizes, init = [], synthmod.FieldSolution.__init__

    def recorded(self, grid, *args, **kwargs):
        assert grid is None, "a solution on a grid"
        init(self, grid, *args, **kwargs)
        sizes.append(len(self.Q))

    monkeypatch.setattr(synthmod.FieldSolution, "__init__", recorded)
    for name, spec in sorted(cfgmod.EXAMPLES.items()):
        grid = cfgmod.build_grid(cfgmod.example_config(name))
        block = 7 * (grid.npoints() // grid.shape()[0])
        monkeypatch.setattr(synthmod, "SYNTH_BLOCK", block)
        monkeypatch.setattr(expr, "BLOCK_ROWS", block)
        for command in ("forms",) if "forms" in spec else ("synth", "singular", "frobenius"):
            sizes.clear()
            out = tmp_path / f"{command}-{name}"
            assert main([command, "--example", name, "--out", str(out)]) == 0, (name, command)
            assert sizes and max(sizes) <= block < grid.npoints(), (name, command)
    capsys.readouterr()


def test_each_csv_column_is_an_array_the_command_holds(tmp_path, capsys, monkeypatch):
    """synth, singular and forms hand _write_csv columns whose every block is
    an array they hold: no list, no object array, the regime codes of the
    slab's solution itself (not a copy; each shipped grid is one slab) and
    each singular-set mask as bool, in both singular examples."""
    parts, checked = [], set()
    write, rows_of = cli._write_csv, verifymod.rows_of

    def recorded_rows(*args):
        parts.append(rows_of(*args))
        return parts[-1]

    class Checked:
        """A column whose every block the writer reads is checked."""

        def __init__(self, file, head, kind, col):
            self.file, self.head, self.kind, self.col = file, head, kind, col

        def __len__(self):
            return len(self.col)

        def __getitem__(self, rows):
            block, key = self.col[rows], (command, name, self.file, self.head)
            assert isinstance(block, np.ndarray) and block.dtype != object, key
            if self.head == "regime":
                assert self.kind == cli.REGIME_NAMES
                assert any(np.shares_memory(block, part.regime) for part in parts), key
                checked.add(key)
            if self.file == "masks.csv" and self.kind == "int":
                assert block.dtype == bool, key
                checked.add(key)
            return block

    monkeypatch.setattr(cli, "_write_csv", lambda path, header, columns: write(
        path, header, [(kind, Checked(os.path.basename(path), head, kind, col))
                       for head, (kind, col) in zip(header, columns)]))
    monkeypatch.setattr(verifymod, "rows_of", recorded_rows)
    for command, name in (("synth", "shallow-vortex"), ("singular", "born-infeld-fund"),
                          ("singular", "shallow-vortex"), ("forms", "form-21")):
        parts.clear()
        assert main([command, "--example", name, "--out", str(tmp_path / command)]) == 0
        assert len(parts) == 1, (command, name)
    masks = ("outside", "gamma0", "gammas", "gammainf", "gammag")
    assert checked == ({("synth", "shallow-vortex", "field.csv", "regime"),
                        ("forms", "form-21", "forms.csv", "regime")}
                       | {("singular", name, "masks.csv", head) for head in masks
                          for name in ("born-infeld-fund", "shallow-vortex")})
    capsys.readouterr()


@pytest.mark.parametrize("cells, block", [((40, 30), 100), ((40, 30), 7), ((5, 6, 7), 50)])
def test_table_coordinates_are_the_grid_points_byte_for_byte(tmp_path, monkeypatch, cells,
                                                              block):
    """_write_table's coordinate columns, built a CSV block at a time from
    GridSpec.nodes, are the bytes of GridSpec.points()'s columns, across
    block boundaries inside and between axis-0 rows."""
    grid = GridSpec(tuple(-0.1 * (i + 1) for i in range(len(cells))),
                    tuple(1.0 / 3.0 + i for i in range(len(cells))), cells)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    assert grid.npoints() % block and (grid.npoints() // grid.shape()[0]) % block
    extra = [("k", "int", np.arange(grid.npoints()))]
    cli._write_table(str(tmp_path), "table.csv", grid, extra)
    pts = grid.points()
    names = ["x1", "x2", "x3"][:grid.dim]
    _write_csv(str(tmp_path / "points.csv"), names + ["k"],
               [("float", pts[:, i]) for i in range(grid.dim)] + [("int", extra[0][2])])
    got = (tmp_path / "table.csv").read_bytes()
    assert got == (tmp_path / "points.csv").read_bytes()
    assert got.count(b"\n") == grid.npoints() + 1


# |a|^2 = |grad f|^2 exceeds 1, the bottom of extremal branch 2's image, only
# within about 0.03 of x1 = 0.125: a node of the 8- and 16-cell levels of this
# study, but not of its 4-cell grid
_COARSE_EMPTY = {
    "density": {"kind": "extremal"},
    "drive": {"kind": "scalar", "f": "2 * x2 * exp(-(x1 - 0.125)^2 / 0.001)"},
    "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "cells": [4, 4]},
    "policy": {"mode": "single_branch", "branch": 2},
    "verify": {"residuals": ["divergence"], "threshold": 1e-8},
}


# the residual kinds of the exit-3 studies below: a slab kind, a whole-grid
# kind, and both, each of which copies the finest level out of the pass
_EMPTY_STUDY_KINDS = (["divergence"], ["frobenius"], ["divergence", "exactness"])


def test_verify_study_exits_3_on_an_empty_coarse_level_as_its_own_synthesis_would(
        tmp_path, capsys):
    finer = dict(_COARSE_EMPTY, grid=dict(_COARSE_EMPTY["grid"], cells=[8, 8]))
    outcomes = []
    for sub, cfg, command in (("coarse", _COARSE_EMPTY, "synth"), ("finer", finer, "synth")):
        (tmp_path / sub).mkdir()
        code, _ = run_cfg(tmp_path / sub, cfg, command=command)
        outcomes.append((code, capsys.readouterr().err))
    coarse, finer_outcome = outcomes
    assert finer_outcome == (0, "")
    assert coarse[0] == 3 and "synthesis produced no admissible points" in coarse[1]
    for kinds in _EMPTY_STUDY_KINDS:
        sub = tmp_path / "-".join(kinds)
        sub.mkdir()
        cfg = dict(_COARSE_EMPTY, verify=dict(_COARSE_EMPTY["verify"], residuals=kinds))
        code, _ = run_cfg(sub, cfg, command="verify", extra=("--levels", "3"))
        assert (code, capsys.readouterr().err) == coarse, kinds


def test_a_study_streamed_on_more_workers_than_cores_loses_no_row(tmp_path, capsys, monkeypatch):
    """Four bands on one-row slabs, with the interpreter switching threads
    as often as it can: every band writes its own rows of the residuals and
    of the coarser levels, and notes its slabs' admission, so the report is
    the one-thread report byte for byte."""
    from streamfields import synth as synthmod

    cfg = _example("extremal-patching", 12)
    monkeypatch.setattr(cli, "_workers", lambda threads: threads)
    monkeypatch.setattr(synthmod, "SYNTH_BLOCK", 12 * 4 + 1)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "4"):
            (tmp_path / threads).mkdir()
            code, out = run_cfg(tmp_path / threads, cfg, command="verify",
                                extra=("--levels", "3", "--threads", threads))
            reports.append((code, (out / "report.json").read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert reports[0] == reports[1] and reports[0][0] in (0, 4)


def test_a_one_level_verify_exits_3_as_synth_does(tmp_path, capsys):
    """A one-level study streams its only grid; the admission its pass
    records gives the exit 3 and the sampled range synth gives, whatever
    residual kinds it has."""
    (tmp_path / "synth").mkdir()
    code, _ = run_cfg(tmp_path / "synth", _COARSE_EMPTY)
    want = (code, capsys.readouterr().err)
    assert want[0] == 3 and "synthesis produced no admissible points" in want[1]
    for kinds in _EMPTY_STUDY_KINDS:
        sub = tmp_path / "-".join(kinds)
        sub.mkdir()
        cfg = dict(_COARSE_EMPTY, verify=dict(_COARSE_EMPTY["verify"], residuals=kinds))
        code, _ = run_cfg(sub, cfg, command="verify", extra=("--levels", "1"))
        assert (code, capsys.readouterr().err) == want, kinds


def test_command_line_entry_points(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "streamfields.cli", "synth",
         "--example", "unit-density", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "field.csv").exists()

    exe = shutil.which("streamfields")
    if exe:
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout


def _write_csv_per_cell(path, header, columns):
    """The row-by-row writer that formats every cell on its own: the oracle
    for the block writer."""
    n = len(columns[0][1])
    out = [",".join(header)]
    for i in range(n):
        parts = []
        for kind, col in columns:
            v = col[i]
            if kind == "float":
                parts.append("%.17g" % float(v))
            elif kind == "int":
                parts.append(str(int(v)))
            else:
                parts.append(kind[int(v)])
        out.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.5e-310,
                  -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


def _mixed_columns(n, seed=7):
    rng = np.random.default_rng(seed)
    special = np.resize(SPECIAL_FLOATS, n)
    coords = np.linspace(-1.0, 1.0, 9)[rng.integers(0, 9, n)]
    ints = np.array([-2 ** 63, 2 ** 63 - 1, -1, 0, 7, 10 ** 12])[rng.integers(0, 6, n)]
    return ["a", "b", "c", "mask", "branch", "big", "regime"], [
        ("float", special),
        ("float", coords),
        ("float", rng.standard_normal(n)),
        ("int", rng.random(n) < 0.5),
        ("int", rng.integers(-2, 3, n).astype(np.int32)),
        ("int", ints),
        (("elliptic", "sonic", "undefined"), rng.integers(0, 3, n).astype(np.uint8)),
    ]


def _sonic_columns():
    # sonic.csv passes Python lists of ints and floats
    return ["segment", "x", "y"], [("int", [0, 0, 0, 1, 1]),
                                   ("float", [0.5, -0.0, 0.0, 1e-300, 0.5]),
                                   ("float", [1.0, 2.0, 1.0, float("nan"), -7.25])]


@pytest.mark.parametrize("block_rows, table", [
    (None, lambda: _mixed_columns(0)),
    (None, lambda: _mixed_columns(1)),
    (None, _sonic_columns),
    (7, lambda: _mixed_columns(7)),
    (7, lambda: _mixed_columns(7 * 5 + 3)),
    (None, lambda: _mixed_columns(cli.CSV_BLOCK_ROWS + 1234)),
], ids=["zero-rows", "one-row", "python-lists", "one-full-block", "blocks-then-partial",
        "default-blocks-then-partial"])
def test_block_writer_matches_the_per_cell_writer(tmp_path, monkeypatch, block_rows, table):
    if block_rows is not None:
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    header, columns = table()
    _write_csv(str(tmp_path / "block.csv"), header, columns)
    _write_csv_per_cell(str(tmp_path / "cell.csv"), header, columns)
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "cell.csv").read_bytes()
    assert got.count(b"\n") == len(columns[0][1]) + 1
    if not len(columns[0][1]):
        assert got == (",".join(header) + "\n").encode()


def test_block_writer_on_the_array_path_matches_the_per_cell_writer(tmp_path, monkeypatch):
    # every float column of every block goes through _format_floats, the
    # special values (-0.0, NaN, inf) in the last column, before the newline
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 100)
    monkeypatch.setattr(cli, "ARRAY_FORMAT_MIN", 8)
    header, columns = _mixed_columns(4 * 100 + 37)
    header, columns = header[1:] + header[:1], columns[1:] + columns[:1]
    _write_csv(str(tmp_path / "block.csv"), header, columns)
    _write_csv_per_cell(str(tmp_path / "cell.csv"), header, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


FLOAT_ORACLE_CASES = ("random-bits", "near-ties", "powers-of-ten", "switch-points", "subnormal",
                      "dyadic", "specials")


@functools.cache
def _float_oracle_cases() -> dict:
    """Named float64 arrays for the array formatter, each with its negatives."""
    rng = np.random.default_rng(1414)
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # "%g" switches notation at X < -4 and at X >= 17; these and 8 ulps either side
    switch = [np.array([1e-5, 1e-4, 1e16, 1e17])]
    for toward in (0.0, np.inf):
        near = switch[0]
        for _ in range(8):
            near = np.nextafter(near, toward)
            switch.append(near)
    # near-ties: doubles whose exact decimal is 17 digits, then 49 or 50, then
    # anything; so the 18th digit on is within 0.01 of the 17th digit's half unit
    near_ties = []
    for v in rng.integers(1, 0x7FF0 << 48, 100000, dtype=np.int64).view(np.float64).tolist():
        num, den = v.as_integer_ratio()
        k = 16 - Decimal(v).adjusted()
        num, den = (num * 10 ** k, den) if k >= 0 else (num, den * 10 ** -k)
        if abs(200 * (num % den) - 100 * den) < 2 * den:
            near_ties.append(v)
    # m / 2^j has exact decimal ties at the 17th digit, e.g. 2^-25
    dyadic = np.ldexp(rng.integers(1, 1 << 20, 4000) | 1, rng.integers(-1074, 1000, 4000))
    subnormal = rng.integers(1, 1 << 52, 5000, dtype=np.int64).view(np.float64)
    cases = {
        "random-bits": rng.integers(0, 1 << 63, 1 << 20, dtype=np.int64).view(np.float64),
        "near-ties": np.array(near_ties),
        "powers-of-ten": np.concatenate(
            [pow10, np.nextafter(pow10, 0.0), np.nextafter(pow10, np.inf)]),
        "switch-points": np.concatenate(switch),
        "subnormal": subnormal,
        "dyadic": np.concatenate([dyadic, np.ldexp(1.0, np.arange(-1074, 1024)),
                                  np.ldexp(3.0, np.arange(-1074, 1023))]),
        "specials": np.array([0.0, np.nan, np.inf, 5e-324, np.finfo(np.float64).max,
                              np.finfo(np.float64).tiny, 0.1, 1 / 3, 2.0 ** -25]),
    }
    assert tuple(cases) == FLOAT_ORACLE_CASES
    return {name: np.concatenate([v, -v]) for name, v in cases.items()}


@pytest.mark.parametrize("name", FLOAT_ORACLE_CASES)
def test_array_formatter_matches_percent_17g(name):
    values = _float_oracle_cases()[name]
    assert cli._format_floats(values).tolist() == ["%.17g" % v for v in values.tolist()]


def test_array_formatter_sends_few_values_to_python(monkeypatch):
    """A change that quietly formats everything through Python fails here."""
    sent = []

    def counted(v, sep):
        sent.append(v.size)
        return [None] * v.size

    monkeypatch.setattr(cli, "_percent_17g", counted)
    values = _float_oracle_cases()["random-bits"]
    cli._format_floats(values)
    assert sum(sent) < 0.05 * values.size
    # a block column of 4096 distinct values takes the array path too
    sent.clear()
    cli._column_text("float", np.random.default_rng(3).standard_normal(4096), ",")
    assert sum(sent) < 0.05 * 4096


def test_array_formatter_with_a_double_bound_proves_nothing_and_stays_exact(monkeypatch):
    # where long double is only a double, no rounding can be proven
    scales, _, quads = cli._float_tables()
    monkeypatch.setattr(cli, "_float_tables",
                        lambda: (scales, cli._error_bound(np.finfo(np.float64).eps), quads))
    values = np.concatenate([_float_oracle_cases()[name] for name in
                             ("near-ties", "powers-of-ten", "switch-points", "specials")])
    ok, _, _ = cli._proven_digits(np.abs(values))
    assert not ok.any()
    assert cli._format_floats(values).tolist() == ["%.17g" % v for v in values.tolist()]


def test_long_double_powers_of_ten_are_within_half_an_ulp():
    scales = cli._float_tables()[0]
    for x, scale in zip(range(cli._X_MIN, cli._X_MAX + 1), scales):
        exact = Fraction(10) ** (16 - x)
        if not np.isfinite(scale):  # only past the range of a long double that is a double
            assert exact > Fraction(*np.finfo(np.longdouble).max.as_integer_ratio())
            continue
        half_ulp = Fraction(*np.spacing(scale).as_integer_ratio()) / 2
        assert abs(Fraction(*scale.as_integer_ratio()) - exact) <= half_ulp, x


def test_portrait_script_writes_its_field_with_the_cli_writer(tmp_path):
    path = tmp_path / "field.csv"
    proc = _run_script("vortex_branch_portrait.py", "--cells", "8", "--out", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "x1,x2,w1,w2,Q,branch"
    assert len(lines) == 1 + 9 * 9
    for line in lines[1:]:
        *floats, branch = line.split(",")
        assert floats == ["%.17g" % float(c) for c in floats] and branch in ("0", "1", "2", "3")
