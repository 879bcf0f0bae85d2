"""streamfields benchmark: drives `streamfields.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from ./src.
`--trace 0` prints the end-to-end metrics of untraced passes.  `--trace 1`
runs untraced and traced passes in turn and prints the per-layer metrics.
Every op's exit code and artifacts are checked against reference.json.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops": "share",
}

SUBCOMMANDS = ("synth", "singular", "frobenius", "forms", "verify")

# per-layer metric -> (unit, span name, summary key)
SPAN_METRICS = {
    "cli.write_csv.s": ("s", "cli.write_csv", "s"),
    "cli.write_csv.rows": ("count", "cli.write_csv", "rows"),
    "cli.write_csv.bytes": ("B", "cli.write_csv", "bytes"),
    "cli.write_json.s": ("s", "cli.write_json", "s"),
    "cli.unattributed_s": ("s", "cli.main", "self_s"),
    "config.build.s": ("s", "config.build", "s"),
    "config.build.calls": ("count", "config.build", "calls"),
    "expr.eval_jets.calls": ("count", "expr.eval_jets", "calls"),
    "expr.eval_jets.points": ("count", "expr.eval_jets", "points"),
    "expr.eval_jets.s": ("s", "expr.eval_jets", "s"),
    "expr.eval_values.s": ("s", "expr.eval_values", "s"),
    "expr.eval_values.points": ("count", "expr.eval_values", "points"),
    "density.psi.calls": ("count", "density.psi", "calls"),
    "density.psi.points": ("count", "density.psi", "points"),
    "density.psi.s": ("s", "density.psi", "s"),
    "density.psi.nonfinite": ("count", "density.psi", "nonfinite"),
    "drive.drive_batch.calls": ("count", "drive.drive_batch", "calls"),
    "drive.drive_batch.points": ("count", "drive.drive_batch", "points"),
    "drive.drive_batch.self_s": ("s", "drive.drive_batch", "self_s"),
    "synth.synthesize.s": ("s", "synth.synthesize", "s"),
    "synth.synthesize.self_s": ("s", "synth.synthesize", "self_s"),
    "synth.synthesize.points": ("count", "synth.synthesize", "points"),
    "singular.classify_solution.s": ("s", "singular.classify_solution", "s"),
    "singular.sonic_contour.s": ("s", "singular.sonic_contour", "s"),
    "singular.sonic_points": ("count", "singular.sonic_contour", "points"),
    "frobenius.witness.s": ("s", "frobenius.witness", "s"),
    "frobenius.curl_residual_grid.s": ("s", "frobenius.curl_residual_grid", "s"),
    "frobenius.recover_eta.s": ("s", "frobenius.recover_eta", "s"),
    "frobenius.recover_eta.self_s": ("s", "frobenius.recover_eta", "self_s"),
    "frobenius.recover_eta.nodes": ("count", "frobenius.recover_eta", "nodes"),
    "forms.synthesize_form.s": ("s", "forms.synthesize_form", "s"),
    "forms.gamma_witness.s": ("s", "forms.gamma_witness", "s"),
    "forms.gamma_witness.points": ("count", "forms.gamma_witness", "points"),
    "verify.residual.s": ("s", "verify.residual", "s"),
    "verify.residual.self_s": ("s", "verify.residual", "self_s"),
    "verify.convergence_study.s": ("s", "verify.convergence_study", "s"),
    "verify.energy.s": ("s", "verify.energy", "s"),
}

PER_LAYER = {
    **{f"{sub}_s": "s" for sub in SUBCOMMANDS},
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "drive.points_per_node": "points/node",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between traced passes and runs.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit in ("count", "B", "points/node"))


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# The reference format.  Data artifacts are recorded by sha256 and JSON
# artifacts by their numbers.  The gate verdict keys of report.json are
# neither recorded nor compared: whether a verify op passes its own gate is
# counted by ok_ops, not treated as a deviation.
DATA_ARTIFACTS = ("field.csv", "masks.csv", "sonic.csv", "witness.csv", "eta.csv",
                  "forms.csv", "gamma.csv")
NUMBER_ARTIFACTS = ("report.json", "frobenius.json")
GATE_KEYS = ("threshold", "passed")


def record_op(out: str, rc) -> dict:
    """The reference entry of an op that exited with `rc` and wrote into `out`."""
    numbers = {}
    for name in NUMBER_ARTIFACTS:
        path = os.path.join(out, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                numbers[name] = {k: v for k, v in json.load(fh).items() if k not in GATE_KEYS}
    return {
        "exit": rc,
        "artifacts": {name: sha256(os.path.join(out, name)) for name in DATA_ARTIFACTS
                      if os.path.isfile(os.path.join(out, name))},
        "numbers": numbers,
    }


def _restrict(new, ref):
    """`new` cut down to the keys present in `ref` (recursively)."""
    if isinstance(ref, dict) and isinstance(new, dict):
        return {k: _restrict(new.get(k), v) for k, v in ref.items()}
    if isinstance(ref, list) and isinstance(new, list) and len(new) == len(ref):
        return [_restrict(n, r) for n, r in zip(new, ref)]
    return new


def check_op(op: wl.Op, rc, out: str, ref: dict) -> list:
    """Differences between an op's outcome and its reference entry
    (see record_op).  A verify op may exit 0 or 4: that is the program's own
    gate verdict, counted by ok_ops, not a deviation.  JSON keys the entry
    does not hold, GATE_KEYS among them, are not compared."""
    want = ref.get(op.key)
    if want is None:
        return [f"{op.key}: no reference entry"]
    problems = []
    if rc != want["exit"] and not (op.sub == "verify" and rc in (0, 4)):
        problems.append(f"exit {rc}, reference {want['exit']}")
    for name, digest in want["artifacts"].items():
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
        elif sha256(path) != digest:
            problems.append(f"{name} sha256 differs")
    for name, numbers in want["numbers"].items():
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            got = _restrict(json.load(fh), numbers)
        if json.dumps(got, sort_keys=True) != json.dumps(numbers, sort_keys=True):
            problems.append(f"{name} numbers differ")
    return problems


def run_op(cli, op: wl.Op, out: str, tracer=None, index: int = 0):
    """One cli.main call; returns (seconds, exit code, captured output)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    gc.collect()
    sink = io.StringIO()
    call = lambda: cli.main(op.argv(out))  # noqa: E731
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            rc = tracer.op_span(index, call) if tracer else call()
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception is an outcome to report, not to die on
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return seconds, rc, sink.getvalue()


def run_pass(cli, order: list, ref, tracer=None) -> list:
    """Run every op once; each result row is (op, seconds, exit code, problems)."""
    rows = []
    for i, op in enumerate(order):
        out = os.path.join(wl.WORK, "out", str(i))
        seconds, rc, _ = run_op(cli, op, out, tracer, i)
        rows.append((op, seconds, rc, check_op(op, rc, out, ref)))
    return rows


def median_pass(passes: list) -> list:
    """One pass whose op times are each op's median over the passes, so a
    stall that hits a few ops of one pass does not move the result."""
    return [(op, statistics.median(p[i][1] for p in passes), rc, problems)
            for i, (op, _, rc, problems) in enumerate(passes[0])]


def pass_seconds(rows: list) -> float:
    return sum(seconds for _, seconds, _, _ in rows)


def nodes_per_s(rows: list) -> float:
    return sum(wl.grid_nodes(op) for op, _, _, _ in rows) / pass_seconds(rows)


def measure_setup(workload: str) -> float:
    """Median seconds, over fresh interpreters, to import streamfields and
    build every config of the workload (after one discarded warm-up)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, probe, workload], capture_output=True,
                              text=True, timeout=120, check=True, cwd=wl.ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def _cache_bytes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (None if unreadable)."""
    sizes = {"L2": None, "L3": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            if f"L{level}" in sizes:
                sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def environment(workload: str, seed: int, ops: tuple) -> dict:
    import numpy

    caches = _cache_bytes()
    largest = wl.largest_array_bytes(ops)
    llc = caches["L3"] or caches["L2"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches["L2"],
        "l3_bytes": caches["L3"],
        "largest_array_bytes_computed": largest,
        "largest_array_over_llc": round(largest / llc, 4) if llc else None,
    }


def span_metrics(summary: dict) -> dict:
    return {name: summary.get(span, {}).get(key, 0) for name, (_, span, key) in SPAN_METRICS.items()}


def subcommand_seconds(rows: list) -> dict:
    return {f"{sub}_s": sum(s for op, s, _, _ in rows if op.sub == sub) for sub in SUBCOMMANDS}


def untraced_run(cli, order, ref, count: int) -> tuple:
    passes = [run_pass(cli, order, ref) for _ in range(count)]
    return passes, {
        "nodes_per_s": nodes_per_s(median_pass(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(cli, order, ref, notes: list) -> tuple:
    from tracer import Tracer, summarize

    tracer = Tracer()
    tracer.install()
    try:
        rows = run_pass(cli, order, ref, tracer)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        notes.append("a traced name was not restored after the traced pass")
    m = span_metrics(summarize(tracer.spans))
    m["drive.points_per_node"] = m["drive.drive_batch.points"] / sum(
        wl.grid_nodes(op) for op in order)
    return rows, m, tracer


def traced_run(cli, order, ref, count: int, trace_path: str, env: dict,
               notes: list) -> tuple:
    """One discarded untraced warm-up pass, then pairs of an untraced and a
    traced pass, alternating which goes first: half as many pairs as an
    untraced run makes passes, and at least two.  Times are medians over the
    passes, and trace.overhead_s is the median over pairs of the traced minus
    the untraced pass time.  Counts come from the first traced pass and must
    repeat exactly in every other."""
    warmup = run_pass(cli, order, ref)
    plain, traced, layer = [], [], []
    while len(layer) < max(2, count // 2):
        if len(layer) % 2:
            rows, m, tracer = traced_pass(cli, order, ref, notes)
            plain.append(run_pass(cli, order, ref))
        else:
            plain.append(run_pass(cli, order, ref))
            rows, m, tracer = traced_pass(cli, order, ref, notes)
        traced.append(rows)
        layer.append(m)
        if len(layer) == 1:
            first = tracer
    first.write(trace_path, env)
    for m in layer[1:]:
        for name in COUNT_METRICS:
            if m[name] != layer[0][name]:
                notes.append(f"count {name} changed between traced passes")
    metrics = {name: (layer[0][name] if name in COUNT_METRICS
                      else statistics.median(m[name] for m in layer)) for name in SPAN_METRICS}
    metrics["drive.points_per_node"] = layer[0]["drive.points_per_node"]
    metrics.update(subcommand_seconds(median_pass(plain)))
    metrics["trace.overhead_s"] = statistics.median(
        pass_seconds(t) - pass_seconds(p) for p, t in zip(plain, traced))
    return [warmup] + plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(wl.SRC, "streamfields", "cli.py")):
        print(f"no streamfields source under {wl.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, wl.SRC)
    from streamfields import cli

    if not os.path.abspath(cli.__file__).startswith(wl.SRC + os.sep):
        print(f"streamfields was imported from {cli.__file__}, not {wl.SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)

    ops = wl.WORKLOADS[args.workload]
    wl.write_configs(ops)
    order = wl.pass_order(ops, args.workload, args.seed)
    env = environment(args.workload, args.seed, ops)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    count = wl.pass_count(args.workload, args.seconds)
    notes: list = []
    if args.trace:
        trace_path = os.path.join(wl.WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        passes, metrics = traced_run(cli, order, ref, count, trace_path, env, notes)
        units = PER_LAYER
        print(f"spans written to {os.path.relpath(trace_path, wl.ROOT)}")
    else:
        setup = measure_setup(args.workload)
        passes, metrics = untraced_run(cli, order, ref, count)
        metrics["setup_s"] = setup
        units = END_TO_END

    rows = [row for p in passes for row in p]
    attempted = len(rows)
    deviations = [(op, problems) for op, _, _, problems in rows if problems]
    not_ok = [(op, rc) for op, _, rc, problems in rows if problems or rc != 0]
    if not args.trace:
        metrics["ok_ops"] = (attempted - len(not_ok)) / attempted
    for op, problems in deviations:
        print(f"DEVIATION {op.key}: {'; '.join(problems)}")
    for key, rc in sorted({(op.key, str(rc)) for op, rc in not_ok}):
        print(f"not ok: {key} exit {rc}")
    for note in notes:
        print(f"TRACE CHECK FAILED: {note}")
    print(f"passes {len(passes)}  failed_ops {len(not_ok)}/{attempted}  "
          f"deviations from reference {len(deviations)}/{attempted}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not deviations and not notes,
        "attempted": attempted,
        "failed": len(deviations),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
