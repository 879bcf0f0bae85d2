"""Outside-in layer trace: spans around the calls into each streamfields module.

Nothing under src/ is changed.  `Tracer.install()` replaces each traced name
in the namespace it is called from (modules import names directly, so a
wrapper on the defining module alone would miss those call sites) and
`Tracer.uninstall()` puts every original object back.  Spans are kept in
memory as (id, name, start, end, parent, op, counts) and written out at the
end of the run.  The counts are taken after the traced call returns, in a
span of their own (COUNTER), which summarize() keeps out of the layer times.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from streamfields import cli, config, density, drive, expr, forms, frobenius, singular, synth, verify

# Span name of the tracer's own counting work after a traced call returns.
COUNTER = "trace.count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for an op root
    op: int
    counts: dict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    return lambda args, kwargs, out: {"points": len(_arg(args, kwargs, index, name))}


def _psi_counts(args, kwargs, out):
    branch, xi = args[0], np.asarray(_arg(args, kwargs, 1, "xi"), dtype=float)
    snap = args[2] if len(args) > 2 else kwargs.get("snap", 0.0)
    bad = ~np.isfinite(out)  # psi returns NaN where xi is not admitted
    return {"points": int(xi.size), "nonfinite": int(branch.admits(xi[bad], snap).sum())}


def _csv_counts(args, kwargs, out):
    path, columns = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 2, "columns")
    return {"rows": len(columns[0][1]), "bytes": os.path.getsize(path)}


_BUILDERS = ("load_config", "example_config", "build_model", "build_drive", "build_policy",
             "build_tol", "build_grid", "verify_section")
_RESIDUALS = ("divergence_residual", "minor_residual", "frobenius_residual",
              "exactness_residual", "codifferential_residual")

# (namespace, attribute, span name, counter).  A namespace is the module (or
# class) whose lookup of the name the wrapper replaces.
TARGETS = (
    *((config, attr, "config.build", None) for attr in _BUILDERS),
    (cli, "_build_form", "config.build", None),
    (expr, "eval_jets", "expr.eval_jets", _points(1, "points")),
    (expr, "eval_values", "expr.eval_values", _points(1, "points")),
    (density.PhiBranch, "psi", "density.psi", _psi_counts),
    *((ns, "drive_batch", "drive.drive_batch", _points(1, "points"))
      for ns in (drive, synth, frobenius)),
    *((ns, "synthesize", "synth.synthesize",
       lambda a, k, out: {"points": len(out.points)}) for ns in (cli, singular)),
    *((ns, "synthesize_at_points", "synth.synthesize", _points(3, "points"))
      for ns in (frobenius, verify, cli)),
    (singular, "classify_solution", "singular.classify_solution", None),
    (singular, "sonic_contour", "singular.sonic_contour",
     lambda a, k, out: {"points": sum(len(poly) for poly in out)}),
    *((frobenius, attr, "frobenius.witness", None)
      for attr in ("witness_2d", "witness_nd", "witness_gradient")),
    (frobenius, "curl_residual_grid", "frobenius.curl_residual_grid", None),
    (frobenius, "recover_eta", "frobenius.recover_eta",
     lambda a, k, out: {"nodes": int(np.isfinite(out.eta).sum())}),
    *((forms, attr, "forms.synthesize_form", None)
      for attr in ("synthesize_form", "synthesize_form_closed")),
    (forms, "gamma_witness", "forms.gamma_witness",
     lambda a, k, out: {"points": len(_arg(a, k, 2, "sol").points)}),
    *((verify, attr, "verify.residual", None) for attr in _RESIDUALS),
    (verify, "convergence_study", "verify.convergence_study", None),
    (verify, "energy", "verify.energy", None),
    (cli, "_write_csv", "cli.write_csv", _csv_counts),
    (cli, "_write_json", "cli.write_json", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []
        self.op = 0
        self._op_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A thread-pool worker starts with an empty stack; its parent is
            # the span the op's thread is blocked in while it waits for the pool.
            parent = stack[-1] if stack else tracer._op_stack[-1]
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = Span(sid, name, start, perf_counter(), parent, tracer.op, {})
                tracer.spans.append(span)
            if counter:
                # The counter's own work is a COUNTER span under the same
                # parent, so summarize() keeps it out of every layer's time.
                span.counts = counter(args, kwargs, out)
                tracer.spans.append(Span(next(tracer._ids), COUNTER, span.end, perf_counter(),
                                         parent, tracer.op, {}))
            return out

        return wrapper

    def install(self) -> None:
        self._saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        for (owner, attr, name, counter), (_, _, original) in zip(TARGETS, self._saved):
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every traced name is the library's own object again."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self._saved)

    def op_span(self, op: int, fn):
        """Run fn() as the root span of op number `op`."""
        self.op = op
        self._op_stack = stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn()
        finally:
            stack.pop()
            self.spans.append(Span(sid, "cli.main", start, perf_counter(), 0, op, {}))

    def write(self, path: str, env: dict) -> None:
        """JSON lines: the environment record, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _union(intervals: list) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per span name: calls, seconds, self seconds and summed counts.  The
    self time of "cli.main" is the op time no layer span covers.  Time spent
    in COUNTER spans is taken out of the seconds of every enclosing span and,
    being a child interval, out of its parent's self seconds."""
    children: dict = {}
    counted: dict = {}  # span id -> COUNTER seconds inside it
    # A span is recorded when it ends, so children come before their parent.
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
        inner = counted.get(s.id, 0.0) + (s.end - s.start if s.name == COUNTER else 0.0)
        counted[s.parent] = counted.get(s.parent, 0.0) + inner
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        row["calls"] += 1
        row["s"] += dur - counted.get(s.id, 0.0)
        row["self_s"] += dur - _union(children.get(s.id, []))
        for key, val in s.counts.items():
            row[key] = row.get(key, 0) + val
    return out
