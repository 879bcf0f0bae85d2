"""Rewrite reference.json: the exit code, data-artifact sha256 and JSON
numbers of every op of every workload, as the current source produces them.

    python3 perfbench/record_reference.py

The committed reference.json was recorded at the commit that added the
benchmark; rerun this only on purpose, when an artifact is meant to change.
run.py owns the format (run.record_op) and the comparison (run.check_op).
"""

import json
import os
import sys

import workloads as wl


def main() -> None:
    sys.path.insert(0, wl.SRC)
    from streamfields import cli

    import run

    ops = {op.key: op for ops in wl.WORKLOADS.values() for op in ops}
    wl.write_configs(tuple(ops.values()))
    ref = {}
    out = os.path.join(wl.WORK, "reference", "out")
    for key, op in sorted(ops.items()):
        seconds, rc, _ = run.run_op(cli, op, out)
        ref[key] = run.record_op(out, rc)
        print(f"{key:45s} exit {rc}  {seconds:7.3f} s", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
