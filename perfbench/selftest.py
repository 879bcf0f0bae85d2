"""Self-test of the benchmark on grids 8x coarser per axis (about a minute).

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json declares exactly the metrics run.py prints, with the same units;
  * both modes of every workload print every declared metric by name and unit;
  * two traced runs with different seeds (so different op orders) give
    identical counts.
Shrunk grids have no reference, so the artifact check is switched off here.
"""

import contextlib
import io
import json
import os
import sys

import workloads as wl

sys.path.insert(0, wl.SRC)
import run  # noqa: E402


def _declared(section: str) -> dict:
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(workload: str, seed: int, trace: int) -> dict:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace)])
    assert rc == 0, f"{workload} trace {trace}: exit {rc}"
    return json.loads(sink.getvalue().strip().splitlines()[-1])


def main() -> None:
    assert _declared("end_to_end") == run.END_TO_END, "BENCHMARK.json end_to_end != run.py"
    assert _declared("per_layer") == run.PER_LAYER, "BENCHMARK.json per_layer != run.py"
    for name, ops in wl.WORKLOADS.items():
        wl.write_configs(ops)  # setup_probe builds the full-size configs
        wl.WORKLOADS[name] = wl.shrunk(ops, 8)
    run.check_op = lambda *args: []
    for workload in wl.WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = _run(workload, 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{workload} trace {trace}: metrics {sorted(set(units) ^ set(got))}"
            assert result["correct"], f"{workload} trace {trace}: not correct"
        again = _run(workload, 2, 1)["metrics"]
        first = _run(workload, 3, 1)["metrics"]
        diff = [k for k in run.COUNT_METRICS if again[k]["value"] != first[k]["value"]]
        assert not diff, f"{workload}: counts differ between traced runs: {diff}"
        print(f"{workload}: ok ({len(run.END_TO_END)} end-to-end, {len(run.PER_LAYER)} "
              f"per-layer metrics; {len(run.COUNT_METRICS)} counts repeat)")


if __name__ == "__main__":
    main()
