"""Child process of run.py for setup_s: in a fresh interpreter, time the
import of streamfields plus parsing and building every config of a workload
(model, drive, policy, tolerances, grid, and the k-form where there is one).
numpy is imported before the clock starts: no change to streamfields can
move numpy's own import, and it is the noisiest part of a cold start.

    python3 perfbench/setup_probe.py WORKLOAD      # prints seconds
"""

import sys
from time import perf_counter

import numpy  # noqa: F401  (see the module docstring)

import workloads as wl


def main(workload: str) -> None:
    ops = wl.WORKLOADS[workload]
    sys.path.insert(0, wl.SRC)
    start = perf_counter()
    from streamfields import cli, config

    for op in ops:
        path = op.config_path()
        cfg = config.load_config(path) if path else config.example_config(op.example)
        grid = config.build_grid(cfg)
        config.build_model(cfg)
        config.build_drive(cfg)
        config.build_policy(cfg, grid.dim)
        config.build_tol(cfg)
        if cfg.forms:
            cli._build_form(cfg, grid.dim)
    print(perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
