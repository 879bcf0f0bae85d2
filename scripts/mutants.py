"""Standing mutant record: single-text mutants that the tests must notice.

Each mutant replaces one text of one source file. The script copies the
tree (the files git tracks, and the untracked ones it does not ignore) to a
temporary directory per mutant, applies the replacement there, and runs only
the mutant's test files with `pytest -x`. It prints one line per mutant:
killed (with the first failing test) or survived.

Usage, from a source checkout whose tests pass unmutated (a test that fails
without a mutant would count as a kill):

    python3 scripts/mutants.py

Exit 0 when every mutant ends as expected; 1 when a mutant expected to be
killed survives, or one expected to survive is killed; 2 when a mutant's old
text does not occur exactly once in its file, or pytest neither passed nor
failed (a collection or usage error).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout root
    old: str  # occurs exactly once in `path`
    new: str
    tests: tuple  # test files (or pytest node ids) that must notice it
    expect: str = "killed"  # or "survived: <why no input can tell it apart>"


# the flag taxonomy's own tests, and the field.csv and masks.csv hashes of
# every shipped example
_FLAG_TESTS = ("tests/test_synth.py", "tests/test_singular.py", "tests/test_reference.py")

MUTANTS = [
    # the mutants of the roadmap's first record (K1)
    Mutant("phi_prime_of: 2 Q rho' -> 1 Q rho'", "src/streamfields/density.py",
           "r * (r + 2.0 * q * rp)", "r * (r + 1.0 * q * rp)",
           ("tests/test_frobenius.py", "tests/test_acceptance.py")),
    Mutant("verify.GK_TOL 1e-14 -> 1e-4", "src/streamfields/verify.py",
           "GK_TOL = 1e-14", "GK_TOL = 1e-4", ("tests/test_verify.py",)),
    Mutant("density.SAMPLES_PER_DECADE 4096 -> 256", "src/streamfields/density.py",
           "SAMPLES_PER_DECADE = 4096", "SAMPLES_PER_DECADE = 256", ("tests/test_density.py",)),
    Mutant("fit_order fits only the last two levels", "src/streamfields/verify.py",
           "np.polyfit(np.log(hs), np.log(ms), 1)",
           "np.polyfit(np.log(hs[-2:]), np.log(ms[-2:]), 1)", ("tests/test_verify.py",)),
    Mutant("gamma0 flag: Q > eps_rho -> Q > 0", "src/streamfields/synth.py",
           "(np.abs(rho_c) < tol.eps_rho) & (Q > tol.eps_rho)",
           "(np.abs(rho_c) < tol.eps_rho) & (Q > 0.0)", ("tests/test_synth.py",)),
    Mutant("gamma_g flag without the laplacian test", "src/streamfields/synth.py",
           " & (np.abs(lap) > tol.eps_grad)", "", ("tests/test_synth.py",)),
    # rho' and rho from one domain test, one residual dispatch, and walk's pool
    Mutant("rho_and_prime: rho' without the domain mask", "src/streamfields/density.py",
           "np.where(ok, self.rho_prime_fn(q), np.nan)", "self.rho_prime_fn(q)",
           ("tests/test_density.py",)),
    Mutant("cmd_verify: frobenius sent to the exactness branch", "src/streamfields/cli.py",
           'if kind == "frobenius":', "if False:", ("tests/test_cli.py",)),
    Mutant("ordered: a thread that cannot start re-raises RuntimeError",
           "src/streamfields/synth.py", "raise MemoryError(str(exc)) from exc", "raise",
           ("tests/test_cli.py",)),
    # the one defect routine: the G term and the wedge's orientation
    Mutant("wedge_defect: a minor system drops the G term", "src/streamfields/verify.py",
           "dij -= wedge(G, w, i, j).reshape(dij.shape)", "pass",
           ("tests/test_verify.py", "tests/test_frobenius.py")),
    Mutant("wedge_defect: a divergence system drops the G term", "src/streamfields/verify.py",
           'out -= np.einsum("ni,ni->n", G, w).reshape(out.shape)', "pass",
           ("tests/test_verify.py", "tests/test_frobenius.py")),
    Mutant("wedge: i and j swapped", "src/streamfields/verify.py",
           "return u[:, i] * v[:, j] - u[:, j] * v[:, i]",
           "return u[:, j] * v[:, i] - u[:, i] * v[:, j]",
           ("tests/test_verify.py", "tests/test_frobenius.py")),
    # the slab walks and the one carry, synth.stitched, of every slab stream
    Mutant("stitched: the carried rows dropped", "src/streamfields/synth.py",
           "held = list(arrays) if lo == top else", "held = list(arrays) if True else",
           ("tests/test_cli.py::"
            "test_a_streamed_study_writes_what_the_stored_finest_solution_writes",)),
    Mutant("stitched: a row handed out with one halo row too few", "src/streamfields/synth.py",
           "keep = max(last - halo, lo)", "keep = max(last - halo + 1, lo)",
           ("tests/test_synth.py",)),
    Mutant("slabs: each slab drops its last row", "src/streamfields/synth.py",
           "(top, min(top + height, end)) for top", "(top, min(top + height, end) - 1) for top",
           ("tests/test_synth.py",)),
    Mutant("curl_rows: a row's curl taken with 1 halo row", "src/streamfields/frobenius.py",
           "synthmod.stitched(chunks, shape[0], row, 2)",
           "synthmod.stitched(chunks, shape[0], row, 1)",
           ("tests/test_frobenius.py",)),
    Mutant("curl_rows: G and the defect handed on from the window's first row",
           "src/streamfields/frobenius.py",
           "own = slice((top - lo) * row, (end - lo) * row)", "own = slice(0, (end - top) * row)",
           ("tests/test_streamed_tables.py",)),
    Mutant("_slabs: the mask predicate ignored", "src/streamfields/verify.py",
           "mask, outs = mask if kernels else None,", "mask, outs = None,",
           ("tests/test_verify.py",)),
    # the streamed tables of synth, singular, forms and frobenius
    Mutant("_write_streamed: each chunk's last row dropped", "src/streamfields/cli.py",
           "return arrays[key][at.start - first:stop - first]",
           "return arrays[key][:-1][at.start - first:stop - first]",
           ("tests/test_streamed_tables.py",)),
    Mutant("ordered: two threads hand slabs on in the order they finish",
           "src/streamfields/synth.py",
           "            if len(ahead) == workers:\n                yield ahead.popleft().result()",
           "            if len(ahead) == workers:\n"
           "                first = next(iter(__import__('concurrent.futures').futures.wait(\n"
           "                    ahead, return_when='FIRST_COMPLETED').done))\n"
           "                ahead.remove(first)\n"
           "                yield first.result()",
           ("tests/test_streamed_tables.py",)),
    Mutant("cmd_singular: the whole-grid sonic values one row off within each slab",
           "src/streamfields/cli.py",
           "sonic[top * row:end * row] = report.sonic_values[:sonic.size]",
           "sonic[top * row:end * row] = np.roll(report.sonic_values[:sonic.size], row)",
           ("tests/test_streamed_tables.py",)),
    # one per flag-bit condition of synth._assemble (the gamma0 guard and
    # the gamma_g laplacian test are above)
    Mutant("flags: drive_undefined never set", "src/streamfields/synth.py",
           "flags[bad] |= FLAG_DRIVE_UNDEFINED", "pass", _FLAG_TESTS),
    Mutant("flags: outside_omega_f never set where no branch admits xi",
           "src/streamfields/synth.py", "flags[usable & (sel == 0)] |= FLAG_OUTSIDE_OMEGA",
           "pass", _FLAG_TESTS),
    Mutant("flags: nonphysical_rho never set", "src/streamfields/synth.py",
           "flags[lanes] |= FLAG_NONPHYSICAL_RHO", "pass", _FLAG_TESTS),
    Mutant("flags: a failed numeric psi not demoted to outside_omega_f",
           "src/streamfields/synth.py", "flags[failed] |= FLAG_OUTSIDE_OMEGA", "pass", _FLAG_TESTS),
    Mutant("flags: gamma_inf never set", "src/streamfields/synth.py",
           "flags[gamma_inf] |= FLAG_GAMMA_INF", "pass", _FLAG_TESTS),
    Mutant("flags: gamma_0 without its hard zero-rho points", "src/streamfields/synth.py",
           "flags[gamma0_flag | gamma0_hard] |= FLAG_GAMMA0", "flags[gamma0_flag] |= FLAG_GAMMA0",
           _FLAG_TESTS),
    Mutant("flags: gamma_s without the zero set of rho", "src/streamfields/synth.py",
           "flags[sonic | gamma0_flag | gamma0_hard] |= FLAG_GAMMA_S",
           "flags[sonic] |= FLAG_GAMMA_S", _FLAG_TESTS),
    Mutant("flags: gamma_s without the points where phi' is not finite",
           "src/streamfields/synth.py",
           "(~np.isfinite(phi_p) | (np.abs(phi_p) < tol.eps_phi_prime))",
           "(np.abs(phi_p) < tol.eps_phi_prime)", _FLAG_TESTS),
    # every exit code that cli.main picks
    Mutant("cli.main: success exits 1", "src/streamfields/cli.py",
           "EXIT_OK = 0", "EXIT_OK = 1", ("tests/test_cli.py",)),
    Mutant("cli.main: a config error exits 1", "src/streamfields/cli.py",
           "EXIT_CONFIG = 2", "EXIT_CONFIG = 1", ("tests/test_cli.py",)),
    Mutant("cli.main: an empty admissible set exits 4", "src/streamfields/cli.py",
           "EXIT_EMPTY = 3", "EXIT_EMPTY = 4", ("tests/test_cli.py",)),
    Mutant("cli.main: a breached threshold exits 3", "src/streamfields/cli.py",
           "EXIT_THRESHOLD = 4", "EXIT_THRESHOLD = 3", ("tests/test_cli.py",)),
]

def _tree() -> list:
    """The checkout's files: tracked, and untracked but not ignored."""
    out = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return [f for f in out.split("\0") if f and (ROOT / f).is_file()]


def _first_failure(output: str) -> str:
    """The node id of the first FAILED or ERROR line of pytest's summary; a
    parametrized id may hold " - ", so it ends at its closing bracket."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            rest = line.split(" ", 1)[1]
            end = rest.find("] - ") + 1 if "[" in rest.split(" - ", 1)[0] else 0
            return rest[:end] if end else rest.split(" - ", 1)[0]
    return "?"


def run(m: Mutant, files: list) -> tuple:
    """(outcome, detail) of one mutant: "killed", "survived" or "error"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for f in files:
            (Path(tmp) / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, Path(tmp) / f)
        target = Path(tmp) / m.path
        text = target.read_text()
        if text.count(m.old) != 1:
            return "error", f"old text occurs {text.count(m.old)} times in {m.path}"
        target.write_text(text.replace(m.old, m.new))
        # wide COLUMNS: pytest cuts its summary lines to the terminal width
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1",
                   COLUMNS="10000")
        where = subprocess.run([sys.executable, "-c",
                                "import streamfields; print(streamfields.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True).stdout.strip()
        if not where or not Path(where).resolve().is_relative_to(Path(tmp).resolve()):
            return "error", f"streamfields imported from {where or '?'}, not the mutated copy"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider", *m.tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode == 1:
        return "killed", _first_failure(proc.stdout)
    return "error", f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    files = _tree()
    code, start = 0, time.perf_counter()
    for m in MUTANTS:
        t0 = time.perf_counter()
        outcome, detail = run(m, files)
        expected = m.expect.split(":")[0]
        if outcome == "error":
            code = 2
        elif outcome != expected:
            code = max(code, 1)
        mark = "" if outcome == expected else f"  UNEXPECTED (expected {expected})"
        print(f"{outcome:8}  {m.name}  [{time.perf_counter() - t0:.0f} s]"
              + (f"  {detail}" if detail else "") + mark, flush=True)
    print(f"{time.perf_counter() - start:.0f} s in all", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
