"""Run the scenario subcommands over the full weight grid and count their
exit codes.

    python3 tools/weight_grid.py

Run from anywhere; it imports ``vermabranch`` from the ``src/`` next to
this directory.  The grid puts lambda and mu at k/4 for |k| <= 16, and each
run goes in-process through ``vermabranch.cli.main``:

- ``verify-so --n N --max-degree 4 --lambda=L`` for n = 2..6 (165 runs);
- ``verify-diag --max-degree 4 --lambda=L --mu=M`` (1,089 runs);
- ``branch-report --N L+M --lambda=L --mu=M`` wherever L+M is a
  nonnegative integer (153 runs).

A run must pass (exit 0) or reject its weights (exit 2).  The tool prints
the number of runs per exit code and each run that exited 1 or raised, and
exits 1 if there was any.  ``tests/test_cli.py::test_weight_sweep_exits_0_or_2``
runs a 181-run slice of this grid.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vermabranch.cli import main  # noqa: E402

DEGREE = "4"


def grid_runs():
    quarters = [Fraction(k, 4) for k in range(-16, 17)]
    runs = [["verify-so", "--n", str(n), "--max-degree", DEGREE, f"--lambda={lam}"]
            for n in range(2, 7) for lam in quarters]
    runs += [["verify-diag", "--max-degree", DEGREE, f"--lambda={lam}", f"--mu={mu}"]
             for lam in quarters for mu in quarters]
    runs += [["branch-report", "--N", str(lam + mu), f"--lambda={lam}", f"--mu={mu}"]
             for lam in quarters for mu in quarters
             if (lam + mu).denominator == 1 and lam + mu >= 0]
    return runs


def run(args) -> tuple:
    """(exit code, or "raised", and the traceback of a run that raised)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(args), ""
    except SystemExit as exc:
        return exc.code, ""
    except Exception:
        return "raised", traceback.format_exc()


def main_grid() -> int:
    runs, codes, bad = grid_runs(), Counter(), []
    start = time.perf_counter()
    for args in runs:
        rc, tb = run(args)
        codes[rc] += 1
        if rc not in (0, 2):
            bad.append((args, rc, tb))
    print(f"{len(runs)} runs in {time.perf_counter() - start:.1f} s: "
          + ", ".join(f"exit {rc}: {n}" for rc, n in sorted(codes.items(), key=str)))
    for args, rc, tb in bad:
        print(f"exit {rc}: vermabranch {' '.join(args)}\n{tb}", end="" if tb else "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_grid())
