"""Run the scenario subcommands over the full weight grid and check each
exit code against its prediction.

    python3 tools/weight_grid.py

Run from anywhere; it imports ``vermabranch`` from the ``src/`` next to
this directory.  The grid puts lambda and mu at k/4 for |k| <= 16, and each
run goes in-process through ``vermabranch.cli.main``:

- ``verify-so --n N --max-degree 4 --lambda=L`` for n = 2..6 (165 runs);
  it rejects its weight (exit 2) iff L + (N-1)/2 is 0, 1 or 2, where the
  normalization of some F_l with l <= 5 divides by zero;
- ``verify-diag --max-degree 4 --lambda=L --mu=M`` (1,089 runs) and
- ``branch-report --N L+M --lambda=L --mu=M`` wherever L+M is a
  nonnegative integer (153 runs); both reject their weights iff L or M is a
  nonnegative integer.

Every other run must pass (exit 0).  The tool prints the number of runs per
exit code and each run whose code differs from the prediction, with the
traceback of one that raised, and exits 1 if there was any.
``tests/test_cli.py::test_weight_sweep_exits_0_or_2`` runs a 181-run slice
of this grid.
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


def _natural(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def grid_runs():
    """(arguments, predicted exit code) of every run of the grid."""
    quarters = [Fraction(k, 4) for k in range(-16, 17)]
    runs = [(["verify-so", "--n", str(n), "--max-degree", DEGREE, f"--lambda={lam}"],
             2 if lam + Fraction(n - 1, 2) in (0, 1, 2) else 0)
            for n in range(2, 7) for lam in quarters]
    runs += [(["verify-diag", "--max-degree", DEGREE, f"--lambda={lam}", f"--mu={mu}"],
              2 if _natural(lam) or _natural(mu) else 0)
             for lam in quarters for mu in quarters]
    runs += [(["branch-report", "--N", str(lam + mu), f"--lambda={lam}", f"--mu={mu}"],
              2 if _natural(lam) or _natural(mu) else 0)
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
    for args, want in runs:
        rc, tb = run(args)
        codes[rc] += 1
        if rc != want:
            bad.append((args, rc, want, tb))
    print(f"{len(runs)} runs in {time.perf_counter() - start:.1f} s: "
          + ", ".join(f"exit {rc}: {n}" for rc, n in sorted(codes.items(), key=str))
          + f"; {len(bad)} not as predicted")
    for args, rc, want, tb in bad:
        print(f"exit {rc}, predicted {want}: vermabranch {' '.join(args)}\n{tb}", end="")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_grid())
