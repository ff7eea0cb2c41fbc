"""Run the independent oracles at formal weights to degrees past the suite's
caps, and count what they find.

    python3 tools/deep_oracles.py

Run from anywhere; it imports ``vermabranch`` from the ``src/`` next to
this directory.  At the formal weights (lambda, mu and alpha symbolic):

- ``diag_pair.model_transport_check`` to degree 30 (``verify-diag`` caps it
  at ``min(max_degree, 5)``): the dehomogenized Fourier action against the
  t-model operator;
- ``diag_pair.t_annihilation_check`` to degree 40 (capped at
  ``min(max_degree, 8)``): the t-model Jacobi polynomials against their
  hypergeometric operator;
- the Gegenbauer polynomials C_l^alpha for l <= 40 from the explicit sum,
  the three-term recurrence and the 2F1 series, which must be equal;
- the whole ``verify-so`` suite (``cli_report.so_suite``) at n = 5 and 6 to
  degree 14, where operator products run on many variables (Tier-1 runs its
  ladder and Casimir checks there to degree 10, the benchmark stops at n = 4).

The tool prints the number of records and the time of each oracle, and each
failure, and exits 1 if there was any.  It is not part of Tier-1.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vermabranch import cli_report, diag_pair  # noqa: E402
from vermabranch.orthopoly import (gegenbauer, gegenbauer_recurrence,  # noqa: E402
                                   gegenbauer_via_2f1)
from vermabranch.report import ReportBundle  # noqa: E402
from vermabranch.scalars import ALPHA  # noqa: E402

TRANSPORT_DEGREE = 30
T_ANNIHILATION_DEGREE = 40
GEGENBAUER_DEGREE = 40
SO_DIMENSIONS = (5, 6)
SO_DEGREE = 14


def gegenbauer_check(max_degree: int) -> ReportBundle:
    bundle = ReportBundle()
    for l in range(max_degree + 1):
        c = gegenbauer(l, ALPHA)
        for name, other in (("recurrence", gegenbauer_recurrence(l, ALPHA)),
                            ("2f1", gegenbauer_via_2f1(l, ALPHA))):
            bundle.check(f"gegenbauer.sum={name}.l={l}", "orthopoly:gegenbauer",
                         c == other, witness=lambda: (c - other).render())
    return bundle


def main() -> int:
    ctx = diag_pair.DiagContext.formal()
    oracles = [
        (f"model_transport_check to degree {TRANSPORT_DEGREE}",
         lambda: diag_pair.model_transport_check(ctx, TRANSPORT_DEGREE)),
        (f"t_annihilation_check to degree {T_ANNIHILATION_DEGREE}",
         lambda: diag_pair.t_annihilation_check(ctx, T_ANNIHILATION_DEGREE)),
        (f"gegenbauer sum = recurrence = 2F1 to degree {GEGENBAUER_DEGREE}",
         lambda: gegenbauer_check(GEGENBAUER_DEGREE)),
    ] + [
        (f"so_suite at n = {n} to degree {SO_DEGREE}",
         lambda n=n: cli_report.so_suite(cli_report.RunConfig("so_pair", n=n, max_degree=SO_DEGREE)))
        for n in SO_DIMENSIONS
    ]
    n_fail = 0
    for name, run in oracles:
        start = time.perf_counter()
        bundle = run()
        failed = bundle.failed
        print(f"{name}: {len(bundle.records)} records, {len(failed)} failed "
              f"in {time.perf_counter() - start:.2f} s")
        for rec in failed:
            print(f"    {rec.status} {rec.check_id}: {rec.witness}")
        n_fail += len(failed)
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
