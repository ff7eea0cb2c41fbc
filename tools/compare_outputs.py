"""Compare the CLI outputs of a git revision with those of this checkout.

    python3 tools/compare_outputs.py REV

Run from anywhere inside the repository; REV is any git revision (``HEAD``,
a commit, a branch).  The tool extracts ``src/`` of REV with ``git archive``
into a temporary directory and runs each invocation of ``RUNS`` as
``python -m vermabranch.cli ARGS`` in a fresh interpreter, once with
``PYTHONPATH`` at that tree and once at the ``src/`` next to this directory.
Exit code, stdout and stderr must be byte-identical.

It prints one line per run, ``same`` or ``DIFF`` with the parts that
differ, and exits 0 if every run matched, 1 if any differed, and 2 if REV
could not be extracted.  Uses only the standard library and git.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ["all", "--json", "-"],
    ["all", "--seed", "3", "--cases", "40", "--json", "-"],
    *(["verify-so", "--n", str(n), "--json", "-"] for n in range(2, 7)),
    ["verify-so", "--n", "6", "--max-degree", "14", "--json", "-"],
    # many variables at high degree, where the singular check reads the
    # model most
    ["verify-so", "--n", "6", "--max-degree", "20", "--json", "-"],
    ["verify-so", "--n", "8", "--max-degree", "12", "--json", "-"],
    ["verify-so", "--n", "3", "--lambda", "1/3", "--json", "-"],
    # specialized weights lam = (3-n)/4 at n >= 4, where the [P, Q]
    # eigenvalues at l = 0, 1, 2 are collinear
    *(["verify-so", "--n", str(n), f"--lambda={lam}", "--max-degree", "3", "--json", "-"]
      for n, lam in ((4, "-1/4"), (5, "-1/2"), (6, "-3/4"))),
    ["verify-so", "--n", "2", "--max-degree", "45", "--json", "-"],
    ["verify-diag", "--json", "-"],
    ["verify-diag", "--lambda", "1/3", "--mu", "2/5", "--json", "-"],
    # the longest parameter rows an action meets: P~_l at formal lam, mu
    ["verify-diag", "--max-degree", "26", "--json", "-"],
    ["branch-report", "--N", "3"],
    ["branch-report", "--N", "3", "--lambda", "1/2", "--mu", "5/2", "--json", "-"],
    ["ortho-tables"],
    # every C_l line is a relabel of the t-line family C~_l
    ["ortho-tables", "--max-degree", "12"],
    # the precondition and usage errors: exit 2 and one error line
    ["verify-so", "--n", "1"],
    ["verify-so", "--max-degree", "-1"],
    ["verify-so", "--lambda", "abc"],
    ["verify-so", "--n", "2", "--max-degree", "2", "--lambda=-1/2"],
    ["verify-diag", "--max-degree", "1", "--lambda", "0", "--mu", "0"],
    ["branch-report", "--N", "4", "--lambda", "1/2", "--mu", "5/2"],
    ["all", "--cases", "0"],
]


def run(src: Path, args: list, cwd: str) -> tuple:
    """(exit code, stdout, stderr) of ``vermabranch ARGS`` on the tree src."""
    proc = subprocess.run([sys.executable, "-m", "vermabranch.cli", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(src_a: Path, src_b: Path, runs: list) -> list:
    """(args, parts) for each run, parts naming what differs between the two
    trees: ``exit``, ``stdout`` and ``stderr``, none where the run matched."""
    out = []
    with tempfile.TemporaryDirectory() as cwd:
        for args in runs:
            a, b = run(src_a, args, cwd), run(src_b, args, cwd)
            out.append((args, [p for p, x, y in zip(("exit", "stdout", "stderr"), a, b)
                               if x != y]))
    return out


def extract_src(rev: str, dest: Path) -> Path:
    """src/ of the git revision rev, unpacked under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: compare_outputs.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src_rev = extract_src(argv[0], Path(tmp))
        except (OSError, subprocess.CalledProcessError, tarfile.TarError) as exc:
            detail = getattr(exc, "stderr", b"") or str(exc).encode()
            print(f"error: cannot extract src/ of {argv[0]}: "
                  f"{detail.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        results = compare(src_rev, ROOT / "src", RUNS)
    for args, parts in results:
        status = f"DIFF {','.join(parts)}" if parts else "same"
        print(f"{status}: vermabranch {' '.join(args)}")
    differ = sum(1 for _, parts in results if parts)
    print(f"{len(results)} runs against {argv[0]}, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
