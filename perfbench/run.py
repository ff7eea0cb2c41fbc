"""The vermabranch benchmark: one run of one workload.

    python3 perfbench/run.py --workload so_formal|diag_formal|ops_random
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``passproc.py``), one at a time, with no warm-up pass: each ``vermabranch``
invocation starts a new interpreter, so a pass in a process that had already
run one would time caches no user ever has warm.

``--trace 0`` runs passes until the next one would end after S seconds (at
least one), then several set-up-only processes, and reports the medians of

- ``setup_s``: spawn to the moment the pass can start (interpreter start,
  ``import vermabranch``, input generation), over every process started;
- ``wall_s``, ``cpu_s``: wall and CPU time of the pass, report rendering
  included;
- ``peak_rss_mib``: peak resident memory of the pass process;

and ``pass_ratio``, the share of attempted records that passed every check
(one minus the fail ratio).

The times are reported at the reference host speed.  A shared host runs the
same pass up to ~2x slower for stretches of seconds to minutes, far more
than the changes the benchmark must resolve.  So each pass process times a
fixed stdlib-only probe every 50 ms of the pass (and 25 times right after
set-up), and each time is divided by the host's slowdown over that interval,
the probes' harmonic-mean time over the probe's time on the reference host
(``passproc.py``).  The probes' own time is left out of the pass's times, and
the raw times are printed on each pass's line.

``--trace 1`` runs one untraced pass and one pass under the layer tracer
(``tracer.py``), and reports the per-layer metrics plus ``trace_overhead``,
the traced pass's wall time over the untraced one's.  Spans go to
``perfbench/out/<workload>.spans``.

Every pass is checked: no ``fail`` record and no exception; record and
``discrepancy-reported`` counts as in ``expected.json``; for the formal
workloads, a digest of the reports without their ``meta`` blocks equal to
the stored one; and byte-identical reports across the passes of a run.  Each
mismatch counts as one failed operation.

Earlier stdout lines describe the environment and each pass; the last line
is the JSON result.  Exit status 2 means the benchmark could not run (no
library to import, unknown workload); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passproc import SETUP_FAILED  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_ONLY_PASSES = 5
PASS_TIMEOUT_S = 150


class SetupFailed(RuntimeError):
    pass


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _git_commit() -> str:
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def spawn(workload: str, seed: int, size: str, setup_only=False, trace_path=None) -> dict:
    """Run one pass process and return its report plus ``setup_s`` and
    ``process_s``.  A pass that crashes is returned with ``error`` set."""
    cmd = [sys.executable, str(HERE / "passproc.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    t0 = _now_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s", "records": 0}
    t1 = _now_ns()
    if proc.returncode == SETUP_FAILED:
        raise SetupFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr else "set-up failed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "records": 0}
    out = json.loads(lines[-1])
    out["setup_s"] = (out["ready_ns"] - t0) / 1e9
    out["process_s"] = (t1 - t0) / 1e9
    return out


def check(p: dict, want: dict, first: dict | None) -> list[str]:
    """Every way the pass's output differs from what is expected."""
    if p.get("error"):
        return [f"error: {p['error']}"]
    problems = [f"fail record {i + 1}" for i in range(p["fail_records"])]
    for key in ("records", "discrepancies"):
        if p[key] != want[key]:
            problems.append(f"{key}: {p[key]} != expected {want[key]}")
    if "digest" in want and p["digest"] != want["digest"]:
        problems.append(f"digest {p['digest'][:12]} != expected {want['digest'][:12]}")
    if first is not None and not first.get("error") and p["raw_digest"] != first["raw_digest"]:
        problems.append("report bytes differ from the run's first pass")
    return problems


class Run:
    """Passes of one run and the tally of their output checks."""

    def __init__(self, args, want: dict):
        self.args = args
        self.want = want
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def one(self, trace_path=None) -> dict:
        p = spawn(self.args.workload, self.args.seed, self.args.size,
                  trace_path=trace_path)
        problems = check(p, self.want, self.passes[0] if self.passes else None)
        self.attempted += max(self.want["records"], p.get("records", 0))
        self.failed += len(problems)
        self.passes.append(p)
        print(json.dumps({
            "pass": len(self.passes), "traced": trace_path is not None,
            **{k: p.get(k) for k in ("setup_s", "setup_slowdown", "wall_s", "cpu_s",
                                     "slowdown", "peak_rss_mib", "records",
                                     "discrepancies")},
            "problems": problems}), flush=True)
        return p

    def pass_ratio(self) -> float:
        return max(0.0, 1 - self.failed / self.attempted)


def timed(run: Run) -> dict:
    start = time.perf_counter()
    while True:
        p = run.one()
        elapsed = time.perf_counter() - start
        if elapsed + p.get("process_s", elapsed) > run.args.seconds:
            break
    setup_only = [spawn(run.args.workload, run.args.seed, run.args.size, setup_only=True)
              for _ in range(SETUP_ONLY_PASSES)]
    setups = [p["setup_s"] / p["setup_slowdown"] for p in run.passes + setup_only
              if "setup_s" in p]
    measured = [p for p in run.passes if "wall_s" in p]
    if not measured:
        raise RuntimeError(f"no pass was measured: {run.passes[-1]['error']}")

    def med(key):
        return statistics.median(p[key] / p["slowdown"] for p in measured)

    print(json.dumps({"samples": {"passes": len(run.passes), "setups": len(setups)},
                      "fail_ratio": run.failed / run.attempted}), flush=True)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in measured), "MiB"),
        "pass_ratio": (run.pass_ratio(), "ratio"),
    }


def traced(run: Run) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    plain = run.one()
    tr = run.one(trace_path=out_dir / f"{run.args.workload}.spans")
    if "wall_s" not in plain or "layers" not in tr:
        raise RuntimeError(f"traced run failed: {plain.get('error')} {tr.get('error')}")
    metrics = {k: tuple(v) for k, v in tr["layers"].items()}
    metrics["trace_overhead"] = (tr["wall_s"] / plain["wall_s"], "ratio")
    print(json.dumps({"fail_ratio": run.failed / run.attempted,
                      "counts": tr["counts"]}), flush=True)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' runs the same code paths in about a second")
    args = parser.parse_args(argv)

    want = json.loads((HERE / "expected.json").read_text())[args.workload][args.size]
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": _git_commit(), "loadavg_start": _loadavg()}}), flush=True)
    run = Run(args, want)
    try:
        metrics = traced(run) if args.trace else timed(run)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": {"loadavg_end": _loadavg()}}), flush=True)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
