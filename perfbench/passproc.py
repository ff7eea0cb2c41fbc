"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passproc.py --workload NAME --seed N --size full|tiny
                                  [--setup-only] [--trace SPANS_PATH]

Imports the library from ``src/`` of the checkout, builds the workload's
inputs, then runs the pass once, with no warm-up.  Prints one JSON line:
the monotonic-clock instant at which the pass could start (``ready_ns``,
comparable with the parent's spawn instant) and how much slower than the
reference the host was just then (``setup_slowdown``), and, unless
``--setup-only``, the pass's wall and CPU time, the host's slowdown over the
pass, peak RSS, and a summary of its reports.  With
``--trace`` the pass runs under the layer tracer, which writes its spans to
SPANS_PATH and adds the per-layer metrics and call counts.

Exit status 3 means set-up failed (the library could not be imported).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_FAILED = 3
# ``probe`` takes 0.85 ms on the reference host, a 2-vCPU Intel Xeon VM
# running Python 3.11.7 at its usual speed.
REF_PROBE_S = 0.00085
PROBE_INTERVAL_S = 0.05
PROBES_AFTER_SETUP = 25


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def probe() -> float:
    """Seconds for a fixed stdlib-only snippet of small-Fraction arithmetic,
    the operation the library spends most of its time in.  Collection is off
    while it runs, so the size of the pass's heap does not change its time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for k in range(1, 201):
            Fraction(k, 3) * Fraction(5, k + 1) + Fraction(1, 7)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the host ran while ``samples``
    were taken.  Samples spaced evenly in time make the harmonic mean of the
    probe times the probe time at the mean speed; a probe stretched by a
    preemption weighs little in it."""
    return statistics.harmonic_mean(samples) / REF_PROBE_S


class HostSpeed:
    """Probes the host every ``interval`` seconds of wall time while a pass
    runs.  A timer signal runs ``probe`` between the pass's own bytecodes, so
    the probes see the host exactly as fast as the pass does."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def summarize(texts) -> dict:
    """Record counts and digests of the rendered reports.  ``digest`` leaves
    out each report's ``meta`` block; ``raw_digest`` covers every byte."""
    records = discrepancies = failed = 0
    digest = hashlib.sha256()
    raw = hashlib.sha256()
    for text in texts:
        raw.update(text.encode())
        doc = json.loads(text)
        doc.pop("meta")
        digest.update(json.dumps(doc, sort_keys=True).encode())
        for r in doc["records"]:
            records += 1
            discrepancies += r["status"] == "discrepancy-reported"
            failed += r["status"] == "fail"
    return {"records": records, "discrepancies": discrepancies,
            "fail_records": failed, "digest": digest.hexdigest(),
            "raw_digest": raw.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    try:
        run = workloads.setup(args.workload, args.seed, args.size)
    except ImportError:
        traceback.print_exc()
        return SETUP_FAILED
    out = {"ready_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}
    out["setup_slowdown"] = slowdown([probe() for _ in range(PROBES_AFTER_SETUP)])
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer("vermabranch")
        tracer.install()
    texts, error = [], None
    # A traced pass is not probed: its layer times would count the probes.
    speed = HostSpeed(PROBE_INTERVAL_S) if tracer is None else None
    cpu0 = _cpu_s()
    t0 = time.perf_counter_ns()
    try:
        with speed or contextlib.nullcontext():
            texts = run()
    except Exception:
        error = traceback.format_exc(limit=-3)
    wall_ns = time.perf_counter_ns() - t0
    probed_s = sum(speed.samples) if speed else 0.0
    out["cpu_s"] = _cpu_s() - cpu0 - probed_s
    out["wall_s"] = wall_ns / 1e9 - probed_s
    # A pass shorter than the probe interval is probed once, after it ends.
    out["slowdown"] = slowdown(speed.samples or [probe()]) if speed else None
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        out["counts"] = tracer.counts()
        tracer.write_spans(args.trace)
    out["error"] = error
    out.update(summarize(texts))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
