"""The benchmark workloads: the inputs each one builds from its seed, and the
pass that turns them into the JSON reports a user would read.

A pass drives the library in-process through the same suite functions and
``report.render_json`` that the ``vermabranch`` subcommands call:

- ``so_formal``: ``verify-so --n {2,3,4} --max-degree 8 --json`` (formal l);
- ``diag_formal``: ``verify-diag --max-degree 12`` plus
  ``branch-report --N 3 --cutoff 8`` (formal l, m);
- ``ops_random``: the five randomized property suites, 200 cases each.
  How long a case takes varies widely with the random operators drawn, so
  at the CLI's 100 cases the pass time moves by ~13% from seed to seed;
  200 cases halve that variance.

Only ``ops_random`` depends on the seed.  The ``tiny`` size keeps the same
code paths at a size that runs in about a second, for the smoke test.
"""

from __future__ import annotations

WORKLOADS = ("so_formal", "diag_formal", "ops_random")

SIZES = {
    "full": {"so_n": (2, 3, 4), "so_degree": 8, "diag_degree": 12,
             "branch_cutoff": 8, "cases": 200},
    "tiny": {"so_n": (2,), "so_degree": 2, "diag_degree": 2,
             "branch_cutoff": 2, "cases": 2},
}


def setup(name: str, seed: int, size: str):
    """Import the library and build the pass inputs.  The returned callable
    runs the pass and returns the rendered reports, one per subcommand."""
    from vermabranch import cli_report, properties, report

    p = SIZES[size]
    if name == "so_formal":
        configs = [cli_report.RunConfig("so_pair", n=n, max_degree=p["so_degree"])
                   for n in p["so_n"]]
        suites = [("so_suite", c) for c in configs]
    elif name == "diag_formal":
        suites = [("diag_suite",
                   cli_report.RunConfig("diag_pair", max_degree=p["diag_degree"])),
                  ("branch_suite",
                   cli_report.RunConfig("branch", N=3, cutoff=p["branch_cutoff"]))]
    elif name == "ops_random":
        cases = p["cases"]

        def run_properties():
            bundle = properties.run_all(seed, cases)
            return [report.render_json(
                bundle, {"scenario": "properties", "cases": cases}, seed=seed)]
        return run_properties
    else:
        raise ValueError(f"unknown workload {name!r}")

    # Functions are looked up when the pass runs, so a traced pass reaches
    # them through the tracer's wrappers.
    def run_suites():
        return [report.render_json(getattr(cli_report, suite)(c), c.to_dict(),
                                   seed=c.seed)
                for suite, c in suites]
    return run_suites
