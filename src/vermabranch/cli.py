"""Command-line entry point.

Exit status is 0 when no check fails (discrepancy-reported records do not
fail a run), 1 when at least one check fails, and 2 on usage or precondition
errors, degenerate weights included.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .cli_report import RunConfig, run_suite
from .orthopoly import GegenbauerSpec, JacobiSpec, gegenbauer, jacobi
from .properties import run_all as run_property_suites
from .report import FAIL, ReportBundle, render_json
from .scalars import ALPHA, LAMBDA, MU


def _rational(text: str):
    if text == "formal":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _degree(text: str) -> int:
    d = int(text)
    if d < 0:
        raise argparse.ArgumentTypeError(f"degree must be nonnegative: {d}")
    return d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermabranch",
        description="Exact verification of singular-vector families, their "
                    "sl(2) ladder structure, and branching bookkeeping.")
    sub = parser.add_subparsers(dest="command", required=True)

    so = sub.add_parser("verify-so", help="orthogonal-pair scenario checks")
    so.add_argument("--n", type=int, default=3, help="number of variables (>= 2)")
    so.add_argument("--max-degree", type=_degree, default=4)
    so.add_argument("--lambda", dest="lam", type=_rational, default=None,
                    metavar="RATIONAL|formal",
                    help="inducing weight; omit or pass 'formal' for the symbolic one")
    so.add_argument("--json", metavar="PATH", help="write the JSON report here")
    so.add_argument("--seed", type=int, default=0)

    diag = sub.add_parser("verify-diag", help="diagonal-pair scenario checks")
    diag.add_argument("--max-degree", type=_degree, default=4)
    diag.add_argument("--lambda", dest="lam", type=_rational, default=None,
                      metavar="RATIONAL|formal")
    diag.add_argument("--mu", type=_rational, default=None, metavar="RATIONAL|formal")
    diag.add_argument("--json", metavar="PATH")
    diag.add_argument("--seed", type=int, default=0)

    br = sub.add_parser("branch-report", help="tensor-product branching bookkeeping")
    br.add_argument("--N", type=int, required=True, help="total weight lambda + mu")
    br.add_argument("--cutoff", type=int, default=8)
    br.add_argument("--lambda", dest="lam", type=_rational, default=None,
                    metavar="RATIONAL")
    br.add_argument("--mu", type=_rational, default=None, metavar="RATIONAL")
    br.add_argument("--json", metavar="PATH")
    br.add_argument("--seed", type=int, default=0)

    ortho = sub.add_parser("ortho-tables",
                           help="print the Gegenbauer and Jacobi tables")
    ortho.add_argument("--max-degree", type=_degree, default=3)

    allp = sub.add_parser("all", help="every scenario plus the property suites")
    allp.add_argument("--n", type=int, default=3)
    allp.add_argument("--max-degree", type=_degree, default=4)
    allp.add_argument("--N", type=int, default=3)
    allp.add_argument("--cutoff", type=int, default=8)
    allp.add_argument("--cases", type=int, default=25,
                      help="cases per randomized property suite")
    allp.add_argument("--json", metavar="PATH")
    allp.add_argument("--seed", type=int, default=0)

    return parser


def _emit(bundle: ReportBundle, config: RunConfig, json_path: str | None) -> int:
    if json_path:
        text = render_json(bundle, config.to_dict(), seed=config.seed)
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text)
    else:
        for rec in sorted(bundle.records, key=lambda r: r.check_id):
            line = f"{rec.status:22s} {rec.check_id}"
            if rec.status == FAIL and rec.witness:
                line += f"\n    witness: {rec.witness}"
            print(line)
        for key in sorted(bundle.data):
            print(f"data {key}: {bundle.data[key]}")
        n_fail = len(bundle.failed)
        print(f"{len(bundle.records)} records, {n_fail} failed")
    return 0 if bundle.ok() else 1


def _ortho_tables(max_degree: int) -> int:
    for l in range(max_degree + 1):
        c = gegenbauer(GegenbauerSpec(l, ALPHA))
        print(f"C_{l} = {c.render()}")
    for l in range(max_degree + 1):
        p = jacobi(JacobiSpec(l, -LAMBDA - 1, MU + LAMBDA - (2 * l - 1)))
        print(f"P_{l} = {p.render()}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify-so":
            config = RunConfig("so_pair", n=args.n, max_degree=args.max_degree,
                               lam=args.lam, seed=args.seed)
            return _emit(run_suite(config), config, args.json)
        if args.command == "verify-diag":
            config = RunConfig("diag_pair", max_degree=args.max_degree,
                               lam=args.lam, mu=args.mu, seed=args.seed)
            return _emit(run_suite(config), config, args.json)
        if args.command == "branch-report":
            config = RunConfig("branch", N=args.N, cutoff=args.cutoff,
                               lam=args.lam, mu=args.mu, seed=args.seed)
            return _emit(run_suite(config), config, args.json)
        if args.command == "ortho-tables":
            return _ortho_tables(args.max_degree)
        if args.command == "all":
            config = RunConfig("all", n=args.n, max_degree=args.max_degree,
                               N=args.N, cutoff=args.cutoff, seed=args.seed)
            bundle = run_suite(config)
            bundle.extend(run_property_suites(args.seed, args.cases))
            return _emit(bundle, config, args.json)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
