"""Command-line entry point.

Exit status is 0 when no check fails (discrepancy-reported records do not
fail a run), 1 when at least one check fails, and 2 on usage or precondition
errors, degenerate weights included.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cli_report import RunConfig, run_suite
from .diag_pair import DiagContext, jacobi_t_polynomial
from .orthopoly import gegenbauer
from .polyring import X_LINE, GeoPoly
from .properties import run_all as run_property_suites
from .report import FAIL, ReportBundle, render_json
from .scalars import ALPHA


def _rational(text: str):
    if text == "formal":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _at_least(lo: int, name: str, message: str):
    """The argparse type ``name`` of the ints >= lo: it rejects a smaller one
    as ``message: value``, and argparse's error for a non-int names it."""
    def parse(text: str) -> int:
        k = int(text)
        if k < lo:
            raise argparse.ArgumentTypeError(f"{message}: {k}")
        return k
    parse.__name__ = name
    return parse


_degree = _at_least(0, "_degree", "degree must be nonnegative")
_cases = _at_least(1, "_cases", "cases must be at least 1")

# the RunConfig scenario of each scenario subcommand
_SCENARIOS = {"verify-so": "so_pair", "verify-diag": "diag_pair",
              "branch-report": "branch", "all": "all"}


def gegenbauer_lines(max_degree: int) -> list:
    """The lines ``C_l = ...`` for l <= max_degree, which open both the
    ``ortho-tables`` output and the Gegenbauer golden table."""
    return [f"C_{l} = {gegenbauer(l, ALPHA).render()}" for l in range(max_degree + 1)]


def ortho_table(max_degree: int) -> str:
    """What ``vermabranch ortho-tables`` prints: the C_l lines, then the
    Jacobi polynomials P_l^(-lambda-1, mu+lambda-2l+1) in x, each the
    diagonal pair's t-form :func:`~vermabranch.diag_pair.jacobi_t_polynomial`
    at t = (x-1)/2, summed by Horner's rule."""
    lines = gegenbauer_lines(max_degree)
    ctx = DiagContext.formal()
    t = (GeoPoly.var(X_LINE, "x") - GeoPoly.const(X_LINE, 1)).scale(Fraction(1, 2))
    for l in range(max_degree + 1):
        cs, p = jacobi_t_polynomial(ctx, l).coefficients(), GeoPoly.zero(X_LINE)
        for i in range(l, -1, -1):
            p = p * t + GeoPoly.const(X_LINE, cs.get((i,), 0))
        lines.append(f"P_{l} = {p.render()}")
    return "\n".join(lines) + "\n"


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

    diag = sub.add_parser("verify-diag", help="diagonal-pair scenario checks")
    diag.add_argument("--max-degree", type=_degree, default=4)
    diag.add_argument("--lambda", dest="lam", type=_rational, default=None,
                      metavar="RATIONAL|formal")
    diag.add_argument("--mu", type=_rational, default=None, metavar="RATIONAL|formal")

    br = sub.add_parser("branch-report", help="tensor-product branching bookkeeping")
    br.add_argument("--N", type=int, required=True, help="total weight lambda + mu")
    br.add_argument("--cutoff", type=int, default=8)
    br.add_argument("--lambda", dest="lam", type=_rational, default=None,
                    metavar="RATIONAL")
    br.add_argument("--mu", type=_rational, default=None, metavar="RATIONAL")

    ortho = sub.add_parser("ortho-tables",
                           help="print the Gegenbauer and Jacobi tables")
    ortho.add_argument("--max-degree", type=_degree, default=3)

    allp = sub.add_parser("all", help="every scenario plus the property suites")
    allp.add_argument("--n", type=int, default=3)
    allp.add_argument("--max-degree", type=_degree, default=4)
    allp.add_argument("--N", type=int, default=3)
    allp.add_argument("--cutoff", type=int, default=8)
    allp.add_argument("--cases", type=_cases, default=25,
                      help="cases per randomized property suite")

    # after each subcommand's own options, so that its usage line lists them last
    for sp in (so, diag, br, allp):
        sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
        sp.add_argument("--seed", type=int, default=0)
    return parser


def _probe_writable(json_path: str | None) -> None:
    """Raise OSError unless the report can be written to json_path, before
    any check runs; a file made by the probe is removed again."""
    if json_path and json_path != "-":
        existed = os.path.exists(json_path)
        open(json_path, "a").close()
        if not existed:
            os.remove(json_path)


def _emit(bundle: ReportBundle, config: RunConfig, json_path: str | None) -> int:
    if json_path:
        text = render_json(bundle, config.to_dict(), seed=config.seed)
        if json_path == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(json_path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: cannot write the report: {exc}", file=sys.stderr)
                return 2
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ortho-tables":
        sys.stdout.write(ortho_table(args.max_degree))
        return 0
    try:
        _probe_writable(args.json)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    try:
        config = RunConfig(_SCENARIOS[args.command], **{
            k: v for k, v in vars(args).items() if k in RunConfig._fields})
        bundle = run_suite(config)
        if args.command == "all":
            bundle.extend(run_property_suites(args.seed, args.cases))
        return _emit(bundle, config, args.json)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
