"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every check is exact (zero tolerance); run with `pytest -v
tests/test_acceptance.py` to see one line per criterion.
"""

import sys
from pathlib import Path

from oracles import (GOLDEN_TABLES, derive, gegenbauer_ode_op, gegenbauer_recurrence,
                     jacobi, jacobi_derivative, jacobi_norm_closed_form, jacobi_ode_op,
                     orthogonality_integral)
from vermabranch import diag_pair, so_pair
from vermabranch.cli import main as cli_main
from vermabranch.cli_report import RunConfig, hilbert_check, run_suite
from vermabranch.orthopoly import gegenbauer, rising_factorial
from vermabranch.properties import ALL_SUITES
from vermabranch.report import DISCREPANCY, render_json
from vermabranch.scalars import ALPHA, LAMBDA, MU

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"
SEED = 20240817


def conclude(num: int, desc: str, ok: bool):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}",
          file=sys.stderr)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_golden_vectors():
    ok = all((GOLDEN_DIR / name).read_text() == build()
             for name, build in GOLDEN_TABLES.items())
    conclude(1, "golden tables byte-identical after canonical rendering", ok)


def test_criterion_02_sl2_suite():
    ok = all(so_pair.verify_sl2(so_pair.SoPairContext.formal(n), 10).ok()
             for n in range(2, 7))
    conclude(2, "sl(2) ladder relations, formal weight, n=2..6, l<=10", ok)


def test_criterion_03_casimir():
    ok = all(so_pair.casimir_check(so_pair.SoPairContext.formal(n), 10).ok()
             for n in range(2, 7))
    conclude(3, "Casimir eigenvalue 2a(a-1) on the family, n=2..6, l<=10", ok)


def test_criterion_04_diag_lowering():
    ctx = diag_pair.DiagContext.formal()
    ok = diag_pair.verify_lowering(ctx, 10).ok()
    ok = ok and diag_pair.lowering_constant(ctx, 1) == LAMBDA * MU * -2
    ok = ok and diag_pair.lowering_constant(ctx, 2) == (LAMBDA - 1) * (MU - 1) * -2
    ok = ok and diag_pair.lowering_constant(ctx, 3) == (LAMBDA - 2) * (MU - 2) * -2
    conclude(4, "lowering identity with displayed constants, l<=10", ok)


def test_criterion_05_annihilation():
    ctx = diag_pair.DiagContext.formal()
    ok = diag_pair.annihilation_check(ctx, 10).ok()
    ok = ok and diag_pair.t_annihilation_check(ctx, 8).ok()
    conclude(5, "annihilation of singular solutions, xi/eta l<=10 and t l<=8", ok)


def test_criterion_06_orthopoly_suite():
    ok = all(gegenbauer(l, ALPHA) == gegenbauer_recurrence(l, ALPHA) for l in range(13))
    ok = ok and all(gegenbauer_ode_op(l, ALPHA).apply(
        gegenbauer(l, ALPHA)).is_zero() for l in range(13))
    ok = ok and all(jacobi_ode_op(l, LAMBDA, MU).apply(
        jacobi(l, LAMBDA, MU)).is_zero() for l in range(11))
    p = jacobi(6, LAMBDA, MU)
    for k in range(4):
        ok = ok and jacobi_derivative(6, LAMBDA, MU, k) == p
        p = derive(p, "x")
    from fractions import Fraction
    half = Fraction(1, 2)
    ok = ok and all(
        gegenbauer(l, ALPHA)
        == jacobi(l, ALPHA - half, ALPHA - half).scale(
            rising_factorial(ALPHA * 2, l) / rising_factorial(ALPHA + half, l))
        for l in range(11))
    for alpha in range(4):
        for beta in range(4):
            for k in range(6):
                for l in range(6):
                    v = orthogonality_integral(k, l, alpha, beta)
                    expect = jacobi_norm_closed_form(l, alpha, beta) if k == l else 0
                    ok = ok and v == expect
    conclude(6, "Gegenbauer/Jacobi constructions, ODEs, derivative formula, "
                "relation, exact orthogonality", ok)


def test_criterion_07_nonclosure():
    ok = True
    saw_discrepancy = False
    for n in (3, 4):
        bundle = so_pair.verify_nonclosure(so_pair.SoPairContext.formal(n))
        ok = ok and bundle.ok()
        saw_discrepancy = saw_discrepancy or any(
            r.status == DISCREPANCY for r in bundle.records)
    conclude(7, "non-closure verified; display diffs reported as discrepancy",
             ok and saw_discrepancy)


def test_criterion_08_branching_characters():
    ok = all(hilbert_check(n, 20).status == "pass" for n in range(2, 7))
    for N in range(7):
        bundle = diag_pair.grothendieck_check(N, 10)
        statuses = {r.check_id: r.status for r in bundle.records}
        ok = ok and statuses[f"branch.grothendieck.N={N},cutoff=10"] == "pass"
        ok = ok and statuses[f"branch.lambda-r-diff.N={N}"] == DISCREPANCY
    conclude(8, "character identity n<=6, J<=20; Grothendieck multiset N<=6 "
                "with weight-set diff reported", ok)


def test_criterion_09_property_suites():
    ok = True
    for i, suite in enumerate(ALL_SUITES):
        bundle = suite(SEED + i, 200)
        ok = ok and bundle.ok()
        ok = ok and all(f"seed={SEED + i}" in r.check_id for r in bundle.records)
    conclude(9, "randomized property suites, 200 exact cases each, seed recorded",
             ok)


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-so", "--n", "2", "--max-degree", "4", "--seed", "5"]
    ok = cli_main(args + ["--json", str(a)]) == 0
    ok = ok and cli_main(args + ["--json", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    config = RunConfig("diag_pair", max_degree=3, seed=5)
    bundle = run_suite(config)
    ok = ok and render_json(bundle, config.to_dict(), 5) == render_json(
        run_suite(config), config.to_dict(), 5)
    conclude(10, "byte-identical JSON for identical config and seed", ok)
