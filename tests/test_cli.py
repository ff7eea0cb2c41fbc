"""CLI surface: exit codes, JSON schema and determinism, golden tables."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import GOLDEN_TABLES, render_over_q1, xi_ladder_ops
from vermabranch.cli import build_parser, main
from vermabranch.polyring import T_LINE, XI_ETA, XY, GeoPoly
from vermabranch.report import ReportBundle
from vermabranch.weylalg import DiffOp

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "goldens"
SUBCOMMANDS = ("verify-so", "verify-diag", "branch-report", "ortho-tables",
               "all")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "vermabranch.cli", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_golden_tables_byte_identical(name):
    expected = (GOLDEN_DIR / name).read_text()
    assert GOLDEN_TABLES[name]() == expected


def test_all_report_matches_golden(tmp_path):
    # the frozen report of `vermabranch all`: a refactor must reproduce it
    # byte for byte, and it is never regenerated to make this test pass
    out = tmp_path / "all.json"
    assert main(["all", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "all_report.json").read_bytes()


@pytest.mark.parametrize("args, golden", [
    # the only report whose scalars take the gcd path (l >= 43)
    (["verify-so", "--n", "2", "--max-degree", "45"], "verify_so_n2_deg45_report.json"),
    # specialized weights
    (["verify-diag", "--lambda", "1/3", "--mu", "2/5"], "verify_diag_l1_3_m2_5_report.json"),
])
def test_report_matches_golden(tmp_path, args, golden):
    # frozen like all_report.json, and never regenerated to make this pass
    out = tmp_path / "report.json"
    assert main([*args, "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_corrupted_golden_detected():
    # exit-status/diff contract spot check: a perturbed golden must not match
    name = "f_vectors.txt"
    corrupted = (GOLDEN_DIR / name).read_text().replace("2*l", "3*l")
    assert GOLDEN_TABLES[name]() != corrupted


def test_verify_so_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify-so", "--n", "3", "--max-degree", "2",
               "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["version"] == 1
    assert doc["meta"]["config"]["scenario"] == "so_pair"
    assert doc["meta"]["seed"] == 0
    statuses = {r["status"] for r in doc["records"]}
    assert "fail" not in statuses
    assert "discrepancy-reported" in statuses
    ids = [r["check-id"] for r in doc["records"]]
    assert ids == sorted(ids)


def test_json_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-diag", "--max-degree", "3", "--seed", "11"]
    assert main(args + ["--json", str(a)]) == 0
    assert main(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_branch_report_with_rational_weights(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["branch-report", "--N", "3", "--cutoff", "8",
               "--lambda", "1/2", "--mu", "5/2", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    sets = doc["data"]["branch.sets.N=3"]
    assert sets["Lambda_r definitional"] != sets["Lambda_r displayed"]


_DEFAULT_CONFIG = {"N": 3, "cutoff": 8, "lambda": "formal", "max-degree": 4,
                   "mu": "formal", "n": 3}


@pytest.mark.parametrize("args, seed, config", [
    (["verify-so", "--lambda=1/3"], 0, {"scenario": "so_pair", "lambda": "1/3"}),
    (["verify-diag", "--lambda=1/3", "--mu=2/5"], 0,
     {"scenario": "diag_pair", "lambda": "1/3", "mu": "2/5"}),
    (["branch-report", "--N", "3"], 0, {"scenario": "branch"}),
    (["branch-report", "--N", "3", "--lambda", "1/2", "--mu", "5/2"], 0,
     {"scenario": "branch", "lambda": "1/2", "mu": "5/2"}),
    (["all", "--cases", "1", "--seed", "4"], 4, {"scenario": "all"}),
])
def test_report_meta_records_the_run_config(capsys, args, seed, config):
    # each subcommand's options reach the report's meta block, defaults filled in
    assert main([*args, "--json", "-"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["seed"] == seed
    assert meta["config"] == {**_DEFAULT_CONFIG, **config}


def test_branch_report_weight_mismatch():
    rc = main(["branch-report", "--N", "4", "--lambda", "1/2", "--mu", "5/2"])
    assert rc == 2


def test_verify_diag_integral_weight_rejected():
    rc = main(["verify-diag", "--max-degree", "1", "--lambda", "0",
               "--mu", "0"])
    assert rc == 2


def test_usage_error_exit_code():
    proc = run_cli("verify-so", "--max-degree", "not-a-number")
    assert proc.returncode == 2
    proc = run_cli("no-such-command")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [("--n", "2", "--max-degree", "2", "--lambda=-1/2"),
                                  ("--n", "3", "--lambda=-1")])
def test_degenerate_weight_is_precondition_error(args):
    proc = run_cli("verify-so", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: normalization divisor vanishes")


def _stray_x(ladder_ops):
    """ladder_ops with a stray x in the cleared f~(2) = q1 f(2), the cleared
    form of a stray xn/q1 in f(2)."""
    def broken(ctx, l):
        e, f, h = ladder_ops(ctx, l)
        return e, f + DiffOp.mult(GeoPoly.var(f.vars, "x")) if l == 2 else f, h
    return broken


def _stray_xn(ctx, l):
    """The cleared xi-model ladder with the same stray term, + xn in f~(2)."""
    e, f, h = xi_ladder_ops(ctx, l)
    return e, f + DiffOp.mult(ctx.xn()) if l == 2 else f, h


def test_non_polynomial_lowering_is_a_failed_check(monkeypatch, capsys):
    # f(2) with a stray xn/q1 term: its image of F_2 keeps q1, which is a
    # failed check (exit 1, with a report), not a precondition error; the
    # witness is the cleared xi-model image over q1
    import vermabranch.so_pair as so_pair
    monkeypatch.setattr(so_pair, "ladder_ops", _stray_x(so_pair.ladder_ops))
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    failed = {r["check-id"]: r.get("witness") for r in json.loads(out)["records"]
              if r["status"] == "fail"}
    assert failed.keys() == {"sl2.lower-polynomial.n=3,l=2",
                             *(f"{c}.n=3,l={l}" for l in (1, 2) for c in
                               ("sl2.bracket", "casimir.scalar", "casimir.dirac-square"))}
    ctx = so_pair.SoPairContext.formal(3)
    low = _stray_xn(ctx, 2)[1].apply(so_pair.singular_vector_F(ctx, 2))
    assert low.exact_divide(ctx.q_prime()) is None
    assert failed["sl2.lower-polynomial.n=3,l=2"] == render_over_q1(low)
    assert "Traceback" not in err


def test_failed_bracket_witness_holds_both_legs(monkeypatch, capsys):
    # the same stray term in f(2): the lowering leg e(1) f(2) F_2 keeps q1,
    # and the bracket and the Dirac square at l = 2 fail on both legs,
    # f(3) e(2) F_2 -/+ e(1) f(2) F_2, not on the raising leg alone; the
    # expected witnesses come from the cleared xi-model oracle with the
    # stray + xn in f~(2)
    import vermabranch.so_pair as so_pair
    monkeypatch.setattr(so_pair, "ladder_ops", _stray_x(so_pair.ladder_ops))
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    witness = {r["check-id"]: r.get("witness") for r in records}
    ctx = so_pair.SoPairContext.formal(3)
    f2 = so_pair.singular_vector_F(ctx, 2)
    (e2, f2_op, _), f3, e1 = _stray_xn(ctx, 2), _stray_xn(ctx, 3)[1], _stray_xn(ctx, 1)[0]
    up, down = f3.apply(e2.apply(f2)), e1.apply(f2_op.apply(f2))
    assert down.exact_divide(ctx.q_prime()) is None
    assert witness["sl2.bracket.n=3,l=2"] == render_over_q1(up - down)
    assert witness["casimir.dirac-square.n=3,l=2"] == render_over_q1(up + down)


def test_failed_check_with_a_huge_coefficient_exits_1(monkeypatch, capsys):
    # a witness coefficient past Python's 4,300-digit limit for str(int),
    # here 2000!, renders as its digit count and a digest: the failed check
    # still exits 1 with a report, not 2
    import vermabranch.so_pair as so_pair
    big = DiffOp.partial(T_LINE, "t", 2000).apply(GeoPoly.var(T_LINE, "t", 2000))

    def failing(ctx, max_degree):
        bundle = ReportBundle()
        bundle.check(f"casimir.scalar.n={ctx.n},l=0", "so-pair:casimir", False, witness=big)
        return bundle
    monkeypatch.setattr(so_pair, "casimir_check", failing)
    assert main(["verify-so", "--n", "2", "--max-degree", "1", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    failed = [r for r in json.loads(out)["records"] if r["status"] == "fail"]
    assert failed == [{"check-id": "casimir.scalar.n=2,l=0", "anchor": "so-pair:casimir",
                       "status": "fail", "witness": "([5736 digits, crc32 71f04888])"}]
    assert "Traceback" not in err


def test_failed_singular_record_witnesses_the_vector_in_n_variables(monkeypatch, capsys):
    # G with a stray d_y no longer kills F_2 and F_3: singular.annihilated
    # fails there with exit 1, and its witness is F_l in the n variables,
    # built from the model vector on failure only
    import vermabranch.so_pair as so_pair
    model_ops = so_pair.model_ops

    def broken(ctx):
        ops = model_ops(ctx)
        return {**ops, "G": ops["G"] + DiffOp.partial(XY, "y")}
    monkeypatch.setattr(so_pair, "model_ops", broken)
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    failed = {r["check-id"]: r["witness"] for r in json.loads(out)["records"]
              if r["status"] == "fail"}
    ctx = so_pair.SoPairContext.formal(3)
    assert failed == {f"singular.annihilated.n=3,l={l}": so_pair.singular_vector_F(ctx, l).render()
                      for l in (2, 3)}
    assert "Traceback" not in err


def test_reduced_vector_of_the_wrong_weight_fails_homogeneity(monkeypatch, capsys):
    # a stray x^3 in the degree-2 model vector: its expansion is not
    # homogeneous of degree 2, and sl2.homogeneous fails there alone
    import vermabranch.so_pair as so_pair
    reduced_F = so_pair.reduced_F

    def broken(ctx, l):
        f = reduced_F(ctx, l)
        return f + GeoPoly.var(XY, "x", 3) if l == 2 else f
    monkeypatch.setattr(so_pair, "reduced_F", broken)
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    status = {r["check-id"]: r["status"] for r in json.loads(out)["records"]}
    assert [c for c, s in status.items() if c.startswith("sl2.homogeneous") and s == "fail"] \
        == ["sl2.homogeneous.n=3,l=2"]
    assert "Traceback" not in err


def test_wrong_t_form_fails_records(monkeypatch, capsys):
    # C~_2 with its t^0 coefficient off by 1: the normalized model vector
    # F_2 is no longer singular, which fails records (exit 1), not the run
    import vermabranch.so_pair as so_pair
    gegenbauer_tilde = so_pair.gegenbauer_tilde

    def broken(l, alpha):
        c = gegenbauer_tilde(l, alpha)
        return c + GeoPoly.const(c.vars, 1) if l == 2 else c
    monkeypatch.setattr(so_pair, "gegenbauer_tilde", broken)
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    status = {r["check-id"]: r["status"] for r in json.loads(out)["records"]}
    assert status["singular.annihilated.n=3,l=2"] == "fail"
    assert status["singular.annihilated.n=3,l=3"] == "pass"
    assert "Traceback" not in err


def test_t_form_term_above_the_weight_fails_records(monkeypatch, capsys):
    # C~_2 with a stray t^2, one term above t^(l//2): reduced_F reads only
    # the monomials of weight 2, so the t-line records fail (exit 1) where
    # x^(l-2k) with l-2k < 0 would end the run with exit 2
    import vermabranch.so_pair as so_pair
    gegenbauer_tilde = so_pair.gegenbauer_tilde

    def broken(l, alpha):
        c = gegenbauer_tilde(l, alpha)
        return c + GeoPoly.var(T_LINE, "t", 2) if l == 2 else c
    monkeypatch.setattr(so_pair, "gegenbauer_tilde", broken)
    assert main(["verify-so", "--n", "3", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    failed = {r["check-id"]: r.get("witness") for r in json.loads(out)["records"]
              if r["status"] == "fail"}
    assert sorted(failed) == ["tmodel.tilde.n=3,l=2", "tmodel.tilde.n=3,l=3"]
    assert failed["tmodel.tilde.n=3,l=2"] == "-2*t^2 - 4*t + (4*l^2 + 6*l + 2)"
    assert err == ""


def test_fourier_image_of_the_wrong_degree_fails_records(monkeypatch, capsys):
    # op_X_fourier with a stray eta^2 d_eta^2 keeps the degree of its input:
    # the transport records fail on the image's degree (exit 1), where
    # dehomogenize would raise and end the run with exit 2
    import vermabranch.diag_pair as diag_pair
    op_X_fourier = diag_pair.op_X_fourier

    def broken(ctx):
        return op_X_fourier(ctx) + DiffOp(XI_ETA, {(0, 2): GeoPoly.var(XI_ETA, "eta", 2)})
    monkeypatch.setattr(diag_pair, "op_X_fourier", broken)
    assert main(["verify-diag", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    failed = [r["check-id"] for r in json.loads(out)["records"] if r["status"] == "fail"]
    assert failed == ["diag.annihilation.l=2", "diag.annihilation.l=3", "diag.commute.fourier",
                      *(f"diag.transport.l={l},deg={d}" for l in (2, 3) for d in range(l + 1))]
    assert "Traceback" not in err


def test_term_above_the_degree_fails_records(monkeypatch, capsys):
    # the diagonal pair's t-form P_2 with a stray t^3: the records that would
    # homogenize it at degree 2 fail with the t-form as witness (exit 1),
    # where homogenize would raise and end the run with exit 2
    import vermabranch.diag_pair as diag_pair
    jacobi_t_polynomial = diag_pair.jacobi_t_polynomial

    def broken(ctx, l):
        q = jacobi_t_polynomial(ctx, l)
        return q + GeoPoly.var(T_LINE, "t", 3) if l == 2 else q
    monkeypatch.setattr(diag_pair, "jacobi_t_polynomial", broken)
    assert main(["verify-diag", "--max-degree", "3", "--json", "-"]) == 1
    out, err = capsys.readouterr()
    records = json.loads(out)["records"]
    failed = [r["check-id"] for r in records if r["status"] == "fail"]
    assert failed == ["diag.annihilation.l=2", "diag.homogeneous.l=2",
                      "diag.lowering.fourier.l=2", "diag.lowering.fourier.l=3",
                      "diag.lowering.t.l=2", "diag.lowering.t.l=3",
                      "diag.recursion.l=2", "diag.t-annihilation.l=2"]
    witness = {r["check-id"]: r.get("witness") for r in records}
    assert witness["diag.annihilation.l=2"] == broken(diag_pair.DiagContext.formal(), 2).render()
    assert err == ""


@pytest.mark.parametrize("n, lam", [("2", "1/4"), ("4", "-1/4"), ("5", "-1/2"), ("6", "-3/4")])
def test_collinear_low_eigenvalues_pass(n, lam):
    # lam = (3-n)/4, where the [P, Q] eigenvalues at l = 0, 1, 2 are collinear
    assert main(["verify-so", "--n", n, "--max-degree", "3", f"--lambda={lam}"]) == 0


def test_weight_sweep_exits_0_or_2(capsys):
    # every subcommand at weights k/4: a run passes or rejects its input,
    # and never fails a check or raises; the grid holds lambda = (3-n)/4,
    # lambda, mu in N0 and the normalization poles of both families.  A run
    # rejects its weights exactly where they are degenerate: at max-degree 3
    # verify-so normalizes F_l for l <= 4, which divides by zero iff
    # lambda + (n-1)/2 is 0 or 1; the diagonal pair iff lambda or mu is in N0
    quarters = [Fraction(k, 4) for k in range(-8, 9)]
    pairs = [(lam, mu) for lam in quarters[4:13] for mu in quarters[4:13]]
    natural = lambda x: x.denominator == 1 and x >= 0
    runs = [(["verify-so", "--n", str(n), "--max-degree", "3", f"--lambda={lam}"],
             2 if lam + Fraction(n - 1, 2) in (0, 1) else 0)
            for n in range(2, 7) for lam in quarters]
    runs += [(["verify-diag", "--max-degree", "3", f"--lambda={lam}", f"--mu={mu}"],
              2 if natural(lam) or natural(mu) else 0)
             for lam, mu in pairs]
    runs += [(["branch-report", "--N", str(lam + mu), f"--lambda={lam}", f"--mu={mu}"],
              2 if natural(lam) or natural(mu) else 0)
             for lam, mu in pairs if (lam + mu).denominator == 1 and lam + mu >= 0]
    assert len(runs) == 181
    codes = {" ".join(args): (main(args), want) for args, want in runs}
    capsys.readouterr()
    assert {args: (rc, want) for args, (rc, want) in codes.items() if rc != want} == {}
    assert sum(want == 2 for _, want in runs) == 9 + 32 + 6


def test_negative_degree_is_usage_error():
    proc = run_cli("ortho-tables", "--max-degree", "-3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--max-degree" in proc.stderr
    assert proc.stdout == ""


def test_unwritable_json_path_is_precondition_error(tmp_path):
    # a failed write must not pass for a failed check
    path = tmp_path / "missing" / "x.json"
    proc = run_cli("verify-so", "--n", "2", "--max-degree", "2", "--json", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write the report")
    assert not path.exists()


def test_unwritable_json_path_fails_before_any_check(tmp_path, monkeypatch, capsys):
    import vermabranch.cli as cli

    def no_suite(config):
        raise AssertionError("a check ran before the report path was probed")
    monkeypatch.setattr(cli, "run_suite", no_suite)
    path = tmp_path / "missing" / "x.json"
    assert main(["verify-diag", "--max-degree", "30", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report") and err.count("\n") == 1
    assert not path.exists()


def test_writable_json_path_probe_leaves_report_unchanged(tmp_path):
    # the probe neither leaves a file behind on a usage error nor changes the report
    path = tmp_path / "so.json"
    assert main(["verify-so", "--n", "1", "--json", str(path)]) == 2
    assert not path.exists()
    assert main(["verify-so", "--n", "2", "--max-degree", "2", "--json", str(path)]) == 0
    first = path.read_bytes()
    assert main(["verify-so", "--n", "2", "--max-degree", "2", "--json", str(path)]) == 0
    assert path.read_bytes() == first
    assert first == run_cli("verify-so", "--n", "2", "--max-degree", "2",
                            "--json", "-").stdout.encode()


@pytest.mark.parametrize("args, message", [
    (["verify-so", "--max-degree", "0"], "max_degree must be >= 1"),
    (["verify-diag", "--lambda", "1/3"], "lambda and mu must be given together"),
    (["branch-report", "--N", "3", "--cutoff", "0"], "cutoff must be >= 1"),
    (["branch-report", "--N", "-1"], "need N >= 0 and cutoff >= 1"),
    (["all", "--N", "-1"], "need N >= 0 and cutoff >= 1"),
])
def test_precondition_exits(capsys, args, message):
    # each rejects its input before any check: exit 2, one error line, no report
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_cases_below_one_is_usage_error(cases):
    # zero cases would report every property suite as passed vacuously
    proc = run_cli("all", f"--cases={cases}")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--cases" in proc.stderr
    assert proc.stdout == ""


def test_witness_rendered_only_for_failed_checks():
    class Value:
        renders = 0

        def render(self):
            Value.renders += 1
            return "w"
    calls = []

    def build():
        calls.append(1)
        return "built"
    b = ReportBundle()
    b.check("passed", "anchor", True, witness=Value())
    b.check("failed", "anchor", False, witness=Value())
    b.check("failed-text", "anchor", False, witness="plain")
    b.check("passed-built", "anchor", True, witness=build)
    b.check("failed-built", "anchor", False, witness=build)
    b.check("failed-built-value", "anchor", False, witness=lambda: Value())
    assert Value.renders == 2 and len(calls) == 1
    assert [r.witness for r in b.records] == [None, "w", "plain", None, "built", "w"]


def test_bundle_extend_rejects_data_key_collision():
    a, b = ReportBundle(), ReportBundle()
    a.data.update({"so.n": 2, "dirac.lhs": "x", "kept": 1})
    b.data.update({"so.n": 3, "dirac.lhs": "y", "new": 2})
    b.check("b.check", "anchor", True)
    with pytest.raises(ValueError, match="dirac.lhs, so.n"):
        a.extend(b)
    assert a.data == {"so.n": 2, "dirac.lhs": "x", "kept": 1} and not a.records
    c = ReportBundle()
    c.data["new"] = 2
    c.check("c.check", "anchor", True)
    a.extend(c)
    assert a.data["new"] == 2 and [r.check_id for r in a.records] == ["c.check"]


_JACOBI_LINES = [
    "P_0 = 1",
    "P_1 = (1/2*m)*x + (-l - 1/2*m)",
    "P_2 = (1/8*m^2 - 1/8*m)*x^2 + (-1/2*l*m - 1/4*m^2 + 1/2*l + 3/4*m - 1/2)*x"
    " + (1/2*l^2 + 1/2*l*m + 1/8*m^2 - l - 5/8*m + 1/2)",
    "P_3 = (1/48*m^3 - 1/16*m^2 + 1/24*m)*x^3 + (-1/8*l*m^2 - 1/16*m^3 + 3/8*l*m"
    " + 7/16*m^2 - 1/4*l - 7/8*m + 1/2)*x^2 + (1/4*l^2*m + 1/4*l*m^2 + 1/16*m^3"
    " - 1/2*l^2 - 3/2*l*m - 11/16*m^2 + 2*l + 17/8*m - 2)*x + (-1/6*l^3 - 1/4*l^2*m"
    " - 1/8*l*m^2 - 1/48*m^3 + l^2 + 9/8*l*m + 5/16*m^2 - 25/12*l - 31/24*m + 3/2)",
]


def test_ortho_tables_output(capsys):
    # the C_l lines are the first half of the Gegenbauer golden, and the P_l
    # lines the Jacobi polynomials P_l^(-lam-1, mu+lam-2l+1) as first frozen
    rc = main(["ortho-tables", "--max-degree", "3"])
    assert rc == 0
    gegenbauer_lines = (GOLDEN_DIR / "gegenbauer.txt").read_text().splitlines()[:4]
    assert capsys.readouterr().out == "\n".join(gegenbauer_lines + _JACOBI_LINES) + "\n"


def test_text_output_summary(capsys):
    rc = main(["branch-report", "--N", "2", "--cutoff", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def _declared_console_script():
    """The ``module:function`` that pyproject.toml declares as ``vermabranch``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["vermabranch"]


def _assert_lists_subcommands(help_text):
    assert "{" + ",".join(SUBCOMMANDS) + "}" in help_text


def test_console_entrypoint():
    # Runs the declared entry point from this source tree the way the script
    # that setuptools generates at install time does, so no install is needed.
    module, func = _declared_console_script().split(":")
    code = (f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'vermabranch'; sys.exit({func}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: vermabranch ")
    _assert_lists_subcommands(proc.stdout)


@pytest.mark.skipif(shutil.which("vermabranch") is None,
                    reason="no vermabranch script on PATH; it is written by "
                           "`pip install -e . --no-build-isolation`")
def test_installed_console_script(monkeypatch):
    # Equal help text ties the installed script to this tree's parser, so a
    # script installed from another checkout fails. COLUMNS reaches the
    # subprocess through os.environ, so both sides wrap lines alike.
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run(["vermabranch", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == build_parser().format_help()
    _assert_lists_subcommands(proc.stdout)
