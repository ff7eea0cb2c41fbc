"""The plain value classes keep the semantics of the frozen and mutable
records they replaced: field names, equality, hash, repr and read-only
fields; the package imports no ``dataclasses``; and the benchmark tracer can
key the arguments of the functions whose distinct calls it counts."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vermabranch.cli import main
from vermabranch.cli_report import RunConfig
from vermabranch.diag_pair import BranchingSets, DiagContext, branching_sets
from vermabranch.polyring import VarSet, xi_vars
from vermabranch.report import ReportBundle, VerificationRecord
from vermabranch.so_pair import SoPairContext

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_no_dataclasses():
    # a fresh interpreter, so that nothing this test process loaded counts
    code = ("import sys; before = set(sys.modules); "
            "import vermabranch.cli, vermabranch.cli_report, "
            "vermabranch.properties, vermabranch.report; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "vermabranch.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}


def test_reprs_unchanged():
    assert repr(SoPairContext.formal(3)) == "SoPairContext(n=3, lam=ParamScalar(l))"
    assert repr(DiagContext.formal()) == "DiagContext(lam=ParamScalar(l), mu=ParamScalar(m))"
    assert repr(xi_vars(2)) == "VarSet(kind='xi', names=('x1', 'x2'))"
    assert repr(branching_sets(3, 2)) == (
        "BranchingSets(lambda_s=[3, 1], iota_lambda_s=[-5, -3], "
        "lambda_r_definitional=[-1], lambda_r_displayed=[])")
    rec = VerificationRecord("a", "b", "pass")
    assert repr(rec) == ("VerificationRecord(check_id='a', anchor='b', status='pass', "
                         "witness=None)")
    assert repr(ReportBundle([rec])) == f"ReportBundle(records=[{rec!r}], data={{}})"
    assert repr(RunConfig("so_pair", lam=Fraction(1, 3))) == (
        "RunConfig(scenario='so_pair', n=3, max_degree=4, lam=Fraction(1, 3), mu=None, "
        "N=3, cutoff=8, seed=0)")


def test_frozen_values_hash_as_their_field_tuples():
    ctx, dctx, vs = SoPairContext.formal(3), DiagContext.at(Fraction(1, 2), 3), xi_vars(3)
    assert hash(ctx) == hash((ctx.n, ctx.lam))
    assert hash(dctx) == hash((dctx.lam, dctx.mu))
    assert hash(vs) == hash(("xi", ("x1", "x2", "x3")))
    assert ctx == SoPairContext.formal(3) and ctx != SoPairContext.formal(4)
    assert dctx == DiagContext.at(Fraction(1, 2), 3) and dctx != DiagContext.formal()
    assert vs.arity == 3 and vs.index("x2") == 1


@pytest.mark.parametrize("value, field", [(SoPairContext.formal(3), "n"),
                                          (SoPairContext.formal(3), "lam"),
                                          (DiagContext.formal(), "mu"),
                                          (xi_vars(2), "names"),
                                          # writable before it became a tuple
                                          (branching_sets(3, 2), "lambda_s")])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_records_compare_by_value_and_are_unhashable():
    rec = VerificationRecord("a", "b", "pass")
    assert rec == VerificationRecord("a", "b", "pass")
    assert rec != VerificationRecord("a", "b", "pass", "w")
    assert ReportBundle([rec]) == ReportBundle([VerificationRecord("a", "b", "pass")])
    assert RunConfig("all") == RunConfig("all") != RunConfig("all", seed=1)
    assert branching_sets(3, 2) == BranchingSets([3, 1], [-5, -3], [-1], [])
    rec.witness = "w"
    assert rec.to_dict()["witness"] == "w"
    for value in (rec, ReportBundle(), RunConfig("all"), branching_sets(3, 2)):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_degree": 0}, "max_degree must be >= 1"),
    ({"cutoff": 0}, "cutoff must be >= 1"),
])
def test_run_config_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig("all", **kwargs)


@pytest.mark.parametrize("scenario", ["diag_pair", "branch", "all"])
def test_run_config_needs_mu_with_lambda(scenario):
    with pytest.raises(ValueError, match="lambda and mu must be given together"):
        RunConfig(scenario, lam=Fraction(1))
    assert RunConfig("so_pair", lam=Fraction(1)).mu is None


def test_lambda_without_mu_exits_2(capsys):
    assert main(["verify-diag", "--lambda", "1"]) == 2
    assert capsys.readouterr().err == "error: lambda and mu must be given together\n"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("make", [SoPairContext.formal,
                                  lambda n: SoPairContext.at(n, Fraction(1, 3)),
                                  lambda n: DiagContext.at(n + Fraction(1, 2), Fraction(5, 2)),
                                  xi_vars])
def test_tracer_keys_the_values(make):
    # the tracer counts distinct calls of curated_factors, singular_vector_F,
    # ladder_ops and jacobi_t_polynomial by a key of their arguments
    freeze = _tracer()._freeze
    a, b, other = make(3), make(3), make(4)
    assert a is not b
    assert freeze((a, 2)) == freeze((b, 2)) and hash(freeze((a, 2))) == hash(freeze((b, 2)))
    assert freeze((a, 2)) != freeze((other, 2))
