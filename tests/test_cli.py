"""CLI surface: exit codes, JSON schema and determinism, golden tables."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vermabranch.cli import build_parser, main
from vermabranch.tables import GOLDEN_TABLES

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


def test_negative_degree_is_usage_error():
    proc = run_cli("ortho-tables", "--max-degree", "-3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--max-degree" in proc.stderr
    assert proc.stdout == ""


def test_ortho_tables_output(capsys):
    rc = main(["ortho-tables", "--max-degree", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C_2 = (2*a^2 + 2*a)*x^2 - a" in out
    assert out.count("P_") == 3


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
