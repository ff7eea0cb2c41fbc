"""The scripts under tools/ load: their imports of ``src/`` and of
``tests/oracles.py`` resolve.  None runs its ``main`` on import."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, entry", [("deep_oracles", "main"), ("weight_grid", "main_grid"),
                                         ("compare_outputs", "main")])
def test_tool_loads_by_path(name, entry):
    assert callable(getattr(load_tool(name), entry))


def test_tools_build_their_runs():
    # the grid the tool predicts, and its Gegenbauer oracle at a low degree
    assert len(load_tool("weight_grid").grid_runs()) == 1407
    deep = load_tool("deep_oracles")
    bundle = deep.gegenbauer_check(3)
    assert len(bundle.records) == 8 and bundle.ok()
    # the laws and the action on a few seeded polynomial operators, two
    # records a case for the laws and one for the action
    bundle = deep.operator_laws(3, 2)
    assert len(bundle.records) == 4 and bundle.ok()
    bundle = deep.operator_action(3, 4)
    assert len(bundle.records) == 4 and bundle.ok()
    # the products against the reference fold, three records a case
    bundle = deep.reference_products(5, 3)
    assert len(bundle.records) == 9 and bundle.ok()
    # the so-pair's invariant model against the xi-model oracle: one
    # intertwining record, and eight model values a degree
    bundle = deep.intertwining(3, 4, range(2))
    assert len(bundle.records) == 1 and bundle.ok()
    # the singular vectors in the n variables, one record a degree
    bundle = deep.singular_in_n_variables(3, 3)
    assert len(bundle.records) == 4 and bundle.ok()
    bundle = deep.model_records(3, 2)
    assert len(bundle.records) == 24 and bundle.ok()


def test_compare_outputs_finds_only_real_differences(tmp_path):
    # this tree against itself matches; against a stand-in cli, stdout differs
    tool = load_tool("compare_outputs")
    src = TOOLS.parent / "src"
    assert tool.compare(src, src, [["ortho-tables"]]) == [(["ortho-tables"], [])]
    fake = tmp_path / "vermabranch"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("print('C_0 = 1')\n")
    assert tool.compare(src, tmp_path, [["ortho-tables"]]) == [(["ortho-tables"], ["stdout"])]
