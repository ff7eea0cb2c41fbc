"""The imports between the library modules that were split apart go one way.

``packed`` owns the monomial key format that ``scalars``, ``polyring`` and
``weylalg`` share, so it imports no module of the package.  ``xi_model``
holds the so-pair's operators in the n variables, which ``so_pair`` reads, so
it never reaches ``so_pair``, directly or through another module.  Read from
the source, so an import inside a function body counts too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vermabranch"


def package_imports(name: str) -> set:
    """The modules of the package that ``src/vermabranch/<name>.py`` imports
    anywhere in its body, by module name."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "vermabranch":
                parts = node.module.split(".")[1:]
            else:
                continue
            out.update(parts[:1] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("vermabranch."))
    return out


def reached(name: str) -> set:
    """Every module of the package that importing ``name`` imports, at any depth."""
    seen, todo = set(), [name]
    while todo:
        for dep in package_imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_packed_imports_no_module_of_the_package():
    assert package_imports("packed") == set()


def test_xi_model_does_not_reach_so_pair():
    assert "so_pair" not in reached("xi_model")
    assert "xi_model" in package_imports("so_pair")


def test_the_import_reader_sees_every_form(tmp_path, monkeypatch):
    (tmp_path / "probe.py").write_text(
        "from . import report\nfrom .so_pair import x\nimport vermabranch.polyring\n"
        "from vermabranch import scalars\nimport os\n\n"
        "def late():\n    from .weylalg import DiffOp\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert package_imports("probe") == {"report", "so_pair", "polyring", "scalars", "weylalg"}
