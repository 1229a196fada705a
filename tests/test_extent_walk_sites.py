"""The extent walk has one caller in the package: perf_model.layer_costs.

Every per-layer cost (ops, map and weight bytes) is a column of its
rows, so a second walk would be a second place where a layer's extents
or formulas could drift. This guard reads the source, so a second walk
fails tier-1 wherever it is written.
"""

import ast
from pathlib import Path

import lic_hw_kit

SRC = Path(lic_hw_kit.__file__).resolve().parent
WALK = "layer_extents"
ALLOWED = {("perf_model.py", None, "import"), ("perf_model.py", "layer_costs", "use")}


def walk_sites(tree: ast.AST, path: str):
    """(file, enclosing function, "import" or "use") for each import of
    the walk by name and each use of it: a call, or any other reference,
    by name or as an attribute such as model.layer_extents."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom):
            sites.extend((path, func, "import") for a in node.names if a.name == WALK)
        elif (isinstance(node, ast.Name) and node.id == WALK
              or isinstance(node, ast.Attribute) and node.attr == WALK):
            sites.append((path, func, "use"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_guard_sees_every_kind_of_use():
    code = ("from .model import layer_extents\n"
            "def f(m):\n"
            "    walk = layer_extents\n"
            "    return list(model.layer_extents(m, (4, 4))), layer_extents(m, (2, 2))\n"
            "def layer_extents(m, hw):\n"
            "    pass\n")
    assert walk_sites(ast.parse(code), "x.py") == [
        ("x.py", None, "import"), ("x.py", "f", "use"), ("x.py", "f", "use"),
        ("x.py", "f", "use")]


def test_only_layer_costs_walks_the_extents():
    files = sorted(SRC.rglob("*.py"))
    assert any(f.name == "perf_model.py" for f in files)
    sites = [site for f in files
             for site in walk_sites(ast.parse(f.read_text()), f.relative_to(SRC).as_posix())]
    assert set(sites) - ALLOWED == set(), "layer_extents used outside perf_model.layer_costs"
    assert sorted(sites, key=str) == sorted(ALLOWED, key=str)
