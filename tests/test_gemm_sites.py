"""Every matrix product in the package runs through gdn._panel_matmul.

A product anywhere else, whole-layer sized, wakes OpenBLAS's helper
thread, which then spins through the code between GEMMs; the CI's
cpu_s / wall_s check sees that only on the codec-ptq and gdn-fixed
benchmark paths. This guard reads the source instead, so a stray
product fails tier-1 wherever it is.
"""

import ast
from pathlib import Path

import lic_hw_kit

SRC = Path(lic_hw_kit.__file__).resolve().parent
PRODUCTS = {"matmul", "dot", "vdot", "einsum", "tensordot", "inner", "multi_dot"}
ALLOWED = {("gdn.py", "_panel_matmul", "matmul")}


def product_sites(tree: ast.AST, name: str):
    """(file, enclosing function, product) for each matrix product in a
    module: an @ operator, an attribute such as np.matmul or x.dot, or a
    product imported by name."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((name, func, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            sites.append((name, func, node.attr))
        elif isinstance(node, ast.ImportFrom):
            sites.extend((name, func, a.name) for a in node.names if a.name in PRODUCTS)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_guard_sees_every_kind_of_product():
    code = ("from numpy import einsum\n"
            "def f(a, b):\n"
            "    a @= b\n"
            "    return a @ b, np.dot(a, b), a.dot(b), np.tensordot(a, b), np.inner(a, b)\n")
    kinds = [kind for _, _, kind in product_sites(ast.parse(code), "x.py")]
    assert sorted(kinds) == sorted(["einsum", "@", "@", "dot", "dot", "tensordot", "inner"])


def test_only_panel_matmul_multiplies_matrices():
    files = sorted(SRC.rglob("*.py"))
    assert any(f.name == "gdn.py" for f in files)
    sites = [site for f in files
             for site in product_sites(ast.parse(f.read_text()), f.relative_to(SRC).as_posix())]
    assert set(sites) - ALLOWED == set(), "matrix product outside gdn._panel_matmul"
    assert sites == [("gdn.py", "_panel_matmul", "matmul")]
