"""Source hygiene: every name a `quivercert` module imports is read somewhere
in that module (or re-exported through `__all__`), and sympy is loaded only
by the one path that needs it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quivercert"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("from os import path, sep\nimport sys\n__all__ = ['sep']\n")
    assert _unused_imports(tree) == ["path (line 1)", "sys (line 2)"]


SYMPY_GUARD = """
import sys
from quivercert import GF, QQ, presets, upoly
from quivercert.decompose import decompose
from quivercert.module import regular_module

calls = []
factor_poly = upoly.factor_poly
upoly.factor_poly = lambda *args: calls.append(args) or factor_poly(*args)
reg, _, _ = regular_module(presets.a3_rad_square(GF(3)))
assert decompose(reg, seed=0).summand_count() == 3
assert calls, "decompose did not factor a polynomial"
assert upoly.factor_poly(QQ, [-2, 1, 1]) == [([-1, 1], 1), ([2, 1], 1)]
assert upoly.factor_poly(QQ, [-2, 1, -2, 1]) == [([-2, 1], 1), ([1, 0, 1], 1)]
assert "sympy" not in sys.modules
assert upoly.factor_poly(QQ, [1, 0, -3, 0, 1]) == [([-1, -1, 1], 1), ([-1, 1, 1], 1)]
"""


def test_sympy_is_imported_only_for_rational_degree_four_and_up():
    run = subprocess.run([sys.executable, "-c", SYMPY_GUARD], capture_output=True,
                         text=True, env={"PYTHONPATH": str(SRC.parent)})
    assert run.returncode == 0, run.stderr
