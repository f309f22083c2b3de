"""Source hygiene: every name a `quivercert` module imports is read somewhere
in that module (or re-exported through `__all__`), every top-level function
and class and every method has a caller outside the tests, and sympy is
loaded only by the one path that needs it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quivercert"


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


# modules whose definitions are the public entry points themselves
ENTRY_POINTS = {"io", "presets", "__init__"}

# definitions that only the tests call, each kept for a stated reason
KEPT = {
    "algebra.BasicAlgebra.elem_mul": "the product that the algebra certificate checks "
                                     "mult_table against (ROADMAP item 6)",
    "functors.eta": "the paper's eta functor; the tests check D eta = gamma and eta eta = id",
    "functors.gamma_both_ways": "the Sigma-tau route that the tests compare gamma against",
    "lattice.Lattice.specialize": "tensor_with_t_module at 1x1 T-matrices: the route the "
                                  "tensor and JSON tests evaluate lattices by, and the "
                                  "generic-point specialisation of ROADMAP item 4",
    "lattice.constant_lattice": "the split family whose Odim witness must fail at every point",
    "lattice.scale_class": "drives the bilinearity test of yoneda_cocycle",
    "lattice.tensor_lattice": "a candidate for the n-factor Kunneth product (ROADMAP item 2)",
    "module.regular_module": "the regular module that the decompose and Hom tests start from",
    "quiver.maximal_path_length_from": "the reference that tier_function is checked against",
    "tiered.p1_check": "the (P1) hypothesis, planned for the E2 certificate (ROADMAP item 2)",
    "tiered.p2_check": "the (P2) hypothesis, planned for the E2 certificate (ROADMAP item 2)",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(node: ast.AST) -> set[str]:
    """Names a node reads: identifiers, attributes, imported names, and the
    parts of dotted-name strings (such as the tracer's targets)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            names.update(sub.value.split("."))
    return names


def _parts(node: ast.AST) -> list[tuple[int | None, ast.AST]]:
    """A top-level statement cut into (class-body index, part): a class
    into its header and each statement of its body, anything else whole."""
    if not isinstance(node, ast.ClassDef):
        return [(None, node)]
    header = [(None, sub) for sub in node.decorator_list + node.bases + node.keywords]
    return header + list(enumerate(node.body))


def _dead_definitions(sources: dict[str, str], checked: set[str]) -> list[str]:
    """`module.name` of each top-level def/class in a checked module that no
    other top-level statement of any source names, and `module.Class.name`
    of each non-dunder method that nothing outside its own body names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named_by = {}  # name -> {(module, top-level index, class-body index)}
    for module, tree in trees.items():
        for k, node in enumerate(tree.body):
            for j, part in _parts(node):
                for name in _references(part):
                    named_by.setdefault(name, set()).add((module, k, j))
    dead = []
    for module in checked:
        for k, node in enumerate(trees[module].body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not {(m, i) for m, i, _ in named_by.get(node.name, ())} - {(module, k)}:
                dead.append(f"{module}.{node.name}")
            for j, part in _parts(node):
                if (isinstance(part, ast.FunctionDef) and j is not None
                        and not (part.name.startswith("__") and part.name.endswith("__"))
                        and not named_by.get(part.name, set()) - {(module, k, j)}):
                    dead.append(f"{module}.{node.name}.{part.name}")
    return sorted(dead)


def test_every_definition_has_a_caller_outside_the_tests():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    checked = set(sources) - ENTRY_POINTS
    sources.update({f"qcbench/{p.name}": p.read_text()
                    for p in (ROOT / "qcbench").glob("*.py")})
    assert _dead_definitions(sources, checked) == sorted(KEPT)


def test_scan_flags_a_dead_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n",
        "b": "from a import used\n\n\nclass Named:\n    run = staticmethod(used)\n",
        "c": "TARGETS = ('b.Named',)\n",
    }
    assert _dead_definitions(sources, {"a", "b"}) == ["a.dead"]


def test_scan_flags_a_dead_method():
    sources = {
        "a": ("class Base:\n    pass\n\n\n@dataclass\nclass Thing(Base):\n"
              "    def __init__(self):\n        self.helper()\n\n"
              "    def helper(self):\n        pass\n\n"
              "    def dead(self):\n        return self.dead()\n\n"
              "    def called(self):\n        pass\n"),
        "b": "from a import Thing\n\nThing().called()\n",
    }
    assert _dead_definitions(sources, {"a"}) == ["a.Thing.dead"]


SYMPY_GUARD = """
import sys
from quivercert import GF, QQ, presets, upoly
from quivercert.decompose import decompose
from quivercert.module import regular_module

calls = []
factor_poly = upoly.factor_poly
upoly.factor_poly = lambda *args: calls.append(args) or factor_poly(*args)
reg, _, _ = regular_module(presets.a3_rad_square(GF(3)))
assert sum(k for _, k in decompose(reg).summands) == 3
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
