"""Source hygiene: every name a `quivercert` module imports is read in a
scope that does not rebind it (or re-exported through `__all__`), every
top-level function and class and every method has a caller outside the
tests, every optional parameter (dataclass fields with a default too) is
set by some call outside the tests,
and sympy is loaded only by the one path that needs it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quivercert"


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of a scope outside every scope nested in it; a nested scope
    is listed as one node."""
    out, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        out.append(node)
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _unused_imports(tree: ast.Module) -> list[str]:
    """Imports that no read resolves to.  A read resolves to the innermost
    enclosing scope that binds the name (parameter, assignment, definition or
    import), so a local that shadows an import does not use it; methods do
    not see their class body's names."""
    imported, used = set(), set()

    def visit(scope, env):
        nodes = _own_nodes(scope)
        local = dict(env)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = scope.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            local.update((p.arg, None) for p in params if p)
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                local[node.id] = None
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                local[node.name] = None
            elif isinstance(node, ast.ExceptHandler) and node.name:
                local[node.name] = None
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    key = (alias.asname or alias.name.split(".")[0], node.lineno)
                    imported.add(key)
                    local[key[0]] = key
        used.update(local[node.id] for node in nodes
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and local.get(node.id))
        inner = env if isinstance(scope, ast.ClassDef) else local
        for node in nodes:
            if isinstance(node, SCOPES):
                visit(node, inner)
        return local

    module = visit(tree, {})
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(module.get(name) for name in ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported
                  if (name, line) not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("from os import path, sep\nimport sys\n__all__ = ['sep']\n")
    assert _unused_imports(tree) == ["path (line 1)", "sys (line 2)"]


def test_scan_ignores_reads_of_a_local_that_shadows_an_import():
    tree = ast.parse(
        "from dataclasses import field\nfrom os import path, sep\nimport sys\n\n\n"
        "def f(field):\n    sep = '/'\n    return field, sep, lambda sys: sys\n\n\n"
        "class C:\n    path = None\n\n    def m(self):\n        return path\n")
    assert _unused_imports(tree) == ["field (line 1)", "sep (line 2)", "sys (line 3)"]


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


def _sources() -> tuple[dict[str, str], set[str]]:
    """The sources of `quivercert` and `qcbench` by module, and the
    `quivercert` modules that are not entry points."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    checked = set(sources) - ENTRY_POINTS
    sources.update({f"qcbench/{p.name}": p.read_text()
                    for p in (ROOT / "qcbench").glob("*.py")})
    return sources, checked


def test_every_definition_has_a_caller_outside_the_tests():
    assert _dead_definitions(*_sources()) == sorted(KEPT)


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


# optional parameters that no call outside the tests sets, each kept for a
# stated reason
OPTIONS_KEPT = {
    "endcat.global_dimension(cutoff)": "Auslander's criterion runs it at cutoff 2 "
                                       "(ROADMAP item 7)",
    "lattice.constant_lattice(d)": "the split family in d variables; the tests check "
                                   "that its Odim witness fails at d = 2 too",
    "lattice.external_product(order)": "the mirror splice, which the tests check is "
                                       "cohomologous to the default one up to sign",
    "torsfin.enumerate_torsionless(seed)": "the search seed each inventory records; "
                                           "inventories are compared across seeds "
                                           "(ROADMAP item 1)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _dataclass_options(node: ast.ClassDef):
    """(parameter, positional index) of each optional `__init__` parameter
    that a dataclass generates: the fields with a default, counted among
    the fields that `init=False` does not take out of `__init__`."""
    index = 0
    for f in node.body:
        if not (isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)):
            continue
        call = f.value if getattr(getattr(f.value, "func", None), "id", None) == "field" else None
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        if getattr(keywords.get("init"), "value", True) is False:
            continue
        if f.value is not None and (call is None or {"default", "default_factory"} & set(keywords)):
            yield f.target.id, index
        index += 1


def _optional_parameters(tree: ast.Module):
    """(name, parameter, positional index or None) of each optional
    parameter of a top-level function, and of a class's `__init__` (its
    own, with `self` skipped, or the one `@dataclass` generates) under the
    class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args, skip = node.args, 0
        elif isinstance(node, ast.ClassDef):
            init = [f for f in node.body if isinstance(f, ast.FunctionDef)
                    and f.name == "__init__"]
            if not init:
                if _is_dataclass(node):
                    yield from ((node.name, name, k) for name, k in _dataclass_options(node))
                continue
            args, skip = init[0].args, 1
        else:
            continue
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        yield from ((node.name, a.arg, k - skip)
                    for k, a in enumerate(positional[first:], first))
        yield from ((node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _unset_options(sources: dict[str, str], checked: set[str]) -> list[str]:
    """`module.name(parameter)` of each optional parameter in a checked
    module that no call in any source sets, by keyword or by position.  A
    call is matched by the called name alone; `*args` and `**kwargs` set
    everything."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    keywords, widths = {}, {}  # called name -> keywords set / most positional args
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            widths[name] = max(widths.get(name, 0),
                               float("inf") if starred else len(call.args))
    unset = []
    for module in checked:
        for name, param, index in _optional_parameters(trees[module]):
            given = keywords.get(name, set())
            if (param not in given and None not in given
                    and (index is None or widths.get(name, 0) <= index)):
                unset.append(f"{module}.{name}({param})")
    return sorted(unset)


def test_every_option_is_set_outside_the_tests():
    assert _unset_options(*_sources()) == sorted(OPTIONS_KEPT)


def test_scan_flags_a_never_set_option():
    sources = {
        "a": ("def f(x, y=1, z=2, *, w=3, u=4):\n    pass\n\n\n"
              "class C:\n    def __init__(self, s=0, t=0):\n        pass\n\n\n"
              "def g(v=0):\n    pass\n"),
        "b": "from a import C, f, g\n\nf(0, 5, w=1)\nC(1)\ng(**{})\n",
    }
    assert _unset_options(sources, {"a"}) == ["a.C(t)", "a.f(u)", "a.f(z)"]


def test_scan_flags_a_never_set_dataclass_field():
    # `init=False` fields are not parameters and take no position
    sources = {
        "a": ("@dataclass\nclass D:\n    x: int\n    done: bool = field(default=False, "
              "init=False)\n    y: int = 0\n    z: list = field(default_factory=list)\n"
              "    w: int = field()\n    u: int = 1\n\n\n"
              "@dataclass(frozen=True)\nclass E:\n    v: int = 0\n"),
        "b": "from a import D, E\n\nD(0, 1)\nD(0, u=2, w=3)\nE()\n",
    }
    assert _unset_options(sources, {"a"}) == ["a.D(z)", "a.E(v)"]


SYMPY_GUARD = """
import sys
from quivercert import GF, QQ, presets, upoly
from quivercert.decompose import decompose
from quivercert.module import projective_sum

calls = []
factor_poly = upoly.factor_poly
upoly.factor_poly = lambda *args: calls.append(args) or factor_poly(*args)
alg = presets.a3_rad_square(GF(3))
reg = projective_sum(alg, alg.quiver.vertices)
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
