"""Runtime tracer for the traced benchmark run.

The tracer replaces selected public functions and methods of
``quivercert`` with wrappers that record one span per call: name, start,
end, parent span and certificate id.  Module-level functions are also
rebound wherever a ``quivercert.*`` module holds them under an alias
(``from .module import hom_basis`` makes ``endcat.hom_basis`` a second
name for the same object, which patching ``module.hom_basis`` alone
would miss).  ``restore`` puts every original object back.

Field element operations are deliberately not wrapped: they run tens of
millions of times per E1 round and the tracer would measure itself.

Untraced runs never import this module, so they patch nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PROBE = "trace.probe"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``qualname`` is ``func`` or ``Class.method``
    inside ``module``; ``metric`` is the span name."""
    module: str
    qualname: str
    metric: str
    before: object = None  # (tracer, args) -> None, run outside the span
    after: object = None  # (tracer, result) -> None, run outside the span


def _rref_cells(tracer, args):
    m = args[0]
    tracer.counters["matrix.rref.cells"] += m.rows * m.cols


def _hom_pair(tracer, args):
    tracer.distinct["module.hom_basis"].add(
        (args[0].content_hash(), args[1].content_hash()))


def _end_module(tracer, args):
    tracer.distinct["decompose.end_radical"].add(args[0].module.content_hash())


def _verify_result(tracer, result):
    tracer.counters["torsfin.verify_inventory.samples"] += result["samples_tested"]
    tracer.counters["torsfin.cert_passes"] += bool(result["pass"])


def _gamma_result(tracer, result):
    tracer.counters["torsfin.cert_passes"] += bool(result["pass"])


TARGETS = (
    Target("quivercert.matrix", "Matrix.rref", "matrix.rref", before=_rref_cells),
    Target("quivercert.matrix", "Matrix.solve", "matrix.solve"),
    Target("quivercert.matrix", "Matrix.kernel_basis", "matrix.kernel_basis"),
    Target("quivercert.matrix", "Matrix.mul", "matrix.matmul"),
    Target("quivercert.upoly", "charpoly", "upoly.charpoly"),
    Target("quivercert.upoly", "minpoly_matrix", "upoly.minpoly_matrix"),
    Target("quivercert.upoly", "factor_poly", "upoly.factor_poly"),
    Target("quivercert.module", "hom_basis", "module.hom_basis", before=_hom_pair),
    Target("quivercert.module", "map_coordinates", "module.map_coordinates"),
    Target("quivercert.module", "spanned_submodule", "module.spanned_submodule"),
    Target("quivercert.decompose", "decompose", "decompose.decompose"),
    Target("quivercert.decompose", "is_isomorphic", "decompose.is_isomorphic"),
    Target("quivercert.decompose", "is_indecomposable", "decompose.is_indecomposable"),
    Target("quivercert.decompose", "split_once", "decompose.split_once"),
    Target("quivercert.decompose", "EndAlgebra.radical_coords", "decompose.end_radical",
           before=_end_module),
    Target("quivercert.functors", "gamma", "functors.gamma"),
    Target("quivercert.approx", "right_add_approximation", "approx.right_add_approximation"),
    Target("quivercert.approx", "is_torsionless", "approx.is_torsionless"),
    Target("quivercert.torsfin", "enumerate_torsionless", "torsfin.enumerate_torsionless"),
    Target("quivercert.torsfin", "verify_inventory", "torsfin.verify_inventory",
           after=_verify_result),
    Target("quivercert.torsfin", "gamma_bijection_check", "torsfin.gamma_bijection_check",
           after=_gamma_result),
    Target("quivercert.endcat", "global_dimension", "endcat.global_dimension"),
    Target("quivercert.endcat", "CatAlgebra.compose_into", "endcat.compose_into"),
    Target("quivercert.endcat", "layering_check", "endcat.layering_check"),
    Target("quivercert.tiered", "truncations", "tiered.truncations"),
    Target("quivercert.tiered", "build_layering", "tiered.build_layering"),
    Target("quivercert.lattice", "tensor_sequence", "lattice.tensor_sequence"),
    Target("quivercert.lattice", "external_product", "lattice.external_product"),
    Target("quivercert.lattice", "ext_nonzero", "lattice.ext_nonzero"),
    Target("quivercert.lattice", "tensor_module", "lattice.tensor_module"),
    Target("quivercert.algebra", "build_algebra", "algebra.build_algebra"),
    Target("quivercert.algebra", "tensor", "algebra.tensor"),
)

# Span name -> which figures the per-layer report takes from it.
CALLS_AND_SELF = (
    "matrix.rref", "matrix.solve", "matrix.kernel_basis", "matrix.matmul",
    "upoly.charpoly", "upoly.minpoly_matrix", "upoly.factor_poly",
    "module.hom_basis", "module.map_coordinates", "module.spanned_submodule",
    "decompose.decompose", "decompose.is_isomorphic", "decompose.is_indecomposable",
    "decompose.end_radical", "functors.gamma",
    "approx.right_add_approximation", "approx.is_torsionless",
    "endcat.compose_into",
    "lattice.tensor_sequence", "lattice.external_product", "lattice.ext_nonzero",
    "lattice.tensor_module",
    "algebra.build_algebra", "algebra.tensor",
)
INCLUSIVE = (
    "torsfin.enumerate_torsionless", "torsfin.verify_inventory",
    "torsfin.gamma_bijection_check", "endcat.global_dimension",
    "endcat.layering_check", "tiered.truncations", "tiered.build_layering",
)


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "quivercert" or name.startswith("quivercert."))]


class Tracer:
    """Spans and counters for one traced run; ``install`` patches and
    ``restore`` undoes every patch."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index or -1, cert id]
        self.cert_id = None
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self._stack = []
        self.patches = []  # (owner, attribute, original object)

    # -- patching -----------------------------------------------------------
    def install(self):
        for target in self.targets:
            importlib.import_module(target.module)
        modules = _package_modules()
        for target in self.targets:
            owner = sys.modules[target.module]
            *cls_path, attr = target.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original)
            owners = [(owner, attr)] if cls_path else [
                (mod, name) for mod in modules
                for name, value in vars(mod).items() if value is original]
            for where, name in owners:
                setattr(where, name, wrapper)
                self.patches.append((where, name, original))

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, target, fn):
        name, before, after = target.metric, target.before, target.after

        def probe(hook, value):
            idx = self._open(PROBE)
            try:
                hook(self, value)
            finally:
                self._close(idx)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                probe(before, args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                probe(after, result)
            return result

        traced.qcbench_traced = True
        return traced

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.cert_id])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- derived figures ------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer figures as {name: (value, unit)} from the spans."""
        selfs = self_times(self.spans)
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in INCLUSIVE:
            out[f"{name}.s"] = (total_s[name], "s")
        cells = self.counters["matrix.rref.cells"]
        out["matrix.rref.cells"] = (cells, "count")
        out["matrix.rref.cells_per_s"] = (_ratio(cells, self_s["matrix.rref"]), "1/s")
        for name in ("module.hom_basis", "decompose.end_radical"):
            out[f"{name}.distinct_ratio"] = (
                _ratio(len(self.distinct[name]), calls[name]), "ratio")
        out["decompose.split_once.calls"] = (calls["decompose.split_once"], "count")
        out["decompose.split_yield"] = (
            _ratio(calls["decompose.split_once"], calls["upoly.factor_poly"]), "ratio")
        out["torsfin.verify_inventory.samples_per_s"] = (
            _ratio(self.counters["torsfin.verify_inventory.samples"],
                   total_s["torsfin.verify_inventory"]), "1/s")
        out["torsfin.cert_pass_ratio"] = (
            _ratio(self.counters["torsfin.cert_passes"],
                   calls["torsfin.verify_inventory"] + calls["torsfin.gamma_bijection_check"]),
            "ratio")
        return out


def _ratio(num, den):
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out

