"""Torsionless/divisible tests and minimal right add(M)-approximations.

Minimal right approximations are built as projective covers in the
functor category: the multiplicity of a summand M_i in the cover of X
is dim Hom(M_i, X) modulo maps factoring through radical maps out of
M_i.  That construction is minimal by design instead of by post-hoc
stripping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import EndAlgebra
from .matrix import Matrix, complement_basis
from .module import (
    Module, ModuleMap, block_map, dual, hom_basis, kernel_of_map, map_from_coordinates,
    map_vector, projectives, sum_module,
)


def is_torsionless(m: Module) -> bool:
    """True iff the joint kernel of all maps m -> algebra vanishes."""
    if m.is_zero():
        return True
    maps = []
    for p in projectives(m.algebra):
        maps.extend(hom_basis(m, p))
    for v in m.algebra.quiver.vertices:
        if m.dims[v] == 0:
            continue
        stacked = [f.components[v] for f in maps]
        if not stacked:
            return False
        if Matrix.vstack(stacked).kernel_basis().cols:
            return False
    return True


def is_divisible(m: Module) -> bool:
    return is_torsionless(dual(m))


# -- radical maps between listed modules ------------------------------------------

class AddCategory:
    """Hom data over a list of pairwise non-isomorphic indecomposable
    modules, with the radical structure.

    `hom(i, j)` is `hom_basis(M_i, M_j)` for i != j.  `hom(i, i)` lists a
    basis of rad End(M_i) first, the maps whose coordinates on
    `hom_basis(M_i, M_i)` are `EndAlgebra.radical_coords()`, and then the
    `hom_basis` maps that `complement_basis` picks.  So rad(M_i, M_j), all
    of Hom(M_i, M_j) when i != j (Krull-Schmidt), is always a prefix of
    `hom(i, j)`: `radical_maps(i, j)`.  `hom_into(j, x)` is
    `hom_basis(M_j, x)` for any module x.

    The caches are keyed by the pair of module objects, not by index.
    The objects are distinct, so within one list a pair of objects stands
    for one pair of indices; and a caller may point `objects` at a longer
    list of the same modules, in another order, and keep every basis
    already built.
    """

    def __init__(self, objects: list[Module]):
        self.objects = list(objects)
        if objects:
            self.algebra = objects[0].algebra
        self._homs = {}
        self._rad_dims = {}
        self._into = {}

    def hom(self, i: int, j: int) -> list[ModuleMap]:
        m, n = self.objects[i], self.objects[j]
        key = (m, n)
        if key not in self._homs:
            basis = hom_basis(m, n)
            self._rad_dims[key] = len(basis)
            if m is n:
                rad = EndAlgebra(m, basis).radical_coords()
                change = Matrix.hstack([rad, complement_basis(rad)])
                basis = [map_from_coordinates(change.col(c), basis) for c in range(change.cols)]
                self._rad_dims[key] = rad.cols
            self._homs[key] = basis
        return self._homs[key]

    def radical_maps(self, i: int, j: int) -> list[ModuleMap]:
        """Basis of rad(M_i, M_j), the first maps of `hom(i, j)`."""
        maps = self.hom(i, j)
        return maps[:self._rad_dims[(self.objects[i], self.objects[j])]]

    def hom_into(self, j: int, x: Module) -> list[ModuleMap]:
        """`hom_basis(M_j, x)`, cached by the pair of objects apart from
        `hom`, whose basis of End(M_j) is reordered."""
        key = (self.objects[j], x)
        if key not in self._into:
            self._into[key] = hom_basis(*key)
        return self._into[key]


def _cover_representatives(field, candidates: list[ModuleMap],
                           radical_image: list[ModuleMap]) -> list[ModuleMap]:
    """Candidates spanning Hom(M_i, X); keep coset representatives modulo
    the radical-factoring subspace (deterministic pivot choice)."""
    if not candidates:
        return []
    rad_cols = [map_vector(f) for f in radical_image]
    cols = rad_cols + [map_vector(f) for f in candidates]
    length = len(cols[-1])
    mat = Matrix(field, length, len(cols),
                 [cols[c][r] for r in range(length) for c in range(len(cols))])
    _, pivots, _ = mat.rref()
    chosen = [c - len(rad_cols) for c in pivots if c >= len(rad_cols)]
    return [candidates[c] for c in chosen]


@dataclass
class ApproxResult:
    approximation: ModuleMap  # M' -> X
    kernel: Module
    kernel_inclusion: ModuleMap
    multiplicities: list  # per summand index


def right_add_approximation(summands: list[Module], x: Module,
                            cat: AddCategory | None = None) -> ApproxResult:
    """Minimal right add(M)-approximation M' -> X with its kernel."""
    algebra = x.algebra
    field = x.field
    cat = cat or AddCategory(summands)
    homs_into_x = [cat.hom_into(j, x) for j in range(len(summands))]
    reps_per_summand = []
    for i in range(len(summands)):
        through_radical = []
        for j, homs in enumerate(homs_into_x):
            rads = cat.radical_maps(i, j)
            if not rads:
                continue
            for h in homs:
                for r in rads:
                    through_radical.append(r.then(h))
        reps_per_summand.append(_cover_representatives(field, homs_into_x[i], through_radical))
    parts, maps = [], []
    multiplicities = []
    for m_i, reps in zip(summands, reps_per_summand):
        multiplicities.append(len(reps))
        for f in reps:
            parts.append(m_i)
            maps.append(f)
    approx = block_map(sum_module(algebra, parts), x, dict(enumerate(parts)), {0: x},
                       {(0, k): f for k, f in enumerate(maps)})
    kernel, incl = kernel_of_map(approx)
    return ApproxResult(approx, kernel, incl, multiplicities)
