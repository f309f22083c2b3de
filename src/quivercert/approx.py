"""Torsionless/divisible tests, add(M)-approximations, M-dimension,
traces of module classes, and pullbacks.

Minimal right approximations are built as projective covers in the
functor category: the multiplicity of a summand M_i in the cover of X
is dim Hom(M_i, X) modulo maps factoring through radical maps out of
M_i.  That construction is minimal by design instead of by post-hoc
stripping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BasicAlgebra
from .decompose import EndAlgebra, decompose, is_isomorphic
from .matrix import Matrix
from .module import (
    Module, ModuleMap, direct_sum, dual, hom_basis, in_span,
    kernel_of_map, map_from_coordinates, map_vector, projectives, submodule,
    zero_map, zero_module,
)
from .functors import NotProjective, is_projective_module

DEFAULT_M_DIM_BOUND = 6


def injectives(algebra: BasicAlgebra) -> list[Module]:
    from .module import injective
    cache = getattr(algebra, "_injective_modules", None)
    if cache is None:
        cache = [injective(algebra, x) for x in algebra.quiver.vertices]
        algebra._injective_modules = cache
    return cache


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


def torsionless_embedding(m: Module):
    """An injective map m -> (+) P(y)^(multiplicities), when torsionless."""
    maps = []
    parts = []
    for p in projectives(m.algebra):
        for f in hom_basis(m, p):
            maps.append(f)
            parts.append(p)
    if not maps:
        return None
    total = direct_sum(parts)[0]
    comps = {v: Matrix.vstack([f.components[v] for f in maps])
             for v in m.algebra.quiver.vertices}
    emb = ModuleMap(m, total, comps, check=False)
    return emb if emb.is_injective() else None


# -- radical maps between listed modules ------------------------------------------

class AddCategory:
    """Hom data over a fixed list of pairwise non-isomorphic
    indecomposable modules, with the radical structure."""

    def __init__(self, summands: list[Module]):
        self.summands = list(summands)
        if summands:
            self.algebra = summands[0].algebra
        self._homs = {}
        self._rad_coords = {}
        self._rad = {}

    def hom(self, i: int, j: int) -> list[ModuleMap]:
        key = (i, j)
        if key not in self._homs:
            self._homs[key] = hom_basis(self.summands[i], self.summands[j])
        return self._homs[key]

    def radical_coords(self, i: int) -> Matrix:
        """Columns = basis of rad End(M_i) in coordinates on hom(i, i)."""
        if i not in self._rad_coords:
            end = EndAlgebra(self.summands[i], self.hom(i, i))
            self._rad_coords[i] = end.radical_coords()
        return self._rad_coords[i]

    def radical_maps(self, i: int, j: int) -> list[ModuleMap]:
        """Basis of rad(M_i, M_j): all maps when i != j, the
        non-invertible endomorphisms (`radical_coords(i)`) when i == j."""
        key = (i, j)
        if key not in self._rad:
            if i != j:
                self._rad[key] = self.hom(i, j)
            else:
                rad = self.radical_coords(i)
                self._rad[key] = [map_from_coordinates(rad.col(c), self.hom(i, i))
                                  for c in range(rad.cols)]
        return self._rad[key]


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
    minimal: bool
    multiplicities: list  # per summand index


def right_add_approximation(summands: list[Module], x: Module,
                            cat: AddCategory | None = None) -> ApproxResult:
    """Minimal right add(M)-approximation M' -> X with its kernel."""
    algebra = x.algebra
    field = x.field
    cat = cat or AddCategory(summands)
    homs_into_x = [hom_basis(m_j, x) for m_j in summands]
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
    if not parts:
        z = zero_module(algebra)
        approx = zero_map(z, x)
        return ApproxResult(approx, z, zero_map(z, z), True, multiplicities)
    total = direct_sum(parts)[0]
    comps = {v: Matrix.hstack([f.components[v] for f in maps])
             for v in algebra.quiver.vertices}
    approx = ModuleMap(total, x, comps, check=False)
    kernel, incl = kernel_of_map(approx)
    return ApproxResult(approx, kernel, incl, True, multiplicities)


def omega(summands: list[Module], x: Module, cat: AddCategory | None = None) -> Module:
    return right_add_approximation(summands, x, cat).kernel


def in_add(summands: list[Module], x: Module, seed: int = 0,
           cat: AddCategory | None = None) -> bool:
    """Membership of x in add(summands) via decomposition and matching."""
    if x.is_zero():
        return True
    dec = decompose(x, seed)
    for part in dec.parts:
        hit = False
        for m_i in summands:
            ok, _ = is_isomorphic(m_i, part, assume_indecomposable=True)
            if ok:
                hit = True
                break
        if not hit:
            return False
    return True


def m_dimension(summands: list[Module], x: Module, bound: int = DEFAULT_M_DIM_BOUND,
                seed: int = 0, cat: AddCategory | None = None):
    """Iterations of omega until add(summands); None when above the bound."""
    cat = cat or AddCategory(summands)
    current = x
    for i in range(bound + 1):
        if in_add(summands, current, seed, cat):
            return i
        current = omega(summands, current, cat)
    return None


def trace_of_class(k_summands: list[Module], x: Module):
    """(U, inclusion): U = sum of images of all maps from the class."""
    field = x.field
    spans = {v: Matrix.zero(field, x.dims[v], 0) for v in x.algebra.quiver.vertices}
    for k in k_summands:
        for f in hom_basis(k, x):
            for v in spans:
                spans[v] = Matrix.hstack([spans[v], f.components[v]])
    spaces = {v: spans[v].column_space_basis() for v in spans}
    return submodule(x, spaces, check=False)


def pullback(p: ModuleMap, u: ModuleMap):
    """Pullback W of p: V -> X and u: U -> X.

    Returns (W, W -> V, W -> U, certificate).  The certificate verifies
    exactness of 0 -> W -> V (+) U -> X -> 0 (right exactness needs p or
    u surjective).
    """
    if p.target is not u.target and p.target.dims != u.target.dims:
        raise ValueError("pullback needs a common target")
    v_mod, u_mod, x = p.source, u.source, p.target
    total, incs, prjs = direct_sum([v_mod, u_mod])
    diff = prjs[0].then(p) - prjs[1].then(u)
    w, w_incl = kernel_of_map(diff)
    to_v = w_incl.then(prjs[0])
    to_u = w_incl.then(prjs[1])
    surjective = diff.is_surjective()
    exact_middle = all(
        w.dims[vtx] == total.dims[vtx] - diff.components[vtx].rank()
        for vtx in x.algebra.quiver.vertices)
    certificate = {
        "middle_dim": total.dim_vector(),
        "kernel_dim": w.dim_vector(),
        "cokernel_zero": surjective,
        "exact": bool(surjective and exact_middle and w_incl.is_injective()),
    }
    return w, to_v, to_u, certificate


# -- left approximations by projectives and strong exactness ----------------------

def left_proj_approximation(u: Module) -> ModuleMap:
    """Minimal left approximation u -> P_{-1} by projective modules."""
    algebra, field = u.algebra, u.field
    projs = projectives(algebra)
    cat = AddCategory(projs)
    reps, parts = [], []
    for i, p in enumerate(projs):
        candidates = hom_basis(u, p)
        through_radical = []
        for j, q in enumerate(projs):
            rads = cat.radical_maps(j, i)
            if not rads:
                continue
            for h in hom_basis(u, q):
                for r in rads:
                    through_radical.append(h.then(r))
        chosen = _cover_representatives(field, candidates, through_radical)
        reps.extend(chosen)
        parts.extend([p] * len(chosen))
    if not parts:
        return zero_map(u, zero_module(algebra))
    total = direct_sum(parts)[0]
    comps = {v: Matrix.vstack([f.components[v] for f in reps])
             for v in algebra.quiver.vertices}
    return ModuleMap(u, total, comps, check=False)


def factors_through(f: ModuleMap, through: ModuleMap) -> bool:
    """Does f = through . g for some g? (f: A -> C, through: B -> C)"""
    return in_span(f, [g.then(through) for g in hom_basis(f.source, through.source)])


def _hom_lambda_rank(algebra, maps_to_lambda) -> int:
    """Rank of a family of (projective index y, ModuleMap) pairs inside
    Hom(-, algebra) = (+)_y Hom(-, P(y))."""
    if not maps_to_lambda:
        return 0
    field = algebra.field
    vectors = []
    for y_idx, f in maps_to_lambda:
        vec = []
        for j, _ in enumerate(projectives(algebra)):
            if j == y_idx:
                vec.extend(map_vector(f))
            else:
                size = sum(projectives(algebra)[j].dims[v] * f.source.dims[v]
                           for v in algebra.quiver.vertices)
                vec.extend([field.zero()] * size)
        vectors.append(vec)
    mat = Matrix(field, len(vectors), len(vectors[0]),
                 [x for vec in vectors for x in vec])
    return mat.rank()


def strongly_exact_check(f: ModuleMap, g: ModuleMap) -> bool:
    """For projective P1 -f-> P0 -g-> P_{-1} with gf = 0: exact at P0 and
    still exact there after Hom(-, algebra).

    The transformed ranks are computed directly from Hom bases, without
    the structural Nakayama machinery (independent route).
    """
    for m in (f.source, f.target, g.target):
        if m.proj_info is None and not is_projective_module(m):
            raise NotProjective("strongly exact check needs projective terms")
    if not f.then(g).is_zero():
        raise ValueError("composition is not zero")
    algebra = f.source.algebra
    for v in algebra.quiver.vertices:
        if g.components[v].kernel_basis().cols != f.components[v].rank():
            return False
    # Hom(P0, Lambda) basis and the images of the transforms
    hom_p0 = [(y, h) for y, p in enumerate(projectives(algebra))
              for h in hom_basis(f.target, p)]
    image_gstar = [(y, g.then(h)) for y, p in enumerate(projectives(algebra))
                   for h in hom_basis(g.target, p)]
    image_fstar = [(y, f.then(h)) for y, h in hom_p0]
    rank_g = _hom_lambda_rank(algebra, image_gstar)
    rank_f = _hom_lambda_rank(algebra, image_fstar)
    return len(hom_p0) - rank_f == rank_g
