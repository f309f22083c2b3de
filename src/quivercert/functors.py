"""Covers, envelopes, presentations, and the functors nu, tau, Sigma,
gamma, eta.

The Nakayama transform is computed combinatorially: a map f between
structured projectives is read off as path coefficients f(e_i), the
Hom(-, algebra) transform becomes left multiplication by the reversed
coefficients over the opposite algebra, and dualizing brings the result
back as a map between injectives.
"""

from __future__ import annotations

import warnings

from .algebra import BasicAlgebra
from .matrix import Matrix, complement_basis
from .module import (
    Module, ModuleMap, block_map, dual, dual_map, image_of_map, injectives, kernel_of_map,
    projective_sum, projectives, quotient, radical_spaces, sum_module, zero_map, zero_module,
)
from .decompose import decompose
from .approx import is_torsionless


class NotProjective(ValueError):
    pass


class NotTorsionless(ValueError):
    pass


# -- covers and presentations ---------------------------------------------------

def projective_cover(m: Module) -> ModuleMap:
    """Surjection P -> m with P built from top(m); kernel lies in rad P.

    P is `projective_sum(algebra, vertices)` over the vertices of a basis
    of the top, in vertex order: one shared object per algebra and vertex
    tuple (the zero module for m = 0), so every cover of every module
    with the same top has the same source.  Only the surjection is built
    here, from the standard vectors that `complement_basis` picks past
    rad M_x (`radical_spaces`), which depend only on its column space."""
    algebra, field = m.algebra, m.field
    if m.is_zero():
        return zero_map(projective_sum(algebra, ()), m)
    rad = radical_spaces(m)
    generators = []  # (vertex, column vector in m's fiber), one per summand of P
    for x in algebra.quiver.vertices:
        rep = complement_basis(rad[x])
        generators.extend((x, rep.submatrix(range(m.dims[x]), [c])) for c in range(rep.cols))
    if not generators:
        raise NotProjective("nonzero module equal to its radical")
    cover = projective_sum(algebra, tuple(x for x, _ in generators))
    comps = {}
    for v in algebra.quiver.vertices:
        comps[v] = Matrix.zero(field, m.dims[v], cover.dims[v])
        for col, (k, bidx) in enumerate(cover.proj_info.labels[v]):
            path = algebra.basis_paths[bidx]
            gen = generators[k][1]
            vec = gen if len(path) == 0 else m.path_action(path) @ gen
            for r in range(m.dims[v]):
                comps[v][r, col] = vec[r, 0]
    out = ModuleMap(cover, m, comps, check=False)
    if not out.is_surjective():
        raise NotProjective("projective cover construction failed to surject")
    return out


def injective_envelope(m: Module) -> ModuleMap:
    """Injection m -> Q built from soc(m), via the dual projective cover."""
    cover = projective_cover(dual(m))
    env = dual_map(cover)  # dual(dual(m)) -> dual(cover source)
    # dual(dual(m)) equals m entrywise; rebind the source
    return ModuleMap(m, env.target, env.components, check=False)


def projective_resolution(m: Module, length: int):
    """Minimal projective resolution up to P_length: (projectives P_0..P_length,
    differentials d_k: P_k -> P_{k-1} for k = 1..length, augmentation
    P_0 -> m).  The cover of m, then `extend_resolution`."""
    aug = projective_cover(m)
    projs, diffs = extend_resolution([aug.source], [], aug, length)
    return projs, diffs, aug


def extend_resolution(projs: list, diffs: list, aug: ModuleMap, length: int):
    """(projs, diffs) of a resolution with augmentation aug, grown up to
    P_length in new lists: each step is a projective cover of the kernel
    of the last map (aug before any differential).  The last differential
    is the last cover followed by an injection, so it has the cover's null
    space, and `kernel_basis` reads only the null space (through the
    rref): a resolution extended here equals, entry for entry, one built
    at the higher length at once."""
    projs, diffs = list(projs), list(diffs)
    while len(projs) <= length:
        ker, incl = kernel_of_map(diffs[-1] if diffs else aug)
        cover = projective_cover(ker)
        projs.append(cover.source)
        diffs.append(cover.then(incl))
    return projs, diffs


def is_projective_module(m: Module) -> bool:
    """Compare against the own projective cover (dimension criterion)."""
    if m.is_zero():
        return True
    cover = projective_cover(m)
    return cover.source.total_dim() == m.total_dim()


def is_injective_module(m: Module) -> bool:
    return is_projective_module(dual(m))


# -- the combinatorial Hom(-, algebra) transform --------------------------------

def _generator_positions(p: Module):
    """Fiber position of each summand generator e_{x_i} inside p."""
    algebra = p.algebra
    info = p.proj_info
    if info is None:
        raise NotProjective("module lacks projective structure")
    positions = []
    for i, x in enumerate(info.vertices):
        target = (i, algebra.e_index[x])
        positions.append(info.labels[x].index(target))
    return positions


def _reverse_element(algebra: BasicAlgebra, op: BasicAlgebra, coeffs):
    """Transport sum(c * basis path) through path reversal into op."""
    out = {}
    field = algebra.field
    for bidx, c in coeffs:
        path = algebra.basis_paths[bidx]
        if len(path) == 0:
            expansion = ((op.e_index[path.vertex], field.one()),)
        else:
            expansion = op.reduce_path(tuple(reversed(tuple(path)))) or ()
        for k, ck in expansion:
            out[k] = field.add(out.get(k, field.zero()), field.mul(c, ck))
    return [(k, v) for k, v in sorted(out.items()) if v != field.zero()]


def _left_multiplication(algebra: BasicAlgebra, elem, src: Module, src_vertex: str,
                         tgt: Module, tgt_vertex: str) -> dict:
    """Per-vertex matrices of w |-> elem * w from P(src_vertex) to
    P(tgt_vertex); elem is [(basis idx, coeff)] with paths tgt -> src."""
    field = algebra.field
    comps = {}
    for v in algebra.quiver.vertices:
        src_fiber = algebra.basis_by_pair.get((src_vertex, v), [])
        tgt_fiber = algebra.basis_by_pair.get((tgt_vertex, v), [])
        pos = {b: k for k, b in enumerate(tgt_fiber)}
        mat = Matrix.zero(field, len(tgt_fiber), len(src_fiber))
        for col, bidx in enumerate(src_fiber):
            for eidx, c in elem:
                for k, ck in algebra.mult(eidx, bidx):
                    mat[pos[k], col] = field.add(mat[pos[k], col], field.mul(c, ck))
        comps[v] = mat
    return comps


def hom_lambda_transform(f: ModuleMap) -> ModuleMap:
    """Hom(f, algebra) as a map of opposite-algebra modules.

    For f: P -> P' between structured projectives this is the map
    (+) P_op(x'_j) -> (+) P_op(x_i) given by left multiplication with
    the reversed coefficient paths of f.
    """
    algebra = f.source.algebra
    op = algebra.opposite()
    field = algebra.field
    src_info, tgt_info = f.source.proj_info, f.target.proj_info
    if src_info is None or tgt_info is None:
        raise NotProjective("Hom(-,algebra) transform needs structured projectives")
    src_pos = _generator_positions(f.source)
    p_op = dict(zip(op.quiver.vertices, projectives(op)))
    h_source_parts = [p_op[x] for x in tgt_info.vertices]
    h_target_parts = [p_op[x] for x in src_info.vertices]
    h_source = projective_sum(op, tgt_info.vertices)
    h_target = projective_sum(op, src_info.vertices)
    blocks = {}
    for i, xi in enumerate(src_info.vertices):
        image_vec = f.components[xi].submatrix(range(f.target.dims[xi]), [src_pos[i]])
        # split the image over the target summands and their path labels
        per_summand: dict[int, list] = {}
        for row, (j, bidx) in enumerate(tgt_info.labels[xi]):
            c = image_vec[row, 0]
            if c != field.zero():
                per_summand.setdefault(j, []).append((bidx, c))
        for j, coeffs in per_summand.items():
            elem = _reverse_element(algebra, op, coeffs)
            if elem:
                comps = _left_multiplication(op, elem, h_source_parts[j], tgt_info.vertices[j],
                                             h_target_parts[i], xi)
                blocks[i, j] = ModuleMap(h_source_parts[j], h_target_parts[i], comps,
                                         check=False)
    return block_map(h_source, h_target, dict(enumerate(h_source_parts)),
                     dict(enumerate(h_target_parts)), blocks)


def nakayama_module(p: Module) -> Module:
    """nu(P) = (+) Q(x_i) for a structured projective."""
    if p.proj_info is None:
        raise NotProjective("Nakayama functor needs a structured projective")
    q = dict(zip(p.algebra.quiver.vertices, injectives(p.algebra)))
    return sum_module(p.algebra, [q[x] for x in p.proj_info.vertices])


def nakayama_map(f: ModuleMap) -> ModuleMap:
    """nu(f) = D Hom(f, algebra): a map nu(source) -> nu(target)."""
    h = hom_lambda_transform(f)  # Hom(target) -> Hom(source), over op
    nf = dual_map(h)  # D Hom(source) -> D Hom(target), over algebra
    src = nakayama_module(f.source)
    tgt = nakayama_module(f.target)
    return ModuleMap(src, tgt, nf.components, check=False)


# -- tau, Sigma, gamma, eta -------------------------------------------------------

def strip_projective_summands(m: Module):
    """(non-projective part as a submodule of m, list of projective parts)."""
    if m.is_zero():
        return m, []
    dec = decompose(m)
    keep, dropped = [], []
    for part in dec.parts:
        if is_projective_module(part):
            dropped.append(part)
        else:
            keep.append(part)
    if not dropped:
        return m, []
    return sum_module(m.algebra, keep), dropped


def tau(m: Module) -> Module:
    """AR translate: kernel of nu applied to the minimal presentation."""
    core, dropped = strip_projective_summands(m)
    if dropped:
        warnings.warn("tau: projective summands stripped", stacklevel=2)
    if core.is_zero():
        return zero_module(m.algebra)
    _, diffs, _ = projective_resolution(core, 1)
    nf = nakayama_map(diffs[0])
    return kernel_of_map(nf)[0]


def sigma(m: Module) -> Module:
    """Suspension: injective envelope quotient I(m)/m."""
    if m.is_zero():
        return zero_module(m.algebra)
    env = injective_envelope(m)
    img, incl = image_of_map(env)
    return quotient(env.target, incl)[0]


def gamma(m: Module) -> Module:
    """gamma = image of nu on the minimal presentation (= Sigma tau)."""
    core, _ = strip_projective_summands(m)
    if core.is_zero():
        return zero_module(m.algebra)
    _, diffs, _ = projective_resolution(core, 1)
    nf = nakayama_map(diffs[0])
    return image_of_map(nf)[0]


def gamma_both_ways(m: Module):
    """(image-of-nu route, Sigma-tau route) for cross checks."""
    return gamma(m), sigma(tau(m))


def eta(m: Module) -> Module:
    """Image of Hom(f, algebra) over the opposite algebra, f the minimal
    presentation; defined for torsionless modules up to projectives."""
    if not is_torsionless(m):
        raise NotTorsionless("eta needs a torsionless module")
    if m.is_zero():
        return zero_module(m.algebra.opposite())
    _, diffs, _ = projective_resolution(m, 1)
    h = hom_lambda_transform(diffs[0])
    return image_of_map(h)[0]
