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
    Module, ModuleMap, direct_sum, dual, dual_map, image_of_map, injective,
    kernel_of_map, projectives, quotient, radical, zero_map, zero_module,
)
from .decompose import decompose


class NotProjective(ValueError):
    pass


class NotTorsionless(ValueError):
    pass


# -- covers and presentations ---------------------------------------------------

def projective_cover(m: Module) -> ModuleMap:
    """Surjection P -> m with P built from top(m); kernel lies in rad P."""
    algebra, field = m.algebra, m.field
    if m.is_zero():
        return zero_map(zero_module(algebra), m)
    rad, rad_incl = radical(m)
    reps = {v: complement_basis(rad_incl.components[v].column_space_basis())
            for v in algebra.quiver.vertices}
    summands = []
    generators = []  # (vertex, column vector in m's fiber)
    for x, p in zip(algebra.quiver.vertices, projectives(algebra)):
        for c in range(reps[x].cols):
            summands.append(p)
            generators.append((x, reps[x].submatrix(range(m.dims[x]), [c])))
    if not summands:
        raise NotProjective("nonzero module equal to its radical")
    cover, inclusions, _ = direct_sum(summands)
    comps = {v: Matrix.zero(field, m.dims[v], cover.dims[v])
             for v in algebra.quiver.vertices}
    col_offset = {v: 0 for v in algebra.quiver.vertices}
    for (x, gen), summand in zip(generators, summands):
        for v in algebra.quiver.vertices:
            base = col_offset[v]
            for local, bidx in enumerate(summand.proj_info.labels[v]):
                path = algebra.basis_paths[bidx[1]]
                vec = gen if len(path) == 0 else m.path_action(path) @ gen
                for r in range(m.dims[v]):
                    comps[v][r, base + local] = vec[r, 0]
            col_offset[v] += summand.dims[v]
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


def min_projective_presentation(m: Module):
    """(f: P1 -> P0, e: P0 -> m), both covers, kernel(e) inside rad P0."""
    e = projective_cover(m)
    ker, incl = kernel_of_map(e)
    f_cover = projective_cover(ker)
    f = f_cover.then(incl)
    return f, e


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
    h_source = direct_sum(h_source_parts)[0] if h_source_parts else zero_module(op)
    h_target = direct_sum(h_target_parts)[0] if h_target_parts else zero_module(op)
    comps = {v: Matrix.zero(field, h_target.dims[v], h_source.dims[v])
             for v in op.quiver.vertices}
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
            if not elem:
                continue
            block = _left_multiplication(
                op, elem, h_source_parts[j], tgt_info.vertices[j],
                h_target_parts[i], xi)
            for v in op.quiver.vertices:
                row0 = sum(p.dims[v] for p in h_target_parts[:i])
                col0 = sum(p.dims[v] for p in h_source_parts[:j])
                b = block[v]
                for r in range(b.rows):
                    for c in range(b.cols):
                        comps[v][row0 + r, col0 + c] = field.add(
                            comps[v][row0 + r, col0 + c], b[r, c])
    return ModuleMap(h_source, h_target, comps, check=False)


def nakayama_module(p: Module) -> Module:
    """nu(P) = (+) Q(x_i) for a structured projective."""
    if p.proj_info is None:
        raise NotProjective("Nakayama functor needs a structured projective")
    algebra = p.algebra
    parts = [injective(algebra, x) for x in p.proj_info.vertices]
    return direct_sum(parts)[0] if parts else zero_module(algebra)


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
    if not keep:
        return zero_module(m.algebra), dropped
    return direct_sum(keep)[0], dropped


def tau(m: Module) -> Module:
    """AR translate: kernel of nu applied to the minimal presentation."""
    core, dropped = strip_projective_summands(m)
    if dropped:
        warnings.warn("tau: projective summands stripped", stacklevel=2)
    if core.is_zero():
        return zero_module(m.algebra)
    f, _ = min_projective_presentation(core)
    nf = nakayama_map(f)
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
    f, _ = min_projective_presentation(core)
    nf = nakayama_map(f)
    return image_of_map(nf)[0]


def gamma_both_ways(m: Module):
    """(image-of-nu route, Sigma-tau route) for cross checks."""
    return gamma(m), sigma(tau(m))


def eta(m: Module) -> Module:
    """Image of Hom(f, algebra) over the opposite algebra, f the minimal
    presentation; defined for torsionless modules up to projectives."""
    from .approx import is_torsionless
    if not is_torsionless(m):
        raise NotTorsionless("eta needs a torsionless module")
    if m.is_zero():
        return zero_module(m.algebra.opposite())
    f, _ = min_projective_presentation(m)
    h = hom_lambda_transform(f)
    return image_of_map(h)[0]
