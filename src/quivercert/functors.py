"""Maps out of projectives, covers, envelopes, presentations, and the
functors nu, tau, Sigma, gamma, eta.

A map out of a tagged projective (`module.ProjInfo`) is its images at the
generators (Yoneda): `yoneda_map` builds it from them, `lift_through`
solves for them one generating vertex at a time, and
`cocycle_is_coboundary` decides a factorisation by one linear system in
them, so none of these solves for a Hom space.

The Nakayama transform is computed combinatorially: a map f between
structured projectives is read off as path coefficients f(e_i), the
Hom(-, algebra) transform becomes left multiplication by the reversed
coefficients over the opposite algebra, and dualizing brings the result
back as a map between injectives.
"""

from __future__ import annotations

import warnings

from .algebra import BasicAlgebra
from .matrix import Matrix, NoSolution, complement_basis
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


# -- maps out of projectives, read off their generators (Yoneda) -----------------

def generator_positions(p: Module) -> list[int]:
    """The fiber position of each generator e_i of a tagged projective p,
    at its vertex x_i: the label (i, e_{x_i})."""
    info = p.proj_info
    if info is None:
        raise NotProjective("module lacks projective structure")
    e_index = p.algebra.e_index
    return [info.labels[x].index((i, e_index[x])) for i, x in enumerate(info.vertices)]


def _label_actions(m: Module, p: Module) -> dict:
    """{basis index: entries of m's action by that basis path} for every
    nontrivial path among the labels of the tagged projective p: each
    path's matrix is built once, as `Module.path_action` builds it."""
    algebra = p.algebra
    out = {}
    for labels in p.proj_info.labels.values():
        for _, bidx in labels:
            path = algebra.basis_paths[bidx]
            if len(path) and bidx not in out:
                out[bidx] = m.path_action(path).entries
    return out


def yoneda_map(p: Module, m: Module, vectors: list) -> ModuleMap:
    """The map from the tagged projective p to m that sends p's generator
    e_i to vectors[i], a list of entries of m's fiber at its vertex x_i:
    the fiber vector labelled (i, path) goes to m's action by the path on
    vectors[i].  Every choice of vectors gives a module map (Yoneda), so
    nothing is checked; the columns are built on raw entries."""
    algebra, field = p.algebra, p.field
    if p.proj_info is None:
        raise NotProjective("module lacks projective structure")
    mod, zero = field.p, field.zero()
    actions = _label_actions(m, p)
    comps = {}
    for v in algebra.quiver.vertices:
        rows, labels = m.dims[v], p.proj_info.labels[v]
        width = len(labels)
        entries = [zero] * (rows * width)
        for col, (i, bidx) in enumerate(labels):
            vec = vectors[i]
            act = actions.get(bidx)
            if act is not None:
                w = len(vec)
                vec = [sum((act[r * w + k] * vec[k] for k in range(w)), zero)
                       for r in range(rows)]
                if mod:
                    vec = [x % mod for x in vec]
            entries[col::width] = vec
        comps[v] = Matrix(field, rows, width, entries)
    return ModuleMap._built(p, m, comps)


def lift_through(src: Module, through: ModuleMap, target: ModuleMap) -> ModuleMap:
    """h: src -> through.source with h.then(through) = target, for a tagged
    projective src (NotProjective otherwise).  h sends each generator e_i,
    at its vertex x_i, to a solution w of through_{x_i} w = target(e_i),
    one `Matrix.solve` per generating vertex, and `yoneda_map` builds it:
    h.then(through) and target are maps out of src that agree on its
    generators, so they are equal.  Raises NoSolution when some target(e_i)
    has no preimage, and then there is no lift at all."""
    positions = generator_positions(src)
    at = {}  # vertex -> the indices of the generators there
    for i, x in enumerate(src.proj_info.vertices):
        at.setdefault(x, []).append(i)
    vectors = [None] * len(positions)
    for x, gens in at.items():
        t = target.components[x]
        solved = through.components[x].solve(t.submatrix(range(t.rows),
                                                          [positions[i] for i in gens]))
        for k, i in enumerate(gens):
            vectors[i] = solved.col(k)
    return yoneda_map(src, through.source, vectors)


def cocycle_is_coboundary(phi_d: ModuleMap, last_diff: ModuleMap) -> bool:
    """phi_d = last_diff followed by some psi: P_{d-1} -> left?

    P_d and P_{d-1} are tagged projectives (NotProjective otherwise), so
    this is decided at their generators (Yoneda).  A map psi out of
    P_{d-1} = (+) P(x_i) is a free choice of u_i in left_{x_i}, the image
    of its generator g_i, and sends the fiber vector labelled (i, path) to
    path . u_i.  Two maps out of P_d are equal iff they agree on its
    generators g'_j, at y_j.  So phi_d is a coboundary iff one linear
    system has a solution: unknowns the u_i, and per g'_j the equations
    psi(last_diff(g'_j)) = phi_d(g'_j) in left_{y_j}, whose coefficients
    are left's actions by the labels of P_{d-1} at y_j weighted by the
    column of last_diff at g'_j.  The system is built on raw entries and
    solved once."""
    src, mid, left = last_diff.source, last_diff.target, phi_d.target
    positions = generator_positions(src)
    if mid.proj_info is None:
        raise NotProjective("module lacks projective structure")
    field = left.field
    mod, zero = field.p, field.zero()
    offsets, width = [], 0  # the columns of u_i start at offsets[i]
    for x in mid.proj_info.vertices:
        offsets.append(width)
        width += left.dims[x]
    entries, rhs = [], []
    actions = _label_actions(left, mid)
    for y, pos in zip(src.proj_info.vertices, positions):
        d, phi = last_diff.components[y], phi_d.components[y]
        rows = left.dims[y]
        block = [zero] * (rows * width)
        for r, (i, bidx) in enumerate(mid.proj_info.labels[y]):
            c = d.entries[r * d.cols + pos]
            if not c:
                continue
            act, w, base = actions.get(bidx), left.dims[mid.proj_info.vertices[i]], offsets[i]
            for t in range(rows):
                at = t * width + base
                if act is None:  # the trivial path: x_i = y
                    block[at + t] += c
                else:
                    for k in range(w):
                        block[at + k] += c * act[t * w + k]
        entries += [e % mod for e in block] if mod else block
        rhs += phi.entries[pos::phi.cols]
    try:
        Matrix(field, len(rhs), width, entries).solve(Matrix(field, len(rhs), 1, rhs))
    except NoSolution:
        return False
    return True


# -- covers and presentations ---------------------------------------------------

def projective_cover(m: Module) -> ModuleMap:
    """Surjection P -> m with P built from top(m); kernel lies in rad P.

    P is `projective_sum(algebra, vertices)` over the vertices of a basis
    of the top, in vertex order: one shared object per algebra and vertex
    tuple (the zero module for m = 0), so every cover of every module
    with the same top has the same source.  Only the surjection is built
    here: `yoneda_map` sends the generators to the standard vectors that
    `complement_basis` picks past rad M_x (`radical_spaces`), which
    depend only on its column space."""
    algebra = m.algebra
    if m.is_zero():
        return zero_map(projective_sum(algebra, ()), m)
    rad = radical_spaces(m)
    generators = []  # (vertex, vector in m's fiber), one per summand of P
    for x in algebra.quiver.vertices:
        rep = complement_basis(rad[x])
        generators.extend((x, rep.col(c)) for c in range(rep.cols))
    if not generators:
        raise NotProjective("nonzero module equal to its radical")
    cover = projective_sum(algebra, tuple(x for x, _ in generators))
    out = yoneda_map(cover, m, [vec for _, vec in generators])
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
    src_pos = generator_positions(f.source)
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
