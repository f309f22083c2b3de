"""Finite-dimensional representations of a basic algebra.

A Module assigns an exact matrix to every arrow (fiber(source) ->
fiber(target), columns indexed by the source basis); every relation of
the algebra is checked to vanish on construction.  A ModuleMap is a
vertex-indexed family of matrices intertwining the arrow actions.

Projective modules carry a `proj_info` structural tag (ordered list of
generating vertices plus path labels per fiber): `projective`,
`sum_module` of tagged summands (the empty sum included) and
`lattice.tensor_module` of two tagged projectives set it.  A map out of
P = (+) P(x_i) is fixed by the images v_i in X_{x_i} of the generators
e_i, any choice of them gives one (Yoneda), and the fiber vector labelled
(i, path) goes to path . v_i.  `functors.yoneda_map` builds maps that
way, and `functors` reads maps out of projectives off their generators:
the Nakayama transform, lifts and the coboundary test of `lattice`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .algebra import BasicAlgebra
from .matrix import Matrix, NoSolution, _matrix, complement_basis

_new = object.__new__


class ModuleError(ValueError):
    pass


@dataclass
class ProjInfo:
    """P = (+) P(vertex_i); labels[v] lists (summand index, basis path index
    in the algebra) for each fiber basis vector, in fiber order."""

    vertices: tuple[str, ...]
    labels: dict  # vertex -> list[(summand_idx, algebra basis idx)]


def vertex_counts(quiver, counts, error: type[ValueError], what: str) -> dict:
    """{v: counts.get(v, 0)} over the quiver's vertices: dimensions or
    ranks, each an int >= 0.  A key that names no vertex, a negative
    count, a bool or a float raises error; nothing is truncated."""
    unknown = counts.keys() - quiver.vertex_set
    if unknown:
        raise error(f"{what} name no vertex: {sorted(unknown)}")
    out = {v: counts.get(v, 0) for v in quiver.vertices}
    for v, n in out.items():
        if type(n) is not int or n < 0:
            raise error(f"{what}[{v}] is not a count: {n!r}")
    return out


class Module:
    """A representation: `dims` per vertex and an `action` matrix per arrow.

    A module is never mutated after construction: no code writes to its
    dims, its action or the matrices in it.  That is what lets
    `content_hash` be computed once and kept in the `_hash` slot.  The
    constructor keeps the action matrices it is given, not copies, so
    modules built from the same matrices share them."""

    __slots__ = ("algebra", "dims", "action", "proj_info", "_hash")

    def __init__(self, algebra: BasicAlgebra, dims, action, check: bool = True,
                 proj_info: ProjInfo | None = None):
        self.algebra = algebra
        self.dims = vertex_counts(algebra.quiver, dims, ModuleError, "dims")
        unknown = action.keys() - algebra.quiver.arrow_names
        if unknown:
            raise ModuleError(f"action names no arrow: {sorted(unknown)}")
        self.action = {}
        field = algebra.field
        for a in algebra.quiver.arrows:
            m = action.get(a.name)
            if m is None:
                m = Matrix.zero(field, self.dims[a.target], self.dims[a.source])
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ModuleError(
                    f"arrow {a.name}: matrix {m.rows}x{m.cols}, expected "
                    f"{self.dims[a.target]}x{self.dims[a.source]}")
            if m.field != field:
                raise ModuleError("matrix field mismatch")
            self.action[a.name] = m
        self.proj_info = proj_info
        self._hash = None
        if check:
            bad = self.relation_defect()
            if bad is not None:
                raise ModuleError(f"relation fails on module: {bad}")

    # -- structure -----------------------------------------------------------
    @property
    def field(self):
        return self.algebra.field

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def __repr__(self):
        return f"Module{self.dim_vector()}"

    def path_action(self, path) -> Matrix:
        """Matrix of a nonempty arrow-name sequence (first arrow acts first)."""
        m = self.action[path[0]]
        for name in path[1:]:
            m = self.action[name] @ m
        return m

    def relation_defect(self):
        algebra = self.algebra
        for rel, terms in zip(algebra.relations, algebra.relation_terms):
            total = None
            for c, path in terms:
                term = self.path_action(path).scale(c)
                total = term if total is None else total + term
            if total is not None and not total.is_zero():
                return rel.describe()
        return None

    def content_hash(self) -> str:
        """SHA-256 of the dims and action as canonical JSON, computed on the
        first call and kept: the module never changes after construction."""
        if self._hash is not None:
            return self._hash
        payload = {
            "dims": {v: self.dims[v] for v in self.algebra.quiver.vertices},
            "action": {a.name: self.action[a.name].to_strings()
                       for a in self.algebra.quiver.arrows},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._hash = hashlib.sha256(blob.encode()).hexdigest()
        return self._hash


class ModuleMap:
    """A module map: `components` holds a matrix target.dims[v] x
    source.dims[v] at every vertex v.

    The public constructor fills absent vertices with zeros, checks every
    shape and, with `check`, that the components intertwine the arrows.
    `then`, `+`, `-`, `scale`, `identity_map`, `block_map`, `hom_basis`,
    `functors.yoneda_map` and `lattice.tensor_map` build complete components
    of the right shapes by construction and go through `_built`, which checks nothing.  Maps
    share component matrices, which are never written after they are
    built (see `Matrix`): the public constructor keeps the matrices it is
    given, a one-part `block_map` has its block's components, and the maps
    of every `hom_basis` call on one content pair have the same ones."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Module, target: Module, components, check: bool = True):
        if source.algebra is not target.algebra:
            raise ModuleError("map between modules over different algebras")
        self.source = source
        self.target = target
        self.components = {}
        field = source.field
        for v in source.algebra.quiver.vertices:
            m = components.get(v)
            if m is None:
                m = Matrix.zero(field, target.dims[v], source.dims[v])
            if (m.rows, m.cols) != (target.dims[v], source.dims[v]):
                raise ModuleError(f"component at {v}: {m.rows}x{m.cols} mismatch")
            self.components[v] = m
        if check and not self.intertwines():
            raise ModuleError("components do not intertwine the arrow actions")

    @classmethod
    def _built(cls, source: Module, target: Module, components: dict) -> "ModuleMap":
        """The map on `components` itself, a fresh dict with a matrix of the
        right shape at every vertex: no copy and no check."""
        f = _new(cls)
        f.source = source
        f.target = target
        f.components = components
        return f

    def intertwines(self) -> bool:
        for a in self.source.algebra.quiver.arrows:
            lhs = self.target.action[a.name] @ self.components[a.source]
            rhs = self.components[a.target] @ self.source.action[a.name]
            if lhs != rhs:
                return False
        return True

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"

    # -- algebra of maps ----------------------------------------------------
    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other (other o self)."""
        if other.source is not self.target and other.source.dims != self.target.dims:
            raise ModuleError("composition mismatch")
        comps = {v: other.components[v] @ m for v, m in self.components.items()}
        return ModuleMap._built(self.source, other.target, comps)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        comps = {v: m + other.components[v] for v, m in self.components.items()}
        return ModuleMap._built(self.source, self.target, comps)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        comps = {v: m - other.components[v] for v, m in self.components.items()}
        return ModuleMap._built(self.source, self.target, comps)

    def scale(self, c) -> "ModuleMap":
        comps = {v: m.scale(c) for v, m in self.components.items()}
        return ModuleMap._built(self.source, self.target, comps)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def is_injective(self) -> bool:
        return all(m.kernel_basis().cols == 0 for m in self.components.values())

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.components.values())

    def is_isomorphism(self) -> bool:
        return (self.source.dim_vector() == self.target.dim_vector()
                and all(m.is_invertible() for m in self.components.values()))

    def inverse(self) -> "ModuleMap":
        comps = {v: m.inverse() for v, m in self.components.items()}
        return ModuleMap(self.target, self.source, comps, check=False)

    def total_matrix(self) -> Matrix:
        order = self.source.algebra.quiver.vertices
        return Matrix.block_diag(self.source.field, [self.components[v] for v in order])


def zero_map(source: Module, target: Module) -> ModuleMap:
    return ModuleMap(source, target, {}, check=False)


def identity_map(m: Module) -> ModuleMap:
    comps = {v: Matrix.identity(m.field, m.dims[v]) for v in m.algebra.quiver.vertices}
    return ModuleMap._built(m, m, comps)


def zero_module(algebra: BasicAlgebra) -> Module:
    return Module(algebra, {}, {}, check=False)


# -- standard modules -------------------------------------------------------

def simple(algebra: BasicAlgebra, x: str) -> Module:
    return Module(algebra, {x: 1}, {}, check=False)


def projective(algebra: BasicAlgebra, x: str) -> Module:
    """P(x) on the path basis starting at x; arrows act by composition."""
    pair = algebra.basis_by_pair
    fibers = {v: pair.get((x, v), []) for v in algebra.quiver.vertices}
    dims = {v: len(fibers[v]) for v in fibers}
    pos = {v: {idx: k for k, idx in enumerate(fibers[v])} for v in fibers}
    action = {}
    for a in algebra.quiver.arrows:
        m = Matrix.zero(algebra.field, dims[a.target], dims[a.source])
        for col, bidx in enumerate(fibers[a.source]):
            path = tuple(algebra.basis_paths[bidx]) + (a.name,)
            for k, c in algebra.reduce_path(path):
                m[pos[a.target][k], col] = c
        action[a.name] = m
    labels = {v: [(0, bidx) for bidx in fibers[v]] for v in fibers}
    info = ProjInfo((x,), labels)
    return Module(algebra, dims, action, check=True, proj_info=info)


def projectives(algebra: BasicAlgebra) -> list[Module]:
    """[P(x) for x in the vertices], built once per algebra and kept in
    its memo (`BasicAlgebra.cached`), shared by every caller.  `projective`
    still builds a fresh module on each call."""
    return algebra.cached(("projectives",), lambda: [
        projective(algebra, x) for x in algebra.quiver.vertices])


def injectives(algebra: BasicAlgebra) -> list[Module]:
    """[Q(x) for x in the vertices], built once per algebra and kept in
    its memo, shared as `projectives` are."""
    return algebra.cached(("injectives",), lambda: [
        injective(algebra, x) for x in algebra.quiver.vertices])


def projective_sum(algebra: BasicAlgebra, vertices: tuple) -> Module:
    """(+) P(x) for x in vertices, in that order, with its proj_info; the
    zero module for no vertices.  Built once per algebra and vertex tuple
    and kept in its memo, so equal tuples give the same, shared object."""
    def build():
        p = dict(zip(algebra.quiver.vertices, projectives(algebra)))
        return sum_module(algebra, [p[x] for x in vertices])
    return algebra.cached(("projective_sum", vertices), build)


def injective(algebra: BasicAlgebra, x: str) -> Module:
    """Q(x) = dual of the opposite-algebra projective at x, read from
    `projectives(op)`."""
    op = algebra.opposite()
    return dual(dict(zip(op.quiver.vertices, projectives(op)))[x])


def dual(m: Module) -> Module:
    """Contravariant duality: transposed fibers over the opposite algebra."""
    op = m.algebra.opposite()
    action = {a.name: m.action[a.name].transpose() for a in m.algebra.quiver.arrows}
    return Module(op, dict(m.dims), action, check=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    comps = {v: f.components[v].transpose() for v in f.components}
    return ModuleMap(dual(f.target), dual(f.source), comps, check=False)


# -- sums ---------------------------------------------------------------------

def sum_module(algebra: BasicAlgebra, summands) -> Module:
    """The direct sum of summands (modules over algebra), without the
    inclusions and projections.  It is tagged when every summand is, so
    the zero module it gives for no summands is tagged as the empty sum
    of projectives."""
    field = algebra.field
    dims = {v: sum(s.dims[v] for s in summands) for v in algebra.quiver.vertices}
    action = {}
    for a in algebra.quiver.arrows:
        action[a.name] = Matrix.block_diag(field, [s.action[a.name] for s in summands])
    proj_info = None
    if all(s.proj_info is not None for s in summands):
        verts = []
        labels = {v: [] for v in algebra.quiver.vertices}
        offset = 0
        for s in summands:
            verts.extend(s.proj_info.vertices)
            for v in algebra.quiver.vertices:
                labels[v].extend((offset + i, b) for i, b in s.proj_info.labels[v])
            offset += len(s.proj_info.vertices)
        proj_info = ProjInfo(tuple(verts), labels)
    return Module(algebra, dims, action, check=False, proj_info=proj_info)


def block_map(source: Module, target: Module, src_parts: dict, tgt_parts: dict,
              blocks: dict) -> ModuleMap:
    """The map between the direct sums of src_parts and tgt_parts ({label:
    module}, summed in label order) whose (t, s) block is blocks[t, s], a
    map src_parts[s] -> tgt_parts[t], or zero when absent.  With one part
    on each side the map has the block's own component matrices; with
    more, each vertex's matrix is built row by row from the blocks'
    entries, with zeros written only for absent blocks."""
    if not src_parts or not tgt_parts:
        return zero_map(source, target)
    if len(src_parts) == 1 and len(tgt_parts) == 1:
        block = blocks.get((*tgt_parts, *src_parts))
        if block is None:
            return zero_map(source, target)
        return ModuleMap._built(source, target, dict(block.components))
    field = source.field
    zero = field.zero()
    comps = {}
    for v in source.algebra.quiver.vertices:
        entries = []
        for t, tp in tgt_parts.items():
            row = [(blocks[t, s].components[v].entries if (t, s) in blocks else None,
                    sp.dims[v]) for s, sp in src_parts.items()]
            for i in range(tp.dims[v]):
                for e, w in row:
                    entries += [zero] * w if e is None else e[i * w:(i + 1) * w]
        comps[v] = Matrix(field, target.dims[v], source.dims[v], entries)
    return ModuleMap._built(source, target, comps)


# -- hom spaces ----------------------------------------------------------------

def _subtract_multiple(row: dict, f, other: dict, p: int):
    """row -= f * other on sparse rows {column: coefficient}, in place,
    dropping the entries that become zero (mod p when p > 0)."""
    for col, c in other.items():
        v = row.get(col, 0) - f * c
        if p:
            v %= p
        if v:
            row[col] = v
        else:
            # f * c != 0 in a field, so a zero result means col was present
            del row[col]


def hom_basis(m: Module, n: Module) -> list[ModuleMap]:
    """Basis of Hom(m, n): the reduced kernel basis of the intertwining
    system n_a f_x - f_y m_a = 0, one constraint per arrow a: x -> y and
    entry (i, j).

    The basis is a function of the two modules' contents, so it is built
    once per algebra and content pair: the components are kept in the
    algebra's memo (`BasicAlgebra.cached`) under ("hom", m.content_hash(),
    n.content_hash()), as a tuple of {vertex: matrix} dicts, and no module
    is kept with them.  Each call returns a new list of new maps on the
    caller's own m and n, each with a fresh dict; the maps of all calls
    share the memo's matrices, which are never written (see `Matrix`).

    The unknowns are the entries of the f_v, vertex by vertex in quiver
    order and row-major within a vertex.  Each constraint has at most
    n_x + m_y nonzeros, so it is built as a sparse row and reduced at
    once by Gauss-Jordan against the pivot rows found so far, which are
    kept fully reduced and normalised at their least column.  At the end
    they are the nonzero rows of the system's reduced row echelon form,
    which is unique; so the basis -- for each non-pivot column fc in
    ascending order, e_fc - sum over pivots pc of R_pc[fc] e_pc -- is the
    kernel basis that the dense RREF of the stacked system gives, entry
    for entry, whatever the order in which the constraints arrive.

    Hom is zero, and the result `[]`, when there are no unknowns (no
    vertex where both m and n are nonzero) or as soon as every unknown
    is a pivot column: the kernel is then zero whatever constraints are
    left, so they are not built."""
    if m.algebra is not n.algebra:
        raise ModuleError("hom between different algebras")
    comps = m.algebra.cached(("hom", m.content_hash(), n.content_hash()),
                             lambda: _hom_components(m, n))
    return [ModuleMap._built(m, n, dict(c)) for c in comps]


def _hom_components(m: Module, n: Module) -> tuple[dict, ...]:
    """The components of `hom_basis(m, n)`, one {vertex: matrix} dict per
    basis map: the elimination that its docstring describes."""
    algebra, field = m.algebra, m.field
    p = field.p
    verts = algebra.quiver.vertices
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if not total:
        return ()
    pivots = {}  # least column -> fully reduced row, 1 at that column
    for a in algebra.quiver.arrows:
        x, y = a.source, a.target
        nx, mx, my, ny = n.dims[x], m.dims[x], m.dims[y], n.dims[y]
        if not ny or not mx or not (nx or my):
            continue  # no constraint, or only empty ones
        ox, oy = offsets[x], offsets[y]
        na, ma = n.action[a.name].entries, m.action[a.name].entries
        na_rows = [[(ox + k * mx, c) for k in range(nx) if (c := na[i * nx + k])]
                   for i in range(ny)]
        # the m-part enters each row negated
        ma_cols = [[(k, (p - c if p else -c)) for k in range(my) if (c := ma[k * mx + j])]
                   for j in range(mx)]
        loop = x == y  # only then do the two parts share columns
        for i, n_row in enumerate(na_rows):
            base = oy + i * my
            for j, m_col in enumerate(ma_cols):
                row = {col + j: c for col, c in n_row}
                if loop:
                    for k, c in m_col:
                        col = base + k
                        e = row.get(col, 0) + c
                        if p:
                            e %= p
                        if e:
                            row[col] = e
                        else:
                            del row[col]
                else:
                    for k, c in m_col:
                        row[base + k] = c
                for pc in [pc for pc in row if pc in pivots]:
                    _subtract_multiple(row, row[pc], pivots[pc], p)
                if not row:
                    continue
                lead = min(row)
                inv = field.inv(row[lead])
                if inv != 1:
                    row = {col: (c * inv % p if p else c * inv) for col, c in row.items()}
                for prow in [prow for prow in pivots.values() if lead in prow]:
                    _subtract_multiple(prow, prow[lead], row, p)
                pivots[lead] = row
                if len(pivots) == total:
                    return ()
    # kernel vector of free column fc: 1 at fc, -R_pc[fc] at each pivot pc
    minus = {}
    for pc, prow in pivots.items():
        for col, c in prow.items():
            if col != pc:
                minus.setdefault(col, []).append((pc, (p - c) if p else -c))
    zero, one = field.zero(), field.one()
    shapes = [(v, offsets[v], n.dims[v], m.dims[v]) for v in verts]
    # the maps share one matrix at each vertex where it has no entries
    empty = {v: _matrix(field, rows, cols, []) for v, _, rows, cols in shapes if not rows * cols}
    out = []
    for fc in range(total):
        if fc in pivots:
            continue
        vec = [zero] * total
        vec[fc] = one
        for pc, c in minus.get(fc, ()):
            vec[pc] = c
        out.append({v: empty[v] if v in empty else
                    _matrix(field, rows, cols, vec[o:o + rows * cols])
                    for v, o, rows, cols in shapes})
    return tuple(out)


def free_columns(basis: list[ModuleMap]) -> list[int]:
    """The free column fc of each map of a `hom_basis`, in basis order.

    Map k is e_fc - sum R_pc[fc] e_pc over pivots pc < fc, so fc is the
    last nonzero entry of its `map_vector`, and the basis is the identity
    on these positions: the coordinates of a map in the span are its
    entries there."""
    out = []
    for b in basis:
        vec = map_vector(b)
        out.append(max(i for i, e in enumerate(vec) if e))
    return out


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_basis(m, n))


def map_vector(f: ModuleMap) -> list:
    """The entries of f, vertex by vertex in quiver order."""
    return [e for v in f.source.algebra.quiver.vertices for e in f.components[v].entries]


def coordinates_matrix(maps: list[ModuleMap], family: list[ModuleMap]) -> Matrix:
    """Column t holds the coordinates c with maps[t] = sum c_k family[k],
    all from one solve; raises NoSolution when some map is outside the
    span.  `maps` is nonempty; the family may be dependent (free
    coordinates are 0) or empty (then every map must be zero)."""
    field = maps[0].source.field
    if not family:
        if all(f.is_zero() for f in maps):
            return Matrix.zero(field, 0, len(maps))
        raise NoSolution()
    targets = [map_vector(f) for f in maps]
    cols = [map_vector(g) for g in family]
    rows = len(targets[0])
    mat = Matrix(field, rows, len(cols), [col[r] for r in range(rows) for col in cols])
    rhs = Matrix(field, rows, len(targets), [vec[r] for r in range(rows) for vec in targets])
    return mat.solve(rhs)


def map_coordinates(f: ModuleMap, family: list[ModuleMap]) -> list:
    """Coordinates c with f = sum c_k family[k]: the one-map case of
    `coordinates_matrix`."""
    return coordinates_matrix([f], family).col(0)


def in_span(f: ModuleMap, family: list[ModuleMap]) -> bool:
    """Is f a linear combination of the family?"""
    try:
        map_coordinates(f, family)
    except NoSolution:
        return False
    return True


def map_from_coordinates(coords, basis: list[ModuleMap]) -> ModuleMap:
    out = zero_map(basis[0].source, basis[0].target)
    for c, g in zip(coords, basis):
        if c != basis[0].source.field.zero():
            out = out + g.scale(c)
    return out


def random_scalar(field, rng, bound: int):
    """One scalar drawn from `rng`: uniform over GF(p), an integer in
    [-bound, bound] over Q."""
    if field.is_prime_field:
        return field.from_int(rng.randrange(field.p))
    return field.from_int(rng.randrange(-bound, bound + 1))


def random_combination(basis: list[ModuleMap], rng, bound: int) -> ModuleMap:
    """A combination of a nonempty basis with coefficients drawn by
    `random_scalar`."""
    field = basis[0].source.field
    return map_from_coordinates([random_scalar(field, rng, bound) for _ in basis], basis)


# -- sub and quotient structures ----------------------------------------------

def _independent(m: Module, subspaces) -> dict:
    """The `column_space_basis` of each vertex's columns (d x 0 if none)."""
    spans = {}
    for v in m.algebra.quiver.vertices:
        b = subspaces.get(v)
        spans[v] = b.column_space_basis() if b is not None and b.cols else Matrix.zero(
            m.field, m.dims[v], 0)
    return spans


def submodule(m: Module, subspaces):
    """Submodule on given fiber subspaces (columns of each Matrix).

    `_saturate` runs on their `column_space_basis`; the spaces must be
    arrow-stable, or a span grows and ModuleError is raised.  Returns
    (sub, inclusion)."""
    return _stable(m, _independent(m, subspaces))


def _stable(m: Module, spans: dict):
    """`_saturate` on independent spans that no arrow may grow."""
    sub, incl, grew = _saturate(m, spans)
    if grew is not None:
        raise ModuleError(f"subspaces not stable under arrow {grew}")
    return sub, incl


def _pushed_coordinates(reduced: Matrix, pivots: tuple, start: int) -> list:
    """The coordinates of columns start.. of [span | images] on the span's
    pivot columns, read from its rref `reduced`: an image at a pivot is
    that pivot's unit vector, any other image is the top len(pivots)
    entries of its rref column."""
    field, width, rank = reduced.field, reduced.cols, len(pivots)
    at_pivot = {c: r for r, c in enumerate(pivots)}
    e, out = reduced.entries, []
    for c in range(start, width):
        if c in at_pivot:
            col = [field.zero()] * rank
            col[at_pivot[c]] = field.one()
        else:
            col = e[c:rank * width:width]
        out.append(col)
    return out


def _saturate(m: Module, spans: dict):
    """(sub, inclusion, grew): the smallest submodule containing the
    independent spans, one Matrix per vertex, and the name of the first
    arrow whose push grew a span (None when the spans are arrow-stable).

    Each span grows only by appending columns, so the columns that an
    arrow has already pushed are a prefix of its source span.  Their
    images lie in the target span, which only grows, so pushing them
    again adds no pivot and moves none: each arrow pushes only the
    source columns added since its last push, and every span comes out
    column for column as when whole spans are pushed on every pass.

    The induced action is read off the same reductions.  A push row
    reduces [target span | images], whose span columns are all pivots;
    the new span is its pivot columns, so each image's coordinates on
    the new span are its rref column (`_pushed_coordinates`), and they
    stay its coordinates, padded with zeros, as the span grows.  The
    spans are independent, so these coordinates are the unique solution
    of target span @ X = images.  One product per arrow checks them
    against the images pushed.
    """
    algebra, field = m.algebra, m.field
    spans = dict(spans)
    arrows = algebra.quiver.arrows
    images = {a.name: [] for a in arrows}  # the pushed chunks, in order
    coords = {a.name: [] for a in arrows}  # one coordinate list per pushed column
    grew, changed = None, True
    while changed:
        changed = False
        for a in arrows:
            source, done = spans[a.source], len(coords[a.name])
            if source.cols == done:
                continue
            fresh = source if not done else source.submatrix(range(source.rows),
                                                             range(done, source.cols))
            mapped = m.action[a.name] @ fresh
            target = spans[a.target]
            joined = Matrix.hstack([target, mapped])
            reduced, pivots, _ = joined.rref()
            images[a.name].append(mapped)
            coords[a.name].extend(_pushed_coordinates(reduced, pivots, target.cols))
            if len(pivots) != target.cols:
                spans[a.target] = joined.submatrix(range(joined.rows), pivots)
                grew, changed = grew or a.name, True
    zero, action = field.zero(), {}
    for a in arrows:
        rank, read = spans[a.target].cols, coords[a.name]
        padded = [col + [zero] * (rank - len(col)) for col in read]
        x = Matrix(field, rank, len(read), [e for row in zip(*padded) for e in row])
        if read and spans[a.target] @ x != Matrix.hstack(images[a.name]):
            raise ModuleError(f"read coordinates fail under arrow {a.name}")
        action[a.name] = x
    sub = Module(algebra, {v: spans[v].cols for v in spans}, action, check=False)
    return sub, ModuleMap(sub, m, spans, check=False), grew


def spanned_submodule(m: Module, vectors):
    """Smallest submodule containing the given fiber vectors.

    `vectors` maps vertex -> Matrix whose columns are elements of the
    fiber; `_saturate` closes their `column_space_basis` under all arrow
    actions.
    """
    sub, incl, _ = _saturate(m, _independent(m, vectors))
    return sub, incl


def quotient(m: Module, incl: ModuleMap):
    """Quotient of m by the image of an inclusion; returns (quot, proj)."""
    algebra, field = m.algebra, m.field
    proj_comp, section = {}, {}
    dims = {}
    for v in algebra.quiver.vertices:
        b = incl.components[v].column_space_basis()
        d, k = m.dims[v], b.cols
        c_basis = complement_basis(b)
        basis = Matrix.hstack([b, c_basis]) if k else c_basis
        inv = basis.inverse() if basis.cols else Matrix.zero(field, 0, d)
        pi = inv.submatrix(range(k, d), range(d)) if basis.cols else Matrix.zero(field, 0, d)
        proj_comp[v] = pi
        section[v] = c_basis
        dims[v] = d - k
    action = {}
    for a in algebra.quiver.arrows:
        action[a.name] = proj_comp[a.target] @ m.action[a.name] @ section[a.source]
    quot = Module(algebra, dims, action, check=False)
    return quot, ModuleMap(m, quot, proj_comp, check=False)


def kernel_of_map(f: ModuleMap):
    """Kernel submodule with inclusion (exact per vertex)."""
    spaces = {v: f.components[v].kernel_basis() for v in f.components}
    return submodule(f.source, spaces)


def image_of_map(f: ModuleMap):
    """Image submodule of the target with inclusion."""
    return submodule(f.target, f.components)


# -- radical / socle machinery ---------------------------------------------------

def radical_spaces(m: Module) -> dict:
    """rad M_v for each vertex v: the images of the arrows into v side by
    side (a d_v x 0 matrix where there are none)."""
    quiver = m.algebra.quiver
    return {v: Matrix.hstack([Matrix.zero(m.field, m.dims[v], 0)]
                             + [m.action[a.name] for a in quiver.arrows_to(v)])
            for v in quiver.vertices}


def radical(m: Module):
    """rad M = sum of arrow-action images (admissible quotients)."""
    return submodule(m, radical_spaces(m))


def top_support(m: Module) -> set:
    """The vertices v where top M = M / rad M is nonzero: those where
    rad M_v has rank below dim M_v."""
    return {v for v, span in radical_spaces(m).items() if span.rank() < m.dims[v]}


def socle(m: Module):
    """soc M = joint kernel of all arrow actions."""
    algebra, field = m.algebra, m.field
    spaces = {}
    for v in algebra.quiver.vertices:
        outgoing = [m.action[a.name] for a in algebra.quiver.arrows_from(v)]
        if outgoing:
            spaces[v] = Matrix.vstack(outgoing).kernel_basis()
        else:
            spaces[v] = Matrix.identity(field, m.dims[v])
    return submodule(m, spaces)


def top(m: Module):
    """(top M, projection M -> top M)."""
    _, incl = radical(m)
    return quotient(m, incl)


def socle_series(m: Module):
    """[(soc^t m, inclusion into m) for t = 1 .. LL(m)].

    soc^t M, the preimage in M of the socle of M / soc^(t-1) M, is
    ann_M(J^t): the vectors of each M_v that every path of length t out
    of v kills (a longer path starts with one of length t).  R_t(v), the
    nonzero rows of the rref of those paths' actions stacked, is read
    off the previous step: the length-t paths out of v are the length
    t-1 paths out of w after an arrow a: v -> w, and the row space of
    [X M_a] depends only on the row space of X, so R_t(v) is the rref of
    the R_(t-1)(w) M_a stacked over the arrows a: v -> w (R_1(v) that of
    the actions M_a).  Each term has the kernel of R_t(v) at v.

    The basis is the one the quotient route gave -- the kernel of the
    composite M -> M/soc^(t-1) -> (M/soc^(t-1))/soc at each vertex, and
    `socle`'s kernel for t = 1 -- because a reduced kernel basis, the
    identity at the free columns of the rref of any matrix with that
    kernel, depends only on the kernel.  So every inclusion and every
    content hash is the same.  The kernel bases are independent, so they
    go to `_saturate` unreduced; a term that is not arrow-stable raises
    ModuleError.

    The series grows at every step until it reaches m, so its length is
    the Loewy length of a nonzero m."""
    quiver = m.algebra.quiver
    out = {v: [(a.target, m.action[a.name]) for a in quiver.arrows_from(v)]
           for v in quiver.vertices}
    actions = {v: [act for _, act in out[v]] for v in quiver.vertices}
    series = []
    while True:
        rows, kernels = {}, {}
        for v in quiver.vertices:
            stacked = (Matrix.vstack(actions[v]) if actions[v]
                       else Matrix.zero(m.field, 0, m.dims[v]))
            reduced, _, rank = stacked.rref()
            rows[v] = reduced.submatrix(range(rank), range(stacked.cols))
            kernels[v] = rows[v].kernel_basis()
        series.append(_stable(m, kernels))
        if series[-1][0].total_dim() == m.total_dim():
            return series
        actions = {v: [rows[w] @ act for w, act in out[v]] for v in quiver.vertices}
