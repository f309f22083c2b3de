"""Finite-dimensional representations of a basic algebra.

A Module assigns an exact matrix to every arrow (fiber(source) ->
fiber(target), columns indexed by the source basis); every relation of
the algebra is checked to vanish on construction.  A ModuleMap is a
vertex-indexed family of matrices intertwining the arrow actions.

Projective modules carry a `proj_info` structural tag (ordered list of
generating vertices plus path labels per fiber) that later lets the
Nakayama functor act combinatorially on maps between projectives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BasicAlgebra
from .matrix import Matrix, NoSolution


class ModuleError(ValueError):
    pass


@dataclass
class ProjInfo:
    """P = (+) P(vertex_i); labels[v] lists (summand index, basis path index
    in the algebra) for each fiber basis vector, in fiber order."""

    vertices: tuple[str, ...]
    labels: dict  # vertex -> list[(summand_idx, algebra basis idx)]


class Module:
    __slots__ = ("algebra", "dims", "action", "proj_info")

    def __init__(self, algebra: BasicAlgebra, dims, action, check: bool = True,
                 proj_info: ProjInfo | None = None):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
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
        arrows = [self.algebra.quiver.arrow(name) for name in path]
        m = self.action[arrows[0].name]
        for a in arrows[1:]:
            m = self.action[a.name] @ m
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
        import hashlib
        import json
        payload = {
            "dims": {v: self.dims[v] for v in self.algebra.quiver.vertices},
            "action": {a.name: self.action[a.name].to_strings()
                       for a in self.algebra.quiver.arrows},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class ModuleMap:
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
        comps = {v: other.components[v] @ self.components[v] for v in self.components}
        return ModuleMap(self.source, other.target, comps, check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        comps = {v: self.components[v] + other.components[v] for v in self.components}
        return ModuleMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        comps = {v: self.components[v] - other.components[v] for v in self.components}
        return ModuleMap(self.source, self.target, comps, check=False)

    def scale(self, c) -> "ModuleMap":
        comps = {v: self.components[v].scale(c) for v in self.components}
        return ModuleMap(self.source, self.target, comps, check=False)

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
    return ModuleMap(m, m, comps, check=False)


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
    """[P(x) for x in the vertices], built once per algebra and cached on
    it as `_projective_modules`; callers share these objects and must not
    mutate them.  `projective` still builds a fresh module on each call."""
    cache = getattr(algebra, "_projective_modules", None)
    if cache is None:
        cache = [projective(algebra, x) for x in algebra.quiver.vertices]
        algebra._projective_modules = cache
    return cache


def injective(algebra: BasicAlgebra, x: str) -> Module:
    """Q(x) = dual of the opposite-algebra projective at x."""
    return dual(projective(algebra.opposite(), x))


def regular_module(algebra: BasicAlgebra):
    """(+) P(x) over all vertices, with the summand inclusions."""
    return direct_sum(projectives(algebra))


def dual(m: Module) -> Module:
    """Contravariant duality: transposed fibers over the opposite algebra."""
    op = m.algebra.opposite()
    action = {a.name: m.action[a.name].transpose() for a in m.algebra.quiver.arrows}
    return Module(op, dict(m.dims), action, check=False)


def dual_map(f: ModuleMap) -> ModuleMap:
    comps = {v: f.components[v].transpose() for v in f.components}
    return ModuleMap(dual(f.target), dual(f.source), comps, check=False)


# -- sums ---------------------------------------------------------------------

def direct_sum(summands):
    """Returns (sum, inclusions, projections); empty input gives the zero
    module over no algebra and is rejected."""
    if not summands:
        raise ModuleError("direct_sum of nothing (pass the algebra's zero module)")
    algebra = summands[0].algebra
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
    total = Module(algebra, dims, action, check=False, proj_info=proj_info)
    inclusions, projections = [], []
    for k, s in enumerate(summands):
        inc, prj = {}, {}
        for v in algebra.quiver.vertices:
            before = sum(t.dims[v] for t in summands[:k])
            inc_m = Matrix.zero(field, dims[v], s.dims[v])
            prj_m = Matrix.zero(field, s.dims[v], dims[v])
            for i in range(s.dims[v]):
                inc_m[before + i, i] = field.one()
                prj_m[i, before + i] = field.one()
            inc[v] = inc_m
            prj[v] = prj_m
        inclusions.append(ModuleMap(s, total, inc, check=False))
        projections.append(ModuleMap(total, s, prj, check=False))
    return total, inclusions, projections


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

    The unknowns are the entries of the f_v, vertex by vertex in quiver
    order and row-major within a vertex.  Each constraint has at most
    n_x + m_y nonzeros, so it is built as a sparse row and reduced at
    once by Gauss-Jordan against the pivot rows found so far, which are
    kept fully reduced and normalised at their least column.  At the end
    they are the nonzero rows of the system's reduced row echelon form,
    which is unique; so the basis -- for each non-pivot column fc in
    ascending order, e_fc - sum over pivots pc of R_pc[fc] e_pc -- is the
    kernel basis that the dense RREF of the stacked system gives, entry
    for entry, whatever the order in which the constraints arrive."""
    if m.algebra is not n.algebra:
        raise ModuleError("hom between different algebras")
    algebra, field = m.algebra, m.field
    p = field.p
    verts = list(algebra.quiver.vertices)
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    pivots = {}  # least column -> fully reduced row, 1 at that column
    for a in algebra.quiver.arrows:
        x, y = a.source, a.target
        nx, mx, my = n.dims[x], m.dims[x], m.dims[y]
        ox, oy = offsets[x], offsets[y]
        na, ma = n.action[a.name].entries, m.action[a.name].entries
        na_rows = [[(ox + k * mx, c) for k in range(nx) if (c := na[i * nx + k])]
                   for i in range(n.dims[y])]
        ma_cols = [[(k, c) for k in range(my) if (c := ma[k * mx + j])]
                   for j in range(mx)]
        for i, n_row in enumerate(na_rows):
            base = oy + i * my
            for j, m_col in enumerate(ma_cols):
                row = {col + j: c for col, c in n_row}
                # the two parts share columns only on a loop (x == y)
                _subtract_multiple(row, 1, {base + k: c for k, c in m_col}, p)
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
    # kernel vector of free column fc: 1 at fc, -R_pc[fc] at each pivot pc
    minus = {}
    for pc, prow in pivots.items():
        for col, c in prow.items():
            if col != pc:
                minus.setdefault(col, []).append((pc, (-c) % p if p else -c))
    zero, one = field.zero(), field.one()
    maps = []
    for fc in range(total):
        if fc in pivots:
            continue
        vec = [zero] * total
        vec[fc] = one
        for pc, c in minus.get(fc, ()):
            vec[pc] = c
        comps = {v: Matrix(field, n.dims[v], m.dims[v],
                           vec[offsets[v]:offsets[v] + n.dims[v] * m.dims[v]])
                 for v in verts}
        maps.append(ModuleMap(m, n, comps, check=False))
    return maps


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

def submodule(m: Module, subspaces, check: bool = True):
    """Submodule on given fiber subspaces (columns of each Matrix).

    The spaces must be arrow-stable; induced action is solved exactly.
    Returns (sub, inclusion).
    """
    algebra, field = m.algebra, m.field
    bases = {}
    for v in algebra.quiver.vertices:
        b = subspaces.get(v)
        if b is None:
            b = Matrix.zero(field, m.dims[v], 0)
        bases[v] = b.column_space_basis() if b.cols else b
    dims = {v: bases[v].cols for v in bases}
    action = {}
    for a in algebra.quiver.arrows:
        mapped = m.action[a.name] @ bases[a.source]
        try:
            action[a.name] = bases[a.target].solve(mapped)
        except NoSolution:
            raise ModuleError(f"subspaces not stable under arrow {a.name}") from None
    sub = Module(algebra, dims, action, check=check)
    incl = ModuleMap(sub, m, dict(bases), check=check)
    return sub, incl


def spanned_submodule(m: Module, vectors):
    """Smallest submodule containing the given fiber vectors.

    `vectors` maps vertex -> Matrix whose columns are elements of the
    fiber; closure under all arrow actions is computed by saturation.
    """
    algebra, field = m.algebra, m.field
    spans = {}
    for v in algebra.quiver.vertices:
        b = vectors.get(v)
        spans[v] = b.column_space_basis() if b is not None and b.cols else Matrix.zero(field, m.dims[v], 0)
    changed = True
    while changed:
        changed = False
        for a in algebra.quiver.arrows:
            if spans[a.source].cols == 0:
                continue
            mapped = m.action[a.name] @ spans[a.source]
            joined = Matrix.hstack([spans[a.target], mapped]).column_space_basis()
            if joined.cols != spans[a.target].cols:
                spans[a.target] = joined
                changed = True
    return submodule(m, spans, check=False)


def quotient(m: Module, incl: ModuleMap):
    """Quotient of m by the image of an inclusion; returns (quot, proj)."""
    from .matrix import complement_basis
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
    return submodule(f.source, spaces, check=False)


def image_of_map(f: ModuleMap):
    """Image submodule of the target with inclusion."""
    spaces = {v: f.components[v].column_space_basis() for v in f.components}
    return submodule(f.target, spaces, check=False)


# -- radical / socle machinery ---------------------------------------------------

def radical(m: Module):
    """rad M = sum of arrow-action images (admissible quotients)."""
    algebra, field = m.algebra, m.field
    spans = {v: Matrix.zero(field, m.dims[v], 0) for v in algebra.quiver.vertices}
    for a in algebra.quiver.arrows:
        spans[a.target] = Matrix.hstack([spans[a.target], m.action[a.name]])
    spaces = {v: spans[v].column_space_basis() for v in spans}
    return submodule(m, spaces, check=False)


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
    return submodule(m, spaces, check=False)


def top(m: Module):
    """(top M, projection M -> top M)."""
    _, incl = radical(m)
    return quotient(m, incl)


def socle_series(m: Module):
    """[(soc^t m, inclusion into m) for t = 1 .. LL(m)], each term the
    preimage in m of the socle of m / soc^(t-1) m.

    The series grows at every step until it reaches m, so its length is
    the Loewy length of a nonzero m."""
    series = [socle(m)]
    while series[-1][0].total_dim() < m.total_dim():
        quot, proj = quotient(m, series[-1][1])
        _, socle_incl = socle(quot)
        _, proj2 = quotient(quot, socle_incl)
        series.append(kernel_of_map(proj.then(proj2)))
    return series
