"""The endomorphism category of a module list and its global dimension.

Gamma = End((+) M_i) is handled functorially on add(M): functors are
sums of representables Hom(-, M_i) together with coordinate subspaces,
the radical consists of the non-isomorphisms (exact by Krull-Schmidt),
and projective dimensions of the simple functors come from iterated
minimal covers.  Gamma is never realized as a path-algebra quotient.

Gamma's composition is stored as a tensor on the Hom bases: for each
triple (i, j, c), `CatAlgebra.compose_into` gives one matrix T_k per
basis map h_k of Hom(M_i, M_j), the matrix of g -> h_k.then(g):
Hom(M_j, M_c) -> Hom(M_i, M_c), and the CatAlgebra caches it
(`composition`).  Coordinates on a basis are read, not solved for: each
Hom(M_i, M_c) basis has a set of entries at which it is invertible (on a
`hom_basis`, its free columns, where it is the identity), so T_k needs
only those entries of the products g_v h_v.  Each Hom basis lists the
radical maps first (`AddCategory`), so the radical of Gamma acts by the
first matrices of each tensor.

A subfunctor lives on (+)_c Hom(-, M_c)^mults[c].  Its ambient
coordinates at object i are ordered by object c, then by basis map of
Hom(M_i, M_c), then by copy; so the rows of block c of k vectors, read
row-major, form a hom(i, c) x (mults[c] k) matrix, and one product with
T_k moves every copy and every vector along h_k at once (`_pullback`).
Each space K(i) also records the rows at which it is the identity, so the
coordinates of a vector of K(i) are its entries at those rows.

The first syzygy of the simple functor at c, rad Hom(-, M_c), is the
radical prefix of each hom(i, c), the identity at its first rows
(`simple_pd`).  In each later step (`syzygy`), one rref of
[radical images | K(i)] per object i picks the cover's generators from
K(i) at its pivots past the images, and its rank is dim K(i) exactly when
the images lie in K(i).  The radical images are the K(j) moved only along
the irreducible maps M_i -> M_j, a basis of rad/rad^2 per pair
(`CatAlgebra.irreducible`, read off the composition tensor); they span
rad K(i) because K is a subfunctor (`syzygy`).  Phi_j, the cover's map
onto K(j) in K(j)'s coordinates, is the cover images at K(j)'s identity
rows, and one rref of Phi_j gives the next K(j) and its identity rows,
Phi_j's free columns.
Nothing checks that the cover images lie in K(j), which holds when every
K(j) is a subfunctor; `global_dimension` checks instead that each
finished resolution satisfies the Euler identity of an exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .approx import AddCategory
from .decompose import is_indecomposable, is_isomorphic, decompose
from .matrix import Matrix
from .module import Module, hom_basis, injectives, map_vector, projectives, top_support
from .torsfin import ClassList, IncompleteInventory, TorsionlessInventory

# hom_basis is re-exported: qcbench's tracer test checks that the alias
# `endcat.hom_basis` is patched and restored.
__all__ = [
    "CatAlgebra", "DuplicateObject", "NotIndecomposable", "SubFunctor",
    "auslander_generator", "global_dimension", "hom_basis", "layering_check",
    "simple_pd", "syzygy",
]


class NotIndecomposable(ValueError):
    pass


class DuplicateObject(ValueError):
    pass


class CatAlgebra(AddCategory):
    """add(M) presented by objects, Hom bases, and composition data."""

    def __init__(self, objects: list[Module], verify: bool = True):
        if not objects:
            raise NotIndecomposable("empty object list")
        if verify:
            for m in objects:
                if not is_indecomposable(m):
                    raise NotIndecomposable(f"object {m.dim_vector()} decomposes")
            for i in range(len(objects)):
                for j in range(i + 1, len(objects)):
                    ok, _ = is_isomorphic(objects[i], objects[j],
                                          assume_indecomposable=True)
                    if ok:
                        raise DuplicateObject(
                            f"objects {i} and {j} are isomorphic")
        super().__init__(objects)
        self.field = self.algebra.field
        self._compose = {}
        self._readers = {}
        self._irreducible = {}

    def __len__(self):
        return len(self.objects)

    def composition(self, i: int, j: int, c: int) -> list[Matrix]:
        """The cached `compose_into(i, j, c)`."""
        key = (i, j, c)
        if key not in self._compose:
            self._compose[key] = self.compose_into(i, j, c)
        return self._compose[key]

    def irreducible(self, i: int, j: int) -> list[int]:
        """Indices, in the radical prefix of `hom(i, j)`, of basis maps that
        span rad/rad^2 at (i, j), the irreducible maps M_i -> M_j (the
        arrows of Gamma's quiver), cached.  rad^2(M_i, M_j) is spanned by
        the products s.t, t in rad(M_i, M_l) and s in rad(M_l, M_j), whose
        coordinates are the radical rows and radical columns of
        `composition(i, l, j)[t]`; one rref of [rad^2 | the prefix's unit
        columns] keeps the unit columns at its pivots past rad^2.

        Let I be the span of the chosen maps over all pairs and J Gamma's
        radical.  Then J = I + J^2, and J is nilpotent, so J = I + J I:
        every radical map r: M_i -> M_j is a sum of maps s.t with t in
        I(M_i, M_l) and s: M_l -> M_j.  That is what lets `syzygy` move a
        subfunctor along the chosen maps only."""
        key = (i, j)
        if key not in self._irreducible:
            size = len(self.radical_maps(i, j))
            squares = []
            for l in range(len(self)):
                left, right = len(self.radical_maps(i, l)), len(self.radical_maps(l, j))
                if size and left and right:
                    squares.extend(t.submatrix(range(size), range(right))
                                   for t in self.composition(i, l, j)[:left])
            width = sum(m.cols for m in squares)
            _, pivots, _ = Matrix.hstack(squares + [Matrix.identity(self.field, size)]).rref()
            self._irreducible[key] = [c - width for c in pivots if c >= width]
        return self._irreducible[key]

    def _reader(self, i: int, c: int):
        """(positions, inverse), cached: the entries (v, r, s) of a map
        M_i -> M_c at which the Hom(M_i, M_c) basis B is invertible, and
        the inverse of B there, or None where B is the identity there.
        The positions are the pivots of one rref of the basis's map
        vectors taken right to left; on a `hom_basis`, whose maps are
        e_fc - sum R_pc[fc] e_pc with pc < fc, they are its free columns
        fc.  A map f in the span has coordinates inverse @ f[positions]."""
        key = (i, c)
        if key not in self._readers:
            basis = self.hom(i, c)
            positions, inverse = [], None
            if basis:
                vecs = [map_vector(f) for f in basis]
                length = len(vecs[0])
                _, pivots, _ = Matrix(self.field, len(vecs), length,
                                      [x for vec in vecs for x in reversed(vec)]).rref()
                flat = sorted(length - 1 - q for q in pivots)
                at = Matrix(self.field, len(flat), len(vecs),
                            [vec[q] for q in flat for vec in vecs])
                if not at.is_identity():
                    inverse = at.inverse()
                source, target = self.objects[i], self.objects[c]
                start = 0
                for v in self.algebra.quiver.vertices:
                    width, size = source.dims[v], source.dims[v] * target.dims[v]
                    positions.extend((v, *divmod(q - start, width))
                                     for q in flat if start <= q < start + size)
                    start += size
            self._readers[key] = positions, inverse
        return self._readers[key]

    def compose_into(self, i: int, j: int, c: int) -> list[Matrix]:
        """One matrix T_k per basis map h_k of Hom(M_i, M_j): the matrix of
        g -> h_k.then(g): Hom(M_j, M_c) -> Hom(M_i, M_c) on the Hom bases.
        No product h_k.then(g) is formed: only its entries (g_v h_v)[r, s]
        at the `_reader` positions of Hom(M_i, M_c), each one dot product,
        and the coordinates are those entries (times the reader's inverse
        where the basis is not the identity there)."""
        left, right, target = self.hom(i, j), self.hom(j, c), self.hom(i, c)
        width = len(right)
        if not left or not right:
            return [Matrix.zero(self.field, len(target), width) for _ in left]
        positions, inverse = self._reader(i, c)
        p, zero, middle = self.field.p, self.field.zero(), self.objects[j].dims
        entries = [[] for _ in left]
        for v, r, s in positions:
            size, stride = middle[v], self.objects[i].dims[v]
            rows = [g.components[v].entries[r * size:(r + 1) * size] for g in right]
            for out, h in zip(entries, left):
                col = h.components[v].entries[s::stride]
                if p:
                    out.extend(sum(map(mul, row, col)) % p for row in rows)
                else:
                    out.extend(sum(map(mul, row, col), zero) for row in rows)
        tensor = [Matrix(self.field, len(positions), width, out) for out in entries]
        if inverse is None:
            return tensor
        return [inverse @ t for t in tensor]


@dataclass
class SubFunctor:
    """Coordinate subspaces of (+)_c Hom(-, M_c)^mults[c]."""

    mults: list  # per object c: copies of Hom(-, M_c)
    spaces: list  # per object i: Matrix (ambient F(i) dim x k_i)
    identity_rows: list  # per object i: the k_i rows where spaces[i] is I

    def dim_at(self, i: int) -> int:
        return self.spaces[i].cols

    def is_zero(self) -> bool:
        return not any(m.cols for m in self.spaces)


def _pullback(cat: CatAlgebra, mults, i: int, j: int, h: int, vecs: Matrix) -> Matrix:
    """Columns of `vecs` in the ambient at j, moved to the ambient at i
    along the h-th basis map of Hom(M_i, M_j): one product per object."""
    out, start, rows, width = [], 0, 0, vecs.cols
    for c, mult in enumerate(mults):
        if not mult:
            continue
        act = cat.composition(i, j, c)[h]
        size = act.cols * mult * width
        block = Matrix(cat.field, act.cols, mult * width, vecs.entries[start:start + size])
        out.extend((act @ block).entries)
        start += size
        rows += act.rows * mult
    return Matrix(cat.field, rows, width, out)


def syzygy(cat: CatAlgebra, sub: SubFunctor):
    """(next subfunctor, betti vector) for one minimal-cover step: the
    cover (+)_i Hom(-, M_i)^betti[i] has one copy per generator of sub at
    i outside rad K(i), the span of the K(j) moved along the radical maps
    M_i -> M_j; Phi_j maps its ambient at j onto sub's coordinates K(j),
    read off the images of the generators at K(j)'s identity rows, and its
    kernel, the identity at Phi_j's free columns, is the next subfunctor.
    The images are not checked to lie in K(j): sub must be a subfunctor,
    as every syzygy is (`global_dimension` checks the finished table).

    rad K(i) is spanned by the K(j) moved along the irreducible maps alone
    (`CatAlgebra.irreducible`): a radical map r: M_i -> M_j is a sum of
    maps s.t with t irreducible, t: M_i -> M_l, and s*K(j) lies in K(l)
    because K is a subfunctor, so r*K(j) lies in the sum of the t*K(l).
    The pivots past the images depend only on their span, so the
    generators are those the images along every radical map would give.
    The rank check ("radical escaped the subfunctor") tests the
    irreducible images."""
    n = len(cat)
    generators = []
    for i, space in enumerate(sub.spaces):
        images = [_pullback(cat, sub.mults, i, j, r, sub.spaces[j])
                  for j in range(n) if space.cols and sub.dim_at(j)
                  for r in cat.irreducible(i, j)]
        if images:
            width = sum(m.cols for m in images)
            _, pivots, rank = Matrix.hstack(images + [space]).rref()
            if rank != space.cols:
                raise RuntimeError("radical escaped the subfunctor")
            space = space.submatrix(range(space.rows), [c - width for c in pivots if c >= width])
        generators.append(space)
    betti = [g.cols for g in generators]
    spaces, rows = [], []
    for j in range(n):
        cols = [_pullback(cat, sub.mults, j, i, h, generators[i])
                for i in range(n) if betti[i]
                for h in range(len(cat.hom(j, i)))]
        if cols:
            images = Matrix.hstack(cols)
            phi = images.submatrix(sub.identity_rows[j], range(images.cols))
        else:
            phi = Matrix.zero(cat.field, sub.dim_at(j), 0)
        space, free = phi.kernel_and_free()
        spaces.append(space)
        rows.append(free)
    return SubFunctor(betti, spaces, rows), betti


def simple_pd(cat: CatAlgebra, c: int, cutoff: int):
    """(pd or None if > cutoff, betti table). pd of the simple functor at
    object c via iterated minimal covers."""
    mults = [1 if i == c else 0 for i in range(len(cat))]
    betti_table = [mults]
    spaces, rows = [], []  # rad Hom(-, M_c): the radical prefix of each hom(i, c)
    for i in range(len(cat)):
        size, prefix = len(cat.hom(i, c)), range(len(cat.radical_maps(i, c)))
        spaces.append(Matrix.identity(cat.field, size).submatrix(range(size), prefix))
        rows.append(list(prefix))
    omega = SubFunctor(mults, spaces, rows)
    k = 0
    while True:
        if omega.is_zero():
            return k, betti_table
        if k >= cutoff:
            return None, betti_table
        omega, betti = syzygy(cat, omega)
        betti_table.append(betti)
        k += 1


def _check_euler(cat: CatAlgebra, pds, tables):
    """Raise RuntimeError unless every finished resolution of a simple
    functor S_c has the dimensions of an exact sequence: at each object j,
    sum_k (-1)^k sum_i betti_k[i] dim Hom(M_j, M_i) = dim S_c(M_j), which
    is dim End(M_c)/rad when j = c and 0 otherwise.  Every Hom basis it
    reads was built by `simple_pd`'s first syzygies."""
    n = len(cat)
    sizes = [[len(cat.hom(j, i)) for i in range(n)] for j in range(n)]
    for c, (pd, table) in enumerate(zip(pds, tables)):
        if pd is None:
            continue
        euler = [sum(betti[i] if k % 2 == 0 else -betti[i] for k, betti in enumerate(table))
                 for i in range(n)]
        top = len(cat.hom(c, c)) - len(cat.radical_maps(c, c))
        for j in range(n):
            if sum(map(mul, sizes[j], euler)) != (top if j == c else 0):
                raise RuntimeError(
                    f"the resolution of the simple functor at {c} is not exact at object {j}")


def global_dimension(cat: CatAlgebra, cutoff: int | None = None):
    """(value or None if above cutoff, per-object pd list, betti tables);
    raises RuntimeError when a finished betti table fails the Euler
    identity (`_check_euler`)."""
    if cutoff is None:
        cutoff = 2 * len(cat) + 2
    pds = []
    tables = []
    for c in range(len(cat)):
        pd, table = simple_pd(cat, c, cutoff)
        pds.append(pd)
        tables.append(table)
    _check_euler(cat, pds, tables)
    if any(pd is None for pd in pds):
        return None, pds, tables
    return max(pds), pds, tables


# -- Auslander generator ---------------------------------------------------------

def auslander_generator(algebra, inventory: TorsionlessInventory,
                        assume_complete: bool = False) -> list[Module]:
    """Union of the torsionless and divisible inventories, deduplicated;
    verified to contain every projective and injective."""
    if inventory.status != "complete" and not assume_complete:
        raise IncompleteInventory(
            "Auslander generator needs a complete inventory (or assume_complete)")
    classes = ClassList()
    for m in inventory.torsionless:
        classes.add(m)
    for m in inventory.divisible:
        classes.add(m)
    members = classes.sorted_members()
    for p in projectives(algebra) + injectives(algebra):
        if not classes.contains(p):
            raise IncompleteInventory("generator-cogenerator check failed")
    return members


# -- the layering certificate (strongly quasi-hereditary route) --------------------

def _first_outside_image(cat: CatAlgebra, incl, idx: int, sources: list[int], tops: list):
    """The first j in `sources` with a radical map M_j -> M_idx whose image
    leaves im incl at some vertex, or None (the test of `layering_check`;
    incl is injective, and tops[j] is `top_support(M_j)`).

    C = M_idx / im incl is nonzero exactly at the vertices where incl_v is
    not onto.  A map f: M_j -> M_idx leaves im incl when q f != 0, q the
    quotient onto C, and q f is fixed by its values on lifts of a basis of
    top M_j, which generate M_j (Nakayama) and lie at the vertices of
    tops[j]; so a source whose top misses the support of C has none, and
    its Hom basis is never built.  C_v is built at the first radical map
    tested, and only where incl_v is not onto."""
    support = {v for v, iota in incl.components.items() if iota.rows > iota.cols}
    cokernel = None
    for jdx in sources:
        if not support & tops[jdx]:
            continue
        rads = cat.radical_maps(jdx, idx)
        if not rads:
            continue
        if cokernel is None:
            cokernel = {v: incl.components[v].transpose().kernel_basis().transpose()
                        for v in support}
        for v, c in cokernel.items():
            if rads[0].components[v].cols:
                image = Matrix.hstack([f.components[v] for f in rads])
                if not (c @ image).is_zero():
                    return jdx
    return None


def layering_check(cat: CatAlgebra, layers: list[list[int]], alpha: dict) -> dict:
    """Verify the factorization condition for an ordered layering.

    layers: object indices per layer, exhausting 0..len(cat)-1;
    alpha: object index -> (Module, inclusion ModuleMap into the object).
    Every summand of alpha(N) must be isomorphic to an object in a
    strictly lower layer (`alpha_in_lower_layers`, with the summand's
    dims as witness).  The summands are matched once per isomorphism
    class: `decompose` has already shown each summand isomorphic to its
    class representative, so testing the representative is the same test,
    and the last failing representative has the dims of the last failing
    summand.  Every radical map N' -> N with N' in a layer
    <= layer(N) must factor through alpha(N); passing both certifies
    gldim Gamma <= len(layers).  This is the only check of alpha's
    summands: `tiered.build_layering` sets alpha N = rad N unchecked.

    The inclusion iota must be injective (else the witness is "alpha map
    not injective" and no factorization is tested).  Then f: N' -> N
    factors through iota exactly when im f_v lies in im iota_v at every
    vertex v: g_v = iota_v^-1 f_v is then defined, and it intertwines
    because iota is an injective module map.  So the test is one product
    per vertex, C_v [f_v for every radical f] = 0, where the rows of C_v
    cut out im iota_v; the first failing N' is the witness.

    A source N' whose top support (`module.top_support`) misses the
    support of N / im iota is skipped before its Hom basis is built:
    every map N' -> N is fixed modulo im iota by its values on lifts of
    top N', so every radical map from it factors.  This holds for any
    injective iota, and N' = N is no exception, so no skipped source can
    be the first failing one.
    """
    n = len(cat)
    layer_of = {}
    for level, members in enumerate(layers):
        for idx in members:
            layer_of[idx] = level
    if sorted(layer_of) != list(range(n)):
        raise ValueError("layers must exhaust the objects exactly once")
    tops = [top_support(m) for m in cat.objects]
    results = []
    all_pass = True
    for idx in range(n):
        level = layer_of[idx]
        alpha_mod, alpha_incl = alpha[idx]
        entry = {"object": idx, "layer": level,
                 "alpha_dims": list(alpha_mod.dim_vector()),
                 "alpha_in_lower_layers": True, "factorizations": True,
                 "witness": None}
        if not alpha_mod.is_zero():
            if not alpha_incl.is_injective():
                entry["factorizations"] = False
                entry["witness"] = "alpha map not injective"
            for part, _ in decompose(alpha_mod).summands:
                hit = None
                for jdx in range(n):
                    if layer_of[jdx] < level:
                        ok, _ = is_isomorphic(cat.objects[jdx], part,
                                              assume_indecomposable=True)
                        if ok:
                            hit = jdx
                            break
                if hit is None:
                    entry["alpha_in_lower_layers"] = False
                    entry["witness"] = f"alpha summand {part.dim_vector()} not in lower layers"
        if entry["factorizations"]:
            jdx = _first_outside_image(cat, alpha_incl, idx,
                                       [j for j in range(n) if layer_of[j] <= level], tops)
            if jdx is not None:
                entry["factorizations"] = False
                entry["witness"] = {"from_object": jdx,
                                    "map_dims": list(cat.objects[jdx].dim_vector())}
        if not (entry["factorizations"] and entry["alpha_in_lower_layers"]):
            all_pass = False
        results.append(entry)
    return {
        "pass": all_pass,
        "layer_count": len(layers),
        "bound": len(layers) if all_pass else None,
        "objects": results,
    }

