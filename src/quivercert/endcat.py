"""The endomorphism category of a module list and its global dimension.

Gamma = End((+) M_i) is handled functorially on add(M): functors are
sums of representables Hom(-, M_i) together with coordinate subspaces,
the radical consists of the non-isomorphisms (exact by Krull-Schmidt),
and projective dimensions of the simple functors come from iterated
minimal covers.  Gamma is never realized as a path-algebra quotient.

Gamma's composition is stored as a tensor on the Hom bases: for each
triple (i, j, c), `CatAlgebra.compose_into` gives one matrix T_k per
basis map h_k of Hom(M_i, M_j), the matrix of g -> h_k.then(g):
Hom(M_j, M_c) -> Hom(M_i, M_c), from one multi-column solve; the
CatAlgebra caches it (`composition`).  A radical endomorphism of M_i
with coordinates R[:, m] on Hom(M_i, M_i) acts by sum_k R[k, m] T_k
(`radical_action`).  On a sum of representables over `parts`, a map
acts block-diagonally, one block per part; the syzygy steps apply each
block to its own row slice and stack the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .approx import AddCategory, injectives, projectives
from .decompose import is_indecomposable, is_isomorphic, decompose
from .matrix import Matrix, NoSolution, complement_basis
from .module import Module, ModuleMap, coordinates_matrix, hom_basis
from .torsfin import IncompleteInventory, TorsionlessInventory, enumerate_torsionless


class NotIndecomposable(ValueError):
    pass


class DuplicateObject(ValueError):
    pass


class CatAlgebra:
    """add(M) presented by objects, Hom bases, and composition data."""

    def __init__(self, objects: list[Module], verify: bool = True):
        if not objects:
            raise NotIndecomposable("empty object list")
        self.objects = list(objects)
        self.algebra = objects[0].algebra
        self.field = self.algebra.field
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
        self._cat = AddCategory(self.objects)
        self._compose = {}
        self._rad_action = {}

    def __len__(self):
        return len(self.objects)

    def hom(self, i: int, j: int) -> list[ModuleMap]:
        return self._cat.hom(i, j)

    def radical_maps(self, i: int, j: int) -> list[ModuleMap]:
        return self._cat.radical_maps(i, j)

    def composition(self, i: int, j: int, c: int) -> list[Matrix]:
        """The cached `compose_into(i, j, c)`."""
        key = (i, j, c)
        if key not in self._compose:
            self._compose[key] = self.compose_into(i, j, c)
        return self._compose[key]

    def compose_into(self, i: int, j: int, c: int) -> list[Matrix]:
        """One matrix T_k per basis map h_k of Hom(M_i, M_j): the matrix of
        g -> h_k.then(g): Hom(M_j, M_c) -> Hom(M_i, M_c) on the Hom bases.
        Every product is solved against the Hom(M_i, M_c) basis at once."""
        left, right, target = self.hom(i, j), self.hom(j, c), self.hom(i, c)
        width = len(right)
        if not left or not right:
            return [Matrix.zero(self.field, len(target), width) for _ in left]
        coords = coordinates_matrix([h.then(g) for h in left for g in right], target)
        return [coords.submatrix(range(coords.rows), range(k * width, (k + 1) * width))
                for k in range(len(left))]

    def radical_action(self, i: int, j: int, c: int) -> list[Matrix]:
        """`composition(i, j, c)` restricted to the basis of rad(M_i, M_j)
        that `radical_maps(i, j)` returns: the same matrices when i != j,
        and sum_k R[k, m] T_k for the m-th radical endomorphism when i == j
        (R = the radical's coordinates on hom(i, i))."""
        if i != j:
            return self.composition(i, j, c)
        key = (i, c)
        if key not in self._rad_action:
            tensor = self.composition(i, i, c)
            rad = self._cat.radical_coords(i)
            zero = self.field.zero()
            acts = []
            for m in range(rad.cols):
                act = Matrix.zero(self.field, tensor[0].rows, tensor[0].cols)
                for k, block in enumerate(tensor):
                    if rad[k, m] != zero:
                        act = act + block.scale(rad[k, m])
                acts.append(act)
            self._rad_action[key] = acts
        return self._rad_action[key]


@dataclass
class SubFunctor:
    """Coordinate subspaces of a sum of representables (+) P_parts."""

    parts: list  # object indices, one per copy
    spaces: list  # per object i: Matrix (ambient F(i) dim x k_i)

    def dim_at(self, i: int) -> int:
        return self.spaces[i].cols

    def total_dim(self) -> int:
        return sum(m.cols for m in self.spaces)

    def is_zero(self) -> bool:
        return self.total_dim() == 0


def _ambient_dim(cat: CatAlgebra, parts, i: int) -> int:
    return sum(len(cat.hom(i, c)) for c in parts)


def _block_apply(blocks: list[Matrix], vecs: Matrix) -> Matrix:
    """The block-diagonal matrix of `blocks` times `vecs`: each block acts
    on its own slice of rows."""
    out, start, width = [], 0, vecs.cols
    for block in blocks:
        rows = vecs.entries[start * width:(start + block.cols) * width]
        out.append(block @ Matrix(vecs.field, block.cols, width, rows))
        start += block.cols
    return Matrix.vstack(out)


def full_subfunctor(cat: CatAlgebra, parts) -> SubFunctor:
    spaces = [Matrix.identity(cat.field, _ambient_dim(cat, parts, i))
              for i in range(len(cat))]
    return SubFunctor(list(parts), spaces)


def radical_subspaces(cat: CatAlgebra, sub: SubFunctor) -> list[Matrix]:
    """Per object i: basis (in sub coordinates) of the radical subfunctor
    rad K(i) = sum of images K(r), r radical into i."""
    n = len(cat)
    out = []
    for i in range(n):
        k_i = sub.dim_at(i)
        if k_i == 0:
            out.append(Matrix.zero(cat.field, 0, 0))
            continue
        images = []
        for j in range(n):
            if sub.dim_at(j) == 0:
                continue
            acts = [cat.radical_action(i, j, c) for c in sub.parts]
            for r_idx in range(len(acts[0])):
                images.append(_block_apply([a[r_idx] for a in acts], sub.spaces[j]))
        if not images:
            out.append(Matrix.zero(cat.field, k_i, 0))
            continue
        joined = Matrix.hstack(images)
        try:
            coords = sub.spaces[i].solve(joined)
        except NoSolution:  # pragma: no cover - radical is a subfunctor
            raise RuntimeError("radical escaped the subfunctor")
        out.append(coords.column_space_basis())
    return out


def cover_of_subfunctor(cat: CatAlgebra, sub: SubFunctor):
    """(new parts, cover matrices Phi_i, betti vector).

    Phi_i maps the new ambient G(i) onto sub's coordinates K(i).
    """
    n = len(cat)
    rad = radical_subspaces(cat, sub)
    generators = []  # (object index, ambient coordinate vector)
    betti = [0] * n
    for i in range(n):
        if sub.dim_at(i) == 0:
            continue
        comp = complement_basis(rad[i])
        betti[i] = comp.cols
        for c in range(comp.cols):
            vec = sub.spaces[i] @ comp.submatrix(range(comp.rows), [c])
            generators.append((i, vec))
    new_parts = [i for i, _ in generators]
    phis = []
    for j in range(n):
        cols = []
        for (i, vec) in generators:
            tensors = [cat.composition(j, i, c) for c in sub.parts]
            for h_idx in range(len(cat.hom(j, i))):
                cols.append(_block_apply([t[h_idx] for t in tensors], vec))
        if cols:
            stacked = Matrix.hstack(cols)
            try:
                coords = sub.spaces[j].solve(stacked)
            except NoSolution:  # pragma: no cover - generated inside K
                raise RuntimeError("cover image escaped the subfunctor")
        else:
            coords = Matrix.zero(cat.field, sub.dim_at(j), 0)
        phis.append(coords)
    return new_parts, phis, betti


def syzygy(cat: CatAlgebra, sub: SubFunctor):
    """(next subfunctor, betti vector) for one minimal-cover step."""
    new_parts, phis, betti = cover_of_subfunctor(cat, sub)
    spaces = [phi.kernel_basis() for phi in phis]
    return SubFunctor(new_parts, spaces), betti


def simple_pd(cat: CatAlgebra, c: int, cutoff: int):
    """(pd or None if > cutoff, betti table). pd of the simple functor at
    object c via iterated minimal covers."""
    base = full_subfunctor(cat, [c])
    rad = radical_subspaces(cat, base)
    betti_table = [[1 if i == c else 0 for i in range(len(cat))]]
    omega = SubFunctor([c], [base.spaces[i] @ rad[i] for i in range(len(cat))])
    k = 0
    while True:
        if omega.is_zero():
            return k, betti_table
        if k >= cutoff:
            return None, betti_table
        omega, betti = syzygy(cat, omega)
        betti_table.append(betti)
        k += 1


def global_dimension(cat: CatAlgebra, cutoff: int | None = None):
    """(value or None if above cutoff, per-object pd list, betti tables)."""
    if cutoff is None:
        cutoff = 2 * len(cat) + 2
    pds = []
    tables = []
    for c in range(len(cat)):
        pd, table = simple_pd(cat, c, cutoff)
        pds.append(pd)
        tables.append(table)
    if any(pd is None for pd in pds):
        return None, pds, tables
    return max(pds), pds, tables


# -- Auslander generator ---------------------------------------------------------

def auslander_generator(algebra, inventory: TorsionlessInventory | None = None,
                        assume_complete: bool = False, seed: int = 0) -> list[Module]:
    """Union of the torsionless and divisible inventories, deduplicated;
    verified to contain every projective and injective."""
    inv = inventory or enumerate_torsionless(algebra, seed=seed)
    if inv.status != "complete" and not assume_complete:
        raise IncompleteInventory(
            "Auslander generator needs a complete inventory (or assume_complete)")
    from .torsfin import ClassList
    classes = ClassList()
    for m in inv.torsionless:
        classes.add(m)
    for m in inv.divisible:
        classes.add(m)
    members = classes.sorted_members()
    for p in projectives(algebra) + injectives(algebra):
        if not classes.contains(p):
            raise IncompleteInventory("generator-cogenerator check failed")
    return members


# -- the layering certificate (strongly quasi-hereditary route) --------------------

def layering_check(cat: CatAlgebra, layers: list[list[int]], alpha: dict) -> dict:
    """Verify the factorization condition for an ordered layering.

    layers: object indices per layer, exhausting 0..len(cat)-1;
    alpha: object index -> (Module, inclusion ModuleMap into the object).
    Every summand of alpha(N) must be isomorphic to an object in a
    strictly lower layer (`alpha_in_lower_layers`, with the summand's
    dims as witness), and every radical map N' -> N with N' in a layer
    <= layer(N) must factor through alpha(N); passing both certifies
    gldim Gamma <= len(layers).  This is the only check of alpha's
    summands: `tiered.build_layering` sets alpha N = rad N unchecked.
    """
    n = len(cat)
    layer_of = {}
    for level, members in enumerate(layers):
        for idx in members:
            layer_of[idx] = level
    if sorted(layer_of) != list(range(n)):
        raise ValueError("layers must exhaust the objects exactly once")
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
            dec = decompose(alpha_mod)
            for part in dec.parts:
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
        for jdx in range(n):
            rads = cat.radical_maps(jdx, idx) if layer_of[jdx] <= level else []
            if not rads:
                continue
            through_alpha = [g.then(alpha_incl) for g in hom_basis(cat.objects[jdx], alpha_mod)]
            try:
                coordinates_matrix(rads, through_alpha)
            except NoSolution:
                entry["factorizations"] = False
                entry["witness"] = {"from_object": jdx,
                                    "map_dims": list(cat.objects[jdx].dim_vector())}
            if not entry["factorizations"]:
                break
        if not (entry["factorizations"] and entry["alpha_in_lower_layers"]):
            all_pass = False
        results.append(entry)
    return {
        "pass": all_pass,
        "layer_count": len(layers),
        "bound": len(layers) if all_pass else None,
        "objects": results,
    }

