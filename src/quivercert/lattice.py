"""Polynomial-coefficient lattices, canonical self-extension sequences,
Ext-class non-vanishing tests, external (Kuenneth-style) products, and
the Odim witness.

A lattice is a module over (algebra) x k[T_1..T_d] that is free over the
polynomial ring: fibers are free of finite rank, arrows act by matrices
with polynomial entries, and all relations vanish identically.  An
arrow's action is stored as its coefficient matrices {exponent tuple:
C_e}, the action being the sum of C_e T^e; zero coefficients are
dropped.  Tensoring with a finite-length k[T]-module, given by commuting
T-matrices, gives an ordinary module, and specializing T at a point is
the case of 1x1 T-matrices.  Tensoring with the canonical length-2
self-extension of a point gives degree-1 Ext classes whose
non-vanishing is decided by exact linear algebra.

The witness for Odim >= n over A_1 (x) ... (x) A_n uses the Kuenneth
formula.  Each lattice value a is resolved once per algebra, however
many factors and witness calls read it: its tensored sequence, the
minimal resolution P_top -> ... -> P_0 -> L_a and the lift of the
sequence to a cocycle phi_a: P_1 -> L_a are kept in the memo of the
lattice's algebra under ("resolution", lat, a), with a normalised by
`field.element`.  A call that needs a higher top extends that resolution
by one projective cover per missing degree and checks it again; a call
with n factors reads views cut at top n.  At a point
(a_1, ..., a_n) the total complex R = P^(1) (x) ... (x) P^(n), folded
left to right, is a projective resolution of L_{a_1} (x) ... (x)
L_{a_n} over the tensor algebra: R_k = (+)_{i+j=k} X_i (x) P_j with
d = d_X (x) 1 + (-1)^i 1 (x) d_P and augmentation aug_X (x) aug_P.  The
external product of the n classes is represented, up to sign, by
phi_{a_1} (x) ... (x) phi_{a_n} on the (1, ..., 1) summand of R_n and
zero on the others, so the point passes when that cocycle is not a
coboundary.  Every complex the witness reads is checked (d d = 0, exact
below its top degree); `external_product` and `ext_nonzero` on the
spliced sequence are the independent route the tests compare with.  One
factor is the degree-1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .algebra import BasicAlgebra
from .fields import Field
from .matrix import Matrix, NoSolution
from .module import (
    Module, ModuleMap, block_map, hom_basis, identity_map, in_span, map_coordinates,
    map_from_coordinates, sum_module, vertex_counts, zero_map,
)
from .functors import extend_resolution, projective_resolution

MAX_POLY_DEGREE = 8
MAX_VARIABLES = 2


class LatticeError(ValueError):
    pass


def _add_into(total: dict, exps: tuple, c: Matrix):
    total[exps] = total[exps] + c if exps in total else c


# -- lattices ------------------------------------------------------------------------

class Lattice:
    """Free-over-k[T] family of modules: a rank vector, and per arrow its
    action as {exponent tuple: coefficient Matrix}."""

    def __init__(self, algebra: BasicAlgebra, d: int, rank, action, check: bool = True):
        if not 1 <= d <= MAX_VARIABLES:
            raise LatticeError(f"d={d} outside the supported range")
        self.algebra = algebra
        self.field = algebra.field
        self.d = d
        self.rank = vertex_counts(algebra.quiver.vertices, rank, LatticeError, "rank")
        self.action = {}
        for a in algebra.quiver.arrows:
            shape = (self.rank[a.target], self.rank[a.source])
            coeffs = {}
            for exps, c in action.get(a.name, {}).items():
                if len(exps) != d:
                    raise LatticeError(f"monomial exponents {exps} do not match d={d}")
                if min(exps) < 0 or sum(exps) > MAX_POLY_DEGREE:
                    raise LatticeError(f"monomial exponents {exps} outside degrees "
                                       f"0..{MAX_POLY_DEGREE}")
                if (c.rows, c.cols) != shape:
                    raise LatticeError(f"arrow {a.name}: coefficient matrix shape mismatch")
                if c.field != self.field:
                    raise LatticeError(f"arrow {a.name}: coefficient field mismatch")
                if not c.is_zero():
                    coeffs[exps] = c
            self.action[a.name] = coeffs
        if check:
            bad = self.relation_defect()
            if bad is not None:
                raise LatticeError(f"lattice violates relation {bad}")

    def path_matrix(self, path) -> dict:
        """The action of a path (arrow names, first arrow first) as
        {exponents: coefficient Matrix}."""
        mat = self.action[path[0]]
        for name in path[1:]:
            out = {}
            for e1, c1 in self.action[name].items():
                for e2, c2 in mat.items():
                    _add_into(out, tuple(x + y for x, y in zip(e1, e2)), c1 @ c2)
            mat = out
        return mat

    def relation_defect(self):
        algebra = self.algebra
        for rel, terms in zip(algebra.relations, algebra.relation_terms):
            total = {}
            for c, path in terms:
                for exps, m in self.path_matrix(path).items():
                    _add_into(total, exps, m.scale(c))
            if any(not m.is_zero() for m in total.values()):
                return rel.describe()
        return None

    def specialize(self, point) -> Module:
        """Substitute T_i = point_i: the tensor product with the point
        module, whose T-matrices are 1x1."""
        return self.tensor_with_t_module([Matrix.column(self.field, [a]) for a in point])

    def tensor_with_t_module(self, t_matrices: list[Matrix]) -> Module:
        """L (x)_R V for a finite-length k[T_1..T_d]-module V given by
        commuting matrices of the T_i; fiber basis is (lattice, V) pairs."""
        if len(t_matrices) != self.d:
            raise LatticeError("need one T-matrix per variable")
        field = self.field
        vdim = t_matrices[0].rows
        action = {}
        for a in self.algebra.quiver.arrows:
            total = Matrix.zero(field, self.rank[a.target] * vdim, self.rank[a.source] * vdim)
            for exps, c in self.action[a.name].items():
                power = Matrix.identity(field, vdim)
                for t_mat, e in zip(t_matrices, exps):
                    for _ in range(e):
                        power = power @ t_mat
                total = total + c.kron(power)
            action[a.name] = total
        dims = {v: self.rank[v] * vdim for v in self.algebra.quiver.vertices}
        return Module(self.algebra, dims, action)


def constant_lattice(module: Module, d: int = 1) -> Lattice:
    """module (x) k[T]: every specialization returns the module."""
    const = (0,) * d
    action = {name: {const: m} for name, m in module.action.items()}
    return Lattice(module.algebra, d, dict(module.dims), action, check=False)


def kronecker_family(algebra: BasicAlgebra) -> Lattice:
    """The one-parameter family (R, R; 1, T) on a double arrow.

    Requires a bipartite double-arrow pair in the quiver; ranks are 1 on
    its two endpoints and 0 elsewhere.
    """
    pair = None
    arrows = algebra.quiver.arrows
    for i in range(len(arrows)):
        for j in range(i + 1, len(arrows)):
            if (arrows[i].source, arrows[i].target) == (arrows[j].source, arrows[j].target):
                pair = (arrows[i], arrows[j])
                break
        if pair:
            break
    if pair is None:
        raise LatticeError("no double arrow available for the canonical family")
    a, b = pair
    one = Matrix.identity(algebra.field, 1)
    rank = {a.source: 1, a.target: 1}
    return Lattice(algebra, 1, rank, {a.name: {(0,): one}, b.name: {(1,): one}}, check=False)


# -- extension classes -----------------------------------------------------------------

def _exact(maps: list, injective: bool) -> bool:
    """The chain maps[0] -> maps[1] -> ... is exact at every inner term
    (each composite of neighbours is zero and, at every vertex, the kernel
    of the later map is as large as the image of the earlier), its last
    map is surjective and, when injective is set, its first map injective.
    Each map's per-vertex ranks are computed once."""
    ranks = [{v: m.rank() for v, m in f.components.items()} for f in maps]
    first, last = maps[0].components, maps[-1].components
    if injective and any(r != first[v].cols for v, r in ranks[0].items()):
        return False
    if any(r != last[v].rows for v, r in ranks[-1].items()):
        return False
    return all(f.then(g).is_zero()
               and all(m.cols - r_g[v] == r_f[v] for v, m in g.components.items())
               for f, g, r_f, r_g in zip(maps, maps[1:], ranks, ranks[1:]))


@dataclass
class ExtensionClass:
    """0 -> left -> mids[0] -> ... -> mids[d-1] -> right -> 0."""

    degree: int
    left: Module
    mids: list
    right: Module
    maps: list  # left -> mids[0], ..., mids[-1] -> right
    exact: bool = field(default=False, init=False)  # set by verify_exact

    def verify_exact(self) -> bool:
        if not _exact(self.maps, injective=True):
            return False
        self.exact = True
        return True


def eps_alpha(field: Field, alpha) -> tuple[list[Matrix], list[Matrix], list[Matrix]]:
    """The canonical nonsplit self-extension of the point module at alpha
    (one variable): returns (T-matrices, inclusion, projection) data as
    ([alpha], middle T-matrix, maps)."""
    a = field.element(alpha)
    s_t = Matrix.from_rows(field, [[field.format(a)]])
    mid_t = Matrix.zero(field, 2, 2)
    mid_t[0, 0] = a
    mid_t[1, 1] = a
    mid_t[1, 0] = field.one()
    incl = Matrix.from_rows(field, [["0"], ["1"]])
    proj = Matrix.from_rows(field, [["1", "0"]])
    return [s_t], [mid_t], (incl, proj)


def tensor_sequence(lat: Lattice, alpha) -> ExtensionClass:
    """L (x)_R eps_alpha: 0 -> L_a -> L(x)R/m^2 -> L_a -> 0, re-verified."""
    if lat.d != 1:
        raise LatticeError("tensor_sequence handles one-variable lattices")
    field = lat.field
    s_ts, mid_ts, (incl_vec, proj_vec) = eps_alpha(field, alpha)
    ends = lat.tensor_with_t_module(s_ts)
    middle = lat.tensor_with_t_module(mid_ts)
    eye = {v: Matrix.identity(field, r) for v, r in lat.rank.items()}
    incl = ModuleMap(ends, middle, {v: e.kron(incl_vec) for v, e in eye.items()})
    proj = ModuleMap(middle, ends, {v: e.kron(proj_vec) for v, e in eye.items()})
    cls = ExtensionClass(1, ends, [middle], ends, [incl, proj])
    if not cls.verify_exact():
        raise LatticeError("tensored sequence failed exactness")
    return cls


# -- Ext non-vanishing -------------------------------------------------------------------

def _lift_through(src: Module, through: ModuleMap, target: ModuleMap) -> ModuleMap:
    """h: src -> through.source with h.then(through) = target; raises
    NoSolution when there is none."""
    basis = hom_basis(src, through.source)
    coords = map_coordinates(target, [h.then(through) for h in basis])
    return map_from_coordinates(coords, basis) if basis else zero_map(src, through.source)


def _lift_cocycle(cls: ExtensionClass, projs, diffs, aug) -> ModuleMap:
    """phi_d: P_d -> left by comparison lifting along a projective
    resolution of cls.right of length at least d."""
    d = cls.degree
    maps = cls.maps
    try:
        phi = _lift_through(projs[0], maps[-1], aug)
        for k in range(1, d + 1):  # k = d lifts through the injection left -> mids[0]
            phi = _lift_through(projs[k], maps[d - k], diffs[k - 1].then(phi))
    except NoSolution:
        raise LatticeError("cocycle lift failed") from None
    return phi


def yoneda_cocycle(cls: ExtensionClass):
    """(cocycle phi_d: P_d -> left, resolution data) by comparison lifting."""
    projs, diffs, aug = projective_resolution(cls.right, cls.degree)
    return _lift_cocycle(cls, projs, diffs, aug), projs, diffs


def cocycle_is_coboundary(phi_d: ModuleMap, last_diff: ModuleMap) -> bool:
    """phi_d = last_diff followed by some psi: P_{d-1} -> left?"""
    return in_span(phi_d, [last_diff.then(psi)
                           for psi in hom_basis(last_diff.target, phi_d.target)])


def ext_nonzero(cls: ExtensionClass) -> bool:
    """Non-vanishing of the class: retraction search in degree 1,
    cocycle-versus-coboundary in higher degrees."""
    if cls.degree == 1:
        # split iff some r: mids[0] -> left retracts the injection
        composites = [cls.maps[0].then(r) for r in hom_basis(cls.mids[0], cls.left)]
        return not in_span(identity_map(cls.left), composites)
    phi_d, projs, diffs = yoneda_cocycle(cls)
    return not cocycle_is_coboundary(phi_d, diffs[cls.degree - 1])


# -- external products ----------------------------------------------------------------

def _same_algebra(a: BasicAlgebra, b: BasicAlgebra) -> bool:
    """Same quiver, relations and field; algebras built apart compare equal."""
    return a is b or (a.field == b.field and a.quiver == b.quiver
                      and a.relations == b.relations)


def tensor_module(product_algebra: BasicAlgebra, m: Module, n: Module) -> Module:
    """m (x) n over the tensor algebra (fiber basis ordered (m, n)): arrow
    a.y acts by m_a (x) I and arrow x.b by I (x) n_b."""
    factors = product_algebra.tensor_of
    if factors is None:
        raise LatticeError("target algebra is not a tensor product")
    if not (_same_algebra(m.algebra, factors[0]) and _same_algebra(n.algebra, factors[1])):
        raise LatticeError("module algebras differ from the tensor factors")
    field = product_algebra.field
    eye_m = {x: Matrix.identity(field, d) for x, d in m.dims.items()}
    eye_n = {y: Matrix.identity(field, d) for y, d in n.dims.items()}
    dims = {f"{x}.{y}": m.dims[x] * n.dims[y] for x in m.dims for y in n.dims}
    action = {f"{a.name}.{y}": m.action[a.name].kron(eye)
              for a in m.algebra.quiver.arrows for y, eye in eye_n.items()}
    action.update({f"{x}.{b.name}": eye.kron(n.action[b.name])
                   for b in n.algebra.quiver.arrows for x, eye in eye_m.items()})
    return Module(product_algebra, dims, action)


def tensor_map(source: Module, target: Module, f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f (x) g from source = f.source (x) g.source to target = f.target (x)
    g.target, both built by the caller; the component at x.y is f_x (x) g_y."""
    comps = {f"{x}.{y}": fx.kron(gy)
             for x, fx in f.components.items() for y, gy in g.components.items()}
    return ModuleMap._built(source, target, comps)


def external_product(product_algebra: BasicAlgebra, cls_a: ExtensionClass,
                     cls_b: ExtensionClass, order: str = "left") -> ExtensionClass:
    """Splice of (cls_a (x) right_b) with (left_a (x) cls_b) into a class of
    degree d_a + d_b over the tensor algebra; the junction map is
    maps_a[0] (x) maps_b[-1].

    order="right" uses the mirror splice (cls_a (x) left_b after
    right_a (x) cls_b, joined by maps_a[-1] (x) maps_b[0]); the two are
    cohomologous up to sign.  A degree-0 class (no maps) on either side
    counts as its identity map.
    """
    chain_a = [cls_a.left] + cls_a.mids + [cls_a.right]
    chain_b = [cls_b.left] + cls_b.mids + [cls_b.right]
    maps_a = cls_a.maps or [identity_map(cls_a.left)]
    maps_b = cls_b.maps or [identity_map(cls_b.right)]
    if order == "left":
        id_a, id_b = identity_map(cls_a.left), identity_map(cls_b.right)
        pairs = ([(cls_a.left, y) for y in chain_b[:-1]]
                 + [(x, cls_b.right) for x in chain_a[1:]])
        factors = ([(id_a, g) for g in maps_b[:-1]] + [(maps_a[0], maps_b[-1])]
                   + [(f, id_b) for f in maps_a[1:]])
    else:
        id_a, id_b = identity_map(cls_a.right), identity_map(cls_b.left)
        pairs = ([(x, cls_b.left) for x in chain_a[:-1]]
                 + [(cls_a.right, y) for y in chain_b[1:]])
        factors = ([(f, id_b) for f in maps_a[:-1]] + [(maps_a[-1], maps_b[0])]
                   + [(id_a, g) for g in maps_b[1:]])
    chain = [tensor_module(product_algebra, x, y) for x, y in pairs]
    maps = [tensor_map(src, tgt, f, g)
            for src, tgt, (f, g) in zip(chain, chain[1:], factors)]
    out = ExtensionClass(cls_a.degree + cls_b.degree, chain[0], chain[1:-1], chain[-1], maps)
    if not out.verify_exact():
        raise LatticeError("external product failed exactness")
    return out


def scale_class(cls: ExtensionClass, c) -> ExtensionClass:
    """Representative of c^-1 [cls]: the left injection is scaled by c."""
    field = cls.left.field
    maps = [cls.maps[0].scale(field.element(c))] + list(cls.maps[1:])
    out = ExtensionClass(cls.degree, cls.left, list(cls.mids), cls.right, maps)
    out.verify_exact()
    return out


# -- tensor products of resolutions ------------------------------------------------

@dataclass
class _Resolution:
    """A projective resolution P_top -> ... -> P_0 -> end, cut off at
    P_top, with a cocycle P_degree -> end."""

    terms: list  # P_0, ..., P_top
    diffs: list  # diffs[k - 1]: P_k -> P_{k-1}
    aug: ModuleMap  # P_0 -> end
    cocycle: ModuleMap
    degree: int


def _checked(res: _Resolution) -> _Resolution:
    """res, once d d = 0 and the augmented complex is exact in degrees
    0..top-1 (per-vertex ranks); LatticeError otherwise."""
    if not _exact(res.diffs[::-1] + [res.aug], injective=False):
        raise LatticeError("resolution failed exactness")
    return res


def _factor_resolution(seq: ExtensionClass, top: int) -> _Resolution:
    """The minimal resolution of seq.right up to P_top, with the degree-1
    cocycle of seq on it."""
    projs, diffs, aug = projective_resolution(seq.right, top)
    return _checked(_Resolution(projs, diffs, aug, _lift_cocycle(seq, projs, diffs, aug), 1))


@dataclass
class _Resolved:
    """The memo entry of one lattice value: its tensored sequence and the
    checked factor resolution of its end, which `_value_resolution`
    replaces by a longer one when a call needs a higher top."""

    seq: ExtensionClass
    res: _Resolution


def _resolve_value(lat: Lattice, a, top: int) -> _Resolved:
    seq = tensor_sequence(lat, a)
    return _Resolved(seq, _factor_resolution(seq, top))


def _value_resolution(lat: Lattice, a, top: int) -> _Resolution:
    """The factor resolution of lat at a, cut at P_top: built once per
    algebra and value and kept in lat.algebra's memo under
    ("resolution", lat, a); when it ends below P_top it is extended
    (`extend_resolution`, one projective cover per missing degree) and
    checked again.  The resolutions are never changed: an extension
    replaces the entry's, and every caller gets a view of its own lists."""
    a = lat.field.element(a)
    entry = lat.algebra.cached(("resolution", lat, a), lambda: _resolve_value(lat, a, top))
    res = entry.res
    if len(res.terms) <= top:
        projs, diffs = extend_resolution(res.terms, res.diffs, res.aug, top)
        res = entry.res = _checked(replace(res, terms=projs, diffs=diffs))
    return replace(res, terms=res.terms[:top + 1], diffs=res.diffs[:top])


def _tensor_term(algebra: BasicAlgebra, x: Module, p: Module) -> Module:
    """tensor_module(algebra, x, p), built once per algebra and pair of
    module objects and kept in its memo under ("tensor", x, p)."""
    return algebra.cached(("tensor", x, p), lambda: tensor_module(algebra, x, p))


def _sum_of(algebra: BasicAlgebra, parts: dict) -> Module:
    """The direct sum of parts' modules in label order, built once per
    algebra and tuple of module objects and kept in its memo under
    ("sum", part, ...); a lone part is its own sum."""
    summands = tuple(parts.values())
    if len(summands) == 1:
        return summands[0]
    return algebra.cached(("sum",) + summands, lambda: sum_module(algebra, summands))


def _tensor_complex(algebra: BasicAlgebra, x: _Resolution, p: _Resolution,
                    memo: dict) -> _Resolution:
    """The total complex of x (x) p over algebra, cut off at x's top degree:
    R_k = (+)_{i+j=k} X_i (x) P_j, summands in order of i (zero ones left
    out), with d = d_X (x) 1 + (-1)^i 1 (x) d_P and augmentation
    aug_X (x) aug_P.  Its cocycle is x.cocycle (x) p.cocycle on the summand
    (x.degree, p.degree) and zero on the others.  Checked as every
    resolution is.

    The terms depend only on the term objects of x and p, which projective
    covers share (`module.projective_sum`), so each X_i (x) P_j and each
    R_k is kept in algebra's memo (`_tensor_term`, `_sum_of`), keyed by
    those objects; every point with the same terms gets the same R_k.  The
    block d_X (x) 1 on X_i (x) P_j depends only on the map x.diffs[i-1] and
    the term P_j, and (-1)^i 1 (x) d_P only on X_i, p.diffs[j-1] and the
    parity of i: each is taken from memo, a dict the caller owns for the
    life of one witness (keyed by those objects), or built when absent.  The end
    L (x) L', the augmentation, the cocycle, the assembled differentials and
    the check are built per call."""
    minus = algebra.field.neg(algebra.field.one())
    top = len(x.terms) - 1
    parts = [{i: _tensor_term(algebra, x.terms[i], p.terms[k - i]) for i in range(k + 1)
              if not (x.terms[i].is_zero() or p.terms[k - i].is_zero())}
             for k in range(top + 1)]
    terms = [_sum_of(algebra, summands) for summands in parts]
    diffs = []
    for k in range(1, top + 1):
        blocks = {}
        for i, src in parts[k].items():  # the summand X_i (x) P_j, j = k - i
            j = k - i
            if i - 1 in parts[k - 1]:
                key = ("d_X", x.diffs[i - 1], p.terms[j])
                if key not in memo:
                    memo[key] = tensor_map(src, parts[k - 1][i - 1], x.diffs[i - 1],
                                           identity_map(p.terms[j]))
                blocks[i - 1, i] = memo[key]
            if i in parts[k - 1]:
                key = ("d_P", x.terms[i], p.diffs[j - 1], i % 2)
                if key not in memo:
                    d_p = p.diffs[j - 1].scale(minus) if i % 2 else p.diffs[j - 1]
                    memo[key] = tensor_map(src, parts[k - 1][i], identity_map(x.terms[i]), d_p)
                blocks[i, i] = memo[key]
        diffs.append(block_map(terms[k], terms[k - 1], parts[k], parts[k - 1], blocks))
    end = tensor_module(algebra, x.aug.target, p.aug.target)
    degree = x.degree + p.degree
    blocks = {}
    if x.degree in parts[degree]:
        blocks[0, x.degree] = tensor_map(parts[degree][x.degree], end, x.cocycle, p.cocycle)
    cocycle = block_map(terms[degree], end, parts[degree], {0: end}, blocks)
    aug = tensor_map(terms[0], end, x.aug, p.aug)
    return _checked(_Resolution(terms, diffs, aug, cocycle, degree))


# -- witnesses -----------------------------------------------------------------------

def rational_points(field: Field, d: int):
    if not field.is_prime_field:
        raise LatticeError("point enumeration needs a finite prime field")
    return [tuple(field.from_int(c) for c in pt)
            for pt in product(range(field.p), repeat=d)]


def odim_witness(lat: Lattice, points=None) -> dict:
    """The one-factor Kuenneth witness: degree-1 classes of a one-variable
    lattice, a witness for Odim >= 1 when all points pass."""
    return kunneth_witness(lat.algebra, lat, points=points)


def kunneth_witness(product_algebra: BasicAlgebra, *lattices: Lattice, points=None) -> dict:
    """Per-point non-vanishing table for the degree-n classes over
    A_1 (x) ... (x) A_n, one one-variable lattice per factor; a witness for
    Odim >= n when all points pass.

    product_algebra is the left-nested tensor product (tensor_of =
    (A_1 (x) ... (x) A_{n-1}, A_n), and so on down).  Each lattice, at
    each coordinate value a that it takes in a factor, reads the resolution
    of the end L_a of its tensored sequence and the cocycle
    phi_a: P_1 -> L_a from its algebra's memo (`_value_resolution`, key
    ("resolution", lat, a)), as a view cut at P_n; they are built, or
    extended to P_n, on the first call that needs them, so factors given
    the same Lattice object, and later calls on it (an `odim_witness`
    included), share them.  At a point (a_1, ..., a_n) the total complex of
    those resolutions is folded left to right over the intermediate
    products, one complex per distinct prefix (a_1, ..., a_k), with the
    differential d_X (x) 1 + (-1)^i 1 (x) d_P on X_i (x) P_j; each such
    block is built once per call and shared by every complex that has it.
    The point passes when phi_{a_1} (x) ... (x) phi_{a_n}, on the
    (1, ..., 1) summand of R_n, is not a coboundary of d_n.  Each complex,
    and each factor resolution at each top it reaches, is checked (d d = 0,
    exact below its top) and raises LatticeError if not.
    """
    n = len(lattices)
    algebras = [product_algebra]  # algebras[k] carries the first k + 1 factors
    for _ in range(n - 1):
        if algebras[0].tensor_of is None:
            raise LatticeError(f"{n} lattices but fewer tensor factors in the algebra")
        algebras.insert(0, algebras[0].tensor_of[0])
    if not lattices or not _same_algebra(lattices[0].algebra, algebras[0]):
        raise LatticeError("need one lattice per tensor factor, each over its factor")
    field = product_algebra.field
    points = points if points is not None else rational_points(field, n)
    factors = [{a: _value_resolution(lat, a, n) for a in {pt[k] for pt in points}}
               for k, lat in enumerate(lattices)]
    prefixes = {}  # (a_1, ..., a_k) -> its total complex, for 1 < k < n
    memo = {}  # the differential blocks of every complex of this call

    table = []
    for pt in points:
        res = factors[0][pt[0]]
        for k in range(1, n):  # fold left to right
            prefix = tuple(pt[:k + 1])
            if prefix in prefixes:
                res = prefixes[prefix]
            else:
                res = _tensor_complex(algebras[k], res, factors[k][pt[k]], memo)
                if k < n - 1:
                    prefixes[prefix] = res
        table.append({"point": [field.format(c) for c in pt],
                      "nonzero": not cocycle_is_coboundary(res.cocycle, res.diffs[n - 1])})
    passed = sum(row["nonzero"] for row in table)
    return {
        "degree": n,
        "points": len(points),
        "passed": passed,
        "witness_for_odim_ge": n if passed == len(points) and points else 0,
        "table": table,
        "caveat": "density over Max R sampled at rational points only",
    }
