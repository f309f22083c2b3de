"""Polynomial-coefficient lattices, canonical self-extension sequences,
Ext-class non-vanishing tests, and external (Kuenneth-style) products.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BasicAlgebra
from .fields import Field
from .matrix import Matrix, NoSolution
from .module import (
    Module, ModuleMap, hom_basis, identity_map, in_span, kernel_of_map,
    map_coordinates, map_from_coordinates, zero_map,
)
from .functors import projective_cover

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
        self.rank = {v: int(rank.get(v, 0)) for v in algebra.quiver.vertices}
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


def tensor_lattice(product_algebra: BasicAlgebra, left: Lattice, right: Lattice) -> Lattice:
    """left (x) right over the tensor algebra, variables renumbered."""
    if product_algebra.tensor_of is None:
        raise LatticeError("target algebra is not a tensor product")
    field = product_algebra.field
    eye_l = {x: Matrix.identity(field, r) for x, r in left.rank.items()}
    eye_r = {y: Matrix.identity(field, r) for y, r in right.rank.items()}
    pad_l, pad_r = (0,) * right.d, (0,) * left.d
    rank = {f"{x}.{y}": left.rank[x] * right.rank[y]
            for x in left.rank for y in right.rank}
    action = {}
    for name, coeffs in left.action.items():
        for y, eye in eye_r.items():
            action[f"{name}.{y}"] = {e + pad_l: c.kron(eye) for e, c in coeffs.items()}
    for name, coeffs in right.action.items():
        for x, eye in eye_l.items():
            action[f"{x}.{name}"] = {pad_r + e: eye.kron(c) for e, c in coeffs.items()}
    return Lattice(product_algebra, left.d + right.d, rank, action)


# -- extension classes -----------------------------------------------------------------

@dataclass
class ExtensionClass:
    """0 -> left -> mids[0] -> ... -> mids[d-1] -> right -> 0."""

    degree: int
    left: Module
    mids: list
    right: Module
    maps: list  # left -> mids[0], ..., mids[-1] -> right
    exact: bool = False

    def verify_exact(self) -> bool:
        chain = [self.left] + self.mids + [self.right]
        comps = self.maps
        if not comps[0].is_injective() or not comps[-1].is_surjective():
            return False
        for f, g in zip(comps, comps[1:]):
            if not f.then(g).is_zero():
                return False
            for v in self.left.algebra.quiver.vertices:
                if g.components[v].kernel_basis().cols != f.components[v].rank():
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


def _resolution(module: Module, length: int):
    """Minimal projective resolution data: (projectives, differentials,
    augmentation) with differentials d_k: P_k -> P_{k-1}."""
    e = projective_cover(module)
    projs = [e.source]
    diffs = []
    current_ker, current_incl = kernel_of_map(e)
    for _ in range(length):
        cover = projective_cover(current_ker)
        projs.append(cover.source)
        diffs.append(cover.then(current_incl))
        current_ker, current_incl = kernel_of_map(cover)
    return projs, diffs, e


def yoneda_cocycle(cls: ExtensionClass):
    """(cocycle phi_d: P_d -> left, resolution data) by comparison lifting."""
    d = cls.degree
    projs, diffs, aug = _resolution(cls.right, d)
    maps = cls.maps
    try:
        phi = _lift_through(projs[0], maps[-1], aug)
        for k in range(1, d + 1):  # k = d lifts through the injection left -> mids[0]
            phi = _lift_through(projs[k], maps[d - k], diffs[k - 1].then(phi))
    except NoSolution:
        raise LatticeError("cocycle lift failed") from None
    return phi, projs, diffs


def cocycle_is_coboundary(phi_d: ModuleMap, last_diff: ModuleMap) -> bool:
    """phi_d = last_diff followed by some psi: P_{d-1} -> left?"""
    return in_span(phi_d, [last_diff.then(psi)
                           for psi in hom_basis(last_diff.target, phi_d.target)])


def ext_nonzero(cls: ExtensionClass, via: str = "auto") -> bool:
    """Non-vanishing of the class: retraction search in degree 1,
    cocycle-versus-coboundary in any degree."""
    if cls.degree == 1 and via in ("auto", "retraction"):
        # split iff some r: mids[0] -> left retracts the injection
        composites = [cls.maps[0].then(r) for r in hom_basis(cls.mids[0], cls.left)]
        return not in_span(identity_map(cls.left), composites)
    phi_d, projs, diffs = yoneda_cocycle(cls)
    return not cocycle_is_coboundary(phi_d, diffs[cls.degree - 1])


# -- external products ----------------------------------------------------------------

def tensor_module(product_algebra: BasicAlgebra, m: Module, n: Module) -> Module:
    """m (x) n over the tensor algebra (fiber basis ordered (m, n)): arrow
    a.y acts by m_a (x) I and arrow x.b by I (x) n_b."""
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
    return ModuleMap(source, target, comps, check=False)


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


# -- witnesses -----------------------------------------------------------------------

def rational_points(field: Field, d: int):
    if not field.is_prime_field:
        raise LatticeError("point enumeration needs a finite prime field")
    from itertools import product
    return [tuple(field.from_int(c) for c in pt)
            for pt in product(range(field.p), repeat=d)]


def odim_witness(lat: Lattice, points=None) -> dict:
    """Per-point non-vanishing table for the degree-1 classes of a
    one-variable lattice; witness for Odim >= 1 when all points pass."""
    if lat.d != 1:
        raise LatticeError("odim_witness covers one-variable lattices; use the "
                           "external product route for d = 2")
    points = points if points is not None else rational_points(lat.field, 1)
    table = []
    passed = 0
    for pt in points:
        cls = tensor_sequence(lat, pt[0])
        nz = ext_nonzero(cls)
        table.append({"point": [lat.field.format(c) for c in pt], "nonzero": nz})
        passed += 1 if nz else 0
    return {
        "degree": 1,
        "points": len(points),
        "passed": passed,
        "witness_for_odim_ge": 1 if passed == len(points) and points else 0,
        "table": table,
        "caveat": "density over Max R sampled at rational points only",
    }


def kunneth_witness(product_algebra: BasicAlgebra, lat_a: Lattice, lat_b: Lattice,
                    points=None) -> dict:
    """Degree-2 non-vanishing over the tensor algebra at pairs of points."""
    field = product_algebra.field
    points = points if points is not None else rational_points(field, 2)
    # one tensored sequence per coordinate value of each factor
    seqs_a = {a: tensor_sequence(lat_a, a) for a in {pt[0] for pt in points}}
    seqs_b = {b: tensor_sequence(lat_b, b) for b in {pt[1] for pt in points}}
    table = []
    passed = 0
    for pt in points:
        prod = external_product(product_algebra, seqs_a[pt[0]], seqs_b[pt[1]])
        nz = ext_nonzero(prod)
        table.append({"point": [field.format(c) for c in pt], "nonzero": nz})
        passed += 1 if nz else 0
    return {
        "degree": 2,
        "points": len(points),
        "passed": passed,
        "witness_for_odim_ge": 2 if passed == len(points) and points else 0,
        "table": table,
        "caveat": "density over Max R sampled at rational points only",
    }
