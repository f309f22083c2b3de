"""Indecomposability, Krull-Schmidt decomposition, isomorphism testing.

The radical of End(M) is computed from its action on top M = M / rad M.
Let pi: End(M) -> prod_v End_k(top(M)_v) be that action and B its image
in M_t(k), t = dim top M.  The kernel I = {f : f(M) in rad M} of pi is a
two-sided ideal, and I^L = 0 for the Loewy length L, since f(rad^k M) lies
in rad^(k+1) M; so I lies in rad End(M), and rad End(M) = pi^-1(rad B).
B acts faithfully on k^t, so rad B comes from that realization: over Q
by the trace form, over GF(p) by the Cohen-Ivanyos-Wales chain (trace
first, then the c_p, c_{p^2}, ... conditions for p^k <= t, each linear
over the prime field on the previous stage); each stage is a kernel in
End coordinates, so the chain yields pi^-1(rad B) directly.  When p > t
the trace stage is the answer.  A module is indecomposable
iff End/rad is one-dimensional or a division algebra.  A decomposable
module is split by Fitting's lemma along deterministic candidate
endomorphisms (lifts of Frobenius-fixed or primitive elements of a
commutative End/rad, then the End basis); random combinations from a
fixed seed are only the last resort, so a decomposition is a function of
the module's content.  A module on which every arrow acts by zero needs
no End algebra: it is the direct sum of the lines of its vertex bases,
each a simple module, and a 1-dimensional module is indecomposable, so
that split is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from . import upoly
from .matrix import Matrix, NoSolution
from .module import (
    Module, ModuleMap, block_map, free_columns, hom_basis, identity_map, map_from_coordinates,
    map_vector, radical_spaces, random_combination, simple, submodule, sum_module, zero_map,
)


class Undecided(RuntimeError):
    """Decomposition search exhausted without a certificate."""


def _top_cuts(m: Module):
    """[(v, q_v, F_v)] for each vertex v where top M is nonzero.

    The rows of q_v, one kernel basis of the transpose of rad M_v
    (`radical_spaces`), cut rad M_v out, and q_v is the identity at its
    free columns F_v, so f's action on top M at v is q_v f_v[:, F_v].
    q_v is None where rad M_v = 0: there top M_v = M_v and the action is
    f_v itself.
    """
    cuts = []
    for v, span in radical_spaces(m).items():
        if span.is_zero():
            if m.dims[v]:
                cuts.append((v, None, range(m.dims[v])))
            continue
        kern, free = span.transpose().kernel_and_free()
        if free:
            cuts.append((v, kern.transpose(), free))
    return cuts


def _block_diag(field, entries, cuts) -> Matrix:
    """The t x t block-diagonal matrix whose blocks, one per cut, are read
    row by row from `entries` in turn."""
    mats, pos = [], 0
    for _, _, free in cuts:
        size = len(free)
        mats.append(Matrix(field, size, size, entries[pos:pos + size * size]))
        pos += size * size
    return Matrix.block_diag(field, mats)


class EndAlgebra:
    """End(M) as a Hom basis with its radical; elements are coordinate
    vectors on the basis (`map_from_coordinates` builds the map).  The
    basis is a `hom_basis`, the identity at its free columns, so a map's
    coordinates are read there (`QuotientAlgebra.coordinates`), not
    solved for."""

    def __init__(self, module: Module, basis=None):
        self.module = module
        self.field = module.field
        self.basis = basis if basis is not None else hom_basis(module, module)
        self.dim = len(self.basis)
        self._rad_coords = None
        self._quotient = None

    def radical_coords(self) -> Matrix:
        """Columns = basis of rad End(M) in End-coordinates.

        rad End(M) = pi^-1(rad B) for the action pi of End(M) on top M and
        its image B in M_t(k), t = dim top M (module docstring).  The
        kernel of the trace form Tr(pi(x) pi(y)) is the radical over Q;
        over GF(p) it is the first stage of the Cohen-Ivanyos-Wales chain,
        cut down by c_k(pi(x) pi(y)) = 0 for k = p, p^2, ... <= t, each
        condition linear on the previous stage.  Each stage is a product
        of `kernel_basis` matrices, which is the one basis of its span
        that is the identity at the span's last-nonzero rows: the matrix
        depends only on the subspace rad End(M), not on the route.

        The result is kept in the algebra's memo under ("end_radical",
        dims, action entries, basis map vectors): content-equal modules
        with the same basis share one radical, and it dies with the
        algebra.
        """
        if self._rad_coords is None:
            m = self.module
            key = ("end_radical", m.dim_vector(),
                   tuple(tuple(m.action[a.name].entries) for a in m.algebra.quiver.arrows),
                   tuple(tuple(map_vector(b)) for b in self.basis))
            self._rad_coords = m.algebra.cached(key, self._radical)
        return self._rad_coords

    def _radical(self) -> Matrix:
        """rad End(M) = pi^-1(rad B), computed on B = pi(End M) in M_t(k).

        pi(f) is f's action on top M, block diagonal over the vertices
        (`_top_cuts`).  ker pi is a nilpotent ideal, so it lies in every
        stage.  The stages are kernels in End coordinates: the trace Gram
        Tr(pi(x) pi(y)), then over GF(p) the c_{p^k} conditions for
        p^k <= t only, each on the previous stage's pairs.
        """
        field, n = self.field, self.dim
        if n == 0:
            return Matrix.zero(field, 0, 0)
        cuts = _top_cuts(self.module)
        blocks = [[f.components[v] if q is None else
                   q @ f.components[v].submatrix(range(q.cols), free) for v, q, free in cuts]
                  for f in self.basis]
        # Gram of Tr(xy) = sum_v sum_ij x_v[i, j] y_v[j, i]: rows are the
        # entries of the blocks of pi(x), columns those of their transposes
        flat = Matrix(field, n, sum(len(free) ** 2 for _, _, free in cuts),
                      [e for x in blocks for b in x for e in b.entries])
        flipped = [[e for b in y for e in b.transpose().entries] for y in blocks]
        current = (flat @ Matrix(field, flat.cols, n, [e for row in zip(*flipped) for e in row])
                   ).kernel_basis()
        if not field.is_prime_field:
            return current
        exp, t = field.p, sum(len(free) for _, _, free in cuts)
        while exp <= t and current.cols:
            combos = current.transpose() @ flat
            mats = [_block_diag(field, combos.row(c), cuts) for c in range(combos.rows)]
            m = len(mats)
            con = Matrix.zero(field, m, m)
            for i in range(m):
                for j in range(i, m):
                    con[i, j] = con[j, i] = upoly.charpoly_coefficient(mats[i] @ mats[j], exp)
            current = current @ con.kernel_basis()
            exp *= field.p
        return current

    # -- semisimple quotient ------------------------------------------------
    def semisimple_quotient(self) -> "QuotientAlgebra":
        """S = End/rad, on the End basis elements outside the radical
        (cached on this End algebra)."""
        if self._quotient is None:
            field = self.field
            rad = self.radical_coords()
            h, r = self.dim, rad.cols
            if r == 0:
                comp, projector = list(range(h)), Matrix.identity(field, h)
            else:
                _, pivots, _ = Matrix.hstack([rad, Matrix.identity(field, h)]).rref()
                comp = [c - r for c in pivots if c >= r]
                basis = Matrix.hstack([rad, Matrix.zero(field, h, 0) if not comp else
                                       Matrix.identity(field, h).submatrix(range(h), comp)])
                projector = basis.inverse().submatrix(range(r, h), range(h))
            self._quotient = QuotientAlgebra(self, comp, projector)
        return self._quotient


class QuotientAlgebra:
    """S = End/rad presented by structure constants over the field."""

    def __init__(self, end: EndAlgebra, comp_indices, projector):
        self.end = end
        self.field = end.field
        self.comp = comp_indices
        self.projector = projector  # (s x h): End coords -> S coords
        self.dim = len(comp_indices)
        self._table = {}
        self._free = free_columns(end.basis)
        self._sparse = [[(i, e) for i, e in enumerate(map_vector(b)) if e] for b in end.basis]
        self._one = self.project(self.coordinates(identity_map(end.module)))

    def coordinates(self, f: ModuleMap) -> list:
        """f's End coordinates: its entries at the basis's free columns,
        where the basis is the identity (`free_columns`).  They are the
        coordinates only if they give f back, so the combination is
        checked against f; raises NoSolution when f is outside End(M)."""
        p = self.field.p
        rest = map_vector(f)
        coords = [rest[c] for c in self._free]
        for c, entries in zip(coords, self._sparse):
            if c:
                for i, e in entries:
                    rest[i] -= c * e
        if p:
            rest = [r % p for r in rest]
        if any(rest):
            raise NoSolution()
        return coords

    def project(self, end_coords):
        col = Matrix.column(self.field, list(end_coords))
        out = self.projector @ col
        return [out[i, 0] for i in range(self.dim)]

    def lift(self, s_coords):
        out = [self.field.zero()] * self.end.dim
        for k, idx in enumerate(self.comp):
            out[idx] = s_coords[k]
        return out

    def one(self):
        return list(self._one)

    def mul(self, a, b):
        field = self.field
        out = [field.zero()] * self.dim
        for i, ai in enumerate(a):
            if ai == field.zero():
                continue
            for j, bj in enumerate(b):
                if bj == field.zero():
                    continue
                prod = self._basis_product(i, j)
                for k in range(self.dim):
                    out[k] = field.add(out[k], field.mul(field.mul(ai, bj), prod[k]))
        return out

    def _basis_product(self, i, j):
        key = (i, j)
        if key not in self._table:
            basis = self.end.basis
            prod = basis[self.comp[j]].then(basis[self.comp[i]])
            self._table[key] = self.project(self.coordinates(prod))
        return self._table[key]

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self._basis_product(i, j) != self._basis_product(j, i):
                    return False
        return True

    def mult_operator(self, a) -> Matrix:
        cols = []
        for j in range(self.dim):
            unit = [self.field.zero()] * self.dim
            unit[j] = self.field.one()
            cols.append(Matrix.column(self.field, self.mul(a, unit)))
        return Matrix.hstack(cols) if cols else Matrix.zero(self.field, 0, 0)

    def minpoly(self, a):
        return upoly.minpoly_matrix(self.mult_operator(a))

    def frobenius_fixed_basis(self):
        """A basis of {x : x^p = x} for commutative S over GF(p)."""
        p = self.field.p
        cols = []
        for j in range(self.dim):
            unit = [self.field.zero()] * self.dim
            unit[j] = self.field.one()
            power = self._power(unit, p)
            delta = [self.field.sub(power[k], unit[k]) for k in range(self.dim)]
            cols.append(Matrix.column(self.field, delta))
        kern = Matrix.hstack(cols).kernel_basis()
        return [[kern[i, c] for i in range(self.dim)] for c in range(kern.cols)]

    def _power(self, a, n):
        out = self.one()
        base = list(a)
        while n > 0:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out


def _division_algebra_check(s: QuotientAlgebra) -> bool | None:
    """S semisimple: True if S is a division algebra (proved), False if
    not (a witness found), None when neither is settled."""
    if s.dim == 1:
        return True
    if s.is_commutative():
        if s.field.is_prime_field:
            return len(s.frobenius_fixed_basis()) == 1
        xi = _primitive_element(s)
        if xi is not None:
            return upoly.is_irreducible(s.field, s.minpoly(xi))
    elif s.field.is_prime_field:
        # a finite division ring is commutative (Wedderburn)
        return False
    # over Q a zero-divisor unit disproves it; invertible units prove nothing
    for i in range(s.dim):
        unit = [s.field.zero()] * s.dim
        unit[i] = s.field.one()
        if not s.mult_operator(unit).is_invertible():
            return False
    return None


def _primitive_element(s: QuotientAlgebra):
    """Deterministic search for x with minimal polynomial of full degree."""
    candidates = []
    for i in range(s.dim):
        unit = [s.field.zero()] * s.dim
        unit[i] = s.field.one()
        candidates.append(unit)
    small = [s.field.from_int(n) for n in range(1, 4)]
    for c1, c2 in itertools.product(small, repeat=2):
        if s.dim >= 2:
            combo = [s.field.zero()] * s.dim
            one0, one1 = candidates[0], candidates[1]
            for k in range(s.dim):
                combo[k] = s.field.add(s.field.mul(c1, one0[k]), s.field.mul(c2, one1[k]))
            candidates.append(combo)
    for x in candidates:
        if upoly.degree(s.minpoly(x)) == s.dim:
            return x
    return None


def is_indecomposable(m: Module) -> bool:
    if m.is_zero():
        return False
    end = EndAlgebra(m)
    verdict = _division_algebra_check(end.semisimple_quotient())
    if verdict is None:
        split_once(m, end)  # raises Undecided when no split is found
    return bool(verdict)


# -- splitting ------------------------------------------------------------------


def _split_along_poly(m: Module, phi: ModuleMap, factors):
    """Fitting split of m along phi's minimal polynomial factors.

    factors = [(poly, mult)] with >= 2 entries; returns list of
    (submodule, inclusion).
    """
    field = m.field
    pieces = []
    for fac, e in factors:
        fpow = upoly.power(field, fac, e)
        spaces = {}
        for v in m.algebra.quiver.vertices:
            mat = upoly.eval_matrix(field, fpow, phi.components[v])
            spaces[v] = mat.kernel_basis()
        pieces.append(submodule(m, spaces))
    total = sum(p.total_dim() for p, _ in pieces)
    if total != m.total_dim() or any(p.total_dim() == 0 for p, _ in pieces):
        raise Undecided("Fitting split failed to partition the module")
    return pieces


def _deterministic_candidates(end: EndAlgebra):
    """Endomorphisms to try first: lifts of the Frobenius-fixed basis
    (GF(p)) or of a primitive element (Q) when End/rad is commutative,
    then the End basis, which holds a lift of each unit of End/rad."""
    s = end.semisimple_quotient()
    if s.is_commutative():
        if s.field.is_prime_field:
            quotient = s.frobenius_fixed_basis()
        else:
            xi = _primitive_element(s)
            quotient = [] if xi is None else [xi]
        for vec in quotient:
            yield map_from_coordinates(s.lift(vec), end.basis)
    yield from end.basis


def split_once(m: Module, end: EndAlgebra | None = None):
    """One nontrivial direct-sum split of a decomposable module.

    The Fitting split along the first candidate endomorphism whose
    minimal polynomial has two distinct irreducible factors.  rad End is
    nilpotent, so x and its image in End/rad have minimal polynomials with
    the same irreducible factors: a commutative End/rad that is not a field
    is split by a Frobenius-fixed element over GF(p), and by a primitive
    element over Q when the search finds one.  Random combinations from a
    fixed `Random(0)` are the last resort.
    """
    end = end or EndAlgebra(m)
    rng = Random(0)
    randoms = (random_combination(end.basis, rng, 4) for _ in range(max(8, 20 * end.dim)))
    for phi in itertools.chain(_deterministic_candidates(end), randoms):
        facs = upoly.factor_poly(m.field, upoly.minpoly_matrix(phi.total_matrix()))
        if len(facs) >= 2:
            return _split_along_poly(m, phi, facs)
    raise Undecided("no splitting endomorphism found")


@dataclass
class Decomposition:
    module: Module
    summands: list  # [(representative Module, multiplicity)]
    parts: list  # expanded module list matching witness block order
    witness: ModuleMap  # sum_module(algebra, parts) -> module, invertible


def decompose(m: Module) -> Decomposition:
    """Full decomposition into indecomposables with an invertible witness.

    When every arrow acts by zero, the line spanned by each basis vector
    at a vertex v is a submodule: the simple S(v), included by that basis
    vector, with no action to solve for.  m is the direct sum of these
    lines, and a 1-dimensional module is indecomposable, so they are the
    summands and no End algebra is built.
    Otherwise pieces are split (`split_once`) until End/rad of each is
    proved a division algebra, or Undecided is raised.  Either way the
    summands are grouped into isomorphism classes and the witness is
    checked to be invertible.
    """
    found = []  # (module, inclusion into m)
    if all(mat.is_zero() for mat in m.action.values()):
        stack = []
        for v, d in m.dims.items():
            basis = Matrix.identity(m.field, d)
            for k in range(d):
                line = simple(m.algebra, v)
                found.append((line, ModuleMap(line, m, {v: basis.submatrix(range(d), [k])},
                                              check=False)))
    else:
        stack = [(m, identity_map(m))]
    while stack:
        n, incl = stack.pop()
        if n.is_zero():
            continue
        end = EndAlgebra(n)
        if _division_algebra_check(end.semisimple_quotient()):
            found.append((n, incl))
            continue
        for piece, piece_incl in split_once(n, end):
            stack.append((piece, piece_incl.then(incl)))
    found.sort(key=lambda pair: (pair[0].total_dim(), pair[0].dim_vector(),
                                 pair[0].content_hash()))
    groups = []  # [representative, [(module, incl, iso rep->module)]]
    for n, incl in found:
        placed = False
        for rep, members in groups:
            ok, iso = is_isomorphic(rep, n, assume_indecomposable=True)
            if ok:
                members.append((n, incl, iso))
                placed = True
                break
        if not placed:
            groups.append((n, [(n, incl, identity_map(n))]))
    parts, blocks, summands = [], {}, []
    for rep, members in groups:
        summands.append((rep, len(members)))
        for _, incl, iso in members:
            blocks[0, len(parts)] = iso.then(incl)
            parts.append(rep)
    total = sum_module(m.algebra, parts)
    witness = block_map(total, m, dict(enumerate(parts)), {0: m}, blocks)
    if not witness.is_isomorphism():
        raise Undecided("decomposition witness is not invertible")
    return Decomposition(m, summands, parts, witness)


def is_isomorphic(m: Module, n: Module, assume_indecomposable: bool = False):
    """(answer, witness); deterministic and complete.

    With `assume_indecomposable` (End(m) local) a basis of Hom(m, n) that
    holds no isomorphism settles the answer as False.  If m and n are
    isomorphic, composing with one isomorphism carries the
    non-isomorphisms m -> n onto rad End(m), a proper subspace, and no
    basis of Hom(m, n) lies inside a proper subspace; so some basis
    element is an isomorphism, and the loop over the basis finds it.
    Composites g f with g in Hom(n, m) add nothing: g f invertible with
    equal dimension vectors already makes m and n isomorphic.  Otherwise
    the answer comes from matching the indecomposable summands of the two
    decompositions (Krull-Schmidt).
    """
    if m.dim_vector() != n.dim_vector():
        return False, None
    if m.is_zero():
        return True, zero_map(m, n)
    fwd = hom_basis(m, n)
    if not fwd:
        return False, None
    for f in fwd:
        if f.is_isomorphism():
            return True, f
    if assume_indecomposable:
        return False, None
    dm = decompose(m)
    dn = decompose(n)
    matched = _match_decompositions(dm, dn)
    if matched is None:
        return False, None
    return True, matched


def _match_decompositions(dm: Decomposition, dn: Decomposition):
    available = list(range(len(dn.parts)))
    blocks = {}
    for i, part in enumerate(dm.parts):
        for j in available:
            ok, iso = is_isomorphic(part, dn.parts[j], assume_indecomposable=True)
            if ok:
                available.remove(j)
                blocks[j, i] = iso
                break
        else:
            return None
    # witness: m's witness inverted, the isos placed as blocks, then n's witness
    middle = block_map(dm.witness.source, dn.witness.source, dict(enumerate(dm.parts)),
                       dict(enumerate(dn.parts)), blocks)
    return dm.witness.inverse().then(middle).then(dn.witness)
