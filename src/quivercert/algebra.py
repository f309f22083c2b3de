"""Basic algebras: path algebras modulo admissible relation ideals.

The basis of the quotient is extracted degree by degree: paths of
length l are reduced modulo the degree-l slice of the relation ideal
via exact row reduction, and construction stops at the first length
whose paths all die.  For relations whose terms have mixed lengths the
slices are not graded, so the whole truncated path space is reduced at
once; correctness is then certified by the caller-supplied max_len
bound (no noncommutative Groebner machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, FieldError
from .matrix import Matrix
from .quiver import Arrow, Quiver

DEGREE_PATH_LIMIT = 20_000


class NotAdmissible(ValueError):
    pass


class MalformedRelation(ValueError):
    pass


class _TrivialPath(tuple):
    """Length-zero path pinned to a vertex."""

    def __new__(cls, vertex: str):
        self = super().__new__(cls, ())
        self.vertex = vertex
        return self

    def __eq__(self, other):
        return isinstance(other, _TrivialPath) and other.vertex == self.vertex

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(("__trivial__", self.vertex))

    def __repr__(self):
        return f"e({self.vertex})"


def trivial_path(vertex: str) -> _TrivialPath:
    return _TrivialPath(vertex)


def path_key(p):
    return p if isinstance(p, _TrivialPath) else tuple(p)


@dataclass(frozen=True)
class Relation:
    """Sum of parallel paths of length >= 2 with nonzero coefficients.

    Paths are tuples of arrow names in diagrammatic order: (a, b) means
    "a then b" and requires target(a) == source(b).
    """

    terms: tuple  # tuple[(coeff_string, tuple[str, ...])]

    @staticmethod
    def build(terms) -> "Relation":
        return Relation(tuple((str(c), tuple(p)) for c, p in terms))

    def validate(self, quiver: Quiver, field: Field):
        if not self.terms:
            raise MalformedRelation("relation with no terms")
        ends = None
        for coeff, path in self.terms:
            if len(path) < 2:
                raise MalformedRelation(f"relation path {path} shorter than 2")
            if field.element(coeff) == field.zero():
                raise MalformedRelation("zero coefficient in relation")
            try:
                arrows = [quiver.arrow(name) for name in path]
            except KeyError as exc:
                raise MalformedRelation(f"unknown arrow in path {path}") from exc
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise MalformedRelation(f"non-composable path {path}")
            pair = (arrows[0].source, arrows[-1].target)
            if ends is None:
                ends = pair
            elif ends != pair:
                raise MalformedRelation(f"non-parallel terms in relation {self.terms}")

    def is_homogeneous(self) -> bool:
        return len({len(p) for _, p in self.terms}) == 1

    def describe(self) -> str:
        return " + ".join(f"{c}*{'.'.join(p)}" for c, p in self.terms)


class BasicAlgebra:
    """A quiver with relations, its path basis and multiplication table.

    `relation_terms` holds, per relation in `relations`, its terms as
    (field element, path) pairs: the coefficient strings parsed once
    here, so that checking a relation on a module parses nothing.

    `cached(key, build)` is the one memo other modules keep on an
    algebra: the projectives, injectives and projective sums, the terms
    of the total complexes of `lattice`, and the End radicals of
    `decompose`.  Every caller of a key gets the same object, so callers
    share these results and never mutate them.
    """

    def __init__(self, quiver, field, relations, basis_paths, reduce_map, loewy_length,
                 max_len, tensor_of=None):
        self.quiver = quiver
        self.field = field
        self.relations = tuple(relations)
        self.relation_terms = tuple(
            tuple((field.element(c), path) for c, path in r.terms)
            for r in self.relations)
        self.basis_paths = tuple(basis_paths)
        self.reduce_map = reduce_map  # path key -> tuple[(basis index, coeff)]
        self.loewy_length = loewy_length
        self.max_len = max_len
        self.tensor_of = tensor_of
        self._opposite = None
        self._memo = {}
        self._arrow_by_name = {a.name: a for a in quiver.arrows}

        self.basis_index = {path_key(p): i for i, p in enumerate(self.basis_paths)}
        self.basis_source = tuple(self.path_source(p) for p in self.basis_paths)
        self.basis_target = tuple(self.path_target(p) for p in self.basis_paths)
        self.e_index = {p.vertex: i for i, p in enumerate(self.basis_paths)
                        if isinstance(p, _TrivialPath)}
        self.basis_by_pair: dict[tuple[str, str], list[int]] = {}
        for i in range(len(self.basis_paths)):
            self.basis_by_pair.setdefault(
                (self.basis_source[i], self.basis_target[i]), []).append(i)
        self.mult_table = self._build_mult_table()

    def path_source(self, p) -> str:
        return p.vertex if isinstance(p, _TrivialPath) else self._arrow_by_name[p[0]].source

    def path_target(self, p) -> str:
        return p.vertex if isinstance(p, _TrivialPath) else self._arrow_by_name[p[-1]].target

    @property
    def dim(self) -> int:
        return len(self.basis_paths)

    def __repr__(self):
        return (f"BasicAlgebra(dim={self.dim}, vertices={len(self.quiver.vertices)}, "
                f"LL={self.loewy_length}, field={self.field})")

    def reduce_path(self, path):
        """Expand a nonempty path (tuple of arrow names) over the basis."""
        return self.reduce_map.get(tuple(path), ())

    def _build_mult_table(self):
        table = {}
        one = self.field.one()
        for i, p in enumerate(self.basis_paths):
            for j, q in enumerate(self.basis_paths):
                if self.basis_target[i] != self.basis_source[j]:
                    continue
                if len(p) == 0:
                    prod = ((j, one),)
                elif len(q) == 0:
                    prod = ((i, one),)
                else:
                    prod = self.reduce_map.get(tuple(p) + tuple(q), ())
                if prod:
                    table[(i, j)] = prod
        return table

    def mult(self, i: int, j: int):
        return self.mult_table.get((i, j), ())

    def elem_mul(self, a: dict, b: dict) -> dict:
        """Product of algebra elements given as {basis index: coeff} dicts."""
        out: dict[int, object] = {}
        F = self.field
        zero = F.zero()
        for i, ci in a.items():
            for j, cj in b.items():
                c = F.mul(ci, cj)
                if c == zero:
                    continue
                for k, ck in self.mult(i, j):
                    v = F.add(out.get(k, zero), F.mul(c, ck))
                    if v == zero:
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def cached(self, key: tuple, build):
        """build(), run on the first call with key and kept for the
        algebra's life; build must not return None.  A key is a tuple led
        by a name; modules in it compare by identity (they define no
        __eq__), and the memo holds its keys, so no id in it is reused."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build()
        return out

    def opposite(self) -> "BasicAlgebra":
        """Arrows and relation paths reversed; dimension is preserved."""
        if self._opposite is None:
            op_relations = [
                Relation.build([(c, tuple(reversed(p))) for c, p in r.terms])
                for r in self.relations
            ]
            op = build_algebra(self.quiver.opposite(), self.field, op_relations, self.max_len)
            if op.dim != self.dim:
                raise NotAdmissible("opposite algebra changed dimension")
            op._opposite = self
            self._opposite = op
        return self._opposite


def _paths_of_length(quiver: Quiver, length: int, shorter=None):
    """Composable arrow-name tuples, lexicographic by arrow input order."""
    if length == 0:
        return [trivial_path(v) for v in quiver.vertices]
    if length == 1:
        return [(a.name,) for a in quiver.arrows]
    by_source = {}
    for a in quiver.arrows:
        by_source.setdefault(a.source, []).append(a.name)
    arrow_target = {a.name: a.target for a in quiver.arrows}
    out = []
    for p in shorter:
        for name in by_source.get(arrow_target[p[-1]], []):
            out.append(tuple(p) + (name,))
    return out


def _sandwiches(quiver, field, rel, paths_by_len, pair_filter):
    """All products u * rel * v with (len(u), len(v)) in pair_filter.

    Yields term lists [(coeff, full path tuple)] with coefficients
    already coerced into the field.
    """
    arrow_source = {a.name: a.source for a in quiver.arrows}
    arrow_target = {a.name: a.target for a in quiver.arrows}
    src = arrow_source[rel.terms[0][1][0]]
    tgt = arrow_target[rel.terms[0][1][-1]]
    for lu, lv in pair_filter:
        for u in paths_by_len.get(lu, []):
            u_end = arrow_target[u[-1]] if len(u) else u.vertex
            if u_end != src:
                continue
            for v in paths_by_len.get(lv, []):
                v_start = arrow_source[v[0]] if len(v) else v.vertex
                if v_start != tgt:
                    continue
                yield [(field.element(c), tuple(u) + tuple(p) + tuple(v))
                       for c, p in rel.terms]


def build_algebra(quiver: Quiver, field: Field, relations, max_len: int = 30,
                  tensor_of=None) -> BasicAlgebra:
    """Construct the path-algebra quotient with its reduced path basis.

    Raises NotAdmissible when paths of length max_len survive reduction
    (the ideal cannot be certified nilpotent within the bound) and
    MalformedRelation for ill-formed relation data.
    """
    relations = [r if isinstance(r, Relation) else Relation.build(r) for r in relations]
    for r in relations:
        r.validate(quiver, field)
    if all(r.is_homogeneous() for r in relations):
        return _build_graded(quiver, field, relations, max_len, tensor_of)
    return _build_filtered(quiver, field, relations, max_len, tensor_of)


def _expand_pivots(field, current, reduced, pivots, free, free_index):
    """reduce_map entries for one rref: pivots expand over free paths."""
    entries = {}
    for k in free:
        entries[path_key(current[k])] = ((free_index[k], field.one()),)
    for r, pc in enumerate(pivots):
        expansion = []
        for k in free:
            c = reduced[r, k]
            if c != field.zero():
                expansion.append((free_index[k], field.neg(c)))
        entries[path_key(current[pc])] = tuple(expansion)
    return entries


def _build_graded(quiver, field, relations, max_len, tensor_of):
    paths_by_len = {0: _paths_of_length(quiver, 0), 1: _paths_of_length(quiver, 1)}
    basis_paths = list(paths_by_len[0]) + list(paths_by_len[1])
    reduce_map = {path_key(p): ((i, field.one()),) for i, p in enumerate(basis_paths)}

    if not paths_by_len[1]:
        return BasicAlgebra(quiver, field, relations, paths_by_len[0], {}, 1,
                            max_len, tensor_of)

    length = 1
    current = paths_by_len[1]
    loewy_length = None
    while loewy_length is None:
        length += 1
        if length > max_len:
            raise NotAdmissible(
                f"paths of length {max_len} survive; raise max_len or fix the relations")
        current = _paths_of_length(quiver, length, current)
        paths_by_len[length] = current
        if not current:
            loewy_length = length
            break
        if len(current) > DEGREE_PATH_LIMIT:
            raise NotAdmissible("path count explosion; the ideal is unlikely admissible")
        index = {tuple(p): k for k, p in enumerate(current)}
        rows = []
        for rel in relations:
            rel_len = len(rel.terms[0][1])
            if rel_len > length:
                continue
            pairs = [(lu, length - rel_len - lu) for lu in range(length - rel_len + 1)]
            for terms in _sandwiches(quiver, field, rel, paths_by_len, pairs):
                row = [field.zero()] * len(current)
                for coeff, p in terms:
                    row[index[p]] = field.add(row[index[p]], coeff)
                rows.append(row)
        if rows:
            mat = Matrix(field, len(rows), len(current), [x for row in rows for x in row])
            reduced, pivots, _ = mat.rref()
        else:
            reduced, pivots = None, ()
        pivot_set = set(pivots)
        free = [k for k in range(len(current)) if k not in pivot_set]
        if not free:
            for p in current:
                reduce_map[tuple(p)] = ()
            loewy_length = length
            break
        offset = len(basis_paths)
        free_index = {k: offset + n for n, k in enumerate(free)}
        basis_paths.extend(current[k] for k in free)
        reduce_map.update(_expand_pivots(field, current, reduced, pivots, free, free_index))
    return BasicAlgebra(quiver, field, relations, basis_paths, reduce_map, loewy_length,
                        max_len, tensor_of)


def _build_filtered(quiver, field, relations, max_len, tensor_of):
    """Whole-space reduction for relations with mixed term lengths.

    Exact under the caller-certified max_len bound: ideal products with
    terms longer than the working length are truncated away.
    """
    paths_by_len = {0: _paths_of_length(quiver, 0), 1: _paths_of_length(quiver, 1)}
    length = 1
    while paths_by_len[length] and length < max_len:
        paths_by_len[length + 1] = _paths_of_length(quiver, length + 1, paths_by_len[length])
        length += 1
        if sum(len(v) for v in paths_by_len.values()) > DEGREE_PATH_LIMIT:
            raise NotAdmissible("path count explosion; the ideal is unlikely admissible")
    all_paths = [p for l in sorted(paths_by_len) for p in paths_by_len[l]]
    index = {path_key(p): k for k, p in enumerate(all_paths)}
    rows = []
    for rel in relations:
        min_len = min(len(p) for _, p in rel.terms)
        pairs = [(lu, lv) for lu in range(0, length - min_len + 1)
                 for lv in range(0, length - min_len - lu + 1)]
        for terms in _sandwiches(quiver, field, rel, paths_by_len, pairs):
            row = [field.zero()] * len(all_paths)
            nonzero = False
            for coeff, p in terms:
                if len(p) > length:
                    continue  # certified-bound truncation
                row[index[p]] = field.add(row[index[p]], coeff)
                nonzero = True
            if nonzero:
                rows.append(row)
    if rows:
        mat = Matrix(field, len(rows), len(all_paths), [x for row in rows for x in row])
        reduced, pivots, _ = mat.rref()
    else:
        reduced, pivots = None, ()
    pivot_set = set(pivots)
    free = [k for k in range(len(all_paths)) if k not in pivot_set]
    free_index = {k: n for n, k in enumerate(free)}
    basis_paths = [all_paths[k] for k in free]
    reduce_map = _expand_pivots(field, all_paths, reduced, pivots, free, free_index)
    top_len = max((len(p) for p in basis_paths), default=0)
    if top_len >= max_len:
        raise NotAdmissible(
            f"paths of length {max_len} survive; raise max_len or fix the relations")
    return BasicAlgebra(quiver, field, relations, basis_paths, reduce_map, top_len + 1,
                        max_len, tensor_of)


def tensor(a: BasicAlgebra, b: BasicAlgebra) -> BasicAlgebra:
    """Tensor product: paired vertices, arrows from either side, lifted
    relations plus one commutativity relation per arrow pair."""
    if a.field != b.field:
        raise FieldError("tensor factors must share the field")

    def vname(x, y):
        return f"{x}.{y}"

    vertices = [vname(x, y) for x in a.quiver.vertices for y in b.quiver.vertices]
    arrows = []
    for ar in a.quiver.arrows:
        for y in b.quiver.vertices:
            arrows.append(Arrow(f"{ar.name}.{y}", vname(ar.source, y), vname(ar.target, y)))
    for x in a.quiver.vertices:
        for br in b.quiver.arrows:
            arrows.append(Arrow(f"{x}.{br.name}", vname(x, br.source), vname(x, br.target)))
    names = [ar.name for ar in arrows]
    if len(set(names)) != len(names):
        raise MalformedRelation("tensor arrow naming collision; rename factor arrows")
    quiver = Quiver(tuple(vertices), tuple(arrows))

    relations = []
    for rel in a.relations:
        for y in b.quiver.vertices:
            relations.append(Relation.build(
                [(c, tuple(f"{name}.{y}" for name in p)) for c, p in rel.terms]))
    for rel in b.relations:
        for x in a.quiver.vertices:
            relations.append(Relation.build(
                [(c, tuple(f"{x}.{name}" for name in p)) for c, p in rel.terms]))
    for ar in a.quiver.arrows:
        for br in b.quiver.arrows:
            first = (f"{ar.name}.{br.source}", f"{ar.target}.{br.name}")
            second = (f"{ar.source}.{br.name}", f"{ar.name}.{br.target}")
            relations.append(Relation.build([("1", first), ("-1", second)]))

    out = build_algebra(quiver, a.field, relations, max(a.max_len, b.max_len),
                        tensor_of=(a, b))
    if out.dim != a.dim * b.dim:
        raise NotAdmissible(
            f"tensor dimension {out.dim} != {a.dim} * {b.dim}; lifted relations inadequate")
    return out
