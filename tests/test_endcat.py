"""Gamma's composition tensor against its definition.

`CatAlgebra.compose_into(i, j, c)[k]` is the matrix of
g -> h_k.then(g): Hom(M_j, M_c) -> Hom(M_i, M_c) for the k-th basis map
h_k of Hom(M_i, M_j); the reference below builds it one map at a time
with `map_coordinates`, which is how the tensor is defined.
"""

import pytest

from quivercert import GF, QQ, Matrix, approx, endcat, presets
from quivercert.decompose import EndAlgebra
from quivercert.endcat import (
    CatAlgebra, DuplicateObject, SubFunctor, _pullback, auslander_generator, global_dimension, simple_pd,
    syzygy,
)
from quivercert.io import payload_hash
from quivercert.module import (
    Module, coordinates_matrix, hom_basis, injective, map_coordinates, map_vector, projective,
)
from quivercert.tiered import build_layering
from quivercert.torsfin import enumerate_torsionless


def _action_reference(cat, r, i, j, c):
    """Matrix of g -> r.then(g) for r: M_i -> M_j, column by column."""
    src, tgt = cat.hom(j, c), cat.hom(i, c)
    mat = Matrix.zero(cat.field, len(tgt), len(src))
    for t, g in enumerate(src):
        for s, val in enumerate(map_coordinates(r.then(g), tgt)):
            mat[s, t] = val
    return mat


def _e1_generator(name, field):
    alg = getattr(presets, name)(field)
    return auslander_generator(alg, enumerate_torsionless(alg), assume_complete=True)


def _kk_layering_objects():
    return build_layering(presets.kronecker_squared(GF(2))).objects


COMPOSE_OBJECTS = [
    pytest.param(lambda: _e1_generator("a3_rad_square", QQ), id="a3_rad_square@Q"),
    pytest.param(lambda: _e1_generator("kronecker_tensor_a2", GF(5)),
                 id="kronecker_tensor_a2@GF(5)"),
    pytest.param(_kk_layering_objects, id="KxK@GF(2)"),
    # the only generator here whose End rings have nonzero radicals
    pytest.param(lambda: _e1_generator("local_xy", GF(3)), id="local_xy@GF(3)"),
]


@pytest.mark.parametrize("objects", COMPOSE_OBJECTS)
def test_compose_tensor_matches_its_definition(objects):
    cat = CatAlgebra(objects(), verify=False)
    n = len(cat)
    for i in range(n):
        for j in range(n):
            for c in range(n):
                tensor = cat.compose_into(i, j, c)
                assert len(tensor) == len(cat.hom(i, j))
                for h, block in zip(cat.hom(i, j), tensor):
                    assert block == _action_reference(cat, h, i, j, c)
    assert cat.composition(0, 0, 0) is cat.composition(0, 0, 0)


@pytest.mark.parametrize("objects", COMPOSE_OBJECTS)
def test_compose_tensor_matches_its_definition_on_mixed_bases(objects, monkeypatch):
    # bases that are not reduced: the tensor is read through the inverse of
    # each basis at its reader positions
    monkeypatch.setattr(approx, "hom_basis", _mixed_hom_basis)
    test_compose_tensor_matches_its_definition(objects)


def _mixed_hom_basis(m, n):
    basis = hom_basis(m, n)
    return [b + basis[-1] for b in basis[:-1]] + basis[-1:]


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_endomorphism_basis_lists_the_radical_first(field, monkeypatch):
    # on these modules the radical coordinates on the hom_basis are 0/1;
    # mixing the last basis map into the others gives coordinates -1 too,
    # which the radical maps must carry
    alg = presets.local_xy(field)
    objects = [projective(alg, "*"), injective(alg, "*")]
    for mixed in (False, True):
        if mixed:
            monkeypatch.setattr(approx, "hom_basis", _mixed_hom_basis)
        cat = CatAlgebra(objects, verify=False)
        n = len(cat)
        for i in range(n):
            basis = approx.hom_basis(objects[i], objects[i])
            rad_coords = EndAlgebra(objects[i], basis).radical_coords()
            assert (field.neg(field.one()) in rad_coords.entries) == mixed
            ends = cat.hom(i, i)
            assert coordinates_matrix(ends, basis).rank() == len(basis) == len(ends)
            rads = cat.radical_maps(i, i)
            assert rads == ends[:len(rads)]
            assert len(rads) == rad_coords.cols > 0
            assert not any(r.is_isomorphism() for r in rads)
            # the radical of the representable Hom(-, M_i) at j, the images
            # of its ambients under the radical maps out of M_j, is spanned
            # by the first columns of the identity on hom(j, i)
            # (`simple_pd`'s first syzygy)
            mults = [int(c == i) for c in range(n)]
            for j in range(n):
                size, prefix = len(cat.hom(j, i)), len(cat.radical_maps(j, i))
                images = [_pullback(cat, mults, j, k, r, Matrix.identity(field, len(cat.hom(k, i))))
                          for k in range(n) for r in range(len(cat.radical_maps(j, k)))]
                first = Matrix.identity(field, size).submatrix(range(size), range(prefix))
                span = Matrix.hstack(images + [first])
                assert span.rank() == prefix
                assert span.submatrix(range(size), range(span.cols - prefix)).rank() == prefix


# `io.payload_hash` of `global_dimension`'s (value, pds, betti tables),
# recorded before the End bases listed their radicals first: betti numbers
# and pds are invariants of the minimal resolution, not of the bases
GLDIM_DIGESTS = [
    pytest.param(lambda: _e1_generator("local_xy", GF(3)),
                 "39b4b2409ac58aeea06674f6b616dc51d635536ab4948b35a611ac91e1b102a1",
                 id="local_xy@GF(3)"),
    pytest.param(lambda: _e1_generator("commutative_square_plus", GF(5)),
                 "056ea487a0e284bf453b24ed5e4e0ef63e3c938158885ce27462dd1283ebd9fb",
                 id="commutative_square_plus@GF(5)"),
    pytest.param(lambda: _e1_generator("kronecker_tensor_a2", GF(5)),
                 "434bd605a20d95cdca5cb79634f963771c5519669a7ccee83b0502a22923570f",
                 id="kronecker_tensor_a2@GF(5)"),
    pytest.param(lambda: _e1_generator("a3_rad_square", GF(5)),
                 "ba42b85c93b50ce95ce8da0e3200b5c94ea6ab128c2043ead8f8c11f7a56b8f9",
                 id="a3_rad_square@GF(5)"),
    pytest.param(_kk_layering_objects,
                 "7c8ed4fdb347747fca15ef84ccc64468b4d0662a4fa4fd831c9694e86afb34c5",
                 id="KxK@GF(2)"),
]


@pytest.mark.parametrize("objects, digest", GLDIM_DIGESTS)
def test_global_dimension_digests_are_pinned(objects, digest):
    assert payload_hash(global_dimension(CatAlgebra(objects(), verify=False))) == digest


@pytest.mark.parametrize("name", [
    "kronecker", "commutative_square_plus", "kronecker_squared", "local_xy", "a3_rad_square",
])
def test_irreducible_maps_between_projectives_are_the_arrows(name):
    # End((+) P_x) is A^op, so the irreducible maps P_x -> P_y, the arrows
    # of its quiver, number the arrows y -> x of A's quiver
    alg = getattr(presets, name)(GF(3))
    vertices = alg.quiver.vertices
    cat = CatAlgebra([projective(alg, v) for v in vertices], verify=False)
    for a, x in enumerate(vertices):
        for b, y in enumerate(vertices):
            arrows = [arrow for arrow in alg.quiver.arrows if (arrow.source, arrow.target) == (y, x)]
            assert len(cat.irreducible(a, b)) == len(arrows)
    assert cat.irreducible(0, 0) is cat.irreducible(0, 0)


def _span_rank(field, maps):
    vecs = [map_vector(f) for f in maps]
    if not vecs:
        return 0
    return Matrix(field, len(vecs), len(vecs[0]), [x for vec in vecs for x in vec]).rank()


def test_irreducible_maps_and_the_radical_square_span_the_radical():
    # rad^2 from the maps themselves, not from the composition tensor: the
    # chosen maps span a complement of rad^2 in rad(M_i, M_j)
    cat = CatAlgebra(_e1_generator("local_xy", GF(3)), verify=False)
    n, field = len(cat), cat.field
    for i in range(n):
        for j in range(n):
            rads = cat.radical_maps(i, j)
            squares = [t.then(s) for l in range(n)
                       for t in cat.radical_maps(i, l) for s in cat.radical_maps(l, j)]
            chosen = [rads[r] for r in cat.irreducible(i, j)]
            assert _span_rank(field, rads + squares) == len(rads)
            assert _span_rank(field, squares + chosen) == len(rads)
            assert _span_rank(field, squares) + len(chosen) == len(rads)


@pytest.mark.parametrize("objects", [
    pytest.param(lambda: _e1_generator("local_xy", GF(3)), id="local_xy@GF(3)"),
    pytest.param(_kk_layering_objects, id="KxK@GF(2)"),
])
def test_syzygy_along_irreducible_maps_matches_every_radical_map(objects, monkeypatch):
    # the reference route moves each K(j) along every radical basis map
    objects = objects()
    result = global_dimension(CatAlgebra(objects, verify=False))
    monkeypatch.setattr(CatAlgebra, "irreducible",
                        lambda cat, i, j: list(range(len(cat.radical_maps(i, j)))))
    assert global_dimension(CatAlgebra(objects, verify=False)) == result


def test_syzygy_rejects_a_space_that_is_not_a_subfunctor():
    # the representable Hom(-, M_1) with its space at object 8 cut down to
    # the last of its two columns: both maps M_8 -> M_1 are radical, so the
    # radical maps out of M_8 pull the full spaces elsewhere back onto both
    cat = CatAlgebra(_kk_layering_objects(), verify=False)
    n = len(cat)
    mults = [int(c == 1) for c in range(n)]
    spaces = [Matrix.identity(cat.field, len(cat.hom(i, 1))) for i in range(n)]
    rows = [list(range(space.rows)) for space in spaces]
    size = spaces[8].rows
    spaces[8] = spaces[8].submatrix(range(size), [size - 1])
    rows[8] = [size - 1]
    with pytest.raises(RuntimeError, match="radical escaped the subfunctor"):
        syzygy(cat, SubFunctor(mults, spaces, rows))


@pytest.mark.parametrize("objects", [
    pytest.param(lambda: _e1_generator("local_xy", GF(3)), id="local_xy@GF(3)"),
    pytest.param(_kk_layering_objects, id="KxK@GF(2)"),
])
def test_every_syzygy_is_the_identity_at_its_rows(objects, monkeypatch):
    # Phi_j is read off K(j)'s identity rows, so they must stay the
    # identity at every step of every resolution
    seen = []

    def recorded(cat, sub):
        out = syzygy(cat, sub)
        seen.extend([sub, out[0]])
        return out

    monkeypatch.setattr(endcat, "syzygy", recorded)
    _, pds, _ = global_dimension(CatAlgebra(objects(), verify=False))
    assert None not in pds and len(seen) == 2 * sum(pds) > 0
    for sub in seen:
        for space, rows in zip(sub.spaces, sub.identity_rows):
            assert len(rows) == space.cols
            assert space.submatrix(rows, range(space.cols)).is_identity()


def test_global_dimension_rejects_a_betti_table_that_is_not_exact(monkeypatch):
    # betti_1[0] of the first resolution of length one or more, one too
    # large, breaks the Euler identity at every object j with a map
    # M_j -> M_0 (M_0 itself at least)
    changed = []

    def bumped(cat, c, cutoff):
        pd, table = simple_pd(cat, c, cutoff)
        if pd and not changed:
            table[1][0] += 1
            changed.append(c)
        return pd, table

    objects = _e1_generator("local_xy", GF(3))
    global_dimension(CatAlgebra(objects, verify=False))
    monkeypatch.setattr(endcat, "simple_pd", bumped)
    with pytest.raises(RuntimeError, match="is not exact at object"):
        global_dimension(CatAlgebra(objects, verify=False))


def test_cat_algebra_rejects_two_isomorphic_objects():
    # P(1) on the Kronecker quiver and a copy of it in a new basis at vertex 2
    field = GF(3)
    alg = presets.kronecker(field)
    p = projective(alg, "1")
    g = Matrix.from_rows(field, [[1, 1], [0, 1]])
    twisted = Module(alg, p.dims, {name: g @ act for name, act in p.action.items()})
    assert twisted.action != p.action
    with pytest.raises(DuplicateObject):
        CatAlgebra([p, twisted])
    assert len(CatAlgebra([p])) == 1
