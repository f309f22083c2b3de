"""Gamma's composition tensor against its definition.

`CatAlgebra.compose_into(i, j, c)[k]` is the matrix of
g -> h_k.then(g): Hom(M_j, M_c) -> Hom(M_i, M_c) for the k-th basis map
h_k of Hom(M_i, M_j); the reference below builds it one map at a time
with `map_coordinates`, which is how the tensor is defined.
"""

import pytest

from quivercert import GF, QQ, Matrix, presets
from quivercert.endcat import CatAlgebra, auslander_generator
from quivercert.module import injective, map_coordinates, projective
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


@pytest.mark.parametrize("objects", [
    pytest.param(lambda: _e1_generator("a3_rad_square", QQ), id="a3_rad_square@Q"),
    pytest.param(lambda: _e1_generator("kronecker_tensor_a2", GF(5)),
                 id="kronecker_tensor_a2@GF(5)"),
    pytest.param(_kk_layering_objects, id="KxK@GF(2)"),
    # the only generator here whose End rings have nonzero radicals
    pytest.param(lambda: _e1_generator("local_xy", GF(3)), id="local_xy@GF(3)"),
])
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
                if i == j:
                    rads = cat.radical_maps(i, i)
                    acts = cat.radical_action(i, i, c)
                    assert len(acts) == len(rads)
                    for r, act in zip(rads, acts):
                        assert act == _action_reference(cat, r, i, i, c)
    assert cat.composition(0, 0, 0) is cat.composition(0, 0, 0)


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_radical_action_on_a_mixed_endomorphism_basis(field):
    # on these modules (and on every generator above) the radical
    # coordinates on the hom_basis are 0/1; mixing the last basis map into
    # the others gives coordinates -1 too, which the sum over R[k, m] must
    # carry
    alg = presets.local_xy(field)
    cat = CatAlgebra([projective(alg, "*"), injective(alg, "*")], verify=False)
    for i in range(len(cat)):
        basis = cat.hom(i, i)
        cat._cat._homs[(i, i)] = [b + basis[-1] for b in basis[:-1]] + [basis[-1]]
    minus_one = field.neg(field.one())
    for i in range(len(cat)):
        assert minus_one in cat._cat.radical_coords(i).entries
        for c in range(len(cat)):
            acts = cat.radical_action(i, i, c)
            rads = cat.radical_maps(i, i)
            assert len(acts) == len(rads) > 0
            for r, act in zip(rads, acts):
                assert act == _action_reference(cat, r, i, i, c)
