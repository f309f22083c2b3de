import json

import pytest

from quivercert import GF, QQ, FieldError
from quivercert import presets
from quivercert.algebra import MalformedRelation, tensor
from quivercert.io import (
    InputError, algebra_from_json, algebra_to_json, lattice_from_json,
    lattice_to_json, load_algebra, load_lattice, load_module, module_from_json,
    module_to_json, payload_hash, save_algebra, save_lattice,
)
from quivercert.lattice import Lattice, LatticeError, kronecker_family
from quivercert.matrix import Matrix
from quivercert.module import Module, ModuleError, projective, projective_sum

PRESETS = (
    presets.a3_rad_square, presets.kronecker, presets.commutative_square_plus,
    presets.local_xy, presets.kronecker_tensor_a2, presets.full_commutative_square,
)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("build", PRESETS, ids=lambda b: b.__name__)
def test_algebra_round_trip_keeps_basis_relations_and_hash(build, field):
    alg = build(field)
    payload = algebra_to_json(alg)
    back = algebra_from_json(json.loads(json.dumps(payload)))
    assert back.field == alg.field
    assert back.basis_paths == alg.basis_paths
    assert back.relations == alg.relations
    assert payload_hash(algebra_to_json(back)) == payload_hash(payload)


def test_algebra_file_round_trip(tmp_path):
    alg = presets.kronecker_tensor_a2(GF(5))
    path = tmp_path / "alg.json"
    save_algebra(alg, str(path))
    back, digest = load_algebra(str(path))
    assert digest == payload_hash(algebra_to_json(alg))
    assert back.dim == alg.dim


def test_unknown_algebra_keys_raise_typed_errors():
    # an unknown key would load and still change the payload's hash
    product = tensor(presets.kronecker(QQ), presets.kronecker(QQ))
    for alg in (presets.kronecker(QQ), product):
        payload = json.loads(json.dumps(algebra_to_json(alg)))
        assert algebra_from_json(payload).dim == alg.dim
        for key in ("flags", "max_path_lenght"):
            with pytest.raises(InputError, match=key):
                algebra_from_json(dict(payload, **{key: 1}))
    payload = algebra_to_json(product)
    factors = [dict(payload["tensor_of"][0], flags=[]), payload["tensor_of"][1]]
    with pytest.raises(InputError, match="flags"):
        algebra_from_json(dict(payload, tensor_of=factors))


def test_module_round_trip_on_projectives(tmp_path):
    alg = presets.commutative_square_plus(GF(5))
    reg = projective_sum(alg, alg.quiver.vertices)
    for m in [projective(alg, x) for x in alg.quiver.vertices] + [reg]:
        payload = module_to_json(m)
        back = module_from_json(json.loads(json.dumps(payload)), alg)
        assert back.content_hash() == m.content_hash() == payload["content_hash"]
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(module_to_json(reg)))
    back, digest = load_module(str(path), alg)
    assert back.content_hash() == reg.content_hash()
    assert digest == payload_hash(module_to_json(reg))


def test_lattice_round_trip_on_kronecker_family(tmp_path):
    for field in (GF(3), QQ):
        lat = kronecker_family(presets.kronecker(field))
        payload = lattice_to_json(lat)
        back, alg = lattice_from_json(json.loads(json.dumps(payload)))
        assert lattice_to_json(back) == payload
        assert back.specialize([2]).content_hash() == lat.specialize([2]).content_hash()
    path = tmp_path / "lat.json"
    save_lattice(lat, str(path))
    back, _, digest = load_lattice(str(path))
    assert digest == payload_hash(lattice_to_json(lat))


def test_malformed_payloads_raise_typed_errors(tmp_path):
    alg = presets.kronecker(GF(3))
    payload = algebra_to_json(alg)
    with pytest.raises(InputError):
        algebra_from_json({k: v for k, v in payload.items() if k != "arrows"})
    with pytest.raises(InputError):
        algebra_from_json(dict(payload, arrows=[{"name": "a", "source": "1"}]))
    with pytest.raises(MalformedRelation):
        algebra_from_json(dict(payload, relations=[[{"coeff": "1", "path": ["a", "z"]}]]))
    with pytest.raises(InputError):
        module_from_json({"action": {}}, alg)
    with pytest.raises(ModuleError):
        module_from_json({"dims": {"1": 1, "2": 1}, "action": {"a": [["1", "0"]]}}, alg)
    with pytest.raises(FieldError):
        module_from_json({"dims": {"1": 1, "2": 1}, "action": {"a": [["x"]]}}, alg)
    with pytest.raises(FieldError):
        algebra_from_json(dict(payload, field="GF(4)"))
    for wrongly_typed in ({"dims": [1, 2]}, {"dims": {"1": "x"}},
                          {"dims": {"1": 1, "2": 1}, "action": []},
                          {"dims": {"1": 1.9, "2": 0}}, {"dims": {"1": True, "2": 0}}):
        with pytest.raises(InputError):
            module_from_json(wrongly_typed, alg)
    with pytest.raises(ModuleError, match="not a count"):
        module_from_json({"dims": {"1": -1, "2": 0}, "action": {}}, alg)
    with pytest.raises(InputError):
        algebra_from_json(dict(payload, max_path_length="abc"))
    lat_payload = lattice_to_json(kronecker_family(alg))
    with pytest.raises(LatticeError, match="not a count"):
        lattice_from_json(dict(lat_payload, rank={"1": -2, "2": 0}, action={}))
    with pytest.raises(InputError):
        lattice_from_json({k: v for k, v in lat_payload.items() if k != "d"})
    with pytest.raises(InputError):
        lattice_from_json(dict(lat_payload, d="x"))
    with pytest.raises(InputError):
        lattice_from_json(dict(lat_payload, rank=[1, 1]))
    with pytest.raises(InputError):
        lattice_from_json(dict(lat_payload, action={"a": [[[["1", [1.5]]]]]}))
    for term in (["1"], ["1", [0], "x"]):
        with pytest.raises(InputError):
            lattice_from_json(dict(lat_payload, action={"a": [[[term]]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_algebra(str(bad))
    with pytest.raises(InputError):
        load_lattice(str(tmp_path / "missing.json"))


def test_unknown_vertices_and_arrows_raise_typed_errors():
    # a key that names no vertex or arrow is refused, not dropped: at the
    # constructors and in payloads
    field = GF(3)
    alg = presets.kronecker(field)
    one = Matrix.identity(field, 1)
    with pytest.raises(ModuleError, match="no arrow"):
        Module(alg, {"1": 1, "2": 1}, {"typo": one})
    with pytest.raises(ModuleError, match="no vertex"):
        Module(alg, {"1": 1, "9": 4}, {})
    with pytest.raises(ModuleError, match="no arrow"):
        module_from_json({"dims": {"1": 1, "2": 1}, "action": {"typo": [["1"]]}}, alg)
    with pytest.raises(ModuleError, match="no vertex"):
        module_from_json({"dims": {"1": 1, "9": 4}, "action": {}}, alg)
    with pytest.raises(LatticeError, match="no arrow"):
        Lattice(alg, 1, {"1": 1, "2": 1}, {"typo": {(0,): one}})
    with pytest.raises(LatticeError, match="no vertex"):
        Lattice(alg, 1, {"1": 1, "9": 1}, {})
    payload = lattice_to_json(kronecker_family(alg))
    with pytest.raises(LatticeError, match="no arrow"):
        lattice_from_json(dict(payload, action=dict(payload["action"], typo=[[[["1", [0]]]]])))
    with pytest.raises(LatticeError, match="no vertex"):
        lattice_from_json(dict(payload, rank=dict(payload["rank"], **{"9": 0})))


def test_lattice_action_shape_must_match_the_ranks():
    # rank 1 at both vertices: an action matrix is 1 x 1; a row too long
    # must not spill into the next row, and a missing row is no zero row
    payload = lattice_to_json(kronecker_family(presets.kronecker(GF(3))))
    term = [["1", [0]]]
    for rows in ([], [[term], [term]], [[term, term]], [[]]):
        with pytest.raises(LatticeError, match="shape mismatch"):
            lattice_from_json(dict(payload, action=dict(payload["action"], b=rows)))
    with pytest.raises(LatticeError, match="shape mismatch"):
        lattice_from_json(dict(payload, rank={"1": 2, "2": 1}))


def test_lattice_parser_adds_repeated_monomials():
    payload = lattice_to_json(kronecker_family(presets.kronecker(GF(3))))
    # over GF(3): T + T = 2T, and 1 + 2 = 0 drops the constant term
    rows = [[[["1", [1]], ["1", ["1"]], ["1", [0]], ["2", [0]]]]]
    lat, _ = lattice_from_json(dict(payload, action=dict(payload["action"], b=rows)))
    assert lattice_to_json(lat)["action"]["b"] == [[[["2", [1]]]]]
