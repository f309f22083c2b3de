from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from quivercert import GF, QQ, Matrix
from quivercert import presets
from quivercert.decompose import is_indecomposable, is_isomorphic
from quivercert.fields import field_name
from quivercert.io import algebra_to_json, lattice_from_json, lattice_to_json
from quivercert.lattice import (
    ExtensionClass, Lattice, LatticeError, constant_lattice, eps_alpha, ext_nonzero,
    external_product, kronecker_family, kunneth_witness, odim_witness,
    rational_points, scale_class, tensor_lattice, tensor_map, tensor_module,
    tensor_sequence, yoneda_cocycle, cocycle_is_coboundary,
)
from quivercert.module import Module, identity_map, projective, simple, zero_map


def test_kronecker_family_specializations():
    for p in (2, 3, 5):
        field = GF(p)
        alg = presets.kronecker(field)
        lat = kronecker_family(alg)
        for a in range(p):
            m = lat.specialize([a])
            assert m.dim_vector() == (1, 1)
            assert is_indecomposable(m)
        assert lat.specialize([1]).action["b"][0, 0] == 1


def test_constant_lattice_specializes_to_module():
    alg = presets.kronecker(GF(5))
    p1 = projective(alg, "1")
    lat = constant_lattice(p1)
    for a in range(5):
        m = lat.specialize([a])
        ok, _ = is_isomorphic(m, p1)
        assert ok
        assert m.dim_vector() == tuple(lat.rank[v] for v in alg.quiver.vertices)


def test_eps_alpha_middle_is_jordan():
    field = GF(2)
    s_ts, mid_ts, _ = eps_alpha(field, 0)
    assert mid_ts[0].entries == [0, 0, 1, 0]


def test_tensor_sequence_kronecker():
    field = GF(3)
    alg = presets.kronecker(field)
    lat = kronecker_family(alg)
    for a in range(3):
        cls = tensor_sequence(lat, a)
        assert cls.exact
        assert cls.mids[0].dim_vector() == (2, 2)
        assert ext_nonzero(cls)  # nonsplit at every rational point


def test_ext_nonzero_agreement_degree_one():
    field = GF(5)
    alg = presets.kronecker(field)
    lat = kronecker_family(alg)
    for a in range(5):
        cls = tensor_sequence(lat, a)
        assert ext_nonzero(cls, via="retraction") == ext_nonzero(cls, via="cocycle")


def test_yoneda_cocycle_failed_lift_is_lattice_error():
    alg = presets.kronecker(GF(5))
    cls = tensor_sequence(kronecker_family(alg), 1)
    # a zero "injection" cannot carry the non-zero cocycle
    broken = ExtensionClass(1, cls.left, cls.mids, cls.right,
                            [zero_map(cls.left, cls.mids[0]), cls.maps[1]])
    with pytest.raises(LatticeError, match="cocycle lift failed"):
        yoneda_cocycle(broken)


def test_constant_projective_lattice_splits():
    alg = presets.kronecker(GF(5))
    lat = constant_lattice(projective(alg, "1"))
    cls = tensor_sequence(lat, 2)
    assert not ext_nonzero(cls)
    assert not ext_nonzero(cls, via="cocycle")


def test_eps_generates_one_dimensional_ext():
    # over k[t]/t^2 the self-extension space of the simple is 1-dim and
    # the canonical class is nonzero, so it generates
    field = GF(3)
    alg = presets.truncated_polynomial(field, 2)
    s = simple(alg, "*")
    mid = Module(alg, {"*": 2}, {"t": Matrix.from_rows(field, [[0, 0], [1, 0]])})
    from quivercert.module import ModuleMap
    incl = ModuleMap(s, mid, {"*": Matrix.from_rows(field, [[0], [1]])})
    proj = ModuleMap(mid, s, {"*": Matrix.from_rows(field, [[1, 0]])})
    cls = ExtensionClass(1, s, [mid], s, [incl, proj])
    assert cls.verify_exact()
    assert ext_nonzero(cls)
    from quivercert.module import hom_basis
    from quivercert.functors import min_projective_presentation
    # Ext^1(S,S) dimension: cocycles mod coboundaries on the resolution
    f, e = min_projective_presentation(s)
    from quivercert.lattice import _resolution
    projs, diffs, aug = _resolution(s, 2)
    hom_p1 = hom_basis(projs[1], s)
    cocycles = [h for h in hom_p1]  # all are cocycles for this resolution shape
    cob_rank = 0
    from quivercert.matrix import Matrix as Mx
    cols = []
    for psi in hom_basis(projs[0], s):
        comp = diffs[0].then(psi)
        cols.append([x for v in comp.components for x in comp.components[v].entries])
    if cols:
        mat = Mx(field, len(cols[0]), len(cols),
                 [cols[c][r] for r in range(len(cols[0])) for c in range(len(cols))])
        cob_rank = mat.rank()
    cocycle_rank = len(hom_p1)
    assert cocycle_rank - cob_rank == 1


def test_specialize_commutes_with_tensor():
    for field in (GF(5), QQ):
        kron = presets.kronecker(field)
        kk = presets.kronecker_squared(field)
        fam = kronecker_family(kron)
        for right in (fam, constant_lattice(projective(kron, "1"))):
            prod = tensor_lattice(kk, fam, right)
            for a, b in product([0, 1, 3], [0, 2, "1/2"]):
                direct = prod.specialize([a, b])
                # both routes order the fibre at x.y as (x, y) pairs
                via_modules = tensor_module(kk, fam.specialize([a]), right.specialize([b]))
                assert direct.dims == via_modules.dims
                assert direct.action == via_modules.action


def test_external_product_nonzero_on_kk():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    for a in range(2):
        for b in range(2):
            cls_a = tensor_sequence(lat, a)
            cls_b = tensor_sequence(lat, b)
            prod = external_product(kk, cls_a, cls_b)
            assert prod.degree == 2
            assert prod.exact
            assert ext_nonzero(prod)


def test_external_product_orders_cohomologous():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    cls_a = tensor_sequence(lat, 0)
    cls_b = tensor_sequence(lat, 1)
    left = external_product(kk, cls_a, cls_b, order="left")
    right = external_product(kk, cls_a, cls_b, order="right")
    assert ext_nonzero(left) == ext_nonzero(right)
    phi_l, projs, diffs = yoneda_cocycle(left)
    phi_r, _, _ = yoneda_cocycle(right)
    same = cocycle_is_coboundary(phi_l - phi_r, diffs[1])
    flipped = cocycle_is_coboundary(phi_l + phi_r, diffs[1])
    assert same or flipped


def test_external_product_with_degree_zero():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    cls = tensor_sequence(lat, 1)
    other = lat.specialize([0])
    trivial = ExtensionClass(0, other, [], other, [])
    prod = external_product(kk, cls, trivial)
    assert prod.degree == 1
    assert prod.exact


def test_product_with_split_class_is_zero():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    fam = kronecker_family(kron)
    split_lat = constant_lattice(projective(kron, "1"))
    cls_a = tensor_sequence(fam, 1)
    cls_split = tensor_sequence(split_lat, 0)
    prod = external_product(kk, cls_a, cls_split)
    assert not ext_nonzero(prod)


def test_scaling_bilinearity_degree_one():
    field = GF(5)
    alg = presets.kronecker(field)
    lat = kronecker_family(alg)
    cls = tensor_sequence(lat, 2)
    scaled = scale_class(cls, 3)
    # both nonzero; difference of cocycles is NOT a coboundary for the
    # scaled-by-nonunit... rather: cocycle(scaled) = 3^{-1} cocycle(cls)
    phi, projs, diffs = yoneda_cocycle(cls)
    phi_s, _, _ = yoneda_cocycle(scaled)
    inv3 = field.inv(field.from_int(3))
    diff = phi_s - phi.scale(inv3)
    assert cocycle_is_coboundary(diff, diffs[0])


def test_odim_witness_kronecker_all_fields():
    for p in (2, 3, 5):
        alg = presets.kronecker(GF(p))
        lat = kronecker_family(alg)
        cert = odim_witness(lat)
        assert cert["points"] == p
        assert cert["passed"] == p
        assert cert["witness_for_odim_ge"] == 1


def test_odim_witness_constant_lattice_fails_everywhere():
    alg = presets.kronecker(GF(5))
    lat = constant_lattice(projective(alg, "1"))
    cert = odim_witness(lat)
    assert cert["passed"] == 0
    assert cert["witness_for_odim_ge"] == 0


def test_kunneth_witness_kk_over_f2():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    cert = kunneth_witness(kk, lat, lat)
    assert cert["points"] == 4
    assert cert["passed"] == 4
    assert cert["witness_for_odim_ge"] == 2


def test_lattice_rejects_bad_relations():
    field = GF(3)
    alg = presets.kronecker_tensor_a2(field)
    one = Matrix.identity(field, 1)
    rank = {v: 1 for v in alg.quiver.vertices}
    action = {a.name: {(0,): one} for a in alg.quiver.arrows}
    Lattice(alg, 1, rank, action)
    with pytest.raises(LatticeError, match="violates relation"):
        # commutativity fails if one diagonal leg carries T
        Lattice(alg, 1, rank, dict(action, **{"a.1": {(1,): one}}))


def test_lattice_checks_exponents_shapes_and_field():
    field = GF(3)
    alg = presets.kronecker(field)
    one = Matrix.identity(field, 1)
    rank = {"1": 1, "2": 1}
    for bad in ({"a": {(0, 1): one}}, {"a": {(9,): one}}, {"a": {(-1,): one}},
                {"a": {(0,): Matrix.identity(field, 2)}},
                {"a": {(0,): Matrix.identity(GF(5), 1)}}):
        with pytest.raises(LatticeError):
            Lattice(alg, 1, rank, bad)
    lat = Lattice(alg, 1, rank, {"a": {(0,): one, (1,): Matrix.zero(field, 1, 1)}})
    assert lat.action == {"a": {(0,): one}, "b": {}}


def test_tensor_map_is_composite_of_one_sided_maps():
    field = GF(3)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    f = tensor_sequence(lat, 1).maps[0]
    g = tensor_sequence(lat, 2).maps[1]
    src = tensor_module(kk, f.source, g.source)
    mid = tensor_module(kk, f.target, g.source)
    tgt = tensor_module(kk, f.target, g.target)
    f_id = tensor_map(src, mid, f, identity_map(g.source))
    id_g = tensor_map(mid, tgt, identity_map(f.target), g)
    both = tensor_map(src, tgt, f, g)
    assert f_id.intertwines() and id_g.intertwines() and both.intertwines()
    assert both.components == f_id.then(id_g).components


def _assert_maps_run_along_chain(prod):
    chain = [prod.left] + prod.mids + [prod.right]
    assert len(prod.maps) == len(chain) - 1 == prod.degree + 1
    for k, f in enumerate(prod.maps):
        assert f.source is chain[k]
        assert f.target is chain[k + 1]
        assert f.intertwines()


@pytest.mark.parametrize("order", ["left", "right"])
def test_external_product_maps_run_between_its_own_modules(order):
    field = GF(3)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    prod = external_product(kk, tensor_sequence(lat, 0), tensor_sequence(lat, 2), order=order)
    _assert_maps_run_along_chain(prod)
    assert prod.exact


def test_external_product_degree_zero_maps_run_between_its_own_modules():
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    other = lat.specialize([0])
    prod = external_product(kk, tensor_sequence(lat, 1), ExtensionClass(0, other, [], other, []))
    _assert_maps_run_along_chain(prod)
    assert ext_nonzero(prod)


@pytest.mark.parametrize("order", ["left", "right"])
@pytest.mark.parametrize("zero_first", [True, False])
def test_external_product_degree_zero_on_either_side(order, zero_first):
    field = GF(2)
    kron = presets.kronecker(field)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(kron)
    other = lat.specialize([0])
    trivial = ExtensionClass(0, other, [], other, [])
    cls = tensor_sequence(lat, 1)
    factors = (trivial, cls) if zero_first else (cls, trivial)
    prod = external_product(kk, *factors, order=order)
    assert prod.degree == 1
    _assert_maps_run_along_chain(prod)
    assert prod.exact
    assert ext_nonzero(prod)


def test_kunneth_witness_builds_each_point_sequence_once(monkeypatch):
    # each factor needs one tensored sequence per coordinate value: 2p in
    # all, not two per point; the table matches the per-point route
    from quivercert import lattice as lattice_module
    field = GF(3)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(presets.kronecker(field))
    original = lattice_module.tensor_sequence
    calls = []

    def counting(lat_, alpha):
        calls.append(alpha)
        return original(lat_, alpha)

    monkeypatch.setattr(lattice_module, "tensor_sequence", counting)
    cert = kunneth_witness(kk, lat, lat)
    assert len(calls) == 2 * field.p
    monkeypatch.undo()
    expected = [
        {"point": [field.format(c) for c in pt],
         "nonzero": ext_nonzero(external_product(
             kk, tensor_sequence(lat, pt[0]), tensor_sequence(lat, pt[1])))}
        for pt in rational_points(field, 2)]
    assert cert["table"] == expected
    assert cert["passed"] == cert["points"] == field.p ** 2


# -- property tests: kronecker has no relations, so any coefficients form a lattice --

PROPERTY_FIELDS = (GF(5), QQ)


@st.composite
def kronecker_lattice_payloads(draw):
    """A lattice JSON payload on kronecker: d in {1, 2}, ranks <= 2, and
    per entry a term list of degree <= 3 that may repeat a monomial or
    carry a zero coefficient."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    alg = presets.kronecker(field)
    d = draw(st.integers(1, 2))
    rank = {v: draw(st.integers(0, 2)) for v in alg.quiver.vertices}
    exps = st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(lambda e: sum(e) <= 3)
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3))).map(str)
    term = st.tuples(coeff, exps).map(list)
    action = {a.name: [[draw(st.lists(term, max_size=3)) for _ in range(rank[a.source])]
                       for _ in range(rank[a.target])]
              for a in alg.quiver.arrows}
    return {"field": field_name(field), "d": d, "rank": rank, "action": action,
            "algebra": algebra_to_json(alg)}


@settings(max_examples=60, deadline=None)
@given(kronecker_lattice_payloads(), st.data())
def test_kronecker_lattice_json_round_trip_and_specialize(payload, data):
    lat, alg = lattice_from_json(payload)
    field = lat.field
    out = lattice_to_json(lat)
    back, _ = lattice_from_json(out)
    assert back.action == lat.action
    assert lattice_to_json(back) == out
    point = [field.element(data.draw(st.integers(-3, 3))) for _ in range(lat.d)]
    m = lat.specialize(point)

    def value(entry):
        return field.element(sum(field.element(c) * prod(x ** k for x, k in zip(point, e))
                                 for c, e in entry))

    for a in alg.quiver.arrows:
        rows = payload["action"][a.name]
        assert ([m.action[a.name].row(i) for i in range(len(rows))]
                == [[value(entry) for entry in row] for row in rows])
