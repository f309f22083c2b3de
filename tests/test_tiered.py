import sys

import pytest

from quivercert import GF, QQ, NoSolution
from quivercert import presets
from quivercert.algebra import tensor
from quivercert.decompose import decompose, is_isomorphic, split_once
from quivercert.endcat import CatAlgebra, global_dimension, layering_check
from quivercert.decompose import is_indecomposable
from quivercert.io import payload_hash
from quivercert.module import (
    coordinates_matrix, hom_basis, injective, projective, socle, socle_series, zero_map,
    zero_module,
)
from quivercert.tiered import (
    NotNicelyTiered, build_layering, find_embedding, p1_check, p2_check,
    truncations,
)


def test_truncations_a2():
    alg = presets.a2(QQ)
    trunc = truncations(alg)
    dims = sorted(e.module.dim_vector() for e in trunc)
    # simples S(1), S(2) (as 1Q), P(1) = 2P(1) = Q(2)
    assert dims == [(0, 1), (1, 0), (1, 1)]
    simples_q1 = [e for e in trunc if any(t == 1 for _, t in e.q_indices)]
    assert len(simples_q1) == 2


def test_truncations_kk_contains_second_socle():
    alg = presets.kronecker_squared(GF(2))
    trunc = truncations(alg)
    dims = [e.module.dim_vector() for e in trunc]
    src = [v for v in alg.quiver.vertices if not alg.quiver.arrows_to(v)][0]
    p = projective(alg, src)
    s2, _ = socle_series(p)[1]
    assert s2.dim_vector() in dims
    # Q_1 is exactly the simples
    q1 = [e for e in trunc if any(t == 1 for _, t in e.q_indices)]
    assert sorted(e.module.total_dim() for e in q1) == [1, 1, 1, 1]
    # object count: 3 non-simple projectives (P^0), 2P(source) (P^1),
    # 4 simples (Q_1), Q(m1), Q(m2), 2Q(sink) (Q_2), Q(sink) (Q_3)
    assert len(trunc) == 12


def test_truncations_reject_zero_relations():
    # the quiver of A3/rad2 is nicely tiered, but its zero relation is not
    # a commutativity relation, so the tiered machinery refuses it
    alg = presets.a3_rad_square(QQ)
    with pytest.raises(NotNicelyTiered):
        truncations(alg)


def test_p1_fails_on_ex84_left():
    alg = presets.ex84_left(GF(2))
    ok, witnesses = p1_check(alg)
    assert not ok
    assert witnesses[0]["vertex"] == "c"
    assert witnesses[0]["end_dim"] >= 2


def test_p1_passes_on_ex84_middle_and_right():
    for maker in (presets.ex84_middle, presets.ex84_right):
        ok, witnesses = p1_check(maker(GF(2)))
        assert ok, witnesses


def test_p2_fails_on_ex84_middle_with_witness():
    alg = presets.ex84_middle(GF(2))
    ok, witnesses = p2_check(alg)
    assert not ok
    pairs = {tuple(w["pair"]) for w in witnesses}
    assert ("a", "a2") in pairs


def test_p2_fails_on_ex84_right():
    alg = presets.ex84_right(GF(3))
    ok, witnesses = p2_check(alg)
    assert not ok


def test_p1_p2_pass_on_kk():
    alg = presets.kronecker_squared(GF(2))
    ok1, w1 = p1_check(alg)
    ok2, w2 = p2_check(alg)
    assert ok1, w1
    assert ok2, w2


def test_p2_passes_linear_a3():
    from quivercert.algebra import build_algebra
    from quivercert.quiver import Quiver
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, QQ, [])
    ok, witnesses = p2_check(alg)
    assert ok, witnesses


def test_find_embedding_dimension_obstruction():
    alg = presets.ex84_right(QQ)
    pa = projective(alg, "a")
    pa2 = projective(alg, "a2")
    assert find_embedding(pa, pa2) is None


def test_build_layering_kk():
    alg = presets.kronecker_squared(GF(2))
    layering = build_layering(alg)
    assert layering.layer_count() == 4
    # layer 1 = the four simples
    assert sorted(layering.objects[i].total_dim() for i in layering.layers[0]) == [1, 1, 1, 1]
    cat = CatAlgebra(layering.objects, verify=False)
    layer_indices = layering.layers
    cert = layering_check(cat, layer_indices, layering.alpha)
    assert cert["pass"], cert["objects"]
    assert cert["bound"] == 4


def test_layering_bound_equals_global_dimension_kk():
    # E2 at n = 2: the layering certifies gl.dim End <= 4, and the
    # independent syzygy computation gives exactly 4
    alg = presets.kronecker_squared(GF(2))
    layering = build_layering(alg)
    cat = CatAlgebra(layering.objects, verify=False)
    cert = layering_check(cat, layering.layers, layering.alpha)
    value, pds, _ = global_dimension(cat)
    assert cert["pass"]
    assert cert["bound"] == value == 4
    assert None not in pds


def test_layering_a2_display():
    alg = presets.a2(QQ)
    layering = build_layering(alg)
    assert layering.layer_count() == 3
    # M_1 = simples; the projective-injective P(1) = Q(2) sits at layer 2
    assert sorted(layering.objects[i].total_dim() for i in layering.layers[0]) == [1, 1]
    assert [layering.objects[i].dim_vector() for i in layering.layers[1]] == [(1, 1)]
    assert layering.layers[2] == []


def test_full_square_projinjective_deduplicated():
    alg = presets.full_commutative_square(QQ)
    trunc = truncations(alg)
    pt = projective(alg, "t")
    hits = [e for e in trunc
            if e.module.dim_vector() == pt.dim_vector() and e.p_indices and e.q_indices]
    assert len(hits) == 1  # P(t) = Q(b) stored once with both tags


def test_layering_check_fails_ex84_middle():
    alg = presets.ex84_middle(GF(2))
    layering = build_layering(alg)
    cat = CatAlgebra(layering.objects, verify=False)
    cert = layering_check(cat, layering.layers, layering.alpha)
    assert not cert["pass"] and cert["bound"] is None
    failed = [e for e in cert["objects"] if not (e["factorizations"] and e["alpha_in_lower_layers"])]
    assert [(e["object"], e["alpha_in_lower_layers"], e["witness"]) for e in failed] == [
        (14, True, {"from_object": 7, "map_dims": [0, 0, 1, 0, 1, 0]})]


def _k_power(factors, field=GF(2)):
    alg = presets.kronecker_squared(field)
    for _ in range(factors - 2):
        alg = tensor(alg, presets.kronecker(field))
    return alg


@pytest.mark.parametrize("factors, bound, digest", [
    (2, 4, "71a769aade168327b2825ed05178c82a397103775aa84397f7a475960096ab8b"),
    (3, 5, "632ebbe8d2d6cf3f62f7929bf108d241a6c668961849181a590bccdc875708b0"),
    pytest.param(4, 6, "d2bdc9c34b9cdf8e641c2abc36977871f9f1b98383b79c9924add75cbc067a9f",
                 marks=pytest.mark.slow),
], ids=["KxK", "KxKxK", "K^4"])
def test_layering_check_digests_are_pinned(factors, bound, digest):
    # rep.dim K^(x)n <= n + 2: the layering of K^(x)n passes with n + 2 layers
    layering = build_layering(_k_power(factors))
    cert = layering_check(CatAlgebra(layering.objects, verify=False),
                          layering.layers, layering.alpha)
    assert cert["pass"] and cert["bound"] == bound
    assert payload_hash(cert) == digest


# `payload_hash` of the reversed and the one-layer `layering_check` results;
# the certificate holds no field, so K(x)K has the same pair over every field
FAILING_DIGESTS = {
    2: ("837f142cfa14429b6b697ca59ae1ec95a4d7ca8be17960283ffb222b12e953b3",
        "14a39936f6d268905bdb824f579dadb12df67d4e2bd1689897f8c989e833e9de"),
    3: ("8aa3391de4e8be70581f395c1dcdb870fd93b8db3199a9d1ecc933f340247f9e",
        "5aa9ffa2b0cb6a17b96cf2c10751d0e3b792c84b415d25ab5ce4b92cdb0e55bc"),
}


@pytest.mark.parametrize("factors, field", [(2, GF(2)), (2, GF(3)), (2, QQ), (3, GF(2))],
                         ids=["KxK@GF(2)", "KxK@GF(3)", "KxK@Q", "KxKxK@GF(2)"])
def test_failing_layering_check_digests_are_pinned(factors, field):
    # both layerings fail, many objects on a semisimple alpha whose
    # summands lie in no lower layer
    layering = build_layering(_k_power(factors, field))
    cat = CatAlgebra(layering.objects, verify=False)
    certs = [layering_check(cat, layers, layering.alpha)
             for layers in (layering.layers[::-1], [list(range(len(cat)))])]
    assert not any(cert["pass"] for cert in certs)
    assert all(any(not e["alpha_in_lower_layers"] for e in cert["objects"]) for cert in certs)
    assert tuple(payload_hash(cert) for cert in certs) == FAILING_DIGESTS[factors]


@pytest.mark.parametrize("factors", [2, 3], ids=["KxK", "KxKxK"])
def test_layering_check_splits_no_semisimple_alpha(factors, monkeypatch):
    # every alpha of the real layering decomposes with no Fitting split
    layering = build_layering(_k_power(factors))
    cat = CatAlgebra(layering.objects, verify=False)
    calls = _count_calls(monkeypatch, split_once)
    cert = layering_check(cat, layering.layers, layering.alpha)
    assert cert["pass"] and cert["bound"] == factors + 2
    assert calls == []


def test_layering_bound_equals_global_dimension_kkk():
    # E2 at n = 3: the layering bound 5 is the gl.dim of its objects
    layering = build_layering(_k_power(3))
    cat = CatAlgebra(layering.objects, verify=False)
    cert = layering_check(cat, layering.layers, layering.alpha)
    value, pds, _ = global_dimension(cat)
    assert cert["pass"]
    assert cert["bound"] == value == 5
    assert None not in pds


def test_layering_check_keeps_the_non_injective_alpha_witness():
    # a zero inclusion fails at once; no factorization witness replaces it
    layering = build_layering(presets.kronecker_squared(GF(2)))
    alpha = dict(layering.alpha)
    alpha_mod, incl = alpha[11]
    alpha[11] = (alpha_mod, zero_map(alpha_mod, incl.target))
    cert = layering_check(CatAlgebra(layering.objects, verify=False), layering.layers, alpha)
    assert not cert["pass"]
    assert [(e["object"], e["factorizations"], e["alpha_in_lower_layers"], e["witness"])
            for e in cert["objects"] if e["witness"]] == [
        (11, False, True, "alpha map not injective")]


def factorization_reference(cat, layers, alpha):
    """Per object N, the first object M_j in a layer <= layer(N) with a
    radical map M_j -> N outside the span of g.then(incl), g over a basis
    of Hom(M_j, alpha N), or None: the route `layering_check` took before
    its image test (reference)."""
    layer_of = {i: level for level, members in enumerate(layers) for i in members}
    out = []
    for idx in range(len(cat)):
        alpha_mod, incl = alpha[idx]
        first = None
        for jdx in range(len(cat)):
            rads = cat.radical_maps(jdx, idx) if layer_of[jdx] <= layer_of[idx] else []
            if not rads:
                continue
            through = [g.then(incl) for g in hom_basis(cat.objects[jdx], alpha_mod)]
            try:
                coordinates_matrix(rads, through)
            except NoSolution:
                first = jdx
                break
        out.append(first)
    return out


def _mutated_alphas(layering):
    """alpha N = soc N, and alpha N = 0 with its zero inclusion, which is
    injective: N / alpha N is not semisimple on the non-simple objects."""
    zero = zero_module(layering.objects[0].algebra)
    return [{idx: socle(obj) for idx, obj in enumerate(layering.objects)},
            {idx: (zero, zero_map(zero, obj)) for idx, obj in enumerate(layering.objects)}]


@pytest.mark.parametrize("name", ["ex84_middle", "ex84_left", "ex84_right", "a2",
                                  "full_commutative_square", "kronecker_squared"])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_layering_check_matches_the_factorization_reference(name, field):
    # the real layering, the reversed one and all objects in one layer;
    # the last two fail on every preset here, so both outcomes are compared.
    # On K(x)K and ex84_middle the mutated alphas of `_mutated_alphas` are
    # compared too, where the top-support skip meets a non-semisimple N / alpha N
    layering = build_layering(getattr(presets, name)(field))
    n = len(layering.objects)
    cat = CatAlgebra(layering.objects, verify=False)
    alphas = [layering.alpha]
    if name in ("kronecker_squared", "ex84_middle"):
        alphas.extend(_mutated_alphas(layering))
    for mutated, alpha in enumerate(alphas):
        for real, layers in ((True, layering.layers), (False, layering.layers[::-1]),
                             (False, [list(range(n))])):
            cert = layering_check(cat, layers, alpha)
            expected = factorization_reference(cat, layers, alpha)
            got = [e["witness"]["from_object"] if not e["factorizations"] else None
                   for e in cert["objects"]]
            assert got == expected
            for entry, jdx in zip(cert["objects"], expected):
                if jdx is not None:
                    assert entry["witness"]["map_dims"] == list(cat.objects[jdx].dim_vector())
            assert (real and not mutated) or any(jdx is not None for jdx in expected)


def test_layering_check_builds_few_hom_bases_on_kkk(monkeypatch):
    # a source whose top misses N / alpha N is skipped before its Hom basis
    # is built; without the skip the check builds 618 for its pairs alone
    layering = build_layering(_k_power(3))
    cat = CatAlgebra(layering.objects, verify=False)
    calls = _count_calls(monkeypatch, hom_basis)
    cert = layering_check(cat, layering.layers, layering.alpha)
    assert cert["pass"] and cert["bound"] == 5
    assert len(calls) < 618


def test_not_nicely_tiered_error():
    alg = presets.local_xy(GF(3))
    with pytest.raises(NotNicelyTiered):
        truncations(alg)


@pytest.mark.parametrize("maker, count, decomposable", [
    (presets.ex84_left, 13, [(0, 1, 1, 1, 1)]),
    (presets.ex84_middle, 17, []),
    (presets.ex84_right, 9, []),
    (presets.kronecker_squared, 12, []),
])
def test_truncations_are_pairwise_non_isomorphic(maker, count, decomposable):
    # the local-ring isomorphism test is complete only for indecomposables,
    # and ex84_left has a decomposable truncation
    alg = maker(GF(2))
    trunc = truncations(alg)
    assert len(trunc) == count
    assert [e.module.dim_vector() for e in trunc
            if not is_indecomposable(e.module)] == decomposable
    for a in range(len(trunc)):
        for b in range(a + 1, len(trunc)):
            assert not is_isomorphic(trunc[a].module, trunc[b].module)[0]
    # every tP (t >= 2) and tQ (t >= 1) is isomorphic to exactly one entry
    for x in alg.quiver.vertices:
        for m, first in ((projective(alg, x), 2), (injective(alg, x), 1)):
            for tm, _ in socle_series(m)[first - 1:]:
                assert sum(is_isomorphic(e.module, tm)[0] for e in trunc) == 1


def _count_calls(monkeypatch, func):
    """Wrap `func` under every quivercert name bound to it; return the
    list that records one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, owner in list(sys.modules.items()):
        if name.startswith("quivercert") and getattr(owner, func.__name__, None) is func:
            monkeypatch.setattr(owner, func.__name__, counting)
    return calls


@pytest.mark.parametrize("factors, expected, series", [(2, 16, 8), (3, 40, 16)],
                         ids=["KxK", "KxKxK"])
def test_truncations_build_each_socle_series_once(factors, expected, series, monkeypatch):
    # one socle series per projective and injective, of 16 and 40 terms
    alg = presets.kronecker_squared(GF(2))
    if factors == 3:
        alg = tensor(alg, presets.kronecker(GF(2)))
    lengths = sum(len(socle_series(make(alg, x)))
                  for x in alg.quiver.vertices for make in (projective, injective))
    assert lengths == expected
    calls = _count_calls(monkeypatch, socle_series)
    truncations(alg)
    assert len(calls) == series


def test_build_layering_decomposes_nothing(monkeypatch):
    calls = _count_calls(monkeypatch, decompose)
    layering = build_layering(presets.kronecker_squared(GF(2)))
    assert layering.layer_count() == 4
    assert calls == []


def test_layering_check_reports_alpha_outside_lower_layers():
    # move a non-simple object of K(x)K into layer 1: its radical is
    # nonzero and no layer lies below, so only the alpha check can fail it
    layering = build_layering(presets.kronecker_squared(GF(2)))
    moved = max(layering.layers[2], key=lambda i: layering.objects[i].total_dim())
    layers = [[i for i in members if i != moved] for members in layering.layers]
    layers[0].append(moved)
    cat = CatAlgebra(layering.objects, verify=False)
    cert = layering_check(cat, layers, layering.alpha)
    assert not cert["pass"] and cert["bound"] is None
    entry = next(e for e in cert["objects"] if e["object"] == moved)
    assert entry["layer"] == 0
    assert entry["alpha_in_lower_layers"] is False
    assert [part.dim_vector() for part in decompose(layering.alpha[moved][0]).parts] == [
        (0, 2, 2, 1)]
    assert entry["witness"] == "alpha summand (0, 2, 2, 1) not in lower layers"
    assert all(e["alpha_in_lower_layers"] for e in cert["objects"] if e["object"] != moved)
