import warnings

import pytest

from quivercert import GF, QQ
from quivercert import presets
from quivercert.decompose import is_isomorphic
from quivercert.functors import (
    NotProjective, eta, gamma, gamma_both_ways, injective_envelope,
    is_injective_module, is_projective_module, nakayama_map, nakayama_module,
    projective_cover, projective_resolution, sigma,
    strip_projective_summands, tau,
)
from quivercert.io import payload_hash
from quivercert.module import (
    dual, injective, injectives, kernel_of_map, projective, projectives, radical, simple, socle,
    sum_module, top,
)


def test_projective_cover_of_simple():
    alg = presets.a3_rad_square(QQ)
    for x in alg.quiver.vertices:
        cover = projective_cover(simple(alg, x))
        assert cover.source.dim_vector() == projective(alg, x).dim_vector()
        assert cover.is_surjective()


def test_projective_cover_shares_one_source_per_top():
    # S(1) and P(1) over K are not isomorphic but have the same top, so
    # their covers share one source: the algebra's cached P(1), summed
    # as a fresh sum_module would sum it; another K gets its own
    field = GF(3)
    kron = presets.kronecker(field)
    s1, p1 = simple(kron, "1"), projective(kron, "1")
    assert not is_isomorphic(s1, p1)[0]
    source = projective_cover(s1).source
    assert projective_cover(p1).source is source
    twice = sum_module(kron, [s1, s1])
    pair = projective_cover(twice).source
    for cover, fresh in ((source, sum_module(kron, [projective(kron, "1")])),
                         (pair, sum_module(kron, [projective(kron, "1")] * 2))):
        assert cover.dims == fresh.dims
        assert cover.action == fresh.action
        assert cover.proj_info == fresh.proj_info
    assert projective_cover(sum_module(kron, [p1, s1])).source is pair
    other = presets.kronecker(field)
    assert projective_cover(simple(other, "1")).source is not source


def test_cover_of_projective_is_isomorphism():
    alg = presets.commutative_square_plus(GF(3))
    p = projective(alg, "e")
    cover = projective_cover(p)
    assert cover.is_isomorphism()


def test_cover_kernel_inside_radical():
    alg = presets.local_xy(GF(3))
    s = simple(alg, "*")
    cover = projective_cover(s)
    ker, _ = kernel_of_map(cover)
    rad, _ = radical(cover.source)
    assert ker.dim_vector() == rad.dim_vector()  # cover of the top


def test_min_presentation_of_s2_over_a3():
    alg = presets.a3_rad_square(QQ)
    projs, (f,), e = projective_resolution(simple(alg, "2"), 1)
    # P(1) -> P(2) -> S(2): rad P(2) = S(1) = P(1)
    assert [p.dim_vector() for p in projs] == [(1, 1, 0), (1, 0, 0)]
    assert f.source.dim_vector() == (1, 0, 0)
    assert f.target.dim_vector() == (1, 1, 0)
    assert f.is_injective()
    assert f.then(e).is_zero()


def test_projective_resolution_of_s3_over_a3(monkeypatch):
    # P(1) -> P(2) -> P(3) -> S(3), then 0: one kernel per differential
    from quivercert import functors
    alg = presets.a3_rad_square(QQ)
    kernels = []
    monkeypatch.setattr(functors, "kernel_of_map",
                        lambda f: kernels.append(f) or kernel_of_map(f))
    projs, diffs, aug = projective_resolution(simple(alg, "3"), 3)
    assert len(kernels) == len(diffs) == 3
    assert [p.dim_vector() for p in projs] == [(0, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]
    assert aug.is_surjective()
    for d, e in zip(diffs, [aug] + diffs):
        assert d.target is e.source
        assert d.then(e).is_zero()


def test_injective_envelope_of_simple():
    alg = presets.a3_rad_square(QQ)
    env = injective_envelope(simple(alg, "2"))
    assert env.is_injective()
    # Q(2) = [3 -> 2] has dimension vector (0, 1, 1)
    assert env.target.dim_vector() == (0, 1, 1)


def test_is_projective_and_injective_recognizers():
    alg = presets.commutative_square_plus(GF(2))
    assert is_projective_module(projective(alg, "e"))
    assert not is_projective_module(simple(alg, "e"))
    assert is_injective_module(injective(alg, "a"))
    assert not is_injective_module(simple(alg, "c")) or \
        injective(alg, "c").total_dim() == 1


def test_nakayama_on_projectives():
    alg = presets.commutative_square_plus(GF(3))
    for x in alg.quiver.vertices:
        nu_p = nakayama_module(projective(alg, x))
        ok, _ = is_isomorphic(nu_p, injective(alg, x), assume_indecomposable=True)
        assert ok


def test_nakayama_preserves_direct_sums():
    alg = presets.a3_rad_square(QQ)
    p = sum_module(alg, [projective(alg, "2"), projective(alg, "3")])
    nu_p = nakayama_module(p)
    expected = sum_module(alg, [injective(alg, "2"), injective(alg, "3")])
    assert nu_p.dim_vector() == expected.dim_vector()


def test_nakayama_of_presentation_map_of_s2():
    alg = presets.a3_rad_square(QQ)
    _, (f,), _ = projective_resolution(simple(alg, "2"), 1)
    nf = nakayama_map(f)
    assert nf.source.dim_vector() == injective(alg, "1").dim_vector()
    assert nf.target.dim_vector() == injective(alg, "2").dim_vector()
    assert nf.intertwines()
    assert not nf.is_zero()


# nu of the minimal presentation of (+) S(x) + rad P(x_0), recorded as
# `payload_hash` of the components' strings; the presentation maps have
# two to seven summands on each side
NAKAYAMA_DIGESTS = [
    pytest.param(presets.a3_rad_square, QQ,
                 "4b6e87f7fb787ed8101b24fa388e0afbe849099da4208d48803165d63ada5688", id="a3@QQ"),
    pytest.param(presets.commutative_square_plus, GF(3),
                 "cbd25664559e1e263b572ccb1c887bca6b54378ca47f39bf74dba818de16b9a7",
                 id="square@GF(3)"),
    pytest.param(presets.kronecker, GF(2),
                 "151b795048ded054820670a24548bad1608d956cbfd5a1e7b99100a9e77fb078",
                 id="kronecker@GF(2)"),
    pytest.param(presets.ex84_left, GF(5),
                 "f4b4a876f6c1b792d88c70acf7b2a96c96f6247463f45533076dda69b74e73d6",
                 id="ex84_left@GF(5)"),
]


@pytest.mark.parametrize("preset, field, digest", NAKAYAMA_DIGESTS)
def test_nakayama_map_digests_are_pinned(preset, field, digest):
    alg = preset(field)
    verts = alg.quiver.vertices
    m = sum_module(alg, [simple(alg, x) for x in verts] + [radical(projective(alg, verts[0]))[0]])
    _, (f,), _ = projective_resolution(m, 1)
    nf = nakayama_map(f)
    assert payload_hash({v: nf.components[v].to_strings() for v in verts}) == digest


def test_nakayama_requires_structure():
    alg = presets.a3_rad_square(QQ)
    with pytest.raises(NotProjective):
        nakayama_module(simple(alg, "2"))


def test_gamma_of_s2_is_s2():
    alg = presets.a3_rad_square(QQ)
    g = gamma(simple(alg, "2"))
    ok, _ = is_isomorphic(g, simple(alg, "2"), assume_indecomposable=True)
    assert ok


def test_gamma_two_routes_agree():
    alg = presets.a3_rad_square(QQ)
    alg2 = presets.commutative_square_plus(GF(3))
    cases = [simple(alg, "2"), simple(alg, "3"),
             radical(projective(alg2, "e"))[0]]
    for m in cases:
        a, b = gamma_both_ways(m)
        ok, _ = is_isomorphic(a, b)
        assert ok, f"gamma routes disagree on {m}"


def test_sigma_of_injective_is_zero():
    alg = presets.a3_rad_square(QQ)
    for x in alg.quiver.vertices:
        assert sigma(injective(alg, x)).is_zero()


def test_tau_strips_projectives_with_warning():
    alg = presets.a3_rad_square(QQ)
    m = sum_module(alg, [simple(alg, "2"), projective(alg, "3")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = tau(m)
    assert any("stripped" in str(w.message) for w in caught)
    t_clean = tau(simple(alg, "2"))
    ok, _ = is_isomorphic(t, t_clean)
    assert ok


def test_prop_34_top_vs_socle_of_gamma():
    # top M = soc(gamma M) for indecomposable torsionless non-projective M
    alg = presets.a3_rad_square(QQ)
    m = simple(alg, "2")
    g = gamma(m)
    t, _ = top(m)
    s, _ = socle(g)
    assert t.dim_vector() == s.dim_vector()


def test_eta_of_torsionless_simple():
    alg = presets.a3_rad_square(QQ)
    e = eta(simple(alg, "2"))
    assert e.algebra is alg.opposite()
    assert not e.is_zero()


def test_eta_twice_stably_identity():
    alg = presets.a3_rad_square(QQ)
    m = simple(alg, "2")
    once = eta(m)
    twice = eta(once)
    assert twice.algebra is alg
    core, _ = strip_projective_summands(twice)
    ok, _ = is_isomorphic(core if not core.is_zero() else twice, m)
    assert ok


def test_dual_eta_is_gamma():
    alg = presets.a3_rad_square(QQ)
    m = simple(alg, "2")
    lhs = dual(eta(m))
    rhs = gamma(m)
    core, _ = strip_projective_summands(lhs)
    target = core if not core.is_zero() else lhs
    ok, _ = is_isomorphic(target, rhs)
    assert ok


def test_eta_rejects_non_torsionless():
    alg = presets.a3_rad_square(QQ)
    from quivercert.functors import NotTorsionless
    with pytest.raises(NotTorsionless):
        eta(simple(alg, "3"))


def test_kunneth_witness_builds_each_projective_once(monkeypatch):
    # projective covers take their summands from the algebra's one list
    # of P(x); every name a quivercert module holds `projective` under is
    # counted.  The witness resolves over K only (the P(x) over K (x) K
    # are tensors of those), so no P(x) is built twice and each P(x)
    # over K exactly once.
    import sys
    from quivercert import module as module_module
    from quivercert.lattice import kronecker_family, kunneth_witness
    field = GF(3)
    kk = presets.kronecker_squared(field)
    kron = presets.kronecker(field)
    lat = kronecker_family(kron)
    original = module_module.projective
    built = []

    def counting(algebra, x):
        built.append((algebra, x))
        return original(algebra, x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("quivercert") and getattr(mod, "projective", None) is original:
            monkeypatch.setattr(mod, "projective", counting)
    assert kunneth_witness(kk, lat, lat)["passed"] == field.p ** 2
    keys = [(id(alg), x) for alg, x in built if alg is kk or alg is kron]
    assert len(keys) == len(set(keys))
    assert [x for alg, x in built if alg is kron] == list(kron.quiver.vertices)


def test_projective_cover_builds_no_submodule(monkeypatch):
    # the generators are read past rad M_x (`radical_spaces`); no radical
    # submodule is built for them
    from quivercert import module as module_module
    alg = presets.local_xy(GF(3))
    mods = projectives(alg) + injectives(alg)
    calls = []
    for name in ("submodule", "radical"):
        original = getattr(module_module, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module_module, name, counted)
    for m in mods:
        cover = projective_cover(m)
        assert cover.is_surjective()
    assert cover.source.total_dim() > cover.target.total_dim()
    assert calls == []
