import random

import pytest

from quivercert import GF, QQ, Matrix, NoSolution
from quivercert import presets
from quivercert.module import (
    ModuleError, block_map, coordinates_matrix, dual, dual_map, hom_basis, hom_dim, identity_map,
    image_of_map, in_span, injective, injectives, kernel_of_map, map_coordinates,
    map_from_coordinates, map_vector, projective, projective_sum, projectives, quotient, radical,
    simple, socle, socle_series, spanned_submodule, sum_module, top, zero_map,
)


def dimvec(m):
    return m.dim_vector()


def test_projective_dimensions_a3():
    alg = presets.a3_rad_square(QQ)
    assert dimvec(projective(alg, "1")) == (1, 0, 0)
    assert dimvec(projective(alg, "2")) == (1, 1, 0)
    assert dimvec(projective(alg, "3")) == (0, 1, 1)


def test_projectives_injectives_and_sums_are_kept_per_algebra():
    alg = presets.a3_rad_square(GF(3))
    vertices = alg.quiver.vertices
    first = (projectives(alg), injectives(alg), projective_sum(alg, vertices))
    again = (projectives(alg), injectives(alg), projective_sum(alg, tuple(list(vertices))))
    assert all(x is y for x, y in zip(first, again))
    fresh = presets.a3_rad_square(GF(3))
    built = (projectives(fresh), injectives(fresh), projective_sum(fresh, vertices))
    assert all(x is not y for x, y in zip(first, built))
    assert all(x is not y for x, y in zip(first[0] + first[1], built[0] + built[1]))


def test_regular_module_has_algebra_dimension():
    for alg in (presets.a3_rad_square(QQ), presets.commutative_square_plus(GF(2)),
                presets.local_xy(GF(3)), presets.kronecker_tensor_a2(GF(5))):
        reg = projective_sum(alg, alg.quiver.vertices)
        assert reg.total_dim() == alg.dim


def test_yoneda_hom_from_projective():
    alg = presets.commutative_square_plus(GF(3))
    rng = random.Random(4)
    mods = [simple(alg, "a"), projective(alg, "e"), injective(alg, "b")]
    for x in alg.quiver.vertices:
        p = projective(alg, x)
        for n in mods:
            assert hom_dim(p, n) == n.dims[x]


def test_hom_between_distinct_simples_vanishes():
    alg = presets.a3_rad_square(QQ)
    assert hom_dim(simple(alg, "1"), simple(alg, "2")) == 0
    assert hom_dim(simple(alg, "2"), simple(alg, "2")) == 1


def test_kronecker_module_endomorphisms():
    alg = presets.kronecker(GF(3))
    from quivercert.module import Module
    for alpha in range(3):
        m = Module(alg, {"1": 1, "2": 1},
                   {"a": Matrix.from_rows(GF(3), [[1]]),
                    "b": Matrix.from_rows(GF(3), [[alpha]])})
        assert hom_dim(m, m) == 1


def test_relation_check_rejects_bad_module():
    alg = presets.a3_rad_square(QQ)
    from quivercert.module import Module
    with pytest.raises(ModuleError):
        Module(alg, {"1": 1, "2": 1, "3": 1},
               {"a32": Matrix.from_rows(QQ, [[1]]),
                "a21": Matrix.from_rows(QQ, [[1]])})


@pytest.mark.parametrize("count", [-1, True, 1.5, 1.0, "1"])
def test_module_rejects_impossible_dimensions(count):
    # a dimension is an int >= 0: nothing is truncated or read as a number
    from quivercert.module import Module
    alg = presets.kronecker(GF(3))
    with pytest.raises(ModuleError, match=r"dims\[1\] is not a count"):
        Module(alg, {"1": count, "2": 0}, {})
    assert Module(alg, {"1": 0}, {}).is_zero()


def test_dual_involution_and_dims():
    for alg in (presets.a3_rad_square(QQ), presets.kronecker_tensor_a2(GF(5))):
        for x in alg.quiver.vertices:
            p = projective(alg, x)
            d = dual(p)
            assert d.algebra is alg.opposite()
            assert d.total_dim() == p.total_dim()
            dd = dual(d)
            assert dd.algebra is alg
            assert dd.dims == p.dims
            assert all(dd.action[a.name] == p.action[a.name]
                       for a in alg.quiver.arrows)


def test_dual_of_simple_is_simple():
    alg = presets.a3_rad_square(QQ)
    s = simple(alg, "2")
    d = dual(s)
    assert d.dim_vector() == (0, 1, 0)


def test_dual_of_projective_is_injective_shape():
    alg = presets.commutative_square_plus(GF(2))
    op = alg.opposite()
    for x in alg.quiver.vertices:
        q = injective(alg, x)
        # Q(x) over alg equals the dual of the opposite projective
        p_op = projective(op, x)
        assert q.total_dim() == p_op.total_dim()


def test_hom_duality_dimension():
    alg = presets.a3_rad_square(GF(3))
    mods = [simple(alg, "2"), projective(alg, "3"), injective(alg, "1")]
    for m in mods:
        for n in mods:
            assert hom_dim(m, n) == hom_dim(dual(n), dual(m))


def test_rad_p1_of_kronecker_tensor_a2():
    alg = presets.kronecker_tensor_a2(QQ)
    # vertices in tensor order: 1.1, 1.2, 2.1, 2.2 stand for paper's 1, 2, 3, 4
    p1 = projective(alg, "1.1")
    assert p1.dim_vector() == (1, 1, 2, 2)
    r, _ = radical(p1)
    assert r.dim_vector() == (0, 1, 2, 2)


def test_q4_mod_socle_of_kronecker_tensor_a2():
    alg = presets.kronecker_tensor_a2(QQ)
    q4 = injective(alg, "2.2")
    assert q4.dim_vector() == (2, 2, 1, 1)
    s, incl = socle(q4)
    quot, _ = quotient(q4, incl)
    assert quot.dim_vector() == (2, 2, 1, 0)


def test_top_of_projective_is_simple():
    alg = presets.commutative_square_plus(GF(3))
    for x in alg.quiver.vertices:
        t, _ = top(projective(alg, x))
        assert t.total_dim() == 1
        assert t.dims[x] == 1


def test_socle_series_exhausts_at_loewy_length():
    for alg in (presets.a3_rad_square(QQ), presets.local_xy(GF(3))):
        reg = projective_sum(alg, alg.quiver.vertices)
        series = socle_series(reg)
        assert len(series) == alg.loewy_length
        full, _ = series[-1]
        assert full.total_dim() == reg.total_dim()


def test_second_socle_of_kk_source_projective():
    alg = presets.kronecker_squared(GF(2))
    src = [v for v in alg.quiver.vertices if not alg.quiver.arrows_to(v)][0]
    p = projective(alg, src)
    assert sorted(p.dims.values()) == [1, 2, 2, 4]
    s2, _ = socle_series(p)[1]
    assert s2.total_dim() == 8
    assert s2.dims[src] == 0


def test_solid_projectives_on_nicely_tiered_fixture():
    # socle layers of P coincide with radical layers (checked via dims)
    alg = presets.kronecker_squared(GF(2))
    src = [v for v in alg.quiver.vertices if not alg.quiver.arrows_to(v)][0]
    p = projective(alg, src)
    layers = [s.dim_vector() for s, _ in socle_series(p)]
    r1, r1i = radical(p)
    r2, _ = radical(r1)
    assert layers[0] == r2.dim_vector()  # soc = rad^2 for LL 3 solid module
    assert layers[1] == r1.dim_vector()
    assert layers[2] == p.dim_vector()


def test_block_map_places_blocks_in_label_order():
    # P2 + S1 -> P2 + P2 with the socle inclusion S1 -> P2 in block (0, 1)
    # and the identity of P2 in block (1, 0); the absent blocks read as zero
    alg = presets.a3_rad_square(QQ)
    p2, s1 = projective(alg, "2"), simple(alg, "1")
    (inc,) = hom_basis(s1, p2)
    src, tgt = {0: p2, 1: s1}, {0: p2, 1: p2}
    source, target = sum_module(alg, [p2, s1]), sum_module(alg, [p2, p2])
    f = block_map(source, target, src, tgt, {(0, 1): inc, (1, 0): identity_map(p2)})
    assert f.source is source and f.target is target
    assert f.components["1"] == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert f.components["2"] == Matrix.from_rows(QQ, [[0], [1]])
    assert f.intertwines()
    zero = sum_module(alg, [])
    for g in (block_map(zero, target, {}, tgt, {}), block_map(source, zero, src, {}, {})):
        assert g.is_zero() and g.intertwines()


def _stacked(field, src_parts, tgt_parts, blocks, v):
    """Reference: the component at v assembled by hstack over the source
    parts and vstack over the target parts, a zero matrix per absent
    block."""
    return Matrix.vstack(
        Matrix.hstack(blocks[t, s].components[v] if (t, s) in blocks
                      else Matrix.zero(field, tp.dims[v], sp.dims[v])
                      for s, sp in src_parts.items())
        for t, tp in tgt_parts.items())


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_block_map_with_several_parts_matches_the_stacked_blocks(field):
    # on the Kronecker quiver 1 => 2: P1 has a 2-dimensional fibre at 2,
    # P2 a zero fibre at 1 and S1 one at 2; the block P1 -> P1 is
    # left out although Hom(P1, P1) is not zero
    alg = presets.kronecker(field)
    p1, p2, s1 = projective(alg, "1"), projective(alg, "2"), simple(alg, "1")
    src, tgt = {0: p1, 1: p2, 2: s1}, {0: p1, 1: s1, 2: p1}
    rng = random.Random(7)
    blocks = {}
    for t, tp in tgt.items():
        for s, sp in src.items():
            basis = hom_basis(sp, tp)
            if basis and (t, s) != (0, 0):
                f = basis[0].scale(field.element(rng.randrange(1, 3)))
                for g in basis[1:]:
                    f = f + g.scale(field.element(rng.randrange(3)))
                blocks[t, s] = f
    assert hom_basis(p1, p1) and len(blocks) >= 4
    source, target = sum_module(alg, list(src.values())), sum_module(alg, list(tgt.values()))
    f = block_map(source, target, src, tgt, blocks)
    assert f.intertwines()
    for v in alg.quiver.vertices:
        assert f.components[v] == _stacked(field, src, tgt, blocks, v), v
        assert all(f.components[v].entries is not b.components[v].entries
                   for b in blocks.values())


def test_spanned_submodule_closure():
    alg = presets.local_xy(GF(3))
    reg = projective_sum(alg, alg.quiver.vertices)
    gen = Matrix.zero(GF(3), 5, 1)
    gen[1, 0] = 1  # basis path "x"
    sub, incl = spanned_submodule(reg, {"*": gen})
    assert sub.total_dim() == 2  # x and x.x
    assert incl.is_injective()


def test_kernel_image_rank_nullity():
    alg = presets.a3_rad_square(QQ)
    p2 = projective(alg, "2")
    s2 = simple(alg, "2")
    maps = hom_basis(p2, s2)
    assert len(maps) == 1
    f = maps[0]
    ker, _ = kernel_of_map(f)
    img, _ = image_of_map(f)
    for v in alg.quiver.vertices:
        assert p2.dims[v] == ker.dims[v] + img.dims[v]


def test_quotient_projection_properties():
    alg = presets.commutative_square_plus(GF(2))
    p = projective(alg, "e")
    r, incl = radical(p)
    t, proj = quotient(p, incl)
    assert proj.is_surjective()
    assert incl.then(proj).is_zero()
    assert t.total_dim() == p.total_dim() - r.total_dim()


def test_map_algebra_and_identity():
    alg = presets.a3_rad_square(QQ)
    p = projective(alg, "3")
    ident = identity_map(p)
    assert ident.is_isomorphism()
    assert (ident - ident).is_zero()
    doubled = ident + ident
    assert doubled.components["3"][0, 0] == 2


def _kronecker_arrow_maps(field):
    """The two maps P(2) -> P(1) over the Kronecker algebra (one per arrow)."""
    alg = presets.kronecker(field)
    basis = hom_basis(projective(alg, "2"), projective(alg, "1"))
    assert len(basis) == 2
    return basis


def test_map_vector_lists_vertices_in_quiver_order():
    g, _ = _kronecker_arrow_maps(GF(5))
    assert map_vector(g) == g.components["1"].entries + g.components["2"].entries


def test_map_coordinates_dependent_family_frees_to_zero():
    field = GF(5)
    g1, g2 = _kronecker_arrow_maps(field)
    f = g1.scale(2) + g2
    family = [g1, g2, g1 + g2, g2.scale(3)]
    coords = map_coordinates(f, family)
    assert coords == [2, 1, 0, 0]
    rebuilt = map_from_coordinates(coords, family)
    assert map_vector(rebuilt) == map_vector(f)


def test_map_coordinates_empty_family():
    g, _ = _kronecker_arrow_maps(GF(3))
    zero = zero_map(g.source, g.target)
    assert map_coordinates(zero, []) == []
    assert in_span(zero, [])
    with pytest.raises(NoSolution):
        map_coordinates(g, [])
    assert not in_span(g, [])


def test_coordinates_matrix_columns_are_map_coordinates():
    for field in (GF(5), QQ):
        g1, g2 = _kronecker_arrow_maps(field)
        zero = zero_map(g1.source, g1.target)
        family = [g1, g2, g1 + g2]
        maps = [g1.scale(2) + g2, zero, g2, g1 - g2.scale(3)]
        coords = coordinates_matrix(maps, family)
        assert (coords.rows, coords.cols) == (len(family), len(maps))
        for t, f in enumerate(maps):
            assert coords.col(t) == map_coordinates(f, family)
        empty = coordinates_matrix([zero, zero], [])
        assert (empty.rows, empty.cols) == (0, 2)
        with pytest.raises(NoSolution):
            coordinates_matrix([zero, g1], [])
        with pytest.raises(NoSolution):
            coordinates_matrix([g1, g1 + g2], [g1])


def test_map_coordinates_outside_span_raises():
    for field in (GF(2), QQ):
        g1, g2 = _kronecker_arrow_maps(field)
        with pytest.raises(NoSolution):
            map_coordinates(g2, [g1, g1.scale(field.element(-1))])
        assert not in_span(g1 + g2, [g1])
        assert in_span(g1 + g2, [g1, g2])


def test_checked_projective_parses_no_relation_coefficient(monkeypatch):
    # coefficients are parsed once, when the algebra is built
    from quivercert.fields import Field
    alg = presets.local_xy(QQ)
    original = Field.parse
    calls = []

    def counting(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(Field, "parse", counting)
    p = projective(alg, "*")
    assert p.relation_defect() is None
    assert calls == []


def test_relation_check_reads_a_minus_one_coefficient():
    # local_xy has x.x - y.y = 0: y -> -y keeps it, y -> 2y (2^2 = -1 in
    # GF(5)) turns it into x.x + y.y = 2 x.x, which is nonzero on P(*)
    from quivercert.module import Module
    field = GF(5)
    alg = presets.local_xy(field)
    p = projective(alg, "*")
    flipped = {"x": p.action["x"], "y": p.action["y"].scale(field.element(-1))}
    assert Module(alg, p.dims, flipped).relation_defect() is None
    twisted = {"x": p.action["x"], "y": p.action["y"].scale(field.element(2))}
    with pytest.raises(ModuleError):
        Module(alg, p.dims, twisted)


# -- hom_basis against the dense route -------------------------------------------

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quivercert.module import Module, ModuleMap

FIELDS = (GF(2), GF(5), QQ)
KRONECKER = tuple(presets.kronecker(field) for field in FIELDS)


def dense_hom_basis(m, n):
    """Reference: the stacked intertwining system, densely, then
    `Matrix.kernel_basis`."""
    field = m.field
    verts = list(m.algebra.quiver.vertices)
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for a in m.algebra.quiver.arrows:
        x, y = a.source, a.target
        na, ma = n.action[a.name], m.action[a.name]
        for i in range(n.dims[y]):
            for j in range(m.dims[x]):
                row = [field.zero()] * total
                for k in range(n.dims[x]):
                    col = offsets[x] + k * m.dims[x] + j
                    row[col] = field.add(row[col], na[i, k])
                for k in range(m.dims[y]):
                    col = offsets[y] + i * m.dims[y] + k
                    row[col] = field.sub(row[col], ma[k, j])
                rows.append(row)
    system = Matrix(field, len(rows), total, [e for r in rows for e in r])
    kernel = system.kernel_basis()
    maps = []
    for c in range(kernel.cols):
        comps = {v: Matrix(field, n.dims[v], m.dims[v],
                           [kernel[offsets[v] + idx, c]
                            for idx in range(n.dims[v] * m.dims[v])])
                 for v in verts}
        maps.append(ModuleMap(m, n, comps, check=False))
    return maps


def assert_hom_basis_matches_dense(m, n):
    basis = hom_basis(m, n)
    reference = dense_hom_basis(m, n)
    assert len(basis) == len(reference)
    for f, g in zip(basis, reference):
        assert f.components == g.components
        ModuleMap(m, n, f.components, check=True)
    return basis


@st.composite
def kronecker_modules(draw, alg):
    """Any pair of matrices is a Kronecker module; entries n/d with d in
    {1, 3}, which is invertible in every field of FIELDS."""
    field = alg.field
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 3)))

    def matrix():
        return Matrix.from_rows(field, [[draw(entry) for _ in range(d1)]
                                        for _ in range(d2)]) if d2 else Matrix.zero(field, 0, d1)

    return Module(alg, {"1": d1, "2": d2}, {"a": matrix(), "b": matrix()})


@st.composite
def kronecker_pairs(draw):
    alg = draw(st.sampled_from(KRONECKER))
    return draw(kronecker_modules(alg)), draw(kronecker_modules(alg))


@pytest.mark.parametrize("alg", KRONECKER, ids=lambda alg: str(alg.field))
def test_hom_basis_exits_match_the_dense_route(alg):
    # S(1) and S(2) share no vertex: there are no unknowns
    m, n = simple(alg, "1"), simple(alg, "2")
    assert assert_hom_basis_matches_dense(m, n) == []
    # into P(1), whose a-action is injective: arrow a's constraints
    # n_a f_1 = 0 already make f_1, the only unknown, a pivot, so the
    # constraints of arrow b are never built
    m, n = simple(alg, "1"), projective(alg, "1")
    assert [a.name for a in alg.quiver.arrows] == ["a", "b"]
    assert (m.dims, n.action["a"].rank()) == ({"1": 1, "2": 0}, n.dims["1"])
    assert assert_hom_basis_matches_dense(m, n) == []
    # the other way round Hom is the top of P(1)
    assert len(assert_hom_basis_matches_dense(n, m)) == 1


@settings(max_examples=60, deadline=None)
@given(kronecker_pairs())
def test_hom_basis_equals_dense_route_on_kronecker(pair):
    m, n = pair
    assert_hom_basis_matches_dense(m, n)


STANDARD = {"P": projective, "I": injective, "S": simple}


@st.composite
def sums_of_standard_modules(draw, alg):
    """A direct sum of 1-3 projectives, injectives and simples of alg."""
    picks = draw(st.lists(st.tuples(st.sampled_from(sorted(STANDARD)),
                                    st.sampled_from(alg.quiver.vertices)),
                          min_size=1, max_size=3))
    total = sum_module(alg, [STANDARD[kind](alg, x) for kind, x in picks])
    return total


@st.composite
def base_changes(draw, module):
    """module carried along g_v = L_v U_v at each vertex (L_v lower and U_v
    upper unitriangular, so g_v is invertible).  On a loop the standard
    modules act by nilpotent triangular matrices; after the change the
    diagonal is nonzero, and the two halves of a constraint share columns."""
    field = module.field
    entry = st.integers(-2, 2).map(field.element)
    g = {}
    for v, d in module.dims.items():
        lower, upper = Matrix.identity(field, d), Matrix.identity(field, d)
        for i in range(d):
            for j in range(i):
                lower[i, j], upper[j, i] = draw(entry), draw(entry)
        g[v] = lower @ upper
    action = {a.name: g[a.target] @ module.action[a.name] @ g[a.source].inverse()
              for a in module.algebra.quiver.arrows}
    return Module(module.algebra, module.dims, action)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_basis_equals_dense_route_with_relations(data):
    field = data.draw(st.sampled_from(FIELDS))
    alg = data.draw(st.sampled_from((presets.a3_rad_square, presets.local_xy)))(field)
    m = data.draw(sums_of_standard_modules(alg))
    n = data.draw(sums_of_standard_modules(alg))
    assert_hom_basis_matches_dense(m, n)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hom_basis_equals_dense_route_on_loops(data):
    # one standard module each: over Q, a change of basis of a sum makes
    # the dense reference's fractions grow to seconds per example
    alg = presets.local_xy(data.draw(st.sampled_from(FIELDS)))
    m, n = (data.draw(base_changes(STANDARD[data.draw(st.sampled_from(sorted(STANDARD)))](alg, "*")))
            for _ in range(2))
    assert_hom_basis_matches_dense(m, n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hom_is_additive_over_direct_sums(data):
    alg = data.draw(st.sampled_from(KRONECKER))
    m, m2, n = (data.draw(kronecker_modules(alg)) for _ in range(3))
    total = sum_module(alg, [m, m2])
    assert hom_dim(total, n) == hom_dim(m, n) + hom_dim(m2, n)
    assert hom_dim(n, total) == hom_dim(n, m) + hom_dim(n, m2)


DUAL_PRESETS = ("a3_rad_square", "kronecker", "commutative_square_plus", "local_xy",
                "kronecker_tensor_a2", "kronecker_squared", "ex84_middle", "one_vertex")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_double_dual_is_the_identity(data):
    # opposite() caches both directions, so D D lands on the same algebra
    field = data.draw(st.sampled_from(FIELDS))
    alg = getattr(presets, data.draw(st.sampled_from(DUAL_PRESETS)))(field)
    m = data.draw(base_changes(data.draw(sums_of_standard_modules(alg))))
    n = data.draw(sums_of_standard_modules(alg))
    dd = dual(dual(m))
    assert dd.algebra is alg and dd.content_hash() == m.content_hash()
    basis = hom_basis(m, n)
    coords = [data.draw(st.integers(-2, 2).map(field.element)) for _ in basis]
    f = map_from_coordinates(coords, basis) if basis else zero_map(m, n)
    ff = dual_map(dual_map(f))
    assert ff.source.algebra is alg and ff.target.content_hash() == n.content_hash()
    assert ff.components == f.components


# -- the Hom memo ------------------------------------------------------------------

def _homs_kept(alg):
    """The number of Hom bases in alg's memo."""
    return sum(key[0] == "hom" for key in alg._memo)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_hom_basis_is_built_once_per_content_pair(field, monkeypatch):
    # content-equal but distinct modules: P(*) and P(*) + I(*), each built
    # twice; every call gets maps on its own modules, and only the first
    # call of each content pair runs the elimination
    from quivercert import module as module_mod
    builds = []
    original = module_mod._hom_components

    def counting(m, n):
        builds.append((m.content_hash(), n.content_hash()))
        return original(m, n)

    monkeypatch.setattr(module_mod, "_hom_components", counting)
    alg = presets.local_xy(field)
    with pytest.raises(ModuleError):
        hom_basis(projective(alg, "*"), projective(presets.local_xy(field), "*"))
    kinds = [[projective(alg, "*"), projective(alg, "*")],
             [sum_module(alg, [projective(alg, "*"), injective(alg, "*")]) for _ in range(2)]]
    assert all(first is not second for first, second in kinds)
    assert _homs_kept(alg) == 0
    for src in kinds:
        for tgt in kinds:
            first = None
            for m in src:
                for n in tgt:
                    basis = hom_basis(m, n)
                    assert basis and all(f.source is m and f.target is n for f in basis)
                    vectors = [map_vector(f) for f in basis]
                    first = first or vectors
                    assert vectors == first
                    basis.append(zero_map(m, n))
                    again = hom_basis(m, n)
                    assert [map_vector(f) for f in again] == first
                    assert again is not basis and again[0].components is not basis[0].components
    assert len(builds) == len(set(builds)) == 4
    assert _homs_kept(alg) == 4


# -- saturation and content hashes ----------------------------------------------

from quivercert.module import submodule


def full_pass_spanned_submodule(m, vectors):
    """Reference: saturation that pushes every whole span along every arrow
    on each pass, then `submodule`, which reduces the spans again."""
    field = m.field
    spans = {}
    for v in m.algebra.quiver.vertices:
        b = vectors.get(v)
        spans[v] = b.column_space_basis() if b is not None and b.cols else Matrix.zero(field, m.dims[v], 0)
    changed = True
    while changed:
        changed = False
        for a in m.algebra.quiver.arrows:
            if spans[a.source].cols == 0:
                continue
            mapped = m.action[a.name] @ spans[a.source]
            joined = Matrix.hstack([spans[a.target], mapped]).column_space_basis()
            if joined.cols != spans[a.target].cols:
                spans[a.target] = joined
                changed = True
    return submodule(m, spans)


SATURATION_ALGEBRAS = (presets.local_xy(GF(3)), presets.commutative_square_plus(GF(5)),
                       presets.commutative_square_plus(QQ), presets.kronecker_tensor_a2(GF(5)),
                       presets.a3_rad_square(GF(5)), presets.kronecker_squared(GF(2)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_spanned_submodule_pushes_only_new_vectors(data):
    alg = data.draw(st.sampled_from(SATURATION_ALGEBRAS))
    verts = alg.quiver.vertices
    big = sum_module(alg, [projective(alg, x) for x in
                           data.draw(st.lists(st.sampled_from(verts), min_size=1, max_size=3))])
    entry = st.integers(-2, 2).map(alg.field.element)
    vectors = {}
    for v in data.draw(st.lists(st.sampled_from(verts), max_size=3, unique=True)):
        count = data.draw(st.integers(0, 2))
        vectors[v] = Matrix(alg.field, big.dims[v], count,
                            [data.draw(entry) for _ in range(big.dims[v] * count)])
    sub, incl = spanned_submodule(big, vectors)
    ref, ref_incl = full_pass_spanned_submodule(big, vectors)
    assert incl.components == ref_incl.components
    assert sub.action == ref.action
    assert sub.content_hash() == ref.content_hash()


@pytest.mark.parametrize("name, p", [("kronecker_tensor_a2", 5), ("a3_rad_square", 5),
                                     ("kronecker_squared", 2)])
def test_spanned_submodule_rejects_a_corrupted_read_coordinate(name, p, monkeypatch):
    from quivercert import module as module_module
    alg = getattr(presets, name)(GF(p))
    original = module_module._pushed_coordinates
    corrupted = []

    def corrupt(reduced, pivots, start):
        out = original(reduced, pivots, start)
        for col in out:
            if col and not corrupted:
                col[0] = alg.field.add(col[0], alg.field.one())
                corrupted.append(True)
        return out

    monkeypatch.setattr(module_module, "_pushed_coordinates", corrupt)
    for x in alg.quiver.vertices:
        proj = projective(alg, x)
        if proj.total_dim() > 1:
            break
    generator = Matrix.identity(alg.field, proj.dims[x]).submatrix(range(proj.dims[x]), [0])
    with pytest.raises(ModuleError):
        spanned_submodule(proj, {x: generator})
    assert corrupted
    # submodule and kernel_of_map read their action off the same reduction
    whole = {v: Matrix.identity(alg.field, proj.dims[v]) for v in alg.quiver.vertices}
    for build in (lambda: submodule(proj, whole),
                  lambda: kernel_of_map(zero_map(proj, proj))):
        corrupted.clear()
        with pytest.raises(ModuleError):
            build()
        assert corrupted


def test_submodule_rejects_a_space_that_is_not_arrow_stable():
    # P(1) on the Kronecker quiver: a and b send the top vector to the two
    # basis vectors at vertex 2
    alg = presets.kronecker(GF(3))
    p = projective(alg, "1")
    top_vector = Matrix.identity(alg.field, p.dims["1"])
    with pytest.raises(ModuleError, match="arrow a"):
        submodule(p, {"1": top_vector})
    # a keeps the space with its image at vertex 2; only b, pushed later,
    # grows it
    with pytest.raises(ModuleError, match="arrow b"):
        submodule(p, {"1": top_vector, "2": p.action["a"]})
    sub, _ = submodule(p, {"1": top_vector, "2": Matrix.hstack([p.action["a"], p.action["b"]])})
    assert sub.dim_vector() == p.dim_vector()


def test_content_hash_is_kept_and_equals_a_fresh_copys():
    from quivercert.lattice import tensor_module
    alg = presets.commutative_square_plus(GF(5))
    total = sum_module(alg, [projective(alg, "e"), simple(alg, "c"), injective(alg, "b")])
    # a is a sink, so the whole fiber there is a submodule
    at_sink, _ = submodule(total, {"a": Matrix.identity(alg.field, total.dims["a"])})
    kron = presets.kronecker(GF(5))
    product = tensor_module(presets.kronecker_squared(GF(5)), projective(kron, "1"),
                            injective(kron, "2"))
    for m in (projective(alg, "d"), total, at_sink, dual(total), product):
        first = m.content_hash()
        assert m.content_hash() == first
        assert Module(m.algebra, m.dims, m.action).content_hash() == first


# -- the socle series as annihilators of J^t ------------------------------------------

from quivercert.algebra import tensor
from quivercert.module import top_support


def quotient_route_socle_series(m):
    """Reference: each term the kernel of m -> m/soc^(t-1) m -> its
    quotient by the socle, the route `socle_series` took before it read
    ann(J^t)."""
    series = [socle(m)]
    while series[-1][0].total_dim() < m.total_dim():
        quot, proj = quotient(m, series[-1][1])
        _, socle_incl = socle(quot)
        _, proj2 = quotient(quot, socle_incl)
        series.append(kernel_of_map(proj.then(proj2)))
    return series


SOCLE_SERIES_ALGEBRAS = {
    "KxK@GF(2)": lambda: presets.kronecker_squared(GF(2)),
    "KxK@GF(3)": lambda: presets.kronecker_squared(GF(3)),
    "KxK@Q": lambda: presets.kronecker_squared(QQ),
    "KxKxK@GF(2)": lambda: tensor(presets.kronecker_squared(GF(2)), presets.kronecker(GF(2))),
    "ex84_left@GF(2)": lambda: presets.ex84_left(GF(2)),
    "ex84_middle@GF(2)": lambda: presets.ex84_middle(GF(2)),
    "ex84_right@GF(2)": lambda: presets.ex84_right(GF(2)),
    "local_xy@GF(3)": lambda: presets.local_xy(GF(3)),
    "commutative_square_plus@Q": lambda: presets.commutative_square_plus(QQ),
}


@pytest.mark.parametrize("name", SOCLE_SERIES_ALGEBRAS)
def test_socle_series_equals_the_quotient_route(name):
    alg = SOCLE_SERIES_ALGEBRAS[name]()
    for m in projectives(alg) + injectives(alg):
        series, reference = socle_series(m), quotient_route_socle_series(m)
        assert len(series) == len(reference)
        for (term, incl), (ref, ref_incl) in zip(series, reference):
            assert incl.components == ref_incl.components
            assert term.content_hash() == ref.content_hash()


@pytest.mark.parametrize("name", SOCLE_SERIES_ALGEBRAS)
def test_top_support_is_where_the_top_is_nonzero(name):
    alg = SOCLE_SERIES_ALGEBRAS[name]()
    for m in projectives(alg) + injectives(alg):
        quot, _ = top(m)
        assert top_support(m) == {v for v in alg.quiver.vertices if quot.dims[v]}


# -- rad M_v in one place ------------------------------------------------------------

from quivercert.module import radical_spaces

RADICAL_PRESETS = ("a3_rad_square", "kronecker", "a2", "commutative_square_plus", "local_xy",
                   "kronecker_tensor_a2", "kronecker_squared", "full_commutative_square",
                   "ex84_left", "ex84_middle", "ex84_right", "one_vertex")


def _same_column_space(a, b):
    return a.rank() == b.rank() == Matrix.hstack([a, b]).rank()


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("name", RADICAL_PRESETS)
def test_radical_spaces_span_the_radical(name, field):
    alg = getattr(presets, name)(field)
    for m in projectives(alg) + injectives(alg):
        spaces = radical_spaces(m)
        _, incl = radical(m)
        for v in alg.quiver.vertices:
            assert spaces[v].rows == m.dims[v]
            assert _same_column_space(spaces[v], incl.components[v]), (name, v)


def test_maps_built_without_the_shape_check_have_every_component_shape(monkeypatch):
    # ModuleMap._built skips the public constructor's per-vertex shape
    # check: its callers (then, +, -, scale, identity_map, block_map,
    # lattice.tensor_map) build a component of the right shape at every
    # vertex by construction.  Every map it builds in a Kunneth witness and
    # in a torsionless search is checked here.
    from quivercert.lattice import kronecker_family, kunneth_witness, rational_points
    from quivercert.module import ModuleMap
    from quivercert.torsfin import enumerate_torsionless
    built = ModuleMap._built.__func__
    counts = {"maps": 0}

    def checked(cls, source, target, components):
        vertices = source.algebra.quiver.vertices
        assert set(components) == set(vertices)
        for v in vertices:
            m = components[v]
            assert (m.rows, m.cols) == (target.dims[v], source.dims[v]), v
        counts["maps"] += 1
        return built(cls, source, target, components)

    monkeypatch.setattr(ModuleMap, "_built", classmethod(checked))
    field = GF(3)
    kk = presets.kronecker_squared(field)
    lat = kronecker_family(presets.kronecker(field))
    assert kunneth_witness(kk, lat, lat, points=rational_points(field, 2)[:4])["passed"] == 4
    in_witness = counts["maps"]
    enumerate_torsionless(presets.local_xy(field))
    assert in_witness > 0 and counts["maps"] > in_witness
