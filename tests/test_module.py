import random

import pytest

from quivercert import GF, QQ, Matrix, NoSolution
from quivercert import presets
from quivercert.module import (
    ModuleError, coordinates_matrix, direct_sum, dual, hom_basis, hom_dim,
    identity_map, image_of_map, in_span, injective, kernel_of_map, map_coordinates,
    map_from_coordinates, map_vector, projective, quotient, radical,
    regular_module, simple, socle, socle_series, spanned_submodule, top, zero_map,
)


def dimvec(m):
    return m.dim_vector()


def test_projective_dimensions_a3():
    alg = presets.a3_rad_square(QQ)
    assert dimvec(projective(alg, "1")) == (1, 0, 0)
    assert dimvec(projective(alg, "2")) == (1, 1, 0)
    assert dimvec(projective(alg, "3")) == (0, 1, 1)


def test_regular_module_has_algebra_dimension():
    for alg in (presets.a3_rad_square(QQ), presets.commutative_square_plus(GF(2)),
                presets.local_xy(GF(3)), presets.kronecker_tensor_a2(GF(5))):
        reg, _, _ = regular_module(alg)
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
        reg, _, _ = regular_module(alg)
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


def test_direct_sum_witnesses():
    alg = presets.a3_rad_square(QQ)
    p2, s1 = projective(alg, "2"), simple(alg, "1")
    total, incs, prjs = direct_sum([p2, s1])
    assert total.dim_vector() == (2, 1, 0)
    assert incs[0].then(prjs[0]).components["2"].is_identity()
    assert incs[0].then(prjs[1]).is_zero()
    for inc in incs:
        assert inc.intertwines()


def test_spanned_submodule_closure():
    alg = presets.local_xy(GF(3))
    reg, _, _ = regular_module(alg)
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
    total, _, _ = direct_sum([STANDARD[kind](alg, x) for kind, x in picks])
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
    total, _, _ = direct_sum([m, m2])
    assert hom_dim(total, n) == hom_dim(m, n) + hom_dim(m2, n)
    assert hom_dim(n, total) == hom_dim(n, m) + hom_dim(n, m2)
