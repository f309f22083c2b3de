import itertools
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quivercert import GF, QQ, Matrix, NoSolution
from quivercert import decompose as decompose_module
from quivercert import presets, upoly
from quivercert.decompose import (
    EndAlgebra, QuotientAlgebra, Undecided, _division_algebra_check, decompose,
    is_indecomposable, is_isomorphic, split_once,
)
from quivercert.endcat import CatAlgebra, NotIndecomposable
from quivercert.io import payload_hash
from quivercert.module import (
    Module, ModuleMap, coordinates_matrix, free_columns, hom_basis, identity_map, injective,
    injectives, map_coordinates, map_vector, projective, projective_sum, projectives, simple,
    socle_series, spanned_submodule, submodule, sum_module, top,
)

PRESETS = ("a3_rad_square", "kronecker", "a2", "commutative_square_plus", "local_xy",
           "kronecker_tensor_a2", "kronecker_squared", "full_commutative_square",
           "ex84_left", "ex84_middle", "ex84_right", "one_vertex")
FIELDS = (GF(2), GF(3), GF(5), QQ)


def kronecker_module(alg, alpha):
    field = alg.field
    return Module(alg, {"1": 1, "2": 1},
                  {"a": Matrix.from_rows(field, [[1]]),
                   "b": Matrix.from_rows(field, [[alpha]])})


def test_end_radical_of_simple_is_zero():
    for field in (GF(2), QQ):
        alg = presets.a3_rad_square(field)
        end = EndAlgebra(simple(alg, "2"))
        assert end.dim == 1
        assert end.radical_coords().cols == 0


def test_end_radical_truncated_polynomial_char2():
    # End(regular k[t]/t^2) = k[t]/t^2 over F2: the trace form vanishes
    # identically, so the chain's second step must find rad = (t)
    alg = presets.truncated_polynomial(GF(2), 2)
    reg = projective_sum(alg, alg.quiver.vertices)
    end = EndAlgebra(reg)
    assert end.dim == 2
    assert end.radical_coords().cols == 1


def test_end_radical_matrix_algebra():
    alg = presets.a3_rad_square(GF(2))
    s2 = simple(alg, "2")
    m = sum_module(alg, [s2, s2])
    end = EndAlgebra(m)
    assert end.dim == 4  # Mat_2(F_2)
    assert end.radical_coords().cols == 0
    assert not is_indecomposable(m)


def test_end_radical_char_zero_truncated():
    alg = presets.truncated_polynomial(QQ, 3)
    reg = projective_sum(alg, alg.quiver.vertices)
    end = EndAlgebra(reg)
    assert end.dim == 3
    assert end.radical_coords().cols == 2


def test_division_algebra_f4_is_indecomposable():
    # companion matrix of x^2+x+1 gives End = F_4 over F_2
    field = GF(2)
    alg = presets.kronecker(field)
    c = Matrix.from_rows(field, [[0, 1], [1, 1]])
    m = Module(alg, {"1": 2, "2": 2},
               {"a": Matrix.identity(field, 2), "b": c})
    end = EndAlgebra(m)
    assert end.dim == 2
    assert end.radical_coords().cols == 0
    assert is_indecomposable(m)


def test_indecomposable_projectives():
    for alg in (presets.a3_rad_square(QQ), presets.commutative_square_plus(GF(2)),
                presets.local_xy(GF(3))):
        for x in alg.quiver.vertices:
            assert is_indecomposable(projective(alg, x))


def test_decompose_projective_plus_simple():
    alg = presets.a3_rad_square(QQ)
    m = sum_module(alg, [projective(alg, "2"), simple(alg, "3")])
    dec = decompose(m)
    assert sum(k for _, k in dec.summands) == 2
    assert sorted(s.total_dim() for s, _ in dec.summands) == [1, 2]
    assert dec.witness.is_isomorphism()


def test_decompose_regular_a3rad2():
    alg = presets.a3_rad_square(QQ)
    reg = projective_sum(alg, alg.quiver.vertices)
    dec = decompose(reg)
    assert sum(k for _, k in dec.summands) == 3
    assert all(mult == 1 for _, mult in dec.summands)
    dims = sorted(s.dim_vector() for s, _ in dec.summands)
    assert dims == [(0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_decompose_power_multiplicity():
    alg = presets.a3_rad_square(GF(3))
    p3 = projective(alg, "3")
    m = sum_module(alg, [p3, p3, p3])
    dec = decompose(m)
    assert dec.summands[0][1] == 3
    assert len(dec.summands) == 1


def test_second_socle_of_ex84_left_source_decomposes():
    alg = presets.ex84_left(GF(2))
    p = projective(alg, "c")
    s2, _ = socle_series(p)[1]
    dec = decompose(s2)
    assert sum(k for _, k in dec.summands) >= 2


def test_decompose_deterministic_under_seed():
    # decompose takes no seed: two calls, and a content-equal copy of the
    # module, give the same summands
    alg = presets.commutative_square_plus(GF(3))
    reg = projective_sum(alg, alg.quiver.vertices)
    copy = Module(alg, dict(reg.dims), dict(reg.action))
    assert copy is not reg and copy.content_hash() == reg.content_hash()
    hashes = [[(s.content_hash(), k) for s, k in decompose(x).summands]
              for x in (reg, reg, copy)]
    assert hashes[0] == hashes[1] == hashes[2]


def test_kronecker_scalar_modules_not_isomorphic():
    alg = presets.kronecker(GF(5))
    for alpha in range(5):
        for beta in range(5):
            m, n = kronecker_module(alg, alpha), kronecker_module(alg, beta)
            ok, witness = is_isomorphic(m, n, assume_indecomposable=True)
            assert ok == (alpha == beta)
            if ok:
                assert witness.is_isomorphism()


def test_isomorphic_to_itself_and_dim_mismatch():
    alg = presets.a3_rad_square(QQ)
    p = projective(alg, "3")
    ok, w = is_isomorphic(p, p)
    assert ok and w.is_isomorphism()
    ok, _ = is_isomorphic(p, simple(alg, "1"))
    assert not ok


def test_isomorphism_after_base_change():
    # conjugated copy of a module is isomorphic, with an explicit witness
    field = GF(7)
    alg = presets.kronecker(field)
    m = Module(alg, {"1": 2, "2": 2},
               {"a": Matrix.identity(field, 2),
                "b": Matrix.from_rows(field, [[0, 1], [0, 0]])})
    g1 = Matrix.from_rows(field, [[1, 2], [0, 1]])
    g2 = Matrix.from_rows(field, [[1, 0], [3, 1]])
    n = Module(alg, {"1": 2, "2": 2},
               {"a": g2 @ m.action["a"] @ g1.inverse(),
                "b": g2 @ m.action["b"] @ g1.inverse()})
    ok, w = is_isomorphic(m, n)
    assert ok and w.is_isomorphism()


def test_is_isomorphic_general_via_decompose():
    alg = presets.a3_rad_square(GF(2))
    p2, s3 = projective(alg, "2"), simple(alg, "3")
    m = sum_module(alg, [p2, s3])
    n = sum_module(alg, [s3, p2])
    ok, w = is_isomorphic(m, n)
    assert ok and w.is_isomorphism()


def reference_radical(end: EndAlgebra) -> Matrix:
    """rad End(M) computed on total d x d matrices: the kernel of the trace
    Gram over Q; over GF(p) the Cohen-Ivanyos-Wales chain, one scalar
    condition per ordered pair, trace first, then c_k for k = p, p^2, ..."""
    field, n = end.field, end.dim
    d = max(end.module.total_dim(), 1)
    if n == 0:
        return Matrix.zero(field, 0, 0)
    totals = [f.total_matrix() for f in end.basis]

    def trace(m):
        out = field.zero()
        for i in range(m.rows):
            out = field.add(out, m[i, i])
        return out

    def element(coords):
        out = Matrix.zero(field, d, d)
        for c, t in zip(coords, totals):
            out = out + t.scale(c)
        return out

    if not field.is_prime_field:
        gram = Matrix(field, n, n, [trace(x @ y) for x in totals for y in totals])
        return gram.kernel_basis()
    current = Matrix.identity(field, n)
    exp = 1
    while exp <= d and current.cols:
        mats = [element(current.col(c)) for c in range(current.cols)]
        con = Matrix(field, len(mats), len(mats),
                     [trace(x @ y) if exp == 1 else upoly.charpoly_coefficient(x @ y, exp)
                      for y in mats for x in mats])
        current = current @ con.kernel_basis()
        exp *= field.p
    return current


def _preset_modules(alg):
    verts = alg.quiver.vertices
    return ([projective(alg, x) for x in verts] + [injective(alg, x) for x in verts]
            + [projective_sum(alg, verts)])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", PRESETS)
def test_radical_matches_total_matrix_reference(name, field):
    alg = getattr(presets, name)(field)
    for m in _preset_modules(alg):
        end = EndAlgebra(m)
        assert end.radical_coords() == reference_radical(end), m


def test_radical_matches_reference_on_local_and_matrix_algebras():
    for field in FIELDS:
        for power in (2, 3, 5):
            alg = presets.truncated_polynomial(field, power)
            end = EndAlgebra(projective_sum(alg, alg.quiver.vertices))
            assert end.radical_coords() == reference_radical(end)
        s2 = simple(presets.a3_rad_square(field), "2")
        end = EndAlgebra(sum_module(s2.algebra, [s2, s2, s2]))
        assert end.radical_coords() == reference_radical(end)


def top_trace_kernel(end: EndAlgebra) -> Matrix:
    """The kernel of Tr(pi(x) pi(y)), pi the action of End(M) on top M,
    with pi(f) read off the projection M -> top M through a right inverse
    at each vertex."""
    m, field = end.module, end.field
    _, proj = top(m)
    lifts = {v: c.solve(Matrix.identity(field, c.rows)) for v, c in proj.components.items()}
    tops = [[proj.components[v] @ f.components[v] @ lifts[v] for v in lifts] for f in end.basis]

    def trace(blocks):
        out = field.zero()
        for b in blocks:
            for i in range(b.rows):
                out = field.add(out, b[i, i])
        return out

    return Matrix(field, end.dim, end.dim,
                  [trace([a @ b for a, b in zip(x, y)]) for x in tops for y in tops]
                  ).kernel_basis()


@pytest.mark.parametrize("name, vertex", [("kronecker", "2"), ("local_xy", "*")])
def test_the_chain_on_the_top_cuts_below_the_trace_stage(name, vertex):
    # t = dim top M = 2 = p: the trace of pi(1) = I_2 is 2 = 0, so the trace
    # stage keeps elements outside the radical and the c_2 stage must run
    alg = getattr(presets, name)(GF(2))
    m = injective(alg, vertex)
    assert top(m)[0].total_dim() == 2
    end = EndAlgebra(m)
    rad = end.radical_coords()
    assert top_trace_kernel(end).cols > rad.cols
    assert rad == reference_radical(end)


RADICAL_PRESETS = ("local_xy", "commutative_square_plus", "kronecker_squared")
RADICAL_FIELDS = (GF(2), GF(3), GF(5), QQ)


def _base_changed(m: Module, seed: int) -> Module:
    """m with its basis at each vertex changed by d transvections
    I + c e_ij (c = +-1, +-2, i != j) and a permutation, drawn from
    Random(seed)."""
    field, rng = m.field, Random(seed)
    change = {}
    for v, d in m.dims.items():
        order = list(range(d))
        rng.shuffle(order)
        g = Matrix.identity(field, d).submatrix(order, range(d))
        for _ in range(d if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            step = Matrix.identity(field, d)
            step[i, j] = field.from_int(rng.choice((-2, -1, 1, 2)))
            g = step @ g
        change[v] = g
    return Module(m.algebra, m.dims,
                  {a.name: change[a.target] @ m.action[a.name] @ change[a.source].inverse()
                   for a in m.algebra.quiver.arrows})


def _parts_module(name, field, parts):
    alg = getattr(presets, name)(field)
    kinds = {"P": projective, "I": injective, "S": simple}
    return sum_module(alg, [kinds[kind](alg, alg.quiver.vertices[k % len(alg.quiver.vertices)])
                            for kind, k in parts])


def _chain_regime(m: Module) -> str:
    p, t, d = m.field.p, top(m)[0].total_dim(), m.total_dim()
    if not p:
        return "Q"
    return "p <= t" if p <= t else ("t < p <= d" if p <= d else "d < p")


# both GF(p) chain regimes, each met at least once whatever hypothesis draws
RADICAL_EXAMPLES = (("local_xy", GF(3), (("P", 0),), 1),
                    ("kronecker_squared", GF(2), (("I", 3), ("S", 0)), 2),
                    ("commutative_square_plus", GF(2), (("P", 4), ("P", 2), ("I", 0)), 3))


def test_radical_examples_meet_both_chain_regimes():
    regimes = {_chain_regime(_parts_module(*ex[:3])) for ex in RADICAL_EXAMPLES}
    assert {"p <= t", "t < p <= d"} <= regimes


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(RADICAL_PRESETS), field=st.sampled_from(RADICAL_FIELDS),
       parts=st.lists(st.tuples(st.sampled_from("PIS"), st.integers(0, 4)),
                      min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
@example(*RADICAL_EXAMPLES[0])
@example(*RADICAL_EXAMPLES[1])
@example(*RADICAL_EXAMPLES[2])
def test_radical_on_the_top_matches_the_total_matrix_chain(name, field, parts, seed):
    m = _base_changed(_parts_module(name, field, parts), seed)
    end = EndAlgebra(m)
    assert end.radical_coords() == reference_radical(end)


def test_radical_never_builds_a_total_matrix(monkeypatch):
    def forbidden(self):
        raise AssertionError("total matrix built")

    monkeypatch.setattr(ModuleMap, "total_matrix", forbidden)
    for name, p in (("local_xy", 3), ("commutative_square_plus", 5),
                    ("kronecker_tensor_a2", 5), ("a3_rad_square", 5)):
        alg = getattr(presets, name)(GF(p))  # fresh: no cached radical
        ps, qs = projectives(alg), injectives(alg)
        for m in ps + qs + [sum_module(alg, ps + qs)]:
            assert EndAlgebra(m).radical_coords().rows == len(hom_basis(m, m))


@pytest.mark.parametrize("name, field", [("local_xy", GF(3)), ("commutative_square_plus", GF(5)),
                                         ("kronecker_tensor_a2", GF(5)), ("a3_rad_square", GF(5)),
                                         ("commutative_square_plus", QQ)], ids=str)
def test_quotient_algebra_reads_the_coordinates_a_solve_gives(name, field):
    alg = getattr(presets, name)(field)
    ps, qs = projectives(alg), injectives(alg)
    for m in ps + qs + [sum_module(alg, ps + qs)]:
        end = EndAlgebra(m)
        s, basis = end.semisimple_quotient(), end.basis
        identity = identity_map(m)
        assert s.coordinates(identity) == map_coordinates(identity, basis)
        assert s.one() == s.project(map_coordinates(identity, basis))
        products = [g.then(f) for f in basis for g in basis]
        solved = coordinates_matrix(products, basis)
        for t, prod in enumerate(products):
            assert s.coordinates(prod) == solved.col(t)
        for i, j in itertools.product(range(s.dim), repeat=2):
            prod = basis[s.comp[j]].then(basis[s.comp[i]])
            assert s._basis_product(i, j) == s.project(map_coordinates(prod, basis))


def test_quotient_algebra_coordinates_reject_a_map_outside_end():
    for name, field in (("local_xy", GF(3)), ("commutative_square_plus", QQ)):
        alg = getattr(presets, name)(field)
        m = sum_module(alg, projectives(alg) + injectives(alg))
        end = EndAlgebra(m)
        s = end.semisimple_quotient()
        vec = map_vector(identity_map(m))
        free = set(free_columns(end.basis))
        # a unit at a pivot column reads as the zero combination
        outside = [field.zero()] * len(vec)
        outside[min(set(range(len(vec))) - free)] = field.one()
        off = 0
        comps = {}
        for v in alg.quiver.vertices:
            d = m.dims[v] ** 2
            comps[v] = Matrix(field, m.dims[v], m.dims[v], outside[off:off + d])
            off += d
        with pytest.raises(NoSolution):
            s.coordinates(ModuleMap(m, m, comps, check=False))
        with pytest.raises(NoSolution):
            map_coordinates(ModuleMap(m, m, comps, check=False), end.basis)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_indecomposable_isomorphism_always_carries_an_isomorphism(field, monkeypatch):
    # End(m) is local, so the test needs no End algebra and no radical
    def forbidden(*args, **kwargs):
        raise AssertionError("EndAlgebra built")

    monkeypatch.setattr(decompose_module, "EndAlgebra", forbidden)
    modules = []
    for name in ("a3_rad_square", "kronecker", "commutative_square_plus", "local_xy"):
        alg = getattr(presets, name)(field)
        for x in alg.quiver.vertices:
            modules += [projective(alg, x), injective(alg, x), simple(alg, x)]
    for m in modules:
        for n in modules:
            if m.algebra is not n.algebra:
                continue
            ok, witness = is_isomorphic(m, n, assume_indecomposable=True)
            if ok:
                assert witness.is_isomorphism()
                assert witness.source is m and witness.target is n
            assert ok == is_isomorphic(n, m, assume_indecomposable=True)[0]


def test_indecomposable_isomorphism_rejects_a_decomposable_idempotent():
    # End(S1 + S2) = k x k: the idempotent e1 lies outside the radical but
    # is not invertible, so it must not be returned as a witness
    alg = presets.a3_rad_square(GF(2))
    m = sum_module(alg, [simple(alg, "1"), simple(alg, "2")])
    n = sum_module(alg, [simple(alg, "1"), simple(alg, "2")])
    ok, witness = is_isomorphic(m, n, assume_indecomposable=True)
    assert not ok or witness.is_isomorphism()


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_content_equal_modules_share_one_cached_radical(field):
    alg = presets.local_xy(field)
    first, second = projective(alg, "*"), projective(alg, "*")
    assert first is not second
    rad = EndAlgebra(first).radical_coords()
    assert rad.cols > 0
    end = EndAlgebra(second)
    assert end.radical_coords() == rad == reference_radical(end)
    assert _radicals_kept(alg) == 1


def _radicals_kept(alg):
    """The number of End radicals in alg's memo."""
    return sum(key[0] == "end_radical" for key in alg._memo)


def test_a_fresh_algebra_starts_with_an_empty_radical_cache():
    used = presets.local_xy(GF(3))
    EndAlgebra(projective(used, "*")).radical_coords()
    assert _radicals_kept(used)
    fresh = presets.local_xy(GF(3))
    assert _radicals_kept(fresh) == 0


def test_indecomposable_isomorphism_answers_no_from_one_hom_basis(monkeypatch):
    # P(*) and I(*) of local_xy share a dimension vector, and End(P(*)) is
    # local: a basis of Hom(P, I) holding no isomorphism settles the answer
    alg = presets.local_xy(GF(3))
    p, i = projective(alg, "*"), injective(alg, "*")
    assert p.dim_vector() == i.dim_vector() and is_indecomposable(p)
    calls = []

    def counting(source, target):
        calls.append((source, target))
        return hom_basis(source, target)

    monkeypatch.setattr(decompose_module, "hom_basis", counting)
    assert is_isomorphic(p, i, assume_indecomposable=True) == (False, None)
    assert len(calls) == 1


def _companion_kronecker_module(field):
    # N = (k^2, k^2; a = I, b = companion matrix of an irreducible quadratic
    # x^2 + c1 x + c0): End(N) is the quadratic extension field
    c0, c1 = (1, 1) if field.is_prime_field and field.p == 2 else (-2, 0)
    alg = presets.kronecker(field)
    b = Matrix.from_rows(field, [[field.zero(), field.neg(field.from_int(c0))],
                                 [field.one(), field.neg(field.from_int(c1))]])
    return Module(alg, {"1": 2, "2": 2}, {"a": Matrix.identity(field, 2), "b": b})


def _no_random_draw(*args):
    raise AssertionError("random_combination drawn")


@pytest.mark.parametrize("summands, field", [
    ("N+N", QQ), ("N+N", GF(3)), ("N+N", GF(2)),
    *[(summands, GF(p)) for summands in ("S1+S2", "S1+S1+S2") for p in (2, 3, 5)],
], ids=str)
def test_deterministic_candidates_split_with_no_random_draw(summands, field, monkeypatch):
    # End/rad is M_2(End N) for N + N, k x k for S1 + S2 (split by a
    # Frobenius-fixed element) and M_2(k) x k for S1 + S1 + S2
    if summands == "N+N":
        n = _companion_kronecker_module(field)
        m = sum_module(n.algebra, [n, n])
    else:
        alg = presets.a3_rad_square(field)
        m = sum_module(alg, [simple(alg, x[1:]) for x in summands.split("+")])
    fixed, phis = [], []
    real_fixed = QuotientAlgebra.frobenius_fixed_basis
    real_split = decompose_module._split_along_poly

    def recording_fixed(s):
        basis = real_fixed(s)
        fixed.extend(basis)
        return basis

    def recording_split(m, phi, facs):
        phis.append(phi)
        return real_split(m, phi, facs)

    monkeypatch.setattr(decompose_module, "random_combination", _no_random_draw)
    monkeypatch.setattr(QuotientAlgebra, "frobenius_fixed_basis", recording_fixed)
    monkeypatch.setattr(decompose_module, "_split_along_poly", recording_split)
    end = EndAlgebra(m)
    pieces = decompose_module.split_once(m, end)
    assert len(phis) == 1
    if summands == "N+N":
        assert len(pieces) == 2
        for piece, incl in pieces:
            assert incl.is_injective()
            assert is_isomorphic(n, piece, assume_indecomposable=True)[0]
        return
    expected = {"S1+S2": [(0, 1, 0), (1, 0, 0)], "S1+S1+S2": [(1, 0, 0), (1, 1, 0)]}
    assert sorted(piece.dim_vector() for piece, _ in pieces) == expected[summands]
    if summands == "S1+S2":
        # the split map is a lift of a Frobenius-fixed element, tried before
        # (and built apart from) the End basis maps
        s = end.semisimple_quotient()
        assert map_coordinates(phis[0], end.basis) in [s.lift(v) for v in fixed]
        assert all(phis[0] is not b for b in end.basis)


def test_rational_cube_of_a_quadratic_module_splits_with_no_random_draw(monkeypatch):
    # End(N^3) = M_3(Q(sqrt 2)): almost no random element splits it, while
    # the End basis holds a lift of each unit of End/rad
    n = _companion_kronecker_module(QQ)
    monkeypatch.setattr(decompose_module, "random_combination", _no_random_draw)
    dec = decompose(sum_module(n.algebra, [n, n, n]))
    assert [k for _, k in dec.summands] == [3]
    assert is_isomorphic(n, dec.summands[0][0], assume_indecomposable=True)[0]
    assert dec.witness.is_isomorphism()


def test_random_fallback_is_drawn_from_a_fixed_seed(monkeypatch):
    # with the deterministic candidates taken away, the split comes from
    # the random combinations, and two calls draw the same ones
    alg = presets.a3_rad_square(GF(5))
    m = sum_module(alg, [simple(alg, "1"), simple(alg, "2")])
    drawn = []
    real_random = decompose_module.random_combination
    monkeypatch.setattr(decompose_module, "_deterministic_candidates", lambda end: [])

    def recording_random(*args):
        drawn.append(args)
        return real_random(*args)

    monkeypatch.setattr(decompose_module, "random_combination", recording_random)
    splits = [[(piece.content_hash(), incl.components)
               for piece, incl in decompose_module.split_once(m)] for _ in range(2)]
    assert drawn
    assert len(splits[0]) == 2
    assert splits[0] == splits[1]


def test_isomorphism_of_decomposables_by_matching_summands(monkeypatch):
    # the same summands in two orders; when no basis map of Hom(m, n) is
    # invertible, the answer comes from matching decompositions
    alg = presets.a2(GF(2))
    s1, s2, p1 = simple(alg, "1"), simple(alg, "2"), projective(alg, "1")
    m = sum_module(alg, [s1, s1, s1, s2, s2, s2, p1])
    n = sum_module(alg, [p1, s2, s2, s2, s1, s1, s1])
    matched = []
    real_match = decompose_module._match_decompositions

    def counting_match(*args):
        matched.append(args)
        return real_match(*args)

    monkeypatch.setattr(decompose_module, "_match_decompositions", counting_match)
    ok, witness = is_isomorphic(m, n)
    assert ok
    assert witness.source is m and witness.target is n
    assert witness.intertwines() and witness.is_isomorphism()
    assert matched
    assert is_isomorphic(sum_module(alg, [s1, s2]), p1) == (False, None)


def test_matched_isomorphism_witness_digest_is_pinned(monkeypatch):
    # S1 + P2 + S3 + I2 + S1 against a reordering: no basis map of Hom is
    # invertible, so the witness comes from matching the decompositions;
    # recorded as `payload_hash` of the components' strings
    alg = presets.a3_rad_square(GF(3))
    s1, p2, i2, s3 = simple(alg, "1"), projective(alg, "2"), injective(alg, "2"), simple(alg, "3")
    matched = []
    real_match = decompose_module._match_decompositions
    monkeypatch.setattr(decompose_module, "_match_decompositions",
                        lambda *args: matched.append(args) or real_match(*args))
    ok, w = is_isomorphic(sum_module(alg, [s1, p2, s3, i2, s1]),
                          sum_module(alg, [i2, s1, s3, s1, p2]))
    assert ok and matched and w.intertwines() and w.is_isomorphism()
    assert (payload_hash({v: w.components[v].to_strings() for v in alg.quiver.vertices})
            == "1e0ef59f4b6a4cb3231543a95b164d087b5adb6e7cd1e2efc0fbde0d2e65d93b")


def decompose_reference(m):
    """[(representative, multiplicity)] from Fitting splits through End(M)
    on every module, zero action included: the loop `decompose` ran
    before its zero-action route (reference)."""
    found, stack = [], [m]
    while stack:
        n = stack.pop()
        if n.is_zero():
            continue
        end = EndAlgebra(n)
        if _division_algebra_check(end.semisimple_quotient()):
            found.append(n)
        else:
            stack.extend(piece for piece, _ in split_once(n, end))
    found.sort(key=lambda n: (n.total_dim(), n.dim_vector(), n.content_hash()))
    summands = []
    for n in found:
        for k, (rep, count) in enumerate(summands):
            if is_isomorphic(rep, n, assume_indecomposable=True)[0]:
                summands[k] = (rep, count + 1)
                break
        else:
            summands.append((n, 1))
    return summands


PROPERTY_FIELDS = (GF(2), GF(3), QQ)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_zero_action_decomposes_into_its_vertex_lines(data):
    # each line is S(v) with the inclusion e_k, as `submodule` builds it,
    # and no action is solved for
    name = data.draw(st.sampled_from(("kronecker_squared", "ex84_middle", "local_xy")))
    alg = getattr(presets, name)(data.draw(st.sampled_from(PROPERTY_FIELDS)))
    dims = {v: data.draw(st.integers(0, 2)) for v in alg.quiver.vertices}
    m = Module(alg, dims, {})
    solves = []
    original = Matrix.solve

    def counting_solve(self, b):
        solves.append(b)
        return original(self, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matrix, "solve", counting_solve)
        dec = decompose(m)
    assert solves == []
    assert dec.witness.is_isomorphism()
    verts = sorted((v for v in alg.quiver.vertices if dims[v]),
                   key=lambda v: simple(alg, v).dim_vector())
    got = [(rep.content_hash(), k) for rep, k in dec.summands]
    assert got == [(simple(alg, v).content_hash(), dims[v]) for v in verts]
    reference = decompose_reference(m)
    assert got == [(rep.content_hash(), k) for rep, k in reference]
    assert [part.content_hash() for part in dec.parts] == [
        rep.content_hash() for rep, k in reference for _ in range(k)]
    lines = [submodule(m, {v: Matrix.identity(alg.field, dims[v]).submatrix(range(dims[v]), [k])})
             for v in verts for k in range(dims[v])]
    assert [part.content_hash() for part in dec.parts] == [
        line.content_hash() for line, _ in lines]
    for v in alg.quiver.vertices:
        assert dec.witness.components[v] == Matrix.hstack(
            [Matrix.zero(alg.field, dims[v], 0)] + [incl.components[v] for _, incl in lines])


@st.composite
def submodules_of_projective_sums(draw):
    """The submodule of a sum of 1-3 projectives spanned by nonzero
    vectors at 1-3 vertices."""
    name = draw(st.sampled_from(("a3_rad_square", "kronecker", "a2", "kronecker_squared",
                                 "commutative_square_plus", "ex84_middle")))
    alg = getattr(presets, name)(draw(st.sampled_from(PROPERTY_FIELDS)))
    total = projective_sum(alg, tuple(draw(st.lists(st.sampled_from(alg.quiver.vertices),
                                                    min_size=1, max_size=3))))
    entry = st.integers(-1, 1).map(alg.field.element)
    gens = {}
    occupied = [v for v in alg.quiver.vertices if total.dims[v]]
    for v in draw(st.lists(st.sampled_from(occupied), min_size=1, max_size=3, unique=True)):
        vec = [draw(entry) for _ in range(total.dims[v])]
        vec[draw(st.integers(0, total.dims[v] - 1))] = alg.field.one()
        gens[v] = Matrix.column(alg.field, vec)
    return spanned_submodule(total, gens)[0]


@settings(max_examples=40, deadline=None)
@given(submodules_of_projective_sums())
def test_decompose_witness_is_invertible_onto_indecomposables(m):
    dec = decompose(m)
    assert dec.witness.source.dim_vector() == m.dim_vector()
    assert dec.witness.intertwines() and dec.witness.is_isomorphism()
    assert all(is_indecomposable(part) for part in dec.parts)


def test_rational_projective_square_in_a_new_basis_decomposes():
    # P(1) + P(1) over Q with a new basis at vertex 2: End/rad = M_2(Q),
    # and each of its basis units is invertible, which proves nothing
    alg = presets.kronecker(QQ)
    m = Module(alg, {"1": 2, "2": 4},
               {"a": Matrix.from_rows(QQ, [[0, -1], [1, 0], [-1, 0], [-1, 1]]),
                "b": Matrix.from_rows(QQ, [[1, 0], [0, -1], [0, -1], [1, 0]])})
    assert not is_indecomposable(m)
    dec = decompose(m)
    assert len(dec.parts) == 2
    assert all(is_isomorphic(part, projective(alg, "1"))[0] for part in dec.parts)
    with pytest.raises(NotIndecomposable):
        CatAlgebra([m])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=16, max_size=16))
def test_twisted_rational_projective_square_never_comes_out_whole(entries):
    alg = presets.kronecker(QQ)
    g = Matrix.from_rows(QQ, [entries[4 * i:4 * i + 4] for i in range(4)])
    assume(g.is_invertible())
    square = projective_sum(alg, ("1", "1"))
    m = Module(alg, square.dims, {name: g @ mat for name, mat in square.action.items()})
    try:
        dec = decompose(m)
    except Undecided:
        return
    assert len(dec.parts) == 2
    assert all(is_isomorphic(part, projective(alg, "1"))[0] for part in dec.parts)
