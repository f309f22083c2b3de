import pytest

from quivercert import GF, QQ
from quivercert.algebra import (
    MalformedRelation, NotAdmissible, build_algebra, tensor,
)
from quivercert.quiver import NotTiered, Quiver, nicely_tiered_check, tier_function
from quivercert import presets


def local_xy_lower_bound_witness(field):
    """Oracle: a concrete 5-dim algebra generated by X, Y with XX = YY
    and XY = 0 forces dim k<x,y>/(x^2-y^2, xy) >= 5.

    X, Y are left-multiplication operators on the claimed basis
    (e, x, y, yy, yx); closure and relations are verified explicitly,
    independent of the path-basis machinery.
    """
    from quivercert import Matrix
    basis = ["e", "x", "y", "w", "v"]  # w = class of yy = xx, v = yx
    ix = {b: i for i, b in enumerate(basis)}
    x_rule = {"e": "x", "x": "w", "y": None, "w": None, "v": None}
    y_rule = {"e": "y", "x": "v", "y": "w", "w": None, "v": None}

    def op(rule):
        m = Matrix.zero(field, 5, 5)
        for b, out in rule.items():
            if out is not None:
                m[ix[out], ix[b]] = field.one()
        return m

    X, Y = op(x_rule), op(y_rule)
    assert (X @ X) == (Y @ Y)
    assert (X @ Y).is_zero()
    # span of {1, X, Y, XX, YX} has dimension 5: stack vectorized ops
    ops = [Matrix.identity(field, 5), X, Y, X @ X, Y @ X]
    stacked = Matrix(field, 5, 25, [e for o in ops for e in o.entries])
    assert stacked.rank() == 5
    return 5


def test_a3_rad_square_basis():
    alg = presets.a3_rad_square(QQ)
    assert alg.dim == 5
    assert alg.loewy_length == 2
    lengths = sorted(len(p) for p in alg.basis_paths)
    assert lengths == [0, 0, 0, 1, 1]


def test_kronecker_hereditary():
    alg = presets.kronecker(QQ)
    assert alg.dim == 4
    assert alg.loewy_length == 2
    assert {len(p) for p in alg.basis_paths} == {0, 1}


def test_local_xy_dimension_over_f3():
    alg = presets.local_xy(GF(3))
    assert alg.dim == local_xy_lower_bound_witness(GF(3))
    assert alg.loewy_length == 3
    # surviving degree-2 classes: representatives of x^2 (= y^2) and yx
    deg2 = [p for p in alg.basis_paths if len(p) == 2]
    assert len(deg2) == 2


def test_local_xy_rewrites():
    alg = presets.local_xy(GF(3))
    assert alg.reduce_path(("x", "y")) == ()
    xx = alg.reduce_path(("x", "x"))
    yy = alg.reduce_path(("y", "y"))
    assert xx == yy and len(xx) == 1


def test_mult_table_associative_on_fixtures():
    for alg in (presets.a3_rad_square(QQ), presets.local_xy(GF(3)),
                presets.commutative_square_plus(GF(2)), presets.kronecker_tensor_a2(GF(5))):
        F = alg.field
        n = alg.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ij = dict(alg.mult(i, j))
                    jk = dict(alg.mult(j, k))
                    left = alg.elem_mul(ij, {k: F.one()})
                    right = alg.elem_mul({i: F.one()}, jk)
                    assert left == right


def test_commutative_square_plus_dimension():
    alg = presets.commutative_square_plus(QQ)
    assert alg.dim == 12
    assert alg.loewy_length == 3


def test_not_admissible_cycle():
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NotAdmissible):
        build_algebra(q, QQ, [], max_len=6)


def test_malformed_relation_non_parallel():
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "1")])
    with pytest.raises(MalformedRelation):
        build_algebra(q, QQ, [[("1", ("a", "b")), ("1", ("a", "c"))]])


def test_opposite_involution():
    alg = presets.commutative_square_plus(GF(3))
    op = alg.opposite()
    assert op.dim == alg.dim
    back = op.opposite()
    assert back is alg


def test_opposite_of_a3():
    alg = presets.a3_rad_square(QQ)
    op = alg.opposite()
    assert [a.source for a in op.quiver.arrows] == ["2", "1"]
    assert [a.target for a in op.quiver.arrows] == ["3", "2"]
    assert op.dim == 5


def test_tensor_kronecker_squared():
    kk = presets.kronecker_squared(GF(2))
    assert len(kk.quiver.vertices) == 4
    assert len(kk.quiver.arrows) == 8
    assert len(kk.relations) == 4
    assert kk.dim == 16
    assert kk.loewy_length == 3


def test_tensor_kronecker_a2():
    ka = presets.kronecker_tensor_a2(QQ)
    assert len(ka.quiver.vertices) == 4
    assert len(ka.quiver.arrows) == 6
    assert len(ka.relations) == 2
    assert ka.dim == 12  # dim Kron * dim A2 = 4 * 3


def test_tensor_with_one_vertex_is_identity_like():
    alg = presets.a3_rad_square(QQ)
    one = presets.one_vertex(QQ)
    prod = tensor(alg, one)
    assert prod.dim == alg.dim
    assert prod.loewy_length == alg.loewy_length
    assert len(prod.quiver.arrows) == len(alg.quiver.arrows)


def test_tensor_dim_multiplicative_and_loewy_additive():
    for a, b in [(presets.a3_rad_square(GF(2)), presets.a2(GF(2))),
                 (presets.kronecker(GF(3)), presets.kronecker(GF(3)))]:
        t = tensor(a, b)
        assert t.dim == a.dim * b.dim
        assert t.loewy_length == a.loewy_length + b.loewy_length - 1


def test_tier_function_a2():
    q = presets.a2(QQ).quiver
    tiers = tier_function(q)
    assert tiers == {"1": 1, "2": 0}


def test_tier_function_kk():
    kk = presets.kronecker_squared(GF(2))
    tiers = tier_function(kk.quiver)
    assert sorted(tiers.values()) == [0, 1, 1, 2]
    ok, tiers2, witness = nicely_tiered_check(kk.quiver)
    assert ok and witness is None
    assert tiers2 == tiers


def test_tier_function_two_cycle():
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NotTiered):
        tier_function(q)


def test_nicely_tiered_failure_witness():
    q = Quiver.build(["a", "b", "c", "d"],
                     [("ab", "a", "b"), ("ac", "a", "c"), ("cd", "c", "d")])
    ok, tiers, witness = nicely_tiered_check(q)
    assert not ok
    assert "b" in witness


def test_ex84_left_is_nicely_tiered():
    alg = presets.ex84_left(GF(2))
    ok, tiers, _ = nicely_tiered_check(alg.quiver)
    assert ok
    assert max(tiers.values()) == 2


def test_tier_matches_maximal_path_length():
    from quivercert.quiver import maximal_path_length_from
    for alg in (presets.kronecker_squared(GF(2)), presets.ex84_middle(GF(3)),
                presets.full_commutative_square(QQ)):
        ok, tiers, _ = nicely_tiered_check(alg.quiver)
        assert ok
        for v in alg.quiver.vertices:
            assert tiers[v] == maximal_path_length_from(alg.quiver, v)


def test_filtered_build_mixed_length_relation():
    # a.l.l = a.l together with l^3 = 0 forces a.l = 0: basis e1,e2,a,l,ll
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("l", "2", "2")])
    alg = build_algebra(
        q, QQ,
        [[("1", ("l", "l", "l"))], [("1", ("a", "l", "l")), ("-1", ("a", "l"))]],
        max_len=8)
    assert alg.dim == 5
    assert alg.loewy_length == 3
    assert alg.reduce_path(("a", "l")) == ()
