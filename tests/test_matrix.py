import random
from fractions import Fraction
from itertools import combinations

import pytest

from quivercert import GF, QQ, Matrix, NoSolution
from quivercert.fields import FieldError, field_from_name
from quivercert.matrix import complement_basis


def det_laplace(field, m, idx_rows, idx_cols):
    """Independent determinant by Laplace expansion (oracle only)."""
    if not idx_rows:
        return field.one()
    i = idx_rows[0]
    total = field.zero()
    for pos, j in enumerate(idx_cols):
        a = m[i, j]
        if a == field.zero():
            continue
        sub = det_laplace(field, m, idx_rows[1:], idx_cols[:pos] + idx_cols[pos + 1:])
        term = field.mul(a, sub)
        total = field.add(total, term) if pos % 2 == 0 else field.sub(total, term)
    return total


def rank_by_minors(field, m):
    """Largest k with a nonvanishing k x k minor."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                if det_laplace(field, m, rows, cols) != field.zero():
                    return k
    return 0


def random_matrix(field, rows, cols, rng):
    if field.is_prime_field:
        return Matrix(field, rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)])
    return Matrix(field, rows, cols, [Fraction(rng.randrange(-5, 6)) for _ in range(rows * cols)])


def test_rref_empty_matrix():
    m = Matrix(QQ, 0, 0, [])
    _, pivots, rank = m.rref()
    assert rank == 0 and pivots == ()


def test_rref_identical_rows_f2():
    m = Matrix.from_rows(GF(2), [[1, 1], [1, 1]])
    reduced, pivots, rank = m.rref()
    assert rank == 1
    assert pivots == (0,)
    assert reduced == Matrix.from_rows(GF(2), [[1, 1], [0, 0]])


def test_rank_matches_minor_expansion_f3():
    rng = random.Random(7)
    f3 = GF(3)
    for _ in range(8):
        m = random_matrix(f3, 5, 5, rng)
        assert m.rank() == rank_by_minors(f3, m)


def test_rank_matches_minor_expansion_rational():
    rng = random.Random(11)
    for _ in range(4):
        m = random_matrix(QQ, 4, 4, rng)
        assert m.rank() == rank_by_minors(QQ, m)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(3)
    for field in (GF(2), GF(5), QQ):
        for _ in range(6):
            m = random_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            assert m.rank() == m.transpose().rank()


def test_kernel_of_identity_is_empty():
    k = Matrix.identity(GF(7), 4).kernel_basis()
    assert k.cols == 0 and k.rows == 4


def test_kernel_of_zero_matrix_is_invertible():
    z = Matrix.zero(GF(3), 3, 3)
    k = z.kernel_basis()
    assert k.cols == 3
    assert k.is_invertible()


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(19)
    for field in (GF(2), GF(5), QQ):
        for _ in range(10):
            m = random_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            k = m.kernel_basis()
            assert (m @ k).is_zero()
            assert k.rank() == k.cols
            assert m.rank() + k.cols == m.cols


def test_solve_identity():
    b = Matrix.column(GF(5), [1, 2, 3])
    x = Matrix.identity(GF(5), 3).solve(b)
    assert x == b


def test_solve_zero_matrix_inconsistent():
    a = Matrix.zero(GF(5), 2, 2)
    b = Matrix.column(GF(5), [1, 0])
    with pytest.raises(NoSolution):
        a.solve(b)
    no_unknowns = Matrix.zero(GF(5), 2, 0)
    with pytest.raises(NoSolution):
        no_unknowns.solve(b)
    assert no_unknowns.solve(Matrix.zero(GF(5), 2, 3)) == Matrix.zero(GF(5), 0, 3)


def test_solve_consistent_random_f5_by_substitution():
    rng = random.Random(23)
    f5 = GF(5)
    for _ in range(10):
        a = random_matrix(f5, 4, 3, rng)
        x0 = random_matrix(f5, 3, 1, rng)
        b = a @ x0
        x = a.solve(b)
        assert (a @ x) == b


def test_inverse_round_trip():
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_rref_deterministic():
    rng = random.Random(5)
    m = random_matrix(GF(3), 6, 4, rng)
    r1 = m.rref()
    r2 = Matrix(m.field, m.rows, m.cols, m.entries).rref()
    assert r1[0] == r2[0] and r1[1] == r2[1]


def test_gf_kernels_match_independent_checks():
    rng = random.Random(41)
    for p in (2, 3, 31):
        field = GF(p)
        for _ in range(6):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            m = Matrix(field, rows, cols, [rng.randrange(p) for _ in range(rows * cols)])
            reduced, pivots, rank = m.rref()
            # reduced echelon form at the reported pivots
            assert list(pivots) == sorted(set(pivots)) and rank == len(pivots)
            for r, pc in enumerate(pivots):
                assert reduced.col(pc) == [1 if i == r else 0 for i in range(rows)]
                assert all(x == 0 for x in reduced.row(r)[:pc])
            assert all(x == 0 for r in range(rank, rows) for x in reduced.row(r))
            kernel = m.kernel_basis()
            assert (m @ kernel).is_zero()
            assert rank + kernel.cols == cols
            other = Matrix(field, cols, 2, [rng.randrange(p) for _ in range(cols * 2)])
            naive = [sum(m[i, t] * other[t, j] for t in range(cols)) % p
                     for i in range(rows) for j in range(2)]
            assert (m @ other).entries == naive


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_kron_matches_definition(field):
    rng = random.Random(7)
    shapes = [(2, 3, 3, 2), (1, 1, 4, 2), (0, 2, 3, 1), (2, 0, 2, 3), (3, 2, 0, 0)]
    for r1, c1, r2, c2 in shapes:
        a = random_matrix(field, r1, c1, rng)
        b = random_matrix(field, r2, c2, rng)
        k = a.kron(b)
        assert (k.rows, k.cols) == (r1 * r2, c1 * c2)
        for i in range(k.rows):
            for j in range(k.cols):
                expect = field.mul(a[i // r2, j // c2], b[i % r2, j % c2])
                assert k[i, j] == expect


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_kron_mixed_product_rule(field):
    rng = random.Random(11)
    for _ in range(10):
        a, c = random_matrix(field, 2, 3, rng), random_matrix(field, 3, 2, rng)
        b, d = random_matrix(field, 1, 2, rng), random_matrix(field, 2, 3, rng)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_scalar_parse_format():
    assert QQ.parse("-7/2") == Fraction(-7, 2)
    assert QQ.format(Fraction(-7, 2)) == "-7/2"
    assert GF(5).parse("-7/2") == (-7 * pow(2, 3, 5)) % 5
    assert GF(7).parse("3") == 3
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        QQ.parse("x")


def test_field_names():
    assert field_from_name("F5") == GF(5)
    assert field_from_name("rational") == QQ
    assert field_from_name("GF(11)") == GF(11)


# -- one kernel for every field, against the Field-method reference routes -------

from hypothesis import given, settings, strategies as st

KERNEL_FIELDS = (GF(2), GF(5), GF(2**31 - 1), QQ)


def generic_rref(m):
    """Reduced row echelon form on `Field` methods, as `Matrix.rref`
    computed it over Q before one routine served every field (reference)."""
    F = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    zero = F.zero()
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != zero), -1)
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(F, m.rows, m.cols, [x for row in rows for x in row]), tuple(pivots), r


def generic_mul(a, b):
    """The product on `Field` methods (reference)."""
    F = a.field
    out = [F.zero()] * (a.rows * b.cols)
    for i in range(a.rows):
        for t in range(a.cols):
            for j in range(b.cols):
                out[i * b.cols + j] = F.add(out[i * b.cols + j], F.mul(a[i, t], b[t, j]))
    return Matrix(F, a.rows, b.cols, out)


def generic_kernel(m):
    """Null space basis read off `generic_rref`: one column per free column."""
    F = m.field
    reduced, pivots, _ = generic_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = Matrix.zero(F, m.cols, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = F.one()
        for r, pc in enumerate(pivots):
            out[pc, k] = F.neg(reduced[r, fc])
    return out


def generic_solve(a, b):
    """The solution of A X = B with 0 in the free coordinates, read off
    `generic_rref` of [A | B]; None when the system is inconsistent."""
    reduced, pivots, _ = generic_rref(Matrix.hstack([a, b]))
    if any(c >= a.cols for c in pivots):
        return None
    out = Matrix.zero(a.field, a.cols, b.cols)
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc, j] = reduced[r, a.cols + j]
    return out


def assert_field_elements(m):
    """A Fraction over Q, an int in [0, p) over GF(p)."""
    p = m.field.p
    for x in m.entries:
        if p:
            assert type(x) is int and 0 <= x < p, x
        else:
            assert type(x) is Fraction, x


def field_entries(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """Dense, sparse or all-zero matrices, with 0 rows or columns allowed."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    kind = draw(st.sampled_from(("dense", "sparse", "zero")))
    entry = {"dense": field_entries(field),
             "sparse": st.one_of(st.just(field.zero()), field_entries(field)),
             "zero": st.just(field.zero())}[kind]
    return Matrix(field, rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                                   max_size=rows * cols)))


def assert_kernels_match_references(a, b, rhs):
    reduced, pivots, rank = a.rref()
    assert (reduced, pivots, rank) == generic_rref(a)
    product = a @ b
    assert product == generic_mul(a, b)
    kernel = a.kernel_basis()
    assert kernel == generic_kernel(a)
    expected = generic_solve(a, rhs)
    if expected is None:
        with pytest.raises(NoSolution):
            a.solve(rhs)
    else:
        solution = a.solve(rhs)
        assert solution == expected
        assert_field_elements(solution)
    for m in (reduced, product, kernel):
        assert_field_elements(m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rref_mul_kernel_solve_equal_the_field_method_routes(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS), label="field")
    a = data.draw(matrices(field), label="a")
    b = data.draw(matrices(field, rows=a.cols), label="b")
    rhs = data.draw(matrices(field, rows=a.rows), label="rhs")
    assert_kernels_match_references(a, b, rhs)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("rows, cols", [(0, 0), (1, 0), (0, 1), (0, 3), (3, 0), (2, 3)])
def test_kernels_on_empty_and_all_zero_shapes(field, rows, cols):
    a = Matrix.zero(field, rows, cols)
    for k in (0, 2):
        assert_kernels_match_references(a, Matrix.zero(field, cols, k),
                                        Matrix.zero(field, rows, k))
    assert a.kernel_basis() == Matrix.identity(field, cols)


# -- every raw-entry op against its per-entry definition on Field methods ------

OP_FIELDS = (GF(2), GF(3), GF(31), QQ)


def placed(field, rows, cols, blocks):
    """A rows x cols matrix on `Field.zero` with each (top, left, m) of
    blocks copied in entry by entry (reference for the stacking ops)."""
    out = [[field.zero()] * cols for _ in range(rows)]
    for top, left, m in blocks:
        for i in range(m.rows):
            for j in range(m.cols):
                out[top + i][left + j] = m[i, j]
    return [x for row in out for x in row]


def assert_op_equals(result, rows, cols, entries):
    assert (result.rows, result.cols) == (rows, cols)
    assert result.entries == entries
    assert_field_elements(result)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_raw_entry_ops_equal_their_field_method_definitions(data):
    F = data.draw(st.sampled_from(OP_FIELDS), label="field")
    a = data.draw(matrices(F), label="a")
    b = data.draw(matrices(F, rows=a.rows, cols=a.cols), label="b")
    o = data.draw(matrices(F), label="other")
    c = data.draw(st.one_of(field_entries(F), st.integers(-3, 3)), label="c")
    r, k = a.rows, a.cols
    pairs = list(zip(a.entries, b.entries))
    assert_op_equals(a + b, r, k, [F.add(x, y) for x, y in pairs])
    assert_op_equals(a - b, r, k, [F.sub(x, y) for x, y in pairs])
    assert_op_equals(-a, r, k, [F.neg(x) for x in a.entries])
    assert_op_equals(a.scale(c), r, k, [F.mul(F.element(c), x) for x in a.entries])
    assert a.is_zero() == all(x == F.zero() for x in a.entries)
    assert_op_equals(a.transpose(), k, r, [a[i, j] for j in range(k) for i in range(r)])
    assert_op_equals(a.kron(o), r * o.rows, k * o.cols,
                     [F.mul(a[i // o.rows, j // o.cols], o[i % o.rows, j % o.cols])
                      for i in range(r * o.rows) for j in range(k * o.cols)])
    n = data.draw(st.integers(0, 5), label="n")
    assert_op_equals(Matrix.identity(F, n), n, n,
                     [F.one() if i == j else F.zero() for i in range(n) for j in range(n)])
    assert_op_equals(Matrix.zero(F, r, k), r, k, [F.zero()] * (r * k))

    mats = data.draw(st.lists(matrices(F), max_size=3), label="diagonal")
    corners, top, left = [], 0, 0
    for m in mats:
        corners.append((top, left, m))
        top, left = top + m.rows, left + m.cols
    assert_op_equals(Matrix.block_diag(F, mats), top, left, placed(F, top, left, corners))
    row = [a] + data.draw(st.lists(matrices(F, rows=r), max_size=3), label="row")
    lefts = [sum(m.cols for m in row[:t]) for t in range(len(row) + 1)]
    assert_op_equals(Matrix.hstack(row), r, lefts[-1],
                     placed(F, r, lefts[-1], [(0, lf, m) for lf, m in zip(lefts, row)]))
    col = [a] + data.draw(st.lists(matrices(F, cols=k), max_size=3), label="column")
    tops = [sum(m.rows for m in col[:t]) for t in range(len(col) + 1)]
    assert_op_equals(Matrix.vstack(col), tops[-1], k,
                     placed(F, tops[-1], k, [(tp, 0, m) for tp, m in zip(tops, col)]))
    row_idx = data.draw(st.lists(st.integers(0, r - 1), max_size=4) if r else st.just([]))
    col_idx = data.draw(st.lists(st.integers(0, k - 1), max_size=4) if k else st.just([]))
    assert_op_equals(a.submatrix(row_idx, col_idx), len(row_idx), len(col_idx),
                     [a[i, j] for i in row_idx for j in col_idx])
    kernel, free = a.kernel_and_free()
    _, pivots, _ = generic_rref(a)
    expected = generic_kernel(a)
    assert_op_equals(kernel, expected.rows, expected.cols, expected.entries)
    assert free == [j for j in range(k) if j not in pivots]


# -- aliasing: results never share an entries list -------------------------------

def op_results(a, b):
    """Every kernel op on a (square) and b (same shape as a), each result
    with the inputs it was computed from."""
    F, n = a.field, a.rows
    one = Matrix.identity(F, 1)
    out = [
        (a + b, (a, b)), (a - b, (a, b)), (-a, (a,)), (a.scale(1), (a,)),
        (a.scale(2), (a,)), (a @ b, (a, b)), (a.kron(one), (a, one)),
        (one.kron(a), (one, a)), (a.transpose(), (a,)), (Matrix.hstack([a]), (a,)),
        (Matrix.vstack([a]), (a,)), (Matrix.hstack([a, b]), (a, b)),
        (Matrix.vstack([a, b]), (a, b)), (Matrix.block_diag(F, [a]), (a,)),
        (a.submatrix(range(n), range(n)), (a,)), (a.rref()[0], (a,)),
        (a.kernel_and_free()[0], (a,)), (a.kernel_basis(), (a,)),
        (a.column_space_basis(), (a,)), (complement_basis(a), (a,)),
    ]
    if a.is_invertible():
        out.append((a.inverse(), (a,)))
        out.append((a.solve(b), (a, b)))
    return out


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_no_op_returns_an_input_entries_list(field, n):
    rng = random.Random(n)
    for a in (Matrix.identity(field, n), Matrix.zero(field, n, n),
              random_matrix(field, n, n, rng)):
        b = random_matrix(field, n, n, rng)
        for result, inputs in op_results(a, b):
            for x in inputs:
                assert result.entries is not x.entries


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_constructor_copies_and_fresh_matrices_are_private(field):
    entries = [field.element(x) for x in (1, 2, 3, 4)]
    m = Matrix(field, 2, 2, entries)
    entries[0] = field.zero()
    assert m.entries == [field.element(x) for x in (1, 2, 3, 4)]
    zeros = [Matrix.zero(field, 2, 3) for _ in range(2)]
    eyes = [Matrix.identity(field, 3) for _ in range(2)]
    zeros[0][1, 2] = field.one()
    eyes[0][0, 0] = field.zero()
    assert zeros[1].is_zero() and Matrix.zero(field, 2, 3).is_zero()
    assert eyes[1].is_identity() and Matrix.identity(field, 3).is_identity()
    assert not (zeros[0].is_zero() or eyes[0].is_identity())
