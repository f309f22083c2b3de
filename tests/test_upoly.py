import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quivercert import GF, QQ, Matrix, NoSolution
from quivercert import upoly


def laplace_charpoly(field, m):
    """det(lambda I - m) by cofactor expansion over polynomials (oracle)."""
    n = m.rows
    entries = [[[field.neg(m[i, j])] if i != j else
                upoly.normalize(field, [field.neg(m[i, j]), field.one()])
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not rows:
            return [field.one()]
        total = []
        i = rows[0]
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = upoly.mul(field, entries[i][j], minor)
            total = upoly.add(field, total, term) if pos % 2 == 0 else \
                upoly.sub(field, total, term)
        return total

    out = det(list(range(n)), list(range(n)))
    while len(out) < n + 1:
        out.append(field.zero())
    return out


def random_matrix(field, n, rng):
    if field.is_prime_field:
        return Matrix(field, n, n, [rng.randrange(field.p) for _ in range(n * n)])
    return Matrix(field, n, n, [field.from_int(rng.randrange(-3, 4)) for _ in range(n * n)])


def test_charpoly_matches_laplace():
    rng = random.Random(13)
    for field in (GF(2), GF(5), QQ):
        for n in (1, 2, 3, 4):
            for _ in range(4):
                m = random_matrix(field, n, rng)
                assert upoly.charpoly(m) == laplace_charpoly(field, m)


def generic_charpoly(field, m):
    """The Hessenberg charpoly on `Field` methods, with polynomial
    arithmetic from `upoly` (reference for `upoly.charpoly`, which runs on
    the raw entries)."""
    n = m.rows
    if n == 0:
        return [field.one()]
    h = [[m[i, j] for j in range(n)] for i in range(n)]
    zero = field.zero()
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j] != zero), -1)
        if pivot < 0:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = field.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if h[i][j] != zero:
                f = field.mul(h[i][j], inv)
                for c in range(n):
                    h[i][c] = field.sub(h[i][c], field.mul(f, h[j + 1][c]))
                for r in range(n):
                    h[r][j + 1] = field.add(h[r][j + 1], field.mul(f, h[r][i]))
    polys = [[field.one()]]
    for mm in range(1, n + 1):
        cur = upoly.mul(field, [field.neg(h[mm - 1][mm - 1]), field.one()], polys[mm - 1])
        prod = field.one()
        for i in range(1, mm):
            prod = field.mul(prod, h[mm - i][mm - i - 1])
            term = upoly.mul(field, [field.mul(prod, h[mm - i - 1][mm - 1])],
                             polys[mm - i - 1])
            cur = upoly.sub(field, cur, term)
        polys.append(cur)
    out = polys[n]
    while len(out) < n + 1:
        out.append(zero)
    return out


def kernel_test_matrices(field, rng):
    """Dense, sparse and block upper triangular matrices, n = 0..12.  The
    sparse ones need pivot swaps in the Hessenberg reduction; the block
    triangular ones keep zero subdiagonal entries, where the recurrence
    stops early."""
    p = field.p
    for n in range(13):
        yield random_matrix(field, n, rng)
        yield Matrix(field, n, n, [rng.randrange(p) if rng.random() < 0.2 else 0
                                   for _ in range(n * n)])
        cut = rng.randrange(n + 1)
        yield Matrix(field, n, n, [0 if i >= cut > j else rng.randrange(p)
                                   for i in range(n) for j in range(n)])


def test_gfp_charpoly_matches_the_generic_recurrence_and_laplace():
    rng = random.Random(29)
    for p in (2, 3, 5, 7, 13):
        field = GF(p)
        for m in kernel_test_matrices(field, rng):
            cp = upoly.charpoly(m)
            assert cp == generic_charpoly(field, m), m
            assert len(cp) == m.rows + 1 and cp[-1] == 1
            if m.rows <= 5:
                assert cp == laplace_charpoly(field, m), m


KERNEL_FIELDS = (GF(2), GF(5), GF(2**31 - 1), QQ)


@st.composite
def square_matrices(draw):
    """Dense, sparse, all-zero and block upper triangular matrices, n = 0..7,
    over GF(2), GF(5), GF(2^31 - 1) and Q."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(0, 7))
    value = (st.integers(0, field.p - 1) if field.p
             else st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "block")))
    entry = {"dense": value, "block": value, "zero": st.just(field.zero()),
             "sparse": st.one_of(st.just(field.zero()), value)}[kind]
    entries = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    if kind == "block":
        cut = draw(st.integers(0, n))
        entries = [field.zero() if i >= cut > j else entries[i * n + j]
                   for i in range(n) for j in range(n)]
    return Matrix(field, n, n, entries)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_charpoly_equals_the_field_method_route(m):
    field = m.field
    cp = upoly.charpoly(m)
    assert cp == generic_charpoly(field, m)
    assert len(cp) == m.rows + 1 and cp[-1] == 1
    for c in cp:
        if field.p:
            assert type(c) is int and 0 <= c < field.p, c
        else:
            assert type(c) is Fraction, c


def test_charpoly_of_empty():
    assert upoly.charpoly(Matrix.zero(QQ, 0, 0)) == [QQ.one()]


def test_minpoly_divides_charpoly_and_annihilates():
    rng = random.Random(17)
    for field in (GF(3), QQ):
        for _ in range(6):
            m = random_matrix(field, 4, rng)
            mp = upoly.minpoly_matrix(m)
            cp = upoly.charpoly(m)
            _, rem = upoly.divmod_poly(field, cp, mp)
            assert rem == []
            assert upoly.eval_matrix(field, mp, m).is_zero()


def solve_per_step_minpoly(m):
    """Reference: the lcm of the annihilators of the standard basis
    vectors, each from one solve of m^k e on e, ..., m^(k-1) e per step."""
    field, n = m.field, m.rows
    result = [field.one()]
    for start in range(n):
        if upoly.degree(result) >= n:
            break
        vec = Matrix.zero(field, n, 1)
        vec[start, 0] = field.one()
        krylov = [vec]
        while True:
            nxt = m @ krylov[-1]
            try:
                coords = Matrix.hstack(krylov).solve(nxt)
            except NoSolution:
                krylov.append(nxt)
                continue
            ann = [field.neg(coords[i, 0]) for i in range(len(krylov))] + [field.one()]
            result = upoly.lcm(field, result, upoly.normalize(field, ann))
            break
    return upoly.monic(field, result)


@st.composite
def minpoly_matrices(draw):
    """Dense, sparse, block-diagonal (the two blocks often equal),
    nilpotent (strictly upper triangular, rows and columns permuted alike)
    and scalar matrices, n = 0..6, over GF(2), GF(3), GF(5) and Q."""
    field = draw(st.sampled_from((GF(2), GF(3), GF(5), QQ)))
    n = draw(st.integers(0, 6))
    value = (st.integers(0, field.p - 1) if field.p
             else st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))
    kind = draw(st.sampled_from(("dense", "sparse", "block_diagonal", "nilpotent", "scalar")))
    if kind == "scalar":
        return Matrix.identity(field, n).scale(draw(value))
    if kind == "block_diagonal":
        cut = draw(st.integers(0, n))
        first = Matrix(field, cut, cut, draw(st.lists(value, min_size=cut * cut,
                                                      max_size=cut * cut)))
        rest = n - cut
        second = (first if rest == cut and draw(st.booleans()) else
                  Matrix(field, rest, rest, draw(st.lists(value, min_size=rest * rest,
                                                          max_size=rest * rest))))
        return Matrix.block_diag(field, [first, second])
    if kind == "sparse":
        value = st.one_of(st.just(field.zero()), value)
    entries = draw(st.lists(value, min_size=n * n, max_size=n * n))
    if kind == "nilpotent":
        order = draw(st.permutations(range(n)))
        entries = [entries[i * n + j] if order[i] < order[j] else field.zero()
                   for i in range(n) for j in range(n)]
    return Matrix(field, n, n, entries)


@settings(max_examples=300, deadline=None)
@given(minpoly_matrices())
@example(Matrix.zero(QQ, 0, 0))
@example(Matrix.from_rows(GF(2), [[1]]))
@example(Matrix.from_rows(QQ, [[Fraction(-3, 2)]]))
def test_minpoly_equals_a_solve_per_krylov_step(m):
    mp = upoly.minpoly_matrix(m)
    ref = solve_per_step_minpoly(m)
    assert mp == ref
    assert [type(c) for c in mp] == [type(c) for c in ref]
    assert upoly.eval_matrix(m.field, mp, m).is_zero()


def test_minpoly_of_identity():
    m = Matrix.identity(GF(7), 3)
    assert upoly.minpoly_matrix(m) == [GF(7).element(-1), GF(7).one()]


def test_factor_poly_over_f2():
    f2 = GF(2)
    # x^2 + 1 = (x + 1)^2 over F2
    facs = upoly.factor_poly(f2, [1, 0, 1])
    assert facs == [([1, 1], 2)]


def test_factor_poly_over_f5():
    f5 = GF(5)
    # x^2 + 1 = (x + 2)(x + 3) over F5
    facs = upoly.factor_poly(f5, [1, 0, 1])
    assert sorted(f[0] for f in facs) == [[2, 1], [3, 1]]
    assert all(m == 1 for _, m in facs)


def test_factor_poly_rational():
    assert upoly.is_irreducible(QQ, [QQ.element(1), QQ.element(0), QQ.element(1)])
    facs = upoly.factor_poly(QQ, [QQ.element(-1), QQ.element(0), QQ.element(1)])
    assert len(facs) == 2


def test_poly_division_round_trip():
    rng = random.Random(23)
    f3 = GF(3)
    for _ in range(10):
        p = upoly.normalize(f3, [rng.randrange(3) for _ in range(6)])
        q = upoly.normalize(f3, [rng.randrange(3) for _ in range(3)] + [1])
        quo, rem = upoly.divmod_poly(f3, p, q)
        back = upoly.add(f3, upoly.mul(f3, quo, q), rem)
        assert back == p


def test_factor_entry_points_coerce_raw_coefficients():
    f5 = GF(5)
    # x^2 - 1 = (x + 1)(x + 4) over F5, given with a raw negative int
    assert upoly.factor_poly(f5, [-1, 0, 1]) == [([1, 1], 1), ([4, 1], 1)]
    # 5 vanishes in F5, so this is the constant 1, which is not irreducible
    assert not upoly.is_irreducible(f5, [1, 0, 5])
    assert upoly.is_irreducible(QQ, ["1", 0, 1])



def sympy_factor_list(field, coeffs):
    """`factor_poly`'s output computed by sympy (the reference)."""
    import warnings

    import sympy
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(str(c)) * x**i for i, c in enumerate(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sympy modular-integer ordering notice
        if field.is_prime_field:
            _, factors = sympy.factor_list(expr, x, modulus=field.p)
        else:
            _, factors = sympy.factor_list(expr, x)
    out = []
    for fac, mult in factors:
        cs = [field.element(Fraction(int(r.p), int(r.q)))
              for r in map(sympy.Rational, reversed(sympy.Poly(fac, x).all_coeffs()))]
        cs = upoly.monic(field, upoly.normalize(field, cs))
        if upoly.degree(cs) >= 1:
            out.append((cs, int(mult)))
    out.sort(key=lambda fm: (upoly.degree(fm[0]), [str(c) for c in fm[0]]))
    return out


def random_gfp_inputs(p, rng, count):
    """Random polynomials of degree 1..12 over GF(p): dense ones, products
    with repeated factors, and (for small p) g(x^p)."""
    f = GF(p)
    out = []
    while len(out) < count:
        kind = rng.randrange(3 if p <= 5 else 2)
        if kind == 0:
            poly = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [rng.randrange(1, p)]
        elif kind == 1:
            poly = [1]
            for _ in range(rng.randint(1, 4)):
                g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
                poly = upoly.mul(f, poly, upoly.power(f, g, rng.randint(1, 3)))
        else:
            g = [rng.randrange(p) for _ in range(12 // p)] + [1]
            poly = [0] * (p * (len(g) - 1) + 1)
            poly[::p] = g
        poly = upoly.normalize(f, poly)
        if 1 <= upoly.degree(poly) <= 12:
            out.append(poly)
    return out


def monic_polys(field, d):
    """Every monic polynomial of degree d over a small GF(p)."""
    p = field.p
    for n in range(p ** d):
        digits = []
        for _ in range(d):
            n, r = divmod(n, p)
            digits.append(r)
        yield digits + [1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2**31 - 1])
def test_factor_poly_gfp_matches_sympy_and_multiplies_back(p):
    field = GF(p)
    rng = random.Random(p)
    for poly in random_gfp_inputs(p, rng, 45):
        facs = upoly.factor_poly(field, poly)
        assert facs == sympy_factor_list(field, poly)
        back = [field.one()]
        for fac, mult in facs:
            assert fac[-1] == field.one() and mult >= 1
            back = upoly.mul(field, back, upoly.power(field, fac, mult))
        assert back == upoly.monic(field, poly)
        if p <= 5 and upoly.degree(poly) <= 8:
            # irreducible: no monic divisor of degree <= deg / 2
            for fac, _ in facs:
                for d in range(1, upoly.degree(fac) // 2 + 1):
                    for g in monic_polys(field, d):
                        assert upoly.divmod_poly(field, fac, g)[1], (fac, g)


def test_factor_poly_gfp_pth_power_inputs():
    # (x + 1)^9 (x^2 + 1)^3 over GF(3): f' = 0, and a p-th power inside Yun's loop
    f3 = GF(3)
    poly = upoly.mul(f3, upoly.power(f3, [1, 1], 9), upoly.power(f3, [1, 0, 1], 3))
    assert upoly.factor_poly(f3, poly) == [([1, 1], 9), ([1, 0, 1], 3)]
    # (x + 1)^2 (x^2 + x + 1)^4 over GF(2)
    f2 = GF(2)
    poly = upoly.mul(f2, upoly.power(f2, [1, 1], 2), upoly.power(f2, [1, 1, 1], 4))
    assert upoly.factor_poly(f2, poly) == [([1, 1], 2), ([1, 1, 1], 4)]


@pytest.mark.parametrize("coeffs, expected", [
    # degree 1, not monic
    (["3", "2"], [(["3/2", "1"], 1)]),
    # (x - 3/2)^2, a double root
    (["9/4", "-3", "1"], [(["-3/2", "1"], 2)]),
    # 6x^2 - x - 1 = 6 (x - 1/2)(x + 1/3): rational roots with denominators
    (["-1", "-1", "6"], [(["-1/2", "1"], 1), (["1/3", "1"], 1)]),
    # x^2 + x + 1: discriminant < 0
    (["1", "1", "1"], [(["1", "1", "1"], 1)]),
    # 2x^2 - 4: discriminant 8 > 0, not a square
    (["-4", "0", "2"], [(["-2", "0", "1"], 1)]),
    # x^2 - 4/9: square discriminant with a square denominator
    (["-4/9", "0", "1"], [(["-2/3", "1"], 1), (["2/3", "1"], 1)]),
    # cubics: (x - 2)(x^2 + 1); (x - 1/2)^2 (x + 3), given times 4; x^3 - 2
    (["-2", "1", "-2", "1"], [(["-2", "1"], 1), (["1", "0", "1"], 1)]),
    (["3", "-11", "8", "4"], [(["-1/2", "1"], 2), (["3", "1"], 1)]),
    (["-2", "0", "0", "1"], [(["-2", "0", "0", "1"], 1)]),
    # (x - 1/3)^3: a triple root through the cubic's quadratic
    (["-1/27", "1/3", "-1", "1"], [(["-1/3", "1"], 3)]),
    # a cubic too large for the root search, and a quartic: the sympy branch
    (["-1000000007", "0", "0", "1"], [(["-1000000007", "0", "0", "1"], 1)]),
    (["1", "-2", "-1", "-2", "1"], [(["1", "-3", "1"], 1), (["1", "1", "1"], 1)]),
])
def test_factor_poly_rational_cases(coeffs, expected):
    facs = upoly.factor_poly(QQ, coeffs)
    assert facs == [([QQ.element(c) for c in fac], m) for fac, m in expected]
    assert facs == sympy_factor_list(QQ, [QQ.element(c) for c in coeffs])


def test_factor_poly_rational_quadratics_and_cubics_match_sympy():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c, d = (QQ.element(rng.randint(-28, 28)) for _ in range(4))
        r, s, t = (QQ.element(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}") for _ in range(3))
        for poly in ([c, b, a or QQ.one()], [d, c, b, a or QQ.one()],
                     [r * s, -(r + s), QQ.one()],
                     upoly.mul(QQ, [-t, QQ.one()], [c, b, QQ.one()]),
                     upoly.mul(QQ, [-t, QQ.one()], [r * s, -(r + s), QQ.one()])):
            assert upoly.factor_poly(QQ, poly) == sympy_factor_list(QQ, poly)
