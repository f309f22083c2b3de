"""Univariate polynomial helpers over the package fields.

Polynomials are lists of field elements in ascending degree with no
trailing zeros ([] is the zero polynomial).  Everything is local but
the factorization of rational polynomials of degree >= 4 (and of cubics
too large for the rational root search), which imports sympy when it
runs.  The characteristic polynomial runs on the matrix's raw entries,
one routine for GF(p) and Q, like `Matrix.rref`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from .fields import QQ, Field
from .matrix import Matrix


def normalize(field: Field, coeffs) -> list:
    """Drop trailing zeros; the coefficients must already be field elements."""
    out = list(coeffs)
    zero = field.zero()
    while out and out[-1] == zero:
        out.pop()
    return out


def degree(p) -> int:
    return len(p) - 1


def add(field, p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero()
        b = q[i] if i < len(q) else field.zero()
        out.append(field.add(a, b))
    return normalize(field, out)


def sub(field, p, q):
    return add(field, p, [field.neg(c) for c in q])


def mul(field, p, q):
    if not p or not q:
        return []
    out = [field.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == field.zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return normalize(field, out)


def divmod_poly(field, p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [field.zero()] * max(len(p) - len(q) + 1, 0)
    inv_lead = field.inv(q[-1])
    while len(rem) >= len(q) and rem:
        c = field.mul(rem[-1], inv_lead)
        shift = len(rem) - len(q)
        quo[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, b))
        rem = normalize(field, rem)
        if not rem:
            break
    return normalize(field, quo), normalize(field, rem)


def monic(field, p):
    if not p:
        return p
    inv = field.inv(p[-1])
    return [field.mul(inv, c) for c in p]


def gcd(field, p, q):
    a, b = list(p), list(q)
    while b:
        _, r = divmod_poly(field, a, b)
        a, b = b, r
    return monic(field, a)


def lcm(field, p, q):
    if not p or not q:
        return []
    g = gcd(field, p, q)
    return monic(field, mul(field, p, divmod_poly(field, q, g)[0]))


def power(field, p, n):
    out = [field.one()]
    base = list(p)
    while n > 0:
        if n & 1:
            out = mul(field, out, base)
        base = mul(field, base, base)
        n >>= 1
    return out


def eval_matrix(field, p, m: Matrix) -> Matrix:
    """p(m) by Horner."""
    n = m.rows
    eye = Matrix.identity(field, n)
    out = Matrix.zero(field, n, n)
    for c in reversed(p):
        out = out @ m + eye.scale(c)
    return out


def eval_scalar(field, p, x):
    out = field.zero()
    for c in reversed(p):
        out = field.add(field.mul(out, x), c)
    return out


def charpoly(m: Matrix) -> list:
    """det(lambda I - m), ascending coefficients, leading 1.

    Reduces m to upper Hessenberg form H by similarity (the pivot is the
    first nonzero below the subdiagonal), then p_k = (lambda - H[k-1][k-1])
    p_{k-1} - sum_i (H[k-1][k-2] ... H[k-i][k-i-1]) H[k-i-1][k-1] p_{k-i-1};
    the sum stops at the first zero subdiagonal entry.  Over GF(p)
    (`field.p` nonzero) every entry is reduced mod p as it is computed.
    """
    field = m.field
    n = m.rows
    if n != m.cols:
        raise ValueError("charpoly of non-square matrix")
    p = field.p
    h = [m.entries[i * n:(i + 1) * n] for i in range(n)]
    for j in range(n - 2):
        pivot = -1
        for i in range(j + 1, n):
            if h[i][j]:
                pivot = i
                break
        if pivot < 0:
            continue
        k = j + 1
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            for row in h:
                row[pivot], row[k] = row[k], row[pivot]
        prow = h[k]
        inv = pow(prow[j], -1, p) if p else 1 / prow[j]
        for i in range(j + 2, n):
            hi = h[i]
            if hi[j]:
                f = hi[j] * inv % p if p else hi[j] * inv
                if p:
                    for c in range(j, n):
                        hi[c] = (hi[c] - f * prow[c]) % p
                    for row in h:
                        row[k] = (row[k] + f * row[i]) % p
                else:
                    for c in range(j, n):
                        hi[c] -= f * prow[c]
                    for row in h:
                        row[k] += f * row[i]
    zero = field.zero()
    polys = [[field.one()]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        d = h[k - 1][k - 1]
        # (lambda - d) * p_{k-1}
        cur = [zero] * (k + 1)
        for t, a in enumerate(prev):
            cur[t + 1] += a
            cur[t] -= d * a
        prod = field.one()
        for i in range(1, k):
            prod = prod * h[k - i][k - i - 1] % p if p else prod * h[k - i][k - i - 1]
            if not prod:
                break
            f = prod * h[k - i - 1][k - 1] % p if p else prod * h[k - i - 1][k - 1]
            if f:
                for t, a in enumerate(polys[k - i - 1]):
                    cur[t] -= f * a
        polys.append([c % p for c in cur] if p else cur)
    return polys[n]


def charpoly_coefficient(m: Matrix, k: int):
    """Coefficient c_k with det(lambda I - m) = sum c_k lambda^(n-k)."""
    p = charpoly(m)
    n = m.rows
    return p[n - k]


def minpoly_matrix(m: Matrix) -> list:
    """Minimal polynomial: the lcm of the annihilators of the standard
    basis vectors e, each from its Krylov chain e, m e, m^2 e, ...

    Each chain vector m^k e is reduced against the echelon rows of the
    chain so far.  A row is q(m) e for the polynomial q it carries,
    scaled to 1 at its pivot, and the pivots are distinct, so the
    remainder is r = q_k(m) e with q_k = x^k - (the multiples taken off).
    The first zero remainder makes q_k the monic annihilator of e of
    least degree, which is unique: the polynomial a solve of m^k e on the
    earlier chain vectors gives.  Rows and the columns of m are kept as
    their nonzero entries, so zeros cost no arithmetic (over Q each
    `Fraction` operation is dear).
    """
    field = m.field
    n, p, entries = m.rows, field.p, m.entries
    zero, one = field.zero(), field.one()
    # the nonzero entries of each column of m, as (row, entry)
    columns = [[(i, entries[i * n + j]) for i in range(n) if entries[i * n + j]]
               for j in range(n)]
    result = [one]
    for start in range(n):
        if degree(result) >= n:
            break
        vec = [zero] * n
        vec[start] = one
        rows = []  # (pivot, nonzero entries of the row, 1 at the pivot, its polynomial)
        while True:
            r, q = list(vec), [zero] * len(rows) + [one]
            for pivot, row, poly in rows:
                c = r[pivot]
                if c:
                    for j, b in row:
                        r[j] = (r[j] - c * b) % p if p else r[j] - c * b
                    for t, b in enumerate(poly):
                        if b:
                            q[t] = (q[t] - c * b) % p if p else q[t] - c * b
            lead = next((i for i, a in enumerate(r) if a), None)
            if lead is None:
                result = lcm(field, result, q)
                break
            inv = field.inv(r[lead])
            rows.append((lead, [(j, field.mul(inv, a)) for j, a in enumerate(r) if a],
                         [field.mul(inv, b) for b in q]))
            out = [zero] * n
            for j, x in enumerate(vec):
                if x:
                    for i, a in columns[j]:
                        out[i] += a * x
            vec = [a % p for a in out] if p else out
    return monic(field, result)


# -- factorization ------------------------------------------------------------


def _derivative(field, p):
    return normalize(field, [field.mul(field.from_int(i), c) for i, c in enumerate(p)][1:])


def _powmod(field, base, n, mod):
    """base^n reduced modulo mod, by repeated squaring."""
    out = [field.one()]
    base = divmod_poly(field, base, mod)[1]
    while n > 0:
        if n & 1:
            out = divmod_poly(field, mul(field, out, base), mod)[1]
        base = divmod_poly(field, mul(field, base, base), mod)[1]
        n >>= 1
    return out


def _squarefree_gfp(field, f):
    """Square-free decomposition of monic f over GF(p): [(g, e)] with f
    the product of the g^e, every g square-free and monic.

    Yun's gcd steps take the factors whose multiplicity p does not
    divide; what is left is g(x^p), whose p-th root is g because every
    GF(p) coefficient is its own p-th root."""
    p = field.p
    dg = _derivative(field, f)
    if not dg:
        return [(g, e * p) for g, e in _squarefree_gfp(field, f[::p])]
    out = []
    c = gcd(field, f, dg)
    w = divmod_poly(field, f, c)[0]
    e = 1
    while degree(w) > 0:
        y = gcd(field, w, c)
        fac = divmod_poly(field, w, y)[0]
        if degree(fac) > 0:
            out.append((fac, e))
        w = y
        c = divmod_poly(field, c, y)[0]
        e += 1
    if degree(c) > 0:
        out.extend((g, k * p) for g, k in _squarefree_gfp(field, c[::p]))
    return out


def _distinct_degree_gfp(field, f):
    """Distinct-degree factorization of square-free monic f over GF(p):
    [(g, d)] with g the product of f's irreducible factors of degree d."""
    x = [field.zero(), field.one()]
    out = []
    h = x
    d = 0
    while degree(f) >= 2 * (d + 1):
        d += 1
        h = _powmod(field, h, field.p, f)  # x^(p^d) mod f
        g = gcd(field, f, sub(field, h, x))
        if degree(g) > 0:
            out.append((g, d))
            f = divmod_poly(field, f, g)[0]
            h = divmod_poly(field, h, f)[1]
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _equal_degree_gfp(field, f, d, rng):
    """Cantor-Zassenhaus: the irreducible factors of square-free monic f,
    all of degree d."""
    if degree(f) == d:
        return [f]
    p = field.p
    while True:
        a = normalize(field, [rng.randrange(p) for _ in range(degree(f))])
        if degree(a) < 1:
            continue
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(d-1)) is 0 or 1 mod each factor
            b, t = a, a
            for _ in range(d - 1):
                t = divmod_poly(field, mul(field, t, t), f)[1]
                b = add(field, b, t)
        else:
            b = sub(field, _powmod(field, a, (p**d - 1) // 2, f), [field.one()])
        g = gcd(field, f, b)
        if 0 < degree(g) < degree(f):
            return (_equal_degree_gfp(field, g, d, rng)
                    + _equal_degree_gfp(field, divmod_poly(field, f, g)[0], d, rng))


def _factor_gfp(field, f):
    rng = Random(0)
    out = []
    for sf, e in _squarefree_gfp(field, f):
        for g, d in _distinct_degree_gfp(field, sf):
            out.extend((fac, e) for fac in _equal_degree_gfp(field, g, d, rng))
    return out


def _factor_rational_quadratic(f):
    """Monic f over Q of degree 1 or 2, by the discriminant."""
    if degree(f) == 1:
        return [(f, 1)]
    c, b, _ = f
    disc = b * b - 4 * c
    if disc == 0:
        return [([b / 2, Fraction(1)], 2)]
    num, den = disc.numerator, disc.denominator
    if num < 0 or math.isqrt(num) ** 2 != num or math.isqrt(den) ** 2 != den:
        return [(f, 1)]
    root = Fraction(math.isqrt(num), math.isqrt(den))
    return [([(b - root) / 2, Fraction(1)], 1), ([(b + root) / 2, Fraction(1)], 1)]


# A cubic's rational roots are searched for while the integer multiple's
# constant and leading coefficients are at most this (trial division up to
# 10^4); larger cubics go to sympy.
ROOT_SEARCH_MAX = 10**8


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _factor_rational_cubic(f):
    """Monic cubic f over Q: irreducible unless it has a rational root r,
    and then (x - r) times a quadratic.  By the rational root theorem, r is
    +-d/e with d dividing the constant and e the leading coefficient of
    f's integer multiple.  None when those are above ROOT_SEARCH_MAX."""
    lead = math.lcm(*(c.denominator for c in f))
    const = (f[0] * lead).numerator
    if max(abs(const), lead) > ROOT_SEARCH_MAX:
        return None
    if const:
        candidates = (Fraction(sign * d, e) for e in _divisors(lead)
                      for d in _divisors(abs(const)) for sign in (1, -1))
    else:
        candidates = [Fraction(0)]
    root = next((r for r in candidates if eval_scalar(QQ, f, r) == 0), None)
    if root is None:
        return [(f, 1)]
    linear = [-root, Fraction(1)]
    out = _factor_rational_quadratic(divmod_poly(QQ, f, linear)[0])
    for i, (fac, e) in enumerate(out):
        if fac == linear:
            out[i] = (fac, e + 1)
            return out
    return out + [(linear, 1)]


def _factor_sympy(f):
    """Factorization over Q through sympy (imported only here)."""
    import sympy
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(str(c)) * x**i for i, c in enumerate(f))
    _, factors = sympy.factor_list(expr, x)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, x)
        cs = [Fraction(int(r.p), int(r.q))
              for r in map(sympy.Rational, reversed(poly.all_coeffs()))]
        cs = monic(QQ, normalize(QQ, cs))
        if degree(cs) >= 1:
            out.append((cs, int(mult)))
    return out


def factor_poly(field: Field, coeffs) -> list[tuple[list, int]]:
    """Monic irreducible factors with multiplicities; the coefficients
    may be ints, Fractions or decimal strings.

    Three paths, all exact:
    - GF(p): square-free decomposition, distinct-degree factorization
      and Cantor-Zassenhaus equal-degree splitting (seeded, so the run
      repeats);
    - Q of degree <= 3: the discriminant decides a quadratic, and a
      cubic splits off a linear factor by the rational root theorem;
    - Q of degree >= 4, or a cubic too large to search: sympy.
    Monic factorization is unique, so each path gives what sympy gives,
    sorted by (degree, [str(c) ...]) as before.
    """
    coeffs = normalize(field, [field.element(c) for c in coeffs])
    if degree(coeffs) < 1:
        return []
    f = monic(field, coeffs)
    if field.is_prime_field:
        out = _factor_gfp(field, f)
    elif degree(f) <= 2:
        out = _factor_rational_quadratic(f)
    else:
        out = _factor_rational_cubic(f) if degree(f) == 3 else None
        if out is None:
            out = _factor_sympy(f)
    out.sort(key=lambda fm: (degree(fm[0]), [str(c) for c in fm[0]]))
    return out


def is_irreducible(field: Field, coeffs) -> bool:
    coeffs = normalize(field, [field.element(c) for c in coeffs])
    facs = factor_poly(field, coeffs)
    return len(facs) == 1 and facs[0][1] == 1 and degree(facs[0][0]) == degree(coeffs)
