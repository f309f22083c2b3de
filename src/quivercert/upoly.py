"""Univariate polynomial helpers over the package fields.

Polynomials are lists of field elements in ascending degree with no
trailing zeros ([] is the zero polynomial).  Factorization is delegated
to sympy (exact, over QQ and GF(p)); everything else is local.  The
characteristic polynomial over GF(p) runs on plain ints mod p in
`_gfpure.charpoly_mod`; the `Field`-element recurrence below serves Q.
"""

from __future__ import annotations

import sympy

from ._gfpure import charpoly_mod
from .fields import Field
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
    quo, _ = divmod_poly(field, mul(field, p, q), g)
    return monic(field, quo)


def ext_gcd(field, p, q):
    """Returns (g, u, v) with u p + v q = g, g monic."""
    r0, r1 = list(p), list(q)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        quo, rem = divmod_poly(field, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(field, s0, mul(field, quo, s1))
        t0, t1 = t1, sub(field, t0, mul(field, quo, t1))
    if not r0:
        return [], s0, t0
    inv = field.inv(r0[-1])
    scale = [inv]
    return monic(field, r0), mul(field, scale, s0), mul(field, scale, t0)


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
    out = Matrix.zero(field, n, n)
    for c in reversed(p):
        out = out @ m
        for i in range(n):
            out[i, i] = field.add(out[i, i], c)
    return out


def eval_scalar(field, p, x):
    out = field.zero()
    for c in reversed(p):
        out = field.add(field.mul(out, x), c)
    return out


def charpoly(m: Matrix) -> list:
    """det(lambda I - m), ascending coefficients, leading 1.

    Hessenberg reduction by similarity, then the standard recurrence;
    GF(p) runs it on ints in `charpoly_mod`.
    """
    field = m.field
    n = m.rows
    if n != m.cols:
        raise ValueError("charpoly of non-square matrix")
    if field.is_prime_field:
        return charpoly_mod(m.entries, n, field.p)
    if n == 0:
        return [field.one()]
    h = [[m[i, j] for j in range(n)] for i in range(n)]
    zero = field.zero()
    for j in range(n - 2):
        pivot = -1
        for i in range(j + 1, n):
            if h[i][j] != zero:
                pivot = i
                break
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
    # p_0 = 1; p_m from the leading m x m Hessenberg block
    polys = [[field.one()]]
    for mm in range(1, n + 1):
        lam_minus = [field.neg(h[mm - 1][mm - 1]), field.one()]
        cur = mul(field, lam_minus, polys[mm - 1])
        prod = field.one()
        for i in range(1, mm):
            prod = field.mul(prod, h[mm - i][mm - i - 1])
            term = mul(field, [field.mul(prod, h[mm - i - 1][mm - 1])], polys[mm - i - 1])
            cur = sub(field, cur, term)
        polys.append(cur)
    out = polys[n]
    # pad: char poly has exact degree n with leading coefficient 1
    while len(out) < n + 1:
        out.append(zero)
    return out


def charpoly_coefficient(m: Matrix, k: int):
    """Coefficient c_k with det(lambda I - m) = sum c_k lambda^(n-k)."""
    p = charpoly(m)
    n = m.rows
    return p[n - k]


def minpoly_matrix(m: Matrix) -> list:
    """Minimal polynomial via Krylov chains from standard basis vectors."""
    from .matrix import NoSolution
    field = m.field
    n = m.rows
    result = [field.one()]
    for start in range(n):
        if degree(result) >= n:
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
            result = lcm(field, result, normalize(field, ann))
            break
    return monic(field, result)


# -- sympy bridge -------------------------------------------------------------

_X = sympy.Symbol("x")


def _to_sympy(field: Field, coeffs):
    return sum(sympy.Rational(str(c)) * _X**i for i, c in enumerate(coeffs))


def _from_sympy_scalar(field: Field, c):
    from fractions import Fraction
    r = sympy.Rational(c)
    return field.element(Fraction(int(r.p), int(r.q)))


def factor_poly(field: Field, coeffs) -> list[tuple[list, int]]:
    """Monic irreducible factors with multiplicities; the coefficients
    may be ints, Fractions or decimal strings."""
    import warnings
    coeffs = normalize(field, [field.element(c) for c in coeffs])
    if degree(coeffs) < 1:
        return []
    expr = _to_sympy(field, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sympy modular-integer ordering notice
        if field.is_prime_field:
            _, factors = sympy.factor_list(expr, _X, modulus=field.p)
        else:
            _, factors = sympy.factor_list(expr, _X)
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, _X)
        cs = [_from_sympy_scalar(field, c) for c in reversed(poly.all_coeffs())]
        cs = monic(field, normalize(field, cs))
        if degree(cs) >= 1:
            out.append((cs, int(mult)))
    out.sort(key=lambda fm: (degree(fm[0]), [str(c) for c in fm[0]]))
    return out


def is_irreducible(field: Field, coeffs) -> bool:
    coeffs = normalize(field, [field.element(c) for c in coeffs])
    facs = factor_poly(field, coeffs)
    return len(facs) == 1 and facs[0][1] == 1 and degree(facs[0][0]) == degree(coeffs)
