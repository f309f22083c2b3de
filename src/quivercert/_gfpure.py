"""GF(p) matrix kernels on flat row-major lists of ints in [0, p).

`matmul_mod` multiplies, `rref_mod` row-reduces, and `charpoly_mod`
computes det(lambda I - m) by a Hessenberg reduction and its recurrence.
"""

from __future__ import annotations


def matmul_mod(a, b, n, m, k, p):
    """(n x m) times (m x k) modulo p."""
    out = [0] * (n * k)
    for i in range(n):
        arow = a[i * m:(i + 1) * m]
        orow = i * k
        for t in range(m):
            c = arow[t]
            if c:
                brow = t * k
                for j in range(k):
                    out[orow + j] = (out[orow + j] + c * b[brow + j]) % p
    return out


def rref_mod(entries, rows, cols, p):
    """Reduced row echelon form; pivot = first nonzero in column order.

    Returns (reduced flat list, pivot column list).
    """
    m = list(entries)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = -1
        for i in range(r, rows):
            if m[i * cols + c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            for j in range(cols):
                m[r * cols + j], m[pivot_row * cols + j] = (
                    m[pivot_row * cols + j],
                    m[r * cols + j],
                )
        inv = pow(m[r * cols + c], p - 2, p)
        if inv != 1:
            for j in range(c, cols):
                m[r * cols + j] = m[r * cols + j] * inv % p
        for i in range(rows):
            if i == r:
                continue
            f = m[i * cols + c]
            if f:
                for j in range(c, cols):
                    m[i * cols + j] = (m[i * cols + j] - f * m[r * cols + j]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def charpoly_mod(entries, n, p):
    """det(lambda I - m) of an n x n matrix modulo p, ascending
    coefficients with leading 1.

    Reduces m to upper Hessenberg form H by similarity (the pivot is the
    first nonzero below the subdiagonal), then p_k = (lambda - H[k-1][k-1])
    p_{k-1} - sum_i (H[k-1][k-2] ... H[k-i][k-i-1]) H[k-i-1][k-1] p_{k-i-1};
    the sum stops at the first zero subdiagonal entry.
    """
    h = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
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
        inv = pow(prow[j], p - 2, p)
        for i in range(j + 2, n):
            hi = h[i]
            if hi[j]:
                f = hi[j] * inv % p
                for c in range(j, n):
                    hi[c] = (hi[c] - f * prow[c]) % p
                for row in h:
                    row[k] = (row[k] + f * row[i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        d = h[k - 1][k - 1]
        # (lambda - d) * p_{k-1}
        cur = [0] * (k + 1)
        for t, a in enumerate(prev):
            cur[t + 1] += a
            cur[t] -= d * a
        prod = 1
        for i in range(1, k):
            prod = prod * h[k - i][k - i - 1] % p
            if not prod:
                break
            f = prod * h[k - i - 1][k - 1] % p
            if f:
                for t, a in enumerate(polys[k - i - 1]):
                    cur[t] -= f * a
        polys.append([c % p for c in cur])
    return polys[n]
