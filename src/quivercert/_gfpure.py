"""GF(p) matrix kernels on flat row-major lists of ints in [0, p)."""

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
