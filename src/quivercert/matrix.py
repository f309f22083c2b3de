"""Exact matrices over GF(p) or Q with deterministic row reduction.

Entries are the field's elements: ints in [0, p) over GF(p), Fractions
over Q.  Every op runs on those raw entries, one routine for both fields,
with no `Field` method call per entry; each reads `field.p` once (0 for
Q) and branches on it only where it reduces mod p or takes an inverse.
Pivoting is first-nonzero in column order, which makes every derived
basis (kernels, images, complements) reproducible.

The public constructor copies its entries and checks the shape.  The
ops of this module build each result on a fresh list whose shape
follows from the construction, and hand it to the private `_matrix`,
which does neither; only this module calls it.
"""

from __future__ import annotations

from .fields import Field, FieldError


class NoSolution(Exception):
    """A linear system A x = b with no solution (a result, not a bug)."""


class Matrix:
    """A rows x cols matrix, its entries a flat row-major list.

    Matrices are shared freely: between modules and maps, and between a
    one-part `block_map` and its block.  So a matrix is written (by
    `__setitem__` or through `entries`) only right after `Matrix.zero` or
    `Matrix.identity` has built it, by the code that built it, before any
    other code sees it.  No op returns a result that shares its `entries`
    list with an input, and the public constructor copies the list it is
    given."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"bad shape {rows}x{cols} with {len(entries)} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return _matrix(field, rows, cols, [field.zero()] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        entries = [field.zero()] * (n * n)
        entries[::n + 1] = [field.one()] * n
        return _matrix(field, n, n, entries)

    @classmethod
    def from_rows(cls, field: Field, rows_data) -> "Matrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        entries = []
        for row in rows_data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            entries.extend(field.element(x) for x in row)
        return cls(field, rows, cols, entries)

    @classmethod
    def column(cls, field: Field, values) -> "Matrix":
        vals = [field.element(v) for v in values]
        return cls(field, len(vals), 1, vals)

    # -- basics -----------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i * self.cols + j] = value

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.field is other.field or self.field == other.field)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols} over {self.field}: [{body}])"

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.field, self.rows)

    def to_strings(self):
        f = self.field.format
        return [[f(x) for x in self.row(i)] for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------
    def _check_same(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise FieldError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = self.field.p
        pairs = zip(self.entries, other.entries)
        entries = [(a + b) % p for a, b in pairs] if p else [a + b for a, b in pairs]
        return _matrix(self.field, self.rows, self.cols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        p = self.field.p
        pairs = zip(self.entries, other.entries)
        entries = [(a - b) % p for a, b in pairs] if p else [a - b for a, b in pairs]
        return _matrix(self.field, self.rows, self.cols, entries)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        entries = [-a % p for a in self.entries] if p else [-a for a in self.entries]
        return _matrix(self.field, self.rows, self.cols, entries)

    def scale(self, c) -> "Matrix":
        c = self.field.element(c)
        p = self.field.p
        if c == 1:
            entries = list(self.entries)
        elif p:
            entries = [c * a % p for a in self.entries]
        else:
            entries = [c * a for a in self.entries]
        return _matrix(self.field, self.rows, self.cols, entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.p
        a, b = self.entries, other.entries
        n, m, k = self.rows, self.cols, other.cols
        out = [self.field.zero()] * (n * k)
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            orow = i * k
            for t in range(m):
                c = arow[t]
                if c:
                    brow = t * k
                    if p:
                        for j in range(k):
                            out[orow + j] = (out[orow + j] + c * b[brow + j]) % p
                    else:
                        for j in range(k):
                            out[orow + j] += c * b[brow + j]
        return _matrix(self.field, n, k, out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) is self[i, j] * other.  A block
        at a 0 or 1 of self is a run of zeros or other's row as it is."""
        self._check_same(other)
        p = self.field.p
        a, m = self.entries, self.cols
        k = other.cols
        other_rows = [other.entries[s * k:(s + 1) * k] for s in range(other.rows)]
        zeros = [self.field.zero()] * k
        entries = []
        for i in range(self.rows):
            row = a[i * m:(i + 1) * m]
            for other_row in other_rows:
                for c in row:
                    if not c:
                        entries += zeros
                    elif c == 1:
                        entries += other_row
                    elif p:
                        entries += [c * b % p for b in other_row]
                    else:
                        entries += [c * b for b in other_row]
        return _matrix(self.field, self.rows * other.rows, m * k, entries)

    def transpose(self) -> "Matrix":
        e, cols = self.entries, self.cols
        return _matrix(self.field, cols, self.rows,
                       [x for j in range(cols) for x in e[j::cols]])

    # -- stacking -------------------------------------------------------------
    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = list(mats)
        field, cols = mats[0].field, mats[0].cols
        entries = []
        for m in mats:
            if m.cols != cols or (m.field is not field and m.field != field):
                raise ValueError("vstack mismatch")
            entries += m.entries
        return _matrix(field, sum(m.rows for m in mats), cols, entries)

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        field, rows = mats[0].field, mats[0].rows
        for m in mats:
            if m.rows != rows or (m.field is not field and m.field != field):
                raise ValueError("hstack mismatch")
        parts = [(m.entries, m.cols) for m in mats if m.cols]
        entries = []
        for i in range(rows):
            for e, w in parts:
                entries += e[i * w:(i + 1) * w]
        return _matrix(field, rows, sum(w for _, w in parts), entries)

    @staticmethod
    def block_diag(field: Field, mats) -> "Matrix":
        mats = list(mats)
        cols = sum(m.cols for m in mats)
        zero = field.zero()
        entries = []
        left = 0
        for m in mats:
            e, w = m.entries, m.cols
            before, after = [zero] * left, [zero] * (cols - left - w)
            for i in range(m.rows):
                entries += before
                entries += e[i * w:(i + 1) * w]
                entries += after
            left += w
        return _matrix(field, sum(m.rows for m in mats), cols, entries)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        e, width, col_idx = self.entries, self.cols, list(col_idx)
        entries = [e[i * width + j] for i in row_idx for j in col_idx]
        return _matrix(self.field, len(row_idx), len(col_idx), entries)

    # -- row reduction ----------------------------------------------------------
    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots, rank) where pivots is the tuple of pivot
        column indices; deterministic for a given input.
        """
        p, rows, cols = self.field.p, self.rows, self.cols
        m = list(self.entries)
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
            top = r * cols
            if pivot_row != r:
                other = pivot_row * cols
                m[top:top + cols], m[other:other + cols] = m[other:other + cols], m[top:top + cols]
            lead = m[top + c]
            if lead != 1:
                inv = pow(lead, -1, p) if p else 1 / lead
                for j in range(top + c, top + cols):
                    m[j] = m[j] * inv % p if p else m[j] * inv
            for i in range(rows):
                f = m[i * cols + c]
                if f and i != r:
                    shift = (i - r) * cols
                    if p:
                        for j in range(top + c, top + cols):
                            m[j + shift] = (m[j + shift] - f * m[j]) % p
                    else:
                        for j in range(top + c, top + cols):
                            m[j + shift] -= f * m[j]
            pivots.append(c)
            r += 1
            if r == rows:
                break
        return _matrix(self.field, rows, cols, m), tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the null space {x : A x = 0}."""
        return self.kernel_and_free()[0]

    def kernel_and_free(self) -> tuple["Matrix", list]:
        """(kernel basis, free columns): column k of the basis is 1 at the
        k-th non-pivot column fc of the rref, 0 at the other non-pivot
        columns and -R[r, fc] at the r-th pivot column, so the basis is the
        identity on the rows listed."""
        reduced, pivots, rank = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        field, cols, width = self.field, self.cols, len(free)
        p, red = field.p, reduced.entries
        e = [field.zero()] * (cols * width)
        one = field.one()
        for k, fc in enumerate(free):
            e[fc * width + k] = one
            for r, pc in enumerate(pivots):
                x = red[r * cols + fc]
                e[pc * width + k] = -x % p if p else -x
        return _matrix(field, cols, width, e), free

    def column_space_basis(self) -> "Matrix":
        """Columns of the original matrix at pivot positions of its rref."""
        _, pivots, _ = self.rref()
        return self.submatrix(range(self.rows), list(pivots))

    def solve(self, b: "Matrix") -> "Matrix":
        """Solve A X = B exactly; raises NoSolution when inconsistent."""
        self._check_same(b)
        if b.rows != self.rows:
            raise ValueError("rhs row mismatch")
        if self.cols == 0:
            if b.is_zero():
                return Matrix.zero(self.field, 0, b.cols)
            raise NoSolution()
        aug = Matrix.hstack([self, b])
        reduced, pivots, _ = aug.rref()
        if any(c >= self.cols for c in pivots):
            raise NoSolution()
        out = Matrix.zero(self.field, self.cols, b.cols)
        width, k = aug.cols, b.cols
        for r, pc in enumerate(pivots):
            start = r * width + self.cols
            out.entries[pc * k:(pc + 1) * k] = reduced.entries[start:start + k]
        return out

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        try:
            inv = self.solve(Matrix.identity(self.field, self.rows))
        except NoSolution:
            raise NoSolution() from None
        if (inv @ self).is_identity():
            return inv
        raise NoSolution()

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def complement_basis(span: Matrix) -> Matrix:
    """Standard-basis columns completing span's columns to the full space.

    Deterministic: picks the first standard vectors (in index order) that
    stay independent, via one rref of [span | I].
    """
    field = span.field
    d, k = span.rows, span.cols
    if k == 0:
        return Matrix.identity(field, d)
    full = Matrix.hstack([span, Matrix.identity(field, d)])
    _, pivots, _ = full.rref()
    comp_cols = [c - k for c in pivots if c >= k]
    width = len(comp_cols)
    entries = [field.zero()] * (d * width)
    one = field.one()
    for j, idx in enumerate(comp_cols):
        entries[idx * width + j] = one
    return _matrix(field, d, width, entries)


_new = object.__new__


def _matrix(field: Field, rows: int, cols: int, entries: list) -> Matrix:
    """A Matrix on `entries` itself: no copy and no shape check.  Only for
    a fresh list that no other code holds, of length rows * cols by the
    way the caller built it."""
    m = _new(Matrix)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.entries = entries
    return m
