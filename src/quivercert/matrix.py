"""Exact matrices over GF(p) or Q with deterministic row reduction.

Entries are the field's elements: ints in [0, p) over GF(p), Fractions
over Q.  The product and the row reduction run on those raw entries,
one routine for both fields; each reads `field.p` once (0 for Q) and
branches on it only where it reduces mod p or takes an inverse.
Pivoting is first-nonzero in column order, which makes every derived
basis (kernels, images, complements) reproducible.
"""

from __future__ import annotations

from .fields import Field, FieldError


class NoSolution(Exception):
    """A linear system A x = b with no solution (a result, not a bug)."""


class Matrix:
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
        return cls(field, rows, cols, [field.zero()] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zero(field, n, n)
        one = field.one()
        for i in range(n):
            m.entries[i * n + i] = one
        return m

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
        z = self.field.zero()
        return all(e == z for e in self.entries)

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
        add = self.field.add
        return Matrix(
            self.field, self.rows, self.cols,
            [add(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        sub = self.field.sub
        return Matrix(
            self.field, self.rows, self.cols,
            [sub(a, b) for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        c = self.field.element(c)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self.entries])

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
        return Matrix(self.field, n, k, out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) is self[i, j] * other."""
        self._check_same(other)
        mul = self.field.mul
        entries = []
        for i in range(self.rows):
            row = self.row(i)
            for s in range(other.rows):
                other_row = other.row(s)
                for a in row:
                    entries.extend(mul(a, b) for b in other_row)
        return Matrix(self.field, self.rows * other.rows, self.cols * other.cols, entries)

    def transpose(self) -> "Matrix":
        out = [self.field.zero()] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.field, self.cols, self.rows, out)

    # -- stacking -------------------------------------------------------------
    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = list(mats)
        field, cols = mats[0].field, mats[0].cols
        entries = []
        for m in mats:
            if m.cols != cols or (m.field is not field and m.field != field):
                raise ValueError("vstack mismatch")
            entries.extend(m.entries)
        return Matrix(field, sum(m.rows for m in mats), cols, entries)

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        field, rows = mats[0].field, mats[0].rows
        for m in mats:
            if m.rows != rows or (m.field is not field and m.field != field):
                raise ValueError("hstack mismatch")
        total = sum(m.cols for m in mats)
        entries = []
        for i in range(rows):
            for m in mats:
                entries.extend(m.entries[i * m.cols:(i + 1) * m.cols])
        return Matrix(field, rows, total, entries)

    @staticmethod
    def block_diag(field: Field, mats) -> "Matrix":
        mats = list(mats)
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = Matrix.zero(field, rows, cols)
        r = c = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    out[r + i, c + j] = m[i, j]
            r += m.rows
            c += m.cols
        return out

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        entries = [self[i, j] for i in row_idx for j in col_idx]
        return Matrix(self.field, len(row_idx), len(col_idx), entries)

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
        return Matrix(self.field, rows, cols, m), tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the null space {x : A x = 0}."""
        reduced, pivots, rank = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        F = self.field
        out = Matrix.zero(F, self.cols, len(free))
        for k, fc in enumerate(free):
            out[fc, k] = F.one()
            for r, pc in enumerate(pivots):
                out[pc, k] = F.neg(reduced[r, fc])
        return out

    def column_space_basis(self) -> "Matrix":
        """Columns of the original matrix at pivot positions of its rref."""
        _, pivots, _ = self.rref()
        return self.submatrix(range(self.rows), list(pivots))

    def solve(self, b: "Matrix") -> "Matrix":
        """Solve A X = B exactly; raises NoSolution when inconsistent."""
        self._check_same(b)
        if b.rows != self.rows:
            raise ValueError("rhs row mismatch")
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
    out = Matrix.zero(field, d, len(comp_cols))
    for j, idx in enumerate(comp_cols):
        out[idx, j] = field.one()
    return out
