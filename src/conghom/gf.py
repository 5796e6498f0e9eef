"""Exact arithmetic and linear algebra over the prime field GF(p).

Scalars are plain Python ints in [0, p); the modulus lives in a shared
GF context object that every compound value carries.  Mixing values
from different contexts raises immediately rather than producing
garbage residues.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GF:
    """Prime-field context.  All operations reduce into [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(a, self.p - 2, self.p)


def _check_same_field(a: "GF", b: "GF") -> None:
    if a != b:
        raise ValueError(f"mixed field contexts: {a} vs {b}")


class DenseMatrix:
    """Immutable row-major matrix of GF(p) residues."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: GF, rows: int, cols: int, entries: Iterable[int]) -> None:
        ent = tuple(v % field.p for v in entries)
        if len(ent) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = ent

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "DenseMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(field, r, c, [v for row in rows for v in row])

    @classmethod
    def identity(cls, field: GF, n: int) -> "DenseMatrix":
        return cls(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            self.field,
            self.cols,
            self.rows,
            [self.get(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        p = self.field.p
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.get(k, j) for k in range(self.cols)) % p)
        return DenseMatrix(self.field, self.rows, other.cols, out)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self.mul(other)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        _check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        p = self.field.p
        return DenseMatrix(
            self.field, self.rows, self.cols,
            [(a + b) % p for a, b in zip(self.entries, other.entries)],
        )

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        _check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        p = self.field.p
        return DenseMatrix(
            self.field, self.rows, self.cols,
            [(a - b) % p for a, b in zip(self.entries, other.entries)],
        )

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.get(i, i) for i in range(self.rows)) % self.field.p

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.field}, {self.to_rows()})"


def rref(m: DenseMatrix) -> tuple[int, DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (rank, reduced matrix, pivot columns).  The reduction is the
    unique RREF over GF(p); the row space is preserved.
    """
    field = m.field
    p = field.p
    a = m.to_rows()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = field.inv(a[r][c])
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = DenseMatrix.from_rows(field, a) if m.rows else DenseMatrix(field, 0, m.cols, [])
    return r, reduced, tuple(pivots)


def det(m: DenseMatrix) -> int:
    """Determinant by Gaussian elimination with row swaps."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    p = field.p
    a = m.to_rows()
    n = m.rows
    result = 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = (-result) % p
        result = (result * a[c][c]) % p
        inv = field.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = (a[i][c] * inv) % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return result


def inverse(m: DenseMatrix) -> DenseMatrix:
    """Inverse via Gauss-Jordan on the augmented matrix."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = DenseMatrix(
        m.field, n, 2 * n,
        [m.get(i, j) if j < n else (1 if j - n == i else 0)
         for i in range(n) for j in range(2 * n)],
    )
    rank, red, piv = rref(aug)
    if piv[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return DenseMatrix(m.field, n, n, [red.get(i, n + j) for i in range(n) for j in range(n)])


class SparseMatrix:
    """Sparse matrix stored by rows: row -> {col: nonzero residue}.

    Built from (row, col, value) triples; values are reduced mod p, and
    an index out of bounds, a zero residue or a repeated (row, col)
    raises ValueError.  Rows without entries are not stored.  triples()
    lists the entries in (row, col) order.
    """

    __slots__ = ("field", "rows", "cols", "by_row")

    def __init__(self, field: GF, rows: int, cols: int,
                 triples: Iterable[tuple[int, int, int]] = ()) -> None:
        self.field = field
        self.rows = rows
        self.cols = cols
        by_row: dict[int, dict[int, int]] = {}
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"index ({r}, {c}) out of bounds")
            v %= field.p
            if v == 0:
                raise ValueError("stored values must be nonzero")
            row = by_row.setdefault(r, {})
            if c in row:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            row[c] = v
        self.by_row = by_row

    def triples(self) -> list[tuple[int, int, int]]:
        return [(r, c, v) for r in sorted(self.by_row)
                for c, v in sorted(self.by_row[r].items())]

    def nnz(self) -> int:
        return sum(len(row) for row in self.by_row.values())

    def densify(self) -> DenseMatrix:
        ent = [0] * (self.rows * self.cols)
        for r, row in self.by_row.items():
            for c, v in row.items():
                ent[r * self.cols + c] = v
        return DenseMatrix(self.field, self.rows, self.cols, ent)


def sparse_rank(m: SparseMatrix) -> int:
    """Rank by sparse elimination with a lazy heap of pivot rows.

    The pivot row is the live row with the fewest nonzeros, ties broken
    on the smaller row index; within it the pivot column is the one
    with the fewest live rows, ties broken on the smaller column index.
    This is the Markowitz rule restricted to the shortest row, so the
    elimination order is deterministic and fill-in stays low.

    The rows wait in a min-heap keyed on (length, row).  Every update
    pushes the row again with its new length instead of removing the
    old entry, so a popped entry whose row is gone or whose length no
    longer matches is stale and is skipped.  Rows that cancel to zero
    are dropped.  Choosing a pivot costs O(log h) per popped entry for
    a heap of h entries, plus one pass over the pivot row, instead of a
    scan over every live nonzero; the updates dominate the total.
    Eliminates on a copy of m's rows, so m is left unchanged.  Agrees
    with rref on the densified matrix.
    """
    field = m.field
    p = field.p
    rows = {r: dict(row) for r, row in m.by_row.items()}
    col_members: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_members.setdefault(c, set()).add(r)

    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, pr = heapq.heappop(heap)
        pivot_row = rows.get(pr)
        if pivot_row is None or len(pivot_row) != length:
            continue
        pc = min(pivot_row, key=lambda c: (len(col_members[c]), c))
        del rows[pr]
        inv = field.inv(pivot_row[pc])
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        for c in pivot_row:
            col_members[c].discard(pr)
        for r in list(col_members[pc]):
            row = rows[r]
            f = row[pc]
            for c, v in pivot_row.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    if c not in row:
                        col_members[c].add(r)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_members[c].discard(r)
            if row:
                heapq.heappush(heap, (len(row), r))
            else:
                del rows[r]
        rank += 1
    return rank
