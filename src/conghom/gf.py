"""Exact arithmetic and linear algebra over the prime field GF(p).

Scalars are plain Python ints in [0, p); the modulus lives in a shared
GF context object that every compound value carries.  Mixing values
from different contexts raises immediately rather than producing
garbage residues.
"""

from __future__ import annotations

import operator
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
        p = field.p
        ent = tuple([v % p for v in entries])
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
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            self.field, self.cols, self.rows,
            [v for j in range(self.cols) for v in self.col(j)],
        )

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.col(j) for j in range(other.cols)]
        # __init__ reduces each sum mod p
        return DenseMatrix(
            self.field, self.rows, other.cols,
            [sum(map(operator.mul, r, c)) for r in rows for c in cols],
        )

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self.mul(other)

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


def gauss_jordan(rows: list[list[int]], p: int, width: int) -> list[int]:
    """Reduce rows of residues mod p in place to reduced row echelon form.

    Pivots are sought in the first `width` columns, left to right: each
    pivot row is moved up, scaled to 1 at its pivot, and subtracted from
    every other row that is nonzero there, across the whole row.
    Returns the pivot columns; the rows below the last pivot row are
    zero in the first `width` columns.  rref reduces a whole matrix this
    way, and inverse_entries the left half of [m | I].
    """
    pivots: list[int] = []
    r = 0
    count = len(rows)
    for c in range(width):
        if r == count:
            break
        for i in range(r, count):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = [v * inv % p for v in row]
        rows[r] = row
        for i, other in enumerate(rows):
            f = other[c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: DenseMatrix) -> tuple[int, DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form, by gauss_jordan.

    Returns (rank, reduced matrix, pivot columns).  The reduction is the
    unique RREF over GF(p); the row space is preserved.
    """
    rows = m.to_rows()
    pivots = gauss_jordan(rows, m.field.p, m.cols)
    reduced = DenseMatrix(m.field, m.rows, m.cols, [v for row in rows for v in row])
    return len(pivots), reduced, tuple(pivots)


def inverse_entries(entries: Sequence[int], n: int, p: int) -> tuple[int, ...]:
    """Row-major inverse of an n x n matrix given by its row-major residues mod p.

    gauss_jordan reduces [m | I] with its pivots in the left half, which
    leaves [I | m^-1]; a singular matrix raises ValueError.
    """
    rows = [[*entries[i * n:(i + 1) * n], *(int(i == j) for j in range(n))] for i in range(n)]
    if len(gauss_jordan(rows, p, n)) < n:
        raise ValueError("matrix is singular")
    return tuple([v for row in rows for v in row[n:]])


def inverse(m: DenseMatrix) -> DenseMatrix:
    """Inverse, by inverse_entries."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return DenseMatrix(m.field, m.rows, m.cols, inverse_entries(m.entries, m.rows, m.field.p))


class SparseMatrix:
    """Sparse matrix stored by rows: row -> {col: nonzero residue}.

    Built from (row, col, value) triples; values are reduced mod p, and
    an index out of bounds, a zero residue or a repeated (row, col)
    raises ValueError.  Rows without entries are not stored.  triples()
    lists the entries in (row, col) order.  The boundary is stored this
    way only for export and the tests; its rank is taken column by column.
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


def reduce_columns(field: GF, columns: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Column reduction into a basis keyed by pivot row.

    Each column is a {row: nonzero residue} dict.  The columns are
    reduced one at a time, in the order given, against the basis built
    so far.  The pivot of a column is its largest row index.  While the
    pivot is taken, the basis column stored there, scaled to the
    column's pivot value, is subtracted; the column is then empty, or
    its pivot is new and it joins the basis, scaled to 1 at its pivot.
    The returned dict maps each pivot row to its basis column, and its
    size is the rank.  This is the column reduction of Edelsbrunner,
    Letscher & Zomorodian (2002) with the pivot at the lowest nonzero.
    The given dicts are reduced in place.
    """
    p = field.p
    basis: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            pivot = max(col)
            other = basis.get(pivot)
            if other is None:
                inv = field.inv(col[pivot])
                basis[pivot] = {r: v * inv % p for r, v in col.items()}
                break
            f = col[pivot]
            for r, v in other.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    return basis


def sparse_rank(m: SparseMatrix) -> int:
    """Rank of m: its columns, in column order, through reduce_columns.

    Reduces copies, so m is left unchanged.
    """
    columns: dict[int, dict[int, int]] = {}
    for r, row in m.by_row.items():
        for c, v in row.items():
            columns.setdefault(c, {})[r] = v
    return len(reduce_columns(m.field, (columns[c] for c in sorted(columns))))
