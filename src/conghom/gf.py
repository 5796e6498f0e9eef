"""Exact linear algebra over the prime field GF(p).

Scalars are plain Python ints in [0, p).  A dense matrix is a row-major
tuple of residues, and an RREF a tuple of row tuples in pivot order,
grown a row at a time by extend_rref, the one Gauss-Jordan routine.
Every routine, and SparseMatrix, takes the prime as the int p.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def extend_rref(rows: tuple, row: Sequence[int], p: int, width: int) -> tuple:
    """RREF of the span of `rows` plus one row: a tuple of row tuples in pivot order.

    `rows` is such an RREF, pivots in the first `width` columns; a
    reduced row's pivot is its first 1.  The new row is reduced at each
    pivot; if it is then zero in the first `width` columns, `rows`
    itself is returned.  Else its first nonzero is scaled to 1 and
    cleared from the other rows, and it goes in at its pivot's place.
    building folds a flag's columns through this, inverse_entries the
    rows of [m | I].
    """
    for r in rows:
        f = row[r.index(1)]
        if f:
            row = [(x - f * y) % p for x, y in zip(row, r)]
    f = next(filter(None, row[:width]), 0)  # the first nonzero, which row.index finds
    if not f:
        return rows
    c = row.index(f)
    if f != 1:
        inv = pow(f, p - 2, p)
        row = [v * inv % p for v in row]
    row = tuple(row)
    head = []  # the rows with pivots left of c, cleared at c; the rest are zero there
    for r in rows:
        f = r[c]
        if not f and r.index(1) > c:
            break
        head.append(tuple([(x - f * y) % p for x, y in zip(r, row)]) if f else r)
    return (*head, row, *rows[len(head):])


def inverse_entries(entries: Sequence[int], n: int, p: int) -> tuple[int, ...]:
    """Row-major inverse of an n x n matrix given by its row-major residues mod p.

    Folding the rows of [m | I] through extend_rref leaves [I | m^-1]; a
    singular matrix, whose RREF has fewer than n rows, raises ValueError.
    """
    rows: tuple = ()
    zeros = (0,) * n
    for i in range(n):
        rows = extend_rref(rows, (*entries[i * n:(i + 1) * n], *zeros[:i], 1, *zeros[i + 1:]), p, n)
    if len(rows) < n:
        raise ValueError("matrix is singular")
    return tuple([v for row in rows for v in row[n:]])


class SparseMatrix:
    """Sparse matrix stored by rows: row -> {col: nonzero residue}.

    Built from the prime p and (row, col, value) triples; values are
    reduced mod p, and an index out of bounds, a zero residue or a
    repeated (row, col) raises ValueError.  Rows without entries are not
    stored.  triples() yields the entries in (row, col) order, so export
    writes them one line at a time.  The boundary is stored this way
    only for export and the tests; its rank is taken column by column.
    """

    __slots__ = ("p", "rows", "cols", "by_row")

    def __init__(self, p: int, rows: int, cols: int,
                 triples: Iterable[tuple[int, int, int]] = ()) -> None:
        self.p = p
        self.rows = rows
        self.cols = cols
        by_row: dict[int, dict[int, int]] = {}
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"index ({r}, {c}) out of bounds")
            v %= p
            if v == 0:
                raise ValueError("stored values must be nonzero")
            row = by_row.setdefault(r, {})
            if c in row:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            row[c] = v
        self.by_row = by_row

    def triples(self) -> Iterator[tuple[int, int, int]]:
        return ((r, c, v) for r in sorted(self.by_row)
                for c, v in sorted(self.by_row[r].items()))

    def nnz(self) -> int:
        return sum(len(row) for row in self.by_row.values())


def reduce_columns(p: int, columns: Iterable[dict[int, int]]) -> dict[int, tuple]:
    """Column reduction over GF(p) into a basis of tails keyed by pivot row.

    Each column is a {row: nonzero residue} dict, reduced in place, in
    the order given, against the basis built so far; its pivot is its
    largest row.  A basis column is kept as its pivot-free tail, the
    (row, -value / pivot value mod p) pairs of its other entries, all
    below the pivot.  A column with pivot value f at a taken pivot drops
    that entry and adds f times the tail, so the pivot cancels untouched.
    It ends empty, or with a new pivot, and its tail joins the basis.
    The size of the returned {pivot: tail} dict is the rank.  This is
    the column reduction of Edelsbrunner, Letscher & Zomorodian (2002)
    with the pivot at the lowest nonzero.
    """
    basis: dict[int, tuple] = {}
    for col in columns:
        while col:
            pivot = max(col)
            f = col.pop(pivot)
            tail = basis.get(pivot)
            if tail is None:
                m = p - pow(f, p - 2, p)  # -1/f
                basis[pivot] = tuple([(r, v * m % p) for r, v in col.items()])
                col[pivot] = f
                break
            for r, v in tail:
                nv = (col.get(r, 0) + f * v) % p
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
    return len(reduce_columns(m.p, (columns[c] for c in sorted(columns))))
