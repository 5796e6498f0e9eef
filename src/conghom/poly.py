"""Polynomials over GF(p) as coefficient tuples, and canonical lattice labels.

A polynomial over GF(p) is the tuple of its coefficients in 0..p-1,
lowest degree first, with no trailing zeros, so () is zero; a matrix of
polynomials is a tuple of row tuples.  Every routine takes p, as those
of conghom.gf do, expects this canonical form and returns it, so equal
polynomials and matrices are equal tuples.

The ring F_q[t] is a Euclidean domain, so every nonsingular square
polynomial matrix has a column Hermite normal form: upper triangular,
monic pivots, off-pivot entries in each pivot row reduced below the
pivot degree.  det a is a unit times the product of the pivots, and t
is prime in F_q[t], so the columns of a span a lattice commensurable
with the standard one exactly when every pivot is a power of t.  Such
a lattice class is tagged by the scale-normalized HNF of any basis,
which is a complete invariant of the class.
"""

from __future__ import annotations

from typing import Sequence

Matrix = Sequence[Sequence[tuple[int, ...]]]   # rows of coefficient tuples


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _sub_mul(a: tuple[int, ...], c: tuple[int, ...], b: tuple[int, ...],
             p: int) -> tuple[int, ...]:
    """a - c*b."""
    if not c or not b:
        return a
    out = list(a) + [0] * (len(c) + len(b) - 1 - len(a))
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(b, i):
                out[j] -= x * y
    return _trim([v % p for v in out])


def poly_divmod(a: tuple[int, ...], b: tuple[int, ...],
                p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        f = rem[k + db] * inv_lead % p
        if f:
            q[k] = f
            for i, c in enumerate(b, k):
                rem[i] = (rem[i] - f * c) % p
    return _trim(q), _trim(rem[:db])


def column_hnf(a: Matrix, p: int) -> tuple:
    """Column Hermite normal form over F_q[t].

    Returns a * U for a unimodular U: upper triangular, monic diagonal,
    and every off-diagonal entry in a pivot row of degree strictly below
    the pivot degree of its column.  Unique for the column span, so two
    matrices have equal HNF exactly when their columns generate the same
    F_q[t]-lattice.  Raises on non-square or singular input.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    cols = [list(col) for col in zip(*a)]

    for i in range(n - 1, -1, -1):
        while True:
            nz = [j for j in range(i + 1) if cols[j][i]]
            if not nz:
                raise ValueError("singular matrix has no Hermite normal form")
            if len(nz) == 1:
                j0 = nz[0]
                break
            j0 = min(nz, key=lambda j: (len(cols[j][i]), j))
            for j in nz:
                if j == j0:
                    continue
                q, _ = poly_divmod(cols[j][i], cols[j0][i], p)
                cols[j] = [_sub_mul(cj, q, c0, p) for cj, c0 in zip(cols[j], cols[j0])]
        cols[i], cols[j0] = cols[j0], cols[i]

    for i in range(n):
        lead = cols[i][i][-1]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            cols[i] = [tuple(inv * c % p for c in e) for e in cols[i]]

    # Reduce pivot-row entries; descending order keeps finished rows intact.
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if len(cols[j][i]) >= len(cols[i][i]):
                q, _ = poly_divmod(cols[j][i], cols[i][i], p)
                cols[j] = [_sub_mul(cj, q, ci, p) for cj, ci in zip(cols[j], cols[i])]

    return tuple(zip(*cols))


def lattice_label(a: Matrix, p: int) -> tuple:
    """Canonical label of the lattice spanned by the columns of `a`.

    The columns must span a lattice commensurable with the standard one,
    i.e. det(a) = unit * t^k, which holds exactly when every pivot of the
    column HNF is a power of t.  The HNF is scaled by the unique global
    power of t putting the lattice inside the standard lattice but not
    inside t times it; its rows are the label.
    """
    h = column_hnf(a, p)
    if any(any(h[i][i][:-1]) for i in range(len(h))):
        raise ValueError("columns do not span a lattice commensurable with the standard one")
    v = min(next(k for k, c in enumerate(e) if c) for row in h for e in row if e)
    return tuple(tuple(e[v:] for e in row) for row in h)


def label_hex(label: Matrix, p: int) -> str:
    """Compact hex name of a label: per entry a length byte then its coefficients.

    Each coefficient takes the fewest big-endian bytes that hold p - 1,
    so one byte for every p <= 256.
    """
    width = max(1, ((p - 1).bit_length() + 7) // 8)
    out = bytearray()
    for row in label:
        for e in row:
            out.append(len(e))
            for c in e:
                out += c.to_bytes(width, "big")
    return out.hex()


def lattice_contains(outer: Matrix, inner: Matrix, p: int) -> bool:
    """Whether the column span of `inner` sits inside that of `outer`.

    Both arguments are nonsingular bases; the outer one is brought to
    HNF unless it is upper triangular, and each inner column is tested
    by back-substitution with exact divisibility at every pivot.
    """
    n = len(outer)
    if any(len(row) != len(m) for m in (outer, inner) for row in m):
        raise ValueError("matrix must be square")
    if len(inner) != n:
        raise ValueError("dimension mismatch")
    h = outer
    if any(h[i][j] for i in range(n) for j in range(i)):
        h = column_hnf(h, p)
    for j in range(n):
        col = [row[j] for row in inner]
        for i in range(n - 1, -1, -1):
            q, r = poly_divmod(col[i], h[i][i], p)
            if r:
                return False
            if q:
                for i2 in range(i):
                    col[i2] = _sub_mul(col[i2], q, h[i2][i], p)
    return True
