"""Slow, independent references that the tests hold the package to.

Nothing here ships: the package never imports this module, and the
command line never runs it.  It holds

- the paper's filtration identities on the level-t congruence kernel:
  the level of an element, its depth-i coefficient matrix rho, the Lie
  bracket and the group commutator, with the traceless matrices they
  produce;
- the elements of SL_n(F_q[t]) that only the tests build: the
  determinant-checked GroupElement, the elementary matrices I + E_ij(a),
  their identity, product and adjugate inverse, the constant
  polynomial, and the truncation of an element mod t^m that the
  oracle's generate_group takes;
- the polynomial routes that the constant-matrix code is checked
  against: conjugation by a constant flag,
  membership in a bounded unipotent group and the class vector read
  off its coefficients;
- the determinant over GF(p), which checks the flag representatives;
- the heap rank, a Markowitz elimination on the rows, which checks the
  column reduction of conghom.gf.sparse_rank;
- the row-list RREF and the inverse read off the RREF of [m | I], which
  check the Gauss-Jordan routine that conghom.gf.rref and inverse wrap;
- the coefficient-by-coefficient product and Neumann-series inverse of
  truncated matrices, and their byte form in the group tables, which
  check the oracle's packed arithmetic;
- the uncached lattice route to adjacency, which checks the oracle's
  cached adjacency_oracle;
- the depth-one witness Phi: C0 -> gl_n, whose kernel contains the
  image of the boundary and whose rank is n^2 - 1, which is why dim H0
  can never fall below n^2 - 1.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from array import array

from conghom.building import ComplexZ
from conghom.errors import InvariantError
from conghom.field import GF, _check_same_field
from conghom.gf import DenseMatrix, SparseMatrix, inverse as gf_inverse
from conghom.homology import BlockIndex
from conghom.oracle import Trunc, _typecode
from conghom.poly import Poly, PolyMatrix, column_hnf, lattice_contains, polymat_det
from conghom.wedge import BoundProfile, H1Basis, Vertex, is_standard_vertex


class GroupElement:
    """Member of SL_n(F_q[t]); determinant one is checked at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix) -> None:
        if polymat_det(matrix) != Poly.one(matrix.field):
            raise ValueError("matrix does not have determinant one")
        self.matrix = matrix

    @property
    def field(self) -> GF:
        return self.matrix.field

    @property
    def n(self) -> int:
        return self.matrix.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"GroupElement({self.matrix!r})"


def elementary(i: int, j: int, a: Poly, n: int) -> GroupElement:
    """The element I + E_ij(a), 1-based indices, i != j."""
    if i == j:
        raise ValueError("elementary matrices require distinct indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    field = a.field
    rows = [[Poly.one(field) if r == c else Poly.zero(field) for c in range(n)]
            for r in range(n)]
    rows[i - 1][j - 1] = a
    return GroupElement(PolyMatrix(field, rows))


def trunc_from_group_element(g: GroupElement, m: int) -> Trunc:
    """g mod t^m as the oracle's truncated matrix: row-major entries, m coefficients each."""
    n = g.n
    out = []
    for i in range(n):
        for j in range(n):
            cs = g.matrix.entries[i][j].coeffs
            out.append(tuple(cs[k] if k < len(cs) else 0 for k in range(m)))
    return tuple(out)


def add(x: DenseMatrix, y: DenseMatrix) -> DenseMatrix:
    _check_same_field(x.field, y.field)
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("shape mismatch")
    return DenseMatrix(x.field, x.rows, x.cols, [a + b for a, b in zip(x.entries, y.entries)])


def sub(x: DenseMatrix, y: DenseMatrix) -> DenseMatrix:
    _check_same_field(x.field, y.field)
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("shape mismatch")
    return DenseMatrix(x.field, x.rows, x.cols, [a - b for a, b in zip(x.entries, y.entries)])


def trace(m: DenseMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum(m.get(i, i) for i in range(m.rows)) % m.field.p


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


class TracelessMatrix(DenseMatrix):
    """Square GF(p) matrix with zero trace, checked at construction."""

    def __init__(self, field: GF, n: int, entries) -> None:
        super().__init__(field, n, n, entries)
        if trace(self) != 0:
            raise InvariantError("matrix has nonzero trace")


def bracket(x: DenseMatrix, y: DenseMatrix) -> TracelessMatrix:
    """Commutator bracket x*y - y*x."""
    d = sub(x @ y, y @ x)
    return TracelessMatrix(d.field, d.rows, d.entries)


def poly_const(field: GF, c: int) -> Poly:
    """The constant polynomial c."""
    return Poly(field, (c,))


def from_constant(m: DenseMatrix) -> PolyMatrix:
    """The square constant matrix m as a polynomial matrix."""
    if m.rows != m.cols:
        raise ValueError("only square constant matrices lift")
    return PolyMatrix(m.field, [[poly_const(m.field, m.get(i, j)) for j in range(m.rows)]
                                for i in range(m.rows)])


def polymat_adjugate(a: PolyMatrix) -> PolyMatrix:
    """Adjugate; for determinant-one matrices this is the exact inverse."""
    n = a.n
    field = a.field
    if n == 1:
        return PolyMatrix(field, [[Poly.one(field)]])
    out = [[Poly.zero(field)] * n for _ in range(n)]
    all_rows = tuple(range(n))
    for i in range(n):
        rows = all_rows[:i] + all_rows[i + 1:]
        for j in range(n):
            cols = all_rows[:j] + all_rows[j + 1:]
            sub_matrix = PolyMatrix(field, [[a.entries[r][c] for c in cols] for r in rows])
            m = polymat_det(sub_matrix)
            out[j][i] = m if (i + j) % 2 == 0 else -m
    return PolyMatrix(field, out)


def group_identity(field: GF, n: int) -> GroupElement:
    return GroupElement(PolyMatrix.identity(field, n))


def group_mul(*factors: GroupElement) -> GroupElement:
    """The product of the factors, left to right, determinant checked."""
    return GroupElement(functools.reduce(operator.matmul, (g.matrix for g in factors)))


def group_inverse(g: GroupElement) -> GroupElement:
    # determinant one, so the adjugate is the exact inverse
    return GroupElement(polymat_adjugate(g.matrix))


def conjugate_by(g: GroupElement, s: DenseMatrix) -> GroupElement:
    """s * g * s^-1 for a constant determinant-one matrix s."""
    return GroupElement(from_constant(s) @ g.matrix @ from_constant(gf_inverse(s)))


def level(g: GroupElement) -> float:
    """Largest i with g congruent to the identity mod t^i (inf for identity)."""
    one = Poly.one(g.field)
    best = math.inf
    for i in range(g.n):
        for j in range(g.n):
            e = g.matrix.entries[i][j]
            best = min(best, (e - one if i == j else e).valuation())
    return best


def rho(i: int, g: GroupElement) -> TracelessMatrix:
    """Depth-i coefficient matrix: the t^i coefficients of g - I.

    Requires level(g) >= i >= 1.  The result is traceless (forced by the
    determinant) and additive in g on elements of level >= i.
    """
    if i < 1:
        raise ValueError("depth must be at least 1")
    if level(g) < i:
        raise ValueError(f"element has level below {i}")
    n = g.n
    one = Poly.one(g.field)
    ent = []
    for r in range(n):
        for c in range(n):
            e = g.matrix.entries[r][c]
            ent.append((e - one if r == c else e).coefficient(i))
    return TracelessMatrix(g.field, n, ent)


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1 h^-1, computed exactly."""
    return group_mul(g, h, group_inverse(g), group_inverse(h))


def membership(profile: BoundProfile, u: GroupElement) -> bool:
    """Whether u lies in the bounded unipotent group of the profile."""
    n = profile.n
    if u.n != n:
        return False
    one = Poly.one(u.field)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = u.matrix.entries[i - 1][j - 1]
            if i == j:
                if e != one:
                    return False
            elif i > j:
                if not e.is_zero():
                    return False
            else:
                if e.is_zero():
                    continue
                if e.coefficient(0) != 0:
                    return False
                if e.degree > profile.b[(i, j)]:
                    return False
    return True


def class_vector(basis: H1Basis, u: GroupElement) -> tuple[int, ...]:
    """Coordinates of the class of u in slot order.

    Reads the coefficient of t^degree off entry (i, j) for each slot.
    Killed degrees carry no coordinate; the surviving criterion
    guarantees additivity on products.
    """
    if not membership(basis.profile, u):
        raise ValueError("element lies outside the stabilizer profile")
    return tuple(
        u.matrix.entries[s.i - 1][s.j - 1].coefficient(s.degree)
        for s in basis.slots
    )


def depth_one_witness(z: ComplexZ, index: BlockIndex) -> DenseMatrix:
    """Phi: C0 -> gl_n as an n^2 x dim C0 matrix, gl_n read row-major.

    Vertex slot (a, b, 1) of v maps to s_v E_ab s_v^-1, the outer
    product of column a of s_v and row b of s_v^-1; slots of degree
    two or more map to 0.  An edge slot of degree one goes to
    s_v W E_ij W^-1 s_v^-1 = s_e E_ij s_e^-1 at both endpoints, so
    Phi kills every boundary column, and the image is traceless, so
    its rank is at most n^2 - 1.
    """
    n = z.n
    cols = [(0,) * (n * n)] * index.dim_c0
    for key, off, basis in index.vertex_blocks:
        s = z.vertices[key].flag
        s_inv = gf_inverse(s)
        for k, slot in enumerate(basis.slots):
            if slot.degree == 1:
                cols[off + k] = tuple(x * y for x in s.col(slot.i - 1)
                                      for y in s_inv.row(slot.j - 1))
    return DenseMatrix(z.field, index.dim_c0, n * n, [v for c in cols for v in c]).transpose()


def witness_defects(phi: DenseMatrix, boundary: SparseMatrix) -> list[int]:
    """The boundary columns c with phi times column c nonzero, in order."""
    p = phi.field.p
    image: dict[int, list[int]] = {}
    for r, row in boundary.by_row.items():
        phi_r = phi.col(r)
        for c, v in row.items():
            acc = image.get(c, [0] * phi.rows)
            image[c] = [a + v * x for a, x in zip(acc, phi_r)]
    return sorted(c for c, acc in image.items() if any(a % p for a in acc))


def heap_rank(m: SparseMatrix) -> int:
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


def row_rref(m: DenseMatrix) -> tuple[int, DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form on a list of rows: (rank, reduced matrix, pivot columns).

    Every pivot row is scaled by the inverse of its pivot, and every
    column is scanned until the rank reaches the row count.  Checks
    conghom.gf.gauss_jordan, which rref wraps.
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


def augmented_inverse(m: DenseMatrix) -> DenseMatrix:
    """Inverse from row_rref of the whole augmented matrix [m | I]; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = DenseMatrix(
        m.field, n, 2 * n,
        [m.get(i, j) if j < n else (1 if j - n == i else 0)
         for i in range(n) for j in range(2 * n)],
    )
    rank, red, piv = row_rref(aug)
    if piv[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return DenseMatrix(m.field, n, n, [red.get(i, n + j) for i in range(n) for j in range(n)])


def serialize(a: Trunc, p: int) -> bytes:
    """The group tables' byte form of a, one array item per coefficient."""
    return array(_typecode(p), [c for entry in a for c in entry]).tobytes()


def trunc_identity(n: int, m: int) -> Trunc:
    one = (1,) + (0,) * (m - 1)
    zero = (0,) * m
    return tuple(one if i == j else zero for i in range(n) for j in range(n))


def trunc_mul(a: Trunc, b: Trunc, n: int, m: int, p: int) -> Trunc:
    """a*b mod (p, t^m), one coefficient product at a time."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = [0] * m
            for k in range(n):
                x = a[i * n + k]
                y = b[k * n + j]
                for d1 in range(m):
                    c1 = x[d1]
                    if c1:
                        for d2 in range(m - d1):
                            c2 = y[d2]
                            if c2:
                                acc[d1 + d2] = (acc[d1 + d2] + c1 * c2) % p
            out.append(tuple(acc))
    return tuple(out)


def trunc_sub_identity(a: Trunc, n: int, m: int, p: int) -> Trunc:
    out = []
    for i in range(n):
        for j in range(n):
            cs = list(a[i * n + j])
            if i == j:
                cs[0] = (cs[0] - 1) % p
            out.append(tuple(cs))
    return tuple(out)


def trunc_inverse(a: Trunc, n: int, m: int, p: int) -> Trunc:
    """Neumann series: a = I + N with N divisible by t, so N^m = 0 mod t^m."""
    nil = trunc_sub_identity(a, n, m, p)
    acc = trunc_identity(n, m)
    term = trunc_identity(n, m)
    sign = 1
    for _ in range(1, m):
        term = trunc_mul(term, nil, n, m, p)
        sign = -sign
        acc = tuple(
            tuple((x + sign * y) % p for x, y in zip(acc[e], term[e]))
            for e in range(n * n)
        )
    return acc


def adjacency_lattice(r: Vertex, rp: Vertex) -> bool:
    """Adjacency by lattice chains, every lattice, HNF and containment computed afresh.

    Two vertex classes are adjacent when some power-of-t scaling of one
    diagonal lattice sits properly between the other and t times it.
    Checks the cached conghom.oracle.adjacency_oracle.
    """
    if len(r) != len(rp):
        raise ValueError("vertices of different dimension")
    if not (is_standard_vertex(r) and is_standard_vertex(rp)):
        raise ValueError("not standard vertices")
    field = GF(2)  # containment of t-power diagonal lattices is field-independent
    exps_a = tuple(r) + (0,)
    exps_b = tuple(rp) + (0,)
    span = max(exps_a + exps_b) + 1
    for k in range(-span, span + 1):
        c = max(0, -k)
        if min(e + k + c for e in exps_b) < 0:
            continue
        a1 = PolyMatrix.diagonal_powers(field, [e + 1 + c for e in exps_a])   # t^{c+1} A
        mid = PolyMatrix.diagonal_powers(field, [e + k + c for e in exps_b])  # t^{c+k} B
        a0 = PolyMatrix.diagonal_powers(field, [e + c for e in exps_a])       # t^c A
        if not (lattice_contains(a0, mid) and lattice_contains(mid, a1)):
            continue
        if column_hnf(mid) == column_hnf(a0) or column_hnf(mid) == column_hnf(a1):
            continue
        return True
    return False
